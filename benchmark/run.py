#!/usr/bin/env python3
"""trisplit benchmark: time to solution, per-iteration cost and batch throughput.

Run from the root of a checkout, one workload per invocation:

    for w in solve-n100 iter-n300 batch-n100; do
        python3 benchmark/run.py --workload $w --seed 0 --seconds 20 --trace 0
    done

It imports trisplit from the checkout's src/ and calls only its public API.
Every workload runs the benchmark protocol problem (r=10, lam1=10, lam2=5,
tau=100, StoppingRule() defaults) with one caller in a closed loop:

solve-n100  n=100, s=1000. ryu+ runs to the protocol tolerance on the
            protocol instances, seeds 0-4; after each solve, ryu and dys run
            a fixed 120 iterations on instance --seed. Time to a solution at
            the protocol size, where driver bookkeeping, the smooth terms, the
            envelope and the adaptive controller do the most work.
iter-n300   n=300, s=10000, instance --seed. Each algorithm runs a fixed
            34 iterations per pass, far from convergence. SVD-bound with the
            envelope off (dim 9e4 > 1e4): a cheaper spectral prox shows here,
            a leaner driver should not.
batch-n100  run_benchmark calls over n=100, s=1000, seeds 4*--seed to
            4*--seed+3, all algorithms, 40 iterations each, jobs = usable
            CPUs. The iteration code of solve-n100, run concurrently through
            bench scheduling. The same batch at jobs=1, run once untimed, is
            the reference every batch's reports must equal bitwise.

The ryu+ solve set of solve-n100 does not follow --seed. Iterations to
tolerance range from 360 to 990 between those instances, so a seed-dependent
set would time the instance, not the program; and each solve's objective is
checked against the value recorded in reference.json.

Timed passes repeat until --seconds have passed. Set-up is timed in fresh
interpreters (setup_probe.py). With --trace 1 a traced pass follows
(tracing.py), and the JSON result carries the per-layer metrics instead of
the end-to-end ones. The last stdout line is that JSON result. The lines
before it are the report: environment, input digests, every metric with its
unit, median, tail percentile and sample count, and the output checks.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "trisplit" / "__init__.py").is_file():
        sys.exit(f"run.py: no trisplit sources under {SRC}; run it from the root of a checkout")
    sys.path.insert(0, str(SRC))
    from suite import main

    sys.exit(main(sys.argv[1:], SRC))
