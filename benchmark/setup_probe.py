"""Time one set-up of a workload in a fresh interpreter.

    python3 benchmark/setup_probe.py SRC_DIR '[{generate_instance kwargs}, ...]'

Set-up is everything before the first iteration: `import trisplit` (numpy
and scipy with it), `generate_instance` per listed instance, `build_problem`
and `plan` at its default relaxation. Prints one JSON object of phase times.
Only the standard library is imported before the clock starts.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import trisplit  # noqa: E402

t1 = time.perf_counter()
specs = json.loads(sys.argv[2])
instances = [trisplit.generate_instance(**kw) for kw in specs]
t2 = time.perf_counter()
problems = [trisplit.build_problem(inst) for inst in instances]
t3 = time.perf_counter()
for p in problems:
    trisplit.plan(p.f1.lipschitz, p.f2.lipschitz)
t4 = time.perf_counter()
phases = {"setup_s": t4 - t0, "import_s": t1 - t0}
phases.update(generate_ms=(t2 - t1) * 1e3, build_ms=(t3 - t2) * 1e3, plan_ms=(t4 - t3) * 1e3)
print(json.dumps(phases))
