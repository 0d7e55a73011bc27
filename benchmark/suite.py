"""Workloads, output checks, metrics and report of the trisplit benchmark.

See run.py for the workloads and how to run them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from trisplit import (
    AdaptiveController,
    DysParams,
    RelaxationParams,
    StoppingRule,
    build_problem,
    default_gamma_dys,
    generate_instance,
    plan,
    run_benchmark,
    run_dys,
    run_experiment,
    run_ryu,
)

from tracing import Tracer

HERE = Path(__file__).resolve().parent

WORKLOADS = ("solve-n100", "iter-n300", "batch-n100")
ALGOS = ("ryu", "ryu+", "dys")
PROTOCOL = {"r": 10, "lam1": 10.0, "lam2": 5.0, "tau": 100.0}
LAM, ALPHA = 1.0, 0.99  # the relaxation run_experiment uses
SOLVE_SEEDS = range(5)
SOLVE_BUDGET = 120
ITER_BUDGET = 34
BATCH_SEEDS = 4
BATCH_BUDGET = 40
SETUP_PROBES = 9
OBJECTIVE_RTOL = 1e-3
PHASE_SUM_RTOL = 0.05


def metric_key(algo: str) -> str:
    """Metric names allow no '+': ryu+ is reported as ryu_plus."""
    return algo.replace("+", "_plus")


def stop_rule(budget: int | None) -> StoppingRule:
    return StoppingRule() if budget is None else StoppingRule(max_iter=budget)


@dataclass
class Workload:
    """Inputs (generate_instance arguments) and the runs made on them.

    A run is (input index, algorithm, fixed iteration budget or None to run
    to tolerance). Batch workloads make their runs through one run_benchmark
    call, in run_benchmark's task order.
    """

    name: str
    specs: list[dict]
    runs: list[tuple[int, str, int | None]]
    batch_seeds: list[int] | None = None

    @property
    def exact_budget(self) -> bool:
        return self.batch_seeds is None


def make_workload(name: str, seed: int) -> Workload:
    def spec(n, s, inst_seed):
        return {"m": n, "n": n, "s": s, "seed": inst_seed, **PROTOCOL}

    # Fixed-budget runs alternate between algorithms, so that each algorithm's
    # per-run samples see the same drift in machine speed.
    if name == "solve-n100":
        specs = [spec(100, 1000, k) for k in SOLVE_SEEDS] + [spec(100, 1000, seed)]
        fixed = len(specs) - 1
        runs = []
        for k in range(fixed):
            runs += [(k, "ryu+", None), (fixed, "ryu", SOLVE_BUDGET), (fixed, "dys", SOLVE_BUDGET)]
        return Workload(name, specs, runs)
    if name == "iter-n300":
        return Workload(name, [spec(300, 10000, seed)], [(0, algo, ITER_BUDGET) for algo in ALGOS])
    seeds = [BATCH_SEEDS * seed + i for i in range(BATCH_SEEDS)]
    runs = [(i, algo, BATCH_BUDGET) for i in range(len(seeds)) for algo in ALGOS]
    return Workload(name, [spec(100, 1000, s) for s in seeds], runs, batch_seeds=seeds)


@dataclass
class Outcome:
    """One run: its report (None if it raised), benchmark-timed wall seconds, failed checks."""

    run: tuple[int, str, int | None]
    report: object | None
    wall_s: float | None
    problems: list[str] = field(default_factory=list)


def solo_pass(wl: Workload, instances) -> tuple[float, list[Outcome]]:
    outcomes = []
    t_pass = time.perf_counter()
    for run in wl.runs:
        idx, algo, budget = run
        t0 = time.perf_counter()
        try:
            report = run_experiment(instances[idx], algo, stop=stop_rule(budget))
        except Exception:  # a raising run is a failed run; the others still run
            traceback.print_exc()
            report = None
        outcomes.append(Outcome(run, report, time.perf_counter() - t0))
    return time.perf_counter() - t_pass, outcomes


def batch_pass(wl: Workload, jobs: int) -> tuple[float, list[Outcome]]:
    t0 = time.perf_counter()
    try:
        reports = run_benchmark(
            sizes=[(wl.specs[0]["n"], wl.specs[0]["s"])],
            seeds=wl.batch_seeds,
            algos=ALGOS,
            jobs=jobs,
            stop=StoppingRule(max_iter=BATCH_BUDGET),
            **PROTOCOL,
        )
    except Exception:  # every task of a raising batch counts as failed
        traceback.print_exc()
        reports = []
    wall = time.perf_counter() - t0
    outcomes = [Outcome(run, reports[i] if i < len(reports) else None, None) for i, run in enumerate(wl.runs)]
    if len(reports) != len(wl.runs):
        outcomes[0].problems.append(f"{len(reports)} reports for {len(wl.runs)} tasks")
    return wall, outcomes


def check(o: Outcome, wl: Workload, reference: dict) -> None:
    """Append to o.problems every output check the run fails."""
    rep = o.report
    idx, algo, budget = o.run
    spec = wl.specs[idx]
    if rep is None:
        o.problems.append("raised or returned no report")
        return
    if (rep.algo, rep.n, rep.s, rep.seed) != (algo, spec["n"], spec["s"], spec["seed"]):
        o.problems.append(f"report is for {(rep.algo, rep.n, rep.s, rep.seed)}")
    if rep.diverged:
        o.problems.append("diverged")
    values = [rep.objective, rep.residual, *(v for r in rep.trace for v in (r.objective, r.residual))]
    if not all(math.isfinite(v) for v in values):
        o.problems.append("non-finite objective or residual")
    if budget is not None and wl.exact_budget and rep.iterations != budget:
        o.problems.append(f"ran {rep.iterations} iterations of a fixed budget of {budget}")
    if budget is None:
        ref = reference[algo][str(spec["seed"])]
        if not (rep.converged and rep.residual < StoppingRule().tol):
            o.problems.append(f"did not converge: residual {rep.residual:.3e}")
        if not abs(rep.objective - ref) <= OBJECTIVE_RTOL * abs(ref):
            o.problems.append(f"objective {rep.objective!r} is not within {OBJECTIVE_RTOL} of {ref!r}")


def _bits(v):
    return v.hex() if isinstance(v, float) else v


def report_bits(rep) -> tuple:
    """Every field of a report and its trace except the timings, floats as exact hex."""
    head = tuple(_bits(getattr(rep, f.name)) for f in fields(rep) if f.name not in ("time_ms", "trace"))
    trace = tuple(tuple(_bits(getattr(r, f.name)) for f in fields(r) if f.name != "time_ms") for r in rep.trace)
    return head, trace


def count_cuts(gammas) -> int:
    return sum(a != b for a, b in zip(gammas, gammas[1:]))


def traced_pass(wl: Workload, instances, tracer: Tracer) -> tuple[float, dict, list[tuple]]:
    """Rerun the workload's runs solo on traced problems, with run_experiment's stepsizes.

    Returns the pass wall time, the benchmark-side phase times, and per run
    (algorithm, iterations, final objective, trace, stepsize cuts), or None
    for a run that raised.
    """
    phases = defaultdict(float)
    results = []
    t_pass = time.perf_counter()
    for idx, algo, budget in wl.runs:
        tracer.algo = algo
        t0 = time.perf_counter()
        if wl.batch_seeds is not None:  # run_benchmark generates its instances inside the timed call
            inst = generate_instance(**wl.specs[idx])
            phases["generate"] += time.perf_counter() - t0
            t0 = time.perf_counter()
        else:
            inst = instances[idx]
        p = tracer.wrap(build_problem(inst))
        phases["build"] += time.perf_counter() - t0
        L1, L2 = p.f1.lipschitz, p.f2.lipschitz
        gamma_dys = default_gamma_dys(L1, L2)
        controller = None
        if algo != "dys":
            t0 = time.perf_counter()
            sp = plan(L1, L2, LAM, ALPHA)
            phases["plan"] += time.perf_counter() - t0
            if algo == "ryu+":
                controller = AdaptiveController(gamma_ryu=sp.gamma_ryu, gamma_current=10.0 * gamma_dys)
            gamma = controller.gamma_current if controller else sp.gamma_ryu
        t0 = time.perf_counter()
        try:
            if algo == "dys":
                _, trace = run_dys(p, DysParams(gamma=gamma_dys, lam=LAM), stop=stop_rule(budget))
            else:
                params = RelaxationParams(gamma=gamma, lam=LAM, alpha=ALPHA)
                _, trace = run_ryu(p, params, stop=stop_rule(budget), controller=controller)
        except Exception:  # compared against the untraced run below, which fails it
            traceback.print_exc()
            trace = None
        tracer.busy[algo, "run"] += time.perf_counter() - t0
        if trace:
            cuts = count_cuts([gamma, *(r.gamma for r in trace), controller.gamma_current]) if controller else 0
            results.append((algo, trace[-1].k, trace[-1].objective, trace, cuts))
        else:
            results.append(None)
    return time.perf_counter() - t_pass, phases, results


def input_digest(inst) -> tuple[str, str]:
    return (
        hashlib.sha256(inst.target.data.tobytes()).hexdigest(),
        hashlib.sha256(np.ascontiguousarray(inst.mask).tobytes()).hexdigest(),
    )


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def probe_setup(src: Path, wl: Workload) -> list[dict]:
    """Set the workload up SETUP_PROBES times, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src), json.dumps(wl.specs)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


class Metrics:
    """Samples per metric; a metric's value is the median of its samples."""

    def __init__(self):
        self.samples = {}

    def add(self, name: str, unit: str, samples, what: str = "") -> None:
        self.samples[name] = (unit, [float(v) for v in samples], what)

    def value(self, name: str) -> float:
        return statistics.median(self.samples[name][1])

    def json(self, names) -> dict:
        """Metric values for the result line; a metric without a finite value (failed runs) is null."""
        values = {n: self.value(n) for n in names}
        return {n: {"value": v if math.isfinite(v) else None, "unit": self.samples[n][0]} for n, v in values.items()}

    def print(self, names) -> None:
        for n in names:
            unit, xs, what = self.samples[n]
            label, tail = tail_percentile(xs)
            med = statistics.median(xs)
            print(f"metric {n:<40} median {med:<12.6g} {label} {tail:<12.6g} n={len(xs):<6} {unit:<6} {what}")


def tail_percentile(xs) -> tuple[str, float]:
    """The highest of p99.9, p99, p90 with at least ten samples beyond it, else the maximum."""
    for p in (99.9, 99.0, 90.0):
        if len(xs) * (100.0 - p) / 100.0 >= 10:
            return f"p{p:g}", float(np.percentile(xs, p))
    return "max", max(xs)


END_TO_END = ("wall_s", "iter_ms.ryu", "iter_ms.ryu_plus", "iter_ms.dys", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "proxlib.spectral_prox.ms_per_call",
    "proxlib.spectral_prox.share",
    "proxlib.spectral_prox.calls_per_iter",
    "proxlib.spectral_prox.kept_frac.ryu",
    "proxlib.spectral_prox.kept_frac.ryu_plus",
    "proxlib.spectral_prox.kept_frac.dys",
    "splitting.residual.ms_per_call",
    "splitting.residual.share",
    "proxlib.smooth.ms_per_iter",
    "proxlib.smooth.calls_per_iter.ryu",
    "proxlib.smooth.calls_per_iter.ryu_plus",
    "proxlib.smooth.calls_per_iter.dys",
    "splitting.driver.self_ms_per_iter",
    "splitting.driver.share",
    "splitting.iterations.ryu",
    "splitting.iterations.ryu_plus",
    "splitting.iterations.dys",
    "splitting.envelope.evals",
    "stepsize.cuts",
    "stepsize.plan_ms",
    "bench.generate_ms",
    "bench.import_s",
    "bench.batch.busy_s",
    "bench.batch.concurrency",
    "bench.batch.iter_ms",
    "bench.solo.iter_ms",
    "tracing_overhead",
)


def program_iter_ms(outcomes, algo) -> float:
    reps = [o.report for o in outcomes if o.run[1] == algo and not o.problems]
    return sum(r.time_ms for r in reps) / sum(r.iterations for r in reps) if reps else math.nan


def end_to_end_metrics(m: Metrics, wl: Workload, passes, probes, jobs: int) -> None:
    if wl.name == "solve-n100":
        solve = [sum(o.wall_s for o in outs if o.run[2] is None) for _, outs in passes]
        m.add("wall_s", "s", solve, "= solve_s")
        m.add("solve_s", "s", solve, "the ryu+ solves to tolerance, summed")
    elif wl.batch_seeds is not None:
        m.add("wall_s", "s", [w for w, _ in passes], "= batch_s")
        m.add("batch_s", "s", [w for w, _ in passes], "one run_benchmark call")
    else:
        m.add("wall_s", "s", [w for w, _ in passes], "the fixed-budget runs, summed")
    for algo in ALGOS:
        if wl.batch_seeds is None:
            per_run = [
                o.wall_s * 1e3 / o.report.iterations
                for _, outs in passes
                for o in outs
                if o.run[1] == algo and not o.problems
            ]
            m.add(f"iter_ms.{metric_key(algo)}", "ms", per_run or [math.nan], "per run: run wall / iterations")
        else:
            # Which tasks share the CPUs changes from batch to batch and moves one
            # batch's per-algorithm cost by about 15%, so it is pooled over all batches.
            pooled = program_iter_ms([o for _, outs in passes for o in outs], algo)
            what = f"RunReport.time_ms / iterations over all batches, jobs={jobs}"
            m.add(f"iter_ms.{metric_key(algo)}", "ms", [pooled], what)
        loop = [d for _, outs in passes for o in outs if o.run[1] == algo and o.report for d in loop_deltas(o.report)]
        m.add(f"loop_ms.{metric_key(algo)}", "ms", loop or [math.nan], "one loop iteration, program clock")
    m.add("setup_s", "s", [p["setup_s"] for p in probes], "import + generate + build_problem + plan, fresh interpreter")
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    m.add("peak_rss_mb", "MB", [max(self_kb, child_kb) / 1024.0], "largest of this process and its children")


def loop_deltas(rep) -> list[float]:
    times = [0.0] + [r.time_ms for r in rep.trace]
    return [b - a for a, b in zip(times, times[1:])]


def per_layer_metrics(m, wl, passes, probes, solo_ref, traced, tracer) -> None:
    wall, phases, results = traced
    done = [r for r in results if r is not None]
    iters = {a: sum(r[1] for r in done if r[0] == a) for a in ALGOS}
    total_iters = max(sum(iters.values()), 1)
    run = tracer.total("run")
    spectral, residual, smooth = tracer.total("spectral"), tracer.total("residual"), tracer.total("smooth")
    driver = run - spectral - residual - smooth - tracer.total("f3_value") - tracer.total("sampling")

    def per(x, n):
        return x / n if n else math.nan

    m.add("proxlib.spectral_prox.ms_per_call", "ms", [per(spectral * 1e3, tracer.count("spectral"))])
    m.add("proxlib.spectral_prox.share", "ratio", [per(spectral, run)], "of solver run time")
    m.add("proxlib.spectral_prox.calls_per_iter", "count", [per(tracer.count("spectral"), total_iters)])
    m.add("splitting.residual.ms_per_call", "ms", [per(residual * 1e3, tracer.count("residual"))])
    m.add("splitting.residual.share", "ratio", [per(residual, run)], "of solver run time")
    m.add("proxlib.smooth.ms_per_iter", "ms", [smooth * 1e3 / total_iters])
    m.add("splitting.driver.self_ms_per_iter", "ms", [driver * 1e3 / total_iters], "run wall minus traced calls")
    m.add("splitting.driver.share", "ratio", [per(driver, run)], "of solver run time")
    for a in ALGOS:
        k = metric_key(a)
        m.add(f"proxlib.spectral_prox.kept_frac.{k}", "ratio", [per(tracer.kept[a], tracer.sampled[a])], "sampled")
        m.add(f"proxlib.smooth.calls_per_iter.{k}", "count", [per(tracer.count("smooth", a), iters[a])])
        m.add(f"splitting.iterations.{k}", "count", [iters[a]])
    m.add("splitting.envelope.evals", "count", [sum(r.envelope is not None for res in done for r in res[3])])
    m.add("stepsize.cuts", "count", [sum(r[4] for r in done)])
    n_inputs = len(wl.specs)
    m.add("stepsize.plan_ms", "ms", [p["plan_ms"] / n_inputs for p in probes], "per plan call")
    m.add("bench.generate_ms", "ms", [p["generate_ms"] / n_inputs for p in probes], "per instance")
    m.add("bench.import_s", "s", [p["import_s"] for p in probes], "import trisplit, fresh interpreter")
    busy = [sum(o.report.time_ms for o in outs if o.report) / 1e3 for _, outs in passes]
    iterations = [sum(o.report.iterations for o in outs if o.report) for _, outs in passes]
    m.add("bench.batch.busy_s", "s", busy, "sum of RunReport.time_ms")
    m.add("bench.batch.concurrency", "ratio", [b / w for b, (w, _) in zip(busy, passes)], "busy / pass wall")
    m.add("bench.batch.iter_ms", "ms", [b * 1e3 / max(i, 1) for b, i in zip(busy, iterations)])
    solo_wall, solo_outs = solo_ref
    solo_busy = sum(o.report.time_ms for o in solo_outs if o.report)
    solo_iters = sum(o.report.iterations for o in solo_outs if o.report)
    m.add("bench.solo.iter_ms", "ms", [solo_busy / max(solo_iters, 1)], "same runs, one at a time")
    m.add("tracing_overhead", "s", [wall - solo_wall], "traced pass wall minus untraced solo pass wall")


def compare_traced(traced, solo_outs) -> list[Outcome]:
    """The traced runs must repeat the untraced ones bitwise: iterations and final objective."""
    checked = []
    for res, o in zip(traced[2], solo_outs):
        t = Outcome(o.run, None, None)
        if res is None:
            t.problems.append("traced run raised")
        elif o.report is None or (res[1], res[2].hex()) != (o.report.iterations, o.report.objective.hex()):
            t.problems.append("traced run differs from the untraced run")
        checked.append(t)
    return checked


def phase_sum_problem(traced, tracer) -> str | None:
    """Phases (benchmark spans plus solver runs) must cover the traced wall time within 5%."""
    wall, phases, _ = traced
    covered = sum(phases.values()) + tracer.total("run")
    print(f"phases traced wall {wall:.6f} s; covered {covered:.6f} s: "
          + ", ".join(f"{k} {v:.4f}" for k, v in sorted(phases.items()))
          + "".join(f", {s} {tracer.total(s):.4f}" for s in ("spectral", "residual", "smooth", "f3_value", "sampling")))
    if abs(wall - covered) > PHASE_SUM_RTOL * wall:
        return f"traced phases cover {covered:.4f} s of {wall:.4f} s"
    return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description="trisplit benchmark (see benchmark/run.py)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def main(argv, src: Path) -> int:
    args = parse_args(argv)
    wl = make_workload(args.workload, args.seed)
    jobs = len(os.sched_getaffinity(0))
    print(f"# trisplit benchmark: workload {wl.name}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    reference = json.loads((HERE / "reference.json").read_text())

    probes = probe_setup(src, wl)
    instances = [generate_instance(**spec) for spec in wl.specs]
    for spec, inst in zip(wl.specs, instances):
        target, mask = input_digest(inst)
        print(f"input n={spec['n']} s={spec['s']} seed={spec['seed']} target sha256 {target} mask sha256 {mask}")
    run_experiment(instances[0], "ryu", stop=StoppingRule(max_iter=5))  # warm-up, untimed

    def one_pass():
        return batch_pass(wl, jobs) if wl.batch_seeds is not None else solo_pass(wl, instances)

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(one_pass())
    checked = [o for _, outs in passes for o in outs]

    if wl.batch_seeds is not None:
        # results must not depend on jobs: the jobs=1 batch is the reference
        solo_ref = batch_pass(wl, 1)
        want = [report_bits(o.report) if o.report else None for o in solo_ref[1]]
        for _, outs in passes:
            for o, w in zip(outs, want):
                if o.report is None or report_bits(o.report) != w:
                    o.problems.append(f"differs from the jobs=1 run (jobs={jobs})")
        checked += solo_ref[1]
    else:
        solo_ref = passes[0]
    for o in checked:
        check(o, wl, reference)

    problems = []
    m = Metrics()
    end_to_end_metrics(m, wl, passes, probes, jobs)
    names = END_TO_END
    if args.trace:
        tracer = Tracer()
        traced = traced_pass(wl, instances, tracer)
        checked += compare_traced(traced, solo_ref[1])
        problem = phase_sum_problem(traced, tracer)
        if problem:
            problems.append(problem)
        per_layer_metrics(m, wl, passes, probes, solo_ref, traced, tracer)
        names = PER_LAYER

    failed = [o for o in checked if o.problems]
    for o in failed:
        print(f"check FAILED {wl.specs[o.run[0]]['seed']} {o.run[1]}: {'; '.join(o.problems)}")
    for p in problems:
        print(f"check FAILED {p}")
    m.add("failed_frac", "ratio", [len(failed) / len(checked)], f"{len(failed)} of {len(checked)} runs failed a check")
    print(f"passes {len(passes)} timed, {sum(w for w, _ in passes):.3f} s; jobs {jobs}")
    m.print(list(m.samples))
    result = {
        "correct": not failed and not problems,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": m.json(names),
    }
    print(json.dumps(result))
    return 0
