"""Nonnegative low-rank matrix completion benchmark.

Instances: M = A B with A in R^{m x r}, B in R^{r x n} i.i.d. standard
Gaussian (PCG64 generator, ziggurat normals — frozen for reproducibility),
and an observation mask of s entries drawn uniformly without replacement.

Objective: (lam1/2) ||min(X,0)||_F^2 + (1/2) ||P(X - M)||_F^2
           + lam2 * sum_i mcp(sigma_i(X); tau).
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass, fields
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .baselines import DysParams, _check_gamma, run_dys
from .core import CompositeProblem, DivergenceError, InputError, RealVector
from .core import _validate_alpha, _validate_count
from .proxlib import MaskedQuadraticTerm, NonnegDistanceTerm, SpectralMCPTerm, _validate_penalty
from .splitting import (
    IterRecord,
    RelaxationParams,
    StoppingRule,
    _objective,
    composite_residual,
    run_ryu,
)
from .stepsize import AdaptiveController, plan

__all__ = [
    "ALGOS",
    "DEFAULT_SIZES",
    "CompletionInstance",
    "RunReport",
    "SummaryRow",
    "generate_instance",
    "build_problem",
    "default_gamma_dys",
    "run_experiment",
    "summarize",
    "format_summary",
    "write_summary_csv",
    "trace_filename",
    "run_benchmark",
]

ALGOS = ("ryu", "ryu+", "dys")
# The protocol size, the one that the acceptance criteria verify. (300, 10000)
# runs only when named: it costs 13 times the protocol's task time (README).
DEFAULT_SIZES = ((100, 1000),)


@dataclass(frozen=True, eq=False)
class CompletionInstance:
    """One synthetic completion problem; deterministic per seed."""

    m: int
    n: int
    r: int
    s: int
    seed: int
    lam1: float
    lam2: float
    tau: float
    target: RealVector
    mask: np.ndarray


def generate_instance(
    m: int,
    n: int,
    r: int,
    s: int,
    seed: int,
    lam1: float = 10.0,
    lam2: float = 5.0,
    tau: float = 100.0,
) -> CompletionInstance:
    """Rank-r Gaussian product target plus a uniform observation mask."""
    _validate_count(seed, "seed", least=0)
    for name, size in (("m", m), ("n", n), ("r", r), ("s", s)):
        _validate_count(size, name)
    _validate_penalty(lam1, name="lam1")
    _validate_penalty(lam2, tau, name="lam2")
    if not r <= min(m, n):
        raise InputError(f"need 1 <= r <= min(m, n), got r={r}, m={m}, n={n}")
    if not s <= m * n:
        raise InputError(f"need 1 <= s <= m*n, got s={s} for {m}x{n}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, r))
    b = rng.standard_normal((r, n))
    target = RealVector(a @ b, (m, n))
    flat = rng.choice(m * n, size=s, replace=False)
    mask = np.zeros(m * n, dtype=bool)
    mask[flat] = True
    mask = mask.reshape(m, n)
    mask.setflags(write=False)
    return CompletionInstance(
        m=m, n=n, r=r, s=s, seed=seed, lam1=lam1, lam2=lam2, tau=tau, target=target, mask=mask
    )


def build_problem(inst: CompletionInstance) -> CompositeProblem:
    return CompositeProblem(
        f1=NonnegDistanceTerm(inst.lam1),
        f2=MaskedQuadraticTerm(target=inst.target, mask=inst.mask),
        f3=SpectralMCPTerm(weight=inst.lam2, tau=inst.tau),
        shape=(inst.m, inst.n),
    )


def default_gamma_dys(L1: float, L2: float) -> float:
    """Baseline stepsize 0.99/(L1+L2): the external prescription is not
    reproducible here, so a conservative same-scale value is used instead."""
    return 0.99 / (L1 + L2)


@dataclass(frozen=True)
class RunReport:
    """Outcome of one (instance, algorithm) run, including the full trace."""

    algo: str
    m: int
    n: int
    s: int
    seed: int
    gamma: float
    iterations: int
    time_ms: float
    objective: float
    residual: float
    converged: bool
    capped: bool
    diverged: bool
    envelope_monotone: bool | None
    trace: tuple[IterRecord, ...]


def _envelope_monotone(trace: Sequence[IterRecord]) -> bool | None:
    """Whether no recorded envelope rises above the one recorded before it at
    the same stepsize, to 1e-10 relative; None where no such pair exists.

    The envelope is a different function at each stepsize, and the paper's
    descent holds at a fixed one, so a pair across a stepsize cut compares
    nothing."""
    recorded = [(r.gamma, r.envelope) for r in trace if r.envelope is not None]
    pairs = [(a, b) for (ga, a), (gb, b) in zip(recorded, recorded[1:]) if ga == gb]
    if not pairs:
        return None
    return all(b <= a + 1e-10 * (1.0 + abs(a)) for a, b in pairs)


def _set_up(inst, algo, lam=1.0, alpha=0.99, gamma=None, stop=None):
    """`run_experiment`'s input checks and stepsize choice, without running or
    warning, so that `run_benchmark` can make them for every task before any
    worker starts. Returns the problem, the stopping rule, the solver's
    parameters, the solver call and the stepsize-cap warning (or None)."""
    if algo not in ALGOS:
        raise InputError(f"algo must be one of {ALGOS}, got {algo!r}")
    _validate_alpha(alpha)  # "dys" does not use alpha, but still rejects a bad one
    p = build_problem(inst)
    stop = stop or StoppingRule()
    L1, L2 = p.f1.lipschitz, p.f2.lipschitz
    gdys = default_gamma_dys(L1, L2)
    if algo == "dys":
        params = DysParams(gamma=gamma if gamma is not None else gdys, lam=lam)
        _check_gamma(p, params)
        return p, stop, params, lambda: run_dys(p, params, stop=stop), None
    sp = plan(L1, L2, lam, alpha)
    controller = None
    if algo == "ryu+":  # the controller clamps its start up to its floor: that is the run's gamma
        controller = AdaptiveController(sp.gamma_ryu, gamma if gamma is not None else 10.0 * gdys)
        gamma = controller.gamma_current
    params = RelaxationParams(gamma=gamma if gamma is not None else sp.gamma_ryu, lam=lam, alpha=alpha)
    # every plan puts 0.99 gamma_ryu, the controller's floor, below thm2_cap (see
    # StepsizePlan), so only a run without a controller can stay above it
    warning = None if controller or params.gamma <= sp.thm2_cap else (
        f"stepsize {params.gamma:.6g} exceeds min(alpha/L1, (1-alpha)/L2) = {sp.thm2_cap:.6g}; "
        "that is above the planner's certified range too, so neither the "
        "envelope-descent nor the subsequential-convergence guarantee applies"
    )
    return p, stop, params, lambda: run_ryu(p, params, stop=stop, controller=controller), warning


def run_experiment(
    inst: CompletionInstance,
    algo: str,
    lam: float = 1.0,
    alpha: float = 0.99,
    gamma: float | None = None,
    stop: StoppingRule | None = None,
) -> RunReport:
    """Run one algorithm on one instance under the benchmark protocol.

    Stepsizes: "ryu" uses the planner's gamma_ryu, "ryu+" starts the adaptive
    controller at 10x the baseline stepsize and shrinks toward gamma_ryu,
    "dys" uses the baseline stepsize. `gamma` overrides the operative
    stepsize (the starting one for "ryu+"). Divergence is recorded in the
    report rather than raised. The report's `residual` is its last row's,
    which `splitting._iterate`'s rule makes exact unless the run diverged.

    This is the in-process library call: at large n its bits depend on the
    caller's BLAS threads. `run_benchmark`, and so `trisplit solve`, pins them.
    """
    p, stop, params, solve, warning = _set_up(inst, algo, lam, alpha, gamma, stop)
    if warning:
        warnings.warn(warning, RuntimeWarning, stacklevel=2)
    g, diverged = params.gamma, False
    try:
        state, trace = solve()
    except DivergenceError as err:
        trace, diverged = list(err.trace), True

    if trace:
        last = trace[-1]
        g, iterations, time_ms = last.gamma, last.k, last.time_ms
        objective, residual = last.objective, last.residual
    else:
        iterations, time_ms = 0, 0.0
        if diverged:  # the first step diverged
            objective = residual = math.inf
        else:  # the start already meets the tolerance
            objective = _objective(p, state.x3, state.f3_at_x3)
            residual = composite_residual(p, stop.prox_gamma, state.x3)

    converged = (not diverged) and residual < stop.tol
    return RunReport(
        algo=algo,
        m=inst.m,
        n=inst.n,
        s=inst.s,
        seed=inst.seed,
        gamma=g,
        iterations=iterations,
        time_ms=time_ms,
        objective=objective,
        residual=residual,
        converged=converged,
        capped=not (converged or diverged),
        diverged=diverged,
        envelope_monotone=_envelope_monotone(trace),
        trace=tuple(trace),
    )


@dataclass(frozen=True)
class SummaryRow:
    algo: str
    n: int
    s: int
    mean_iter: float
    mean_time_ms: float
    mean_obj: float
    conv_rate: float
    capped: bool


def summarize(reports: Sequence[RunReport]) -> list[SummaryRow]:
    """Group by (algorithm, size) and average; flag groups with capped runs."""
    if not reports:
        raise InputError("no reports to summarize")
    groups: dict[tuple, list[RunReport]] = {}
    for rep in reports:
        groups.setdefault((rep.n, rep.s, rep.algo), []).append(rep)
    rows = []
    for (n, s, algo), reps in sorted(groups.items()):
        rows.append(
            SummaryRow(
                algo=algo,
                n=n,
                s=s,
                mean_iter=float(np.mean([r.iterations for r in reps])),
                mean_time_ms=float(np.mean([r.time_ms for r in reps])),
                mean_obj=float(np.mean([r.objective for r in reps])),
                conv_rate=float(np.mean([r.converged for r in reps])),
                capped=any(r.capped for r in reps),
            )
        )
    return rows


def format_summary(rows: Sequence[SummaryRow]) -> str:
    """Aligned text table; a leading asterisk marks groups that hit the cap."""
    header = f"{'algo':<6} {'n':>5} {'s':>7} {'iter':>10} {'time_ms':>12} {'obj':>14} {'conv':>6}"
    lines = [header, "-" * len(header)]
    for r in rows:
        mark = "*" if r.capped else " "
        lines.append(
            f"{r.algo:<6} {r.n:>5} {r.s:>7} {mark}{r.mean_iter:>9.1f} "
            f"{r.mean_time_ms:>12.1f} {r.mean_obj:>14.4f} {r.conv_rate:>6.2f}"
        )
    return "\n".join(lines)


def write_summary_csv(path, rows: Sequence[SummaryRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        columns = [f.name for f in fields(SummaryRow)]
        writer.writerow(columns)
        for r in rows:
            values = (getattr(r, c) for c in columns)
            writer.writerow([int(v) if isinstance(v, bool) else v for v in values])  # capped as 0/1


def trace_filename(algo: str, m: int, n: int, s: int, seed: int) -> str:
    return f"trace_{algo}_{m}x{n}_s{s}_seed{seed}.csv"


# Every benchmark worker starts with BLAS and OpenMP pinned to one thread, so
# no worker's spectral prox starts threads of its own and the bits of a
# 300x300 prox do not depend on `jobs`. The malloc pad keeps an iteration's
# temporaries in pages the heap already holds: in a worker at 300x300 (seed
# 0, iterations 2-121) a ryu iteration took about 350 minor page faults
# without it and 9 with it, and at 100x100 under 1 either way. Its time per
# iteration did not differ beyond the run-to-run spread.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MALLOC_TOP_PAD_": str(64 << 20)}


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (Linux), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_task(task, instance_kw, errstate, overrides):
    """One (n, s, seed, algo) task as a worker runs it: under the caller's
    numpy error state, returning the report and the warnings it raised. A
    task that raises carries its warnings out as the exception's
    `task_warnings`, so that the caller can emit them before the error."""
    n, s, seed, algo = task
    with np.errstate(**errstate), warnings.catch_warnings(record=True) as caught:
        try:
            report = run_experiment(generate_instance(n, n, s=s, seed=seed, **instance_kw), algo, **overrides)
        except Exception as exc:  # re-raised, so the pool keeps the worker's traceback
            exc.task_warnings = [(w.message, w.category, w.filename, w.lineno) for w in caught]
            raise
    return report, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def run_benchmark(
    sizes: Iterable[tuple[int, int]] = DEFAULT_SIZES,
    seeds: Iterable[int] = range(5),
    algos: Sequence[str] = ALGOS,
    r: int = 10,
    lam1: float = 10.0,
    lam2: float = 5.0,
    tau: float = 100.0,
    jobs: int | None = None,
    **overrides,
) -> list[RunReport]:
    """The full benchmark protocol: every (size, seed, algorithm) combination.

    The task lists and every task's input are checked here first, so bad
    input raises before any worker starts. The tasks run in min(jobs, tasks,
    usable CPUs) worker processes, started by the "spawn" method with BLAS
    and OpenMP pinned to one thread (`WORKER_ENV`). `jobs` defaults to the
    usable CPUs. jobs=1 runs one pinned worker too, and runs are
    deterministic per (seed, algo, overrides), so the reports do not depend
    on `jobs`, not even at sizes where a spectral prox's bits depend on the
    BLAS thread count.

    Reports come back in task order. Each task runs under the caller's numpy
    error state, and its warnings are re-emitted here, under the caller's
    `warnings` filters, a failing task's before its error. If a task raises,
    the queued tasks are cancelled, the running ones finish, and the first
    failure in task order is raised.
    Every worker is joined before this returns or raises, and the caller's
    `os.environ` is left as it was. As with any spawn pool, the workers
    import the caller's main module, so a script that calls this must guard
    its entry point with `if __name__ == "__main__":`.
    """
    if jobs is None:
        jobs = _usable_cpus()
    _validate_count(jobs, "jobs")
    if isinstance(algos, str):  # else each of its letters is an algo
        raise InputError(f"algos must be a list of algorithm names, got {algos!r}")
    try:
        sizes = [(n, s) for n, s in sizes]
    except (TypeError, ValueError):
        raise InputError(f"sizes must be a list of (n, s) pairs, got {sizes!r}") from None
    tasks = [(n, s, seed, algo) for (n, s), seed, algo in product(sizes, seeds, algos)]
    if not tasks:
        return []
    instance_kw = dict(r=r, lam1=lam1, lam2=lam2, tau=tau)
    for n, s, seed, algo in tasks:
        _set_up(generate_instance(n, n, s=s, seed=seed, **instance_kw), algo, **overrides)
    # imported here: at module level they would add to every `import trisplit`
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    errstate = np.geterr()
    workers = min(jobs, len(tasks), _usable_cpus())
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        saved = {key: os.environ.get(key) for key in WORKER_ENV}
        os.environ.update(WORKER_ENV)
        try:  # each submit spawns a worker, with this environment, until there are `workers`
            futures = [pool.submit(_run_task, task, instance_kw, errstate, overrides) for task in tasks]
        finally:
            for key, value in saved.items():
                if value is None:
                    del os.environ[key]
                else:
                    os.environ[key] = value
        reports, registry = [], {}
        try:
            for future in futures:
                failure = future.exception()
                if failure is None:
                    report, caught = future.result()
                else:  # a pool failure, such as a worker that died, has no task_warnings
                    caught = getattr(failure, "task_warnings", ())
                for message, category, filename, lineno in caught:
                    warnings.warn_explicit(message, category, filename, lineno, registry=registry)
                if failure is not None:
                    raise failure
                reports.append(report)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return reports
