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
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .baselines import DysParams, run_dys
from .core import CompositeProblem, DivergenceError, InputError, RealVector
from .proxlib import MaskedQuadraticTerm, NonnegDistanceTerm, SpectralMCPTerm
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
DEFAULT_SIZES = ((100, 1000), (300, 10000))


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
    if not 1 <= r <= min(m, n):
        raise InputError(f"need 1 <= r <= min(m, n), got r={r}, m={m}, n={n}")
    if not 1 <= s <= m * n:
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
    values = [r.envelope for r in trace if r.envelope is not None]
    if len(values) < 2:
        return None
    return all(b <= a + 1e-10 * (1.0 + abs(a)) for a, b in zip(values, values[1:]))


def _warn_if_beyond_thm2_cap(gamma: float, thm2_cap: float) -> None:
    if gamma > thm2_cap:
        warnings.warn(
            f"stepsize {gamma:.6g} exceeds min(alpha/L1, (1-alpha)/L2) = {thm2_cap:.6g}; "
            "envelope descent still holds but the subsequential-convergence "
            "guarantee does not apply",
            RuntimeWarning,
            stacklevel=3,
        )


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
    report rather than raised.
    """
    if algo not in ALGOS:
        raise InputError(f"algo must be one of {ALGOS}, got {algo!r}")
    p = build_problem(inst)
    stop = stop or StoppingRule()
    L1, L2 = p.f1.lipschitz, p.f2.lipschitz
    gdys = default_gamma_dys(L1, L2)

    diverged = False
    controller = None
    try:
        if algo == "dys":
            g = gamma if gamma is not None else gdys
            params = DysParams(gamma=g, lam=lam)
            state, trace = run_dys(p, params, stop=stop)
            final_x = state.x_g
            final_f3 = state.f3_at_xg
            final_gamma = g
        else:
            sp = plan(L1, L2, lam, alpha)
            if algo == "ryu":
                g = gamma if gamma is not None else sp.gamma_ryu
            else:
                g0 = gamma if gamma is not None else 10.0 * gdys
                controller = AdaptiveController(gamma_ryu=sp.gamma_ryu, gamma_current=g0)
                g = controller.gamma_current
            params = RelaxationParams(gamma=g, lam=lam, alpha=alpha)
            _warn_if_beyond_thm2_cap(controller.floor if controller else g, sp.thm2_cap)
            state, trace = run_ryu(p, params, stop=stop, controller=controller)
            final_x = state.x3
            final_f3 = state.f3_at_x3
            final_gamma = trace[-1].gamma if trace else g
    except DivergenceError as err:
        diverged = True
        trace = list(getattr(err, "trace", ()))
        state = None
        final_gamma = trace[-1].gamma if trace else (controller.gamma_current if controller else g)

    if trace:
        objective = trace[-1].objective
        residual = trace[-1].residual
        time_ms = trace[-1].time_ms
    elif state is not None:
        objective = _objective(p, final_x, final_f3)
        residual = composite_residual(p, stop.prox_gamma, final_x)
        time_ms = 0.0
    else:
        objective = math.inf
        residual = math.inf
        time_ms = 0.0

    iterations = trace[-1].k if trace else 0
    converged = (not diverged) and residual < stop.tol
    return RunReport(
        algo=algo,
        m=inst.m,
        n=inst.n,
        s=inst.s,
        seed=inst.seed,
        gamma=final_gamma,
        iterations=iterations,
        time_ms=time_ms,
        objective=objective,
        residual=residual,
        converged=converged,
        capped=(not converged) and (not diverged) and iterations >= stop.max_iter,
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
        writer.writerow(["algo", "n", "s", "mean_iter", "mean_time_ms", "mean_obj", "conv_rate", "capped"])
        for r in rows:
            writer.writerow(
                [r.algo, r.n, r.s, r.mean_iter, r.mean_time_ms, r.mean_obj, r.conv_rate, int(r.capped)]
            )


def trace_filename(algo: str, m: int, n: int, s: int, seed: int) -> str:
    return f"trace_{algo}_{m}x{n}_s{s}_seed{seed}.csv"


def run_benchmark(
    sizes: Iterable[tuple[int, int]] = DEFAULT_SIZES,
    seeds: Iterable[int] = range(5),
    algos: Sequence[str] = ALGOS,
    r: int = 10,
    lam1: float = 10.0,
    lam2: float = 5.0,
    tau: float = 100.0,
    jobs: int = 1,
    **overrides,
) -> list[RunReport]:
    """The full benchmark protocol: every (size, seed, algorithm) combination.

    Runs are independent and deterministic per (seed, algo, overrides), so
    the result does not depend on the parallel schedule; `jobs` bounds the
    worker threads. Every run uses the numpy error state of the call, also
    in worker threads, which start from numpy's defaults.
    """
    errstate = np.geterr()
    tasks = [
        (n, s, seed, algo)
        for (n, s) in sizes
        for seed in seeds
        for algo in algos
    ]

    def one(task):
        n, s, seed, algo = task
        with np.errstate(**errstate):
            inst = generate_instance(n, n, r, s, seed, lam1=lam1, lam2=lam2, tau=tau)
            return run_experiment(inst, algo, **overrides)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(one, tasks))
    return [one(t) for t in tasks]
