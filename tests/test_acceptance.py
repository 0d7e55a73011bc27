"""End-to-end acceptance suite: ten numbered criteria with fixed tolerances
and runtime budgets.

Each test records its verdict in ACCEPTANCE_RESULTS *before* asserting, so
the terminal summary (see conftest.pytest_terminal_summary) always prints one
PASS/FAIL line per criterion with the measured numbers, red or green.

Criteria 1-6, 9 and 10 take their measurements from `trisplit.checks`, the
functions behind `trisplit check`; the sizes, seeds, tolerances and time
budgets are this module's own.

Criterion 8 is expected to fail; its docstring explains why the failure is a
property of the configured stopping rule rather than an implementation bug.
The criterion is asserted at its stated tolerances anyway.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from trisplit.bench import build_problem, generate_instance, run_benchmark
from trisplit.checks import (
    convex_sanity_errors,
    envelope_form_gaps,
    epsilon_grid,
    gradient_error,
    lipschitz_ratio,
    make_quadratic_problem,
    nonneg_prox_error,
    plan_admissible,
    scalar_mcp_prox_error,
    step_margins,
)
from trisplit.core import RealVector
from trisplit.proxlib import MaskedQuadraticTerm, NonnegDistanceTerm, ScaledL1Term, brute_force_prox_1d
from trisplit.splitting import RelaxationParams, StoppingRule, descent_constants, make_state
from trisplit.stepsize import alpha_lower_bound, gamma_bounds, plan

# criterion number -> (passed, one-line detail); consumed by the terminal summary
ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record(num: int, ok: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[num] = (bool(ok), detail)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Shared run data for criteria 1-4: twenty 20-dimensional quadratic triples
# driven for 1000 steps with per-step descent/sandwich/identity margins.
# ---------------------------------------------------------------------------


@dataclass
class QuadraticRun:
    problem: object
    params: RelaxationParams
    M: float
    min_descent_slack: float  # see checks.step_margins for the four margins
    min_upper_margin: float
    min_lower_margin: float
    max_identity_rel: float


@pytest.fixture(scope="module")
def quadratic_runs():
    rng = np.random.default_rng(20260826)
    runs = []
    t0 = time.perf_counter()
    for i in range(20):
        lam = (0.5, 1.0, 1.5)[i % 3]
        alpha = 0.5 * (alpha_lower_bound(lam) + 1.0)
        l1 = float(rng.uniform(0.5, 10.0))
        l2 = float(rng.uniform(0.5, 10.0))
        problem = make_quadratic_problem(
            rng, d=20, l1=l1, l2=l2, f3="l1" if i % 2 == 0 else "mcp"
        )
        sp = plan(l1, l2, lam, alpha)
        params = RelaxationParams(sp.gamma_ryu, lam, alpha)
        m_const = descent_constants(l1, l2, params, sp.eps1, sp.eps2).M
        s = make_state(
            problem,
            params,
            RealVector(3.0 * rng.standard_normal(problem.dim)),
            RealVector(3.0 * rng.standard_normal(problem.dim)),
        )
        runs.append(
            QuadraticRun(problem, params, m_const, *step_margins(problem, params, m_const, s, 1000))
        )
    return runs, time.perf_counter() - t0


def test_criterion_01_envelope_sufficient_descent(quadratic_runs):
    """Every step of every run drops the envelope by at least M ||dz||^2."""
    runs, elapsed = quadratic_runs
    worst = min(r.min_descent_slack for r in runs)
    ok = all(r.M > 0 for r in runs) and worst >= 0.0 and elapsed < 30.0
    record(
        1,
        ok,
        f"20 runs x 1000 steps: min descent slack {worst:.3e} >= 0, "
        f"min M {min(r.M for r in runs):.3e} > 0, {elapsed:.1f}s < 30s",
    )


def test_criterion_02_envelope_objective_sandwich(quadratic_runs):
    """Envelope sits between the shifted-objective bounds at every iterate."""
    runs, _ = quadratic_runs
    worst_up = min(r.min_upper_margin for r in runs)
    worst_low = min(r.min_lower_margin for r in runs)
    ok = worst_up >= -1e-9 and worst_low >= -1e-9
    record(
        2,
        ok,
        f"min normalized margins: upper {worst_up:.3e}, lower {worst_low:.3e} "
        f"(both >= -1e-9)",
    )


def test_criterion_03_displacement_identities(quadratic_runs):
    """Prox-optimality displacement identities hold to 1e-10 at every step."""
    runs, _ = quadratic_runs
    worst = max(r.max_identity_rel for r in runs)
    record(3, worst <= 1e-10, f"max identity residual {worst:.3e} <= 1e-10")


def test_criterion_04_envelope_consistency(quadratic_runs):
    """Min-form, Moreau-form, and Lagrangian envelope values agree on probes."""
    runs, _ = quadratic_runs
    rng = np.random.default_rng(42)
    worst_moreau = worst_lagr = 0.0
    t0 = time.perf_counter()
    for r in runs:
        moreau, lagr = envelope_form_gaps(r.problem, r.params, rng, 100, 2.0)
        worst_moreau, worst_lagr = max(worst_moreau, moreau), max(worst_lagr, lagr)
    elapsed = time.perf_counter() - t0
    ok = worst_moreau <= 1e-8 and worst_lagr <= 1e-10 and elapsed < 10.0
    record(
        4,
        ok,
        f"2000 probes: |min-form - Moreau| {worst_moreau:.3e} <= 1e-8, "
        f"|min-form - Lagrangian| {worst_lagr:.3e} <= 1e-10, {elapsed:.1f}s < 10s",
    )


def test_criterion_05_prox_oracles():
    """Closed-form proxes match 1-D brute force; convex proxes are nonexpansive."""
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    # scalar MCP prox (firm threshold) and nonnegativity-distance prox, 1000 probes each
    worst = max(scalar_mcp_prox_error(rng, 1000), nonneg_prox_error(rng, 1000))
    # masked-quadratic prox, componentwise: 1000 probes (600 observed, 400 not)
    targets = rng.uniform(-3.0, 3.0, 1000)
    mask = np.zeros(1000, dtype=bool)
    mask[:600] = True
    vs = rng.uniform(-6.0, 6.0, 1000)
    gamma = 0.7
    term = MaskedQuadraticTerm(target=RealVector(targets), mask=mask)
    got = term.prox(gamma, RealVector(vs)).data
    for i in range(1000):
        if mask[i]:
            fun = lambda t: gamma * 0.5 * (t - targets[i]) ** 2 + 0.5 * (t - vs[i]) ** 2
            lo = min(vs[i], targets[i]) - 1.0
            hi = max(vs[i], targets[i]) + 1.0
        else:
            fun = lambda t: 0.5 * (t - vs[i]) ** 2
            lo, hi = vs[i] - 1.0, vs[i] + 1.0
        worst = max(worst, abs(got[i] - brute_force_prox_1d(fun, lo, hi)))
    # nonexpansiveness of the convex proxes on ~1000 random pairs
    convex_terms = (
        ScaledL1Term(0.7),
        NonnegDistanceTerm(3.0),
        MaskedQuadraticTerm(
            target=RealVector(rng.standard_normal(6)),
            mask=np.array([True, False, True, True, False, True]),
        ),
    )
    worst_expansion = -math.inf
    for term in convex_terms:
        for _ in range(334):
            g = float(rng.uniform(0.01, 2.0))
            u = RealVector(4.0 * rng.standard_normal(6))
            v = RealVector(4.0 * rng.standard_normal(6))
            lhs = (term.prox(g, u) - term.prox(g, v)).norm()
            gap = (u - v).norm()
            worst_expansion = max(worst_expansion, (lhs - gap) / (1.0 + gap))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and worst_expansion <= 1e-12 and elapsed < 20.0
    record(
        5,
        ok,
        f"3000 brute-force probes: max |prox - ref| {worst:.3e} <= 1e-6; "
        f"1002 pairs: max expansion {worst_expansion:.3e} <= 1e-12; "
        f"{elapsed:.1f}s < 20s",
    )


def test_criterion_06_stepsize_planner():
    """Planner output is admissible on 10^4 samples and near the grid optimum."""
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    spots = []
    admissible = 0
    for i in range(10_000):
        lam = float(rng.uniform(0.05, 1.95))
        abar = alpha_lower_bound(lam)
        alpha = abar + float(rng.uniform(1e-3, 1.0 - 1e-3)) * (1.0 - abar)
        l1 = float(rng.uniform(0.5, 10.0))
        l2 = float(rng.uniform(0.5, 10.0))
        sp = plan(l1, l2, lam, alpha)
        admissible += plan_admissible(sp)
        if i < 20:
            spots.append((lam, alpha, l1, l2, sp))
    # grid oracle on 20 spot checks: planner epsilons reach >= 99% of the
    # best min-cap found on a 120x120 epsilon grid
    worst_frac = math.inf
    for lam, alpha, l1, l2, sp in spots:
        ours = min(gamma_bounds(l1, l2, lam, alpha, sp.eps1, sp.eps2)[1:])
        best = max(cap for _, _, cap in epsilon_grid(l1, l2, lam, alpha, 120))
        worst_frac = min(worst_frac, ours / best)
    elapsed = time.perf_counter() - t0
    ok = admissible == 10_000 and worst_frac >= 0.99 and elapsed < 60.0
    record(
        6,
        ok,
        f"{admissible}/10000 samples admissible; planner/grid min-cap ratio "
        f">= {worst_frac:.4f} on 20 spot checks; {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# Criteria 7-8 share one 5-seed benchmark at the protocol configuration
# (n=100, s=1000, r=10, weights 10/5, tau=100, lam=1, alpha=0.99).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_reports():
    t0 = time.perf_counter()
    reports = run_benchmark(sizes=[(100, 1000)], seeds=range(5))
    return reports, time.perf_counter() - t0


def test_criterion_07_benchmark_protocol(benchmark_reports):
    """Fixed-stepsize runs cap, adaptive runs converge fastest, objectives agree."""
    reports, elapsed = benchmark_reports
    by_algo = {a: [r for r in reports if r.algo == a] for a in ("ryu", "ryu+", "dys")}
    ryu_capped = all(
        not r.converged and r.iterations == 20_000 for r in by_algo["ryu"]
    )
    plus_conv = all(r.converged for r in by_algo["ryu+"])
    plus_mean = float(np.mean([r.iterations for r in by_algo["ryu+"]]))
    dys_mean = float(np.mean([r.iterations for r in by_algo["dys"]]))
    obj_rel = max(
        abs(p.objective - d.objective) / abs(d.objective)
        for p, d in zip(by_algo["ryu+"], by_algo["dys"])
        if p.converged and d.converged
    )
    both_conv = all(d.converged for d in by_algo["dys"])
    ok = (
        ryu_capped
        and plus_conv
        and 100.0 <= plus_mean <= 5000.0
        and plus_mean < dys_mean
        and both_conv
        and obj_rel < 0.01
        and elapsed < 600.0
    )
    record(
        7,
        ok,
        f"ryu capped 5/5; ryu+ converged 5/5 (mean {plus_mean:.1f} iters in "
        f"[100, 5000]) < dys mean {dys_mean:.1f}; max objective gap "
        f"{100 * obj_rel:.3f}% < 1%; {elapsed:.0f}s < 600s",
    )


def test_criterion_08_vanishing_displacements_at_termination(benchmark_reports):
    """Converged adaptive runs should end with displacement norms collapsed by
    1e-4 relative to their early values and shadow-point gaps below 10x the
    residual tolerance.

    Known failure: the stopping rule halts on a proximal-gradient residual
    that sits roughly prox_gamma x the criticality measure of the shadow
    point, so runs terminate while the governing-variable displacements are
    still two to three orders of magnitude above this criterion's thresholds,
    and the adaptive stepsize never leaves its initial value on these
    instances (its safeguard triggers are sized for divergence, not slow
    tail-decay). The thresholds are asserted as stated rather than widened;
    the recorded detail carries the measured ratios.
    """
    reports, _ = benchmark_reports
    plus = [r for r in reports if r.algo == "ryu+" and r.converged]
    assert plus, "no converged adaptive runs to examine"
    worst_ratio = 0.0
    worst_gap = 0.0
    tol = 1e-3
    for rep in plus:
        n = len(rep.trace)
        dec = max(1, n // 10)
        for field in ("dz1", "dz2", "gap31", "gap32"):
            head = float(np.mean([getattr(t, field) for t in rep.trace[:dec]]))
            tail = float(np.mean([getattr(t, field) for t in rep.trace[-dec:]]))
            worst_ratio = max(worst_ratio, tail / head)
        worst_gap = max(worst_gap, rep.trace[-1].gap31, rep.trace[-1].gap32)
    ok = worst_ratio < 1e-4 and worst_gap < 10.0 * tol
    record(
        8,
        ok,
        f"max last/first decile ratio {worst_ratio:.3e} (need < 1e-4); max "
        f"termination gap {worst_gap:.3e} (need < {10 * tol:.0e})",
    )


def test_protocol_stops_are_pinned(benchmark_reports):
    """The ten converged protocol runs stop at pinned iterations, on a last
    residual below tol after rows at or above it. The reports carry no final
    iterate, so whether that last residual is exact is checked in
    test_splitting, on ryu+ at protocol seed 1 and on all three solvers at a
    small size, against runs that take the exact residual at every step."""
    reports, _ = benchmark_reports
    tol = StoppingRule().tol
    stops = {
        "ryu+": [906, 360, 990, 424, 412],
        "dys": [9125, 3274, 10039, 3842, 3404],
    }
    for algo, iterations in stops.items():
        runs = sorted((r for r in reports if r.algo == algo), key=lambda r: r.seed)
        assert [(r.seed, r.converged, r.iterations) for r in runs] == [(s, True, k) for s, k in enumerate(iterations)]
        for r in runs:
            assert r.trace[-1].residual < tol <= r.trace[-2].residual


def test_criterion_09_convex_sanity():
    """On convex 1-D and 5-D triples the iterates and the envelope both reach
    the known minimum."""
    worst_x = worst_env = 0.0
    for d, seed in ((1, 5), (5, 9)):
        x_err, env_err = convex_sanity_errors(d, seed, StoppingRule(tol=1e-10, max_iter=50_000))
        worst_x, worst_env = max(worst_x, x_err), max(worst_env, env_err)
    ok = worst_x <= 1e-6 and worst_env <= 1e-6
    record(
        9,
        ok,
        f"minimizer error {worst_x:.3e} <= 1e-6, envelope-vs-minimum error "
        f"{worst_env:.3e} <= 1e-6",
    )


def test_criterion_10_gradient_and_lipschitz_oracles():
    """Benchmark gradients match central differences; moduli bound the probes.

    Probed on a 20x20 instance: central differences carry rounding noise of
    about eps * |f| / (2h), which for the dimension-extensive benchmark terms
    exceeds the 1e-6 tolerance at protocol size (value ~ 2.5e4 gives ~3e-6
    noise) while the oracles themselves are scale-free and exact.
    """
    problem = build_problem(generate_instance(20, 20, 10, 40, seed=0))
    worst_grad = gradient_error(problem, np.random.default_rng(13))
    worst_head = lipschitz_ratio(problem, trials=200, seed=3)
    ok = worst_grad <= 1e-6 and worst_head <= 1.0
    record(
        10,
        ok,
        f"max gradient-check error {worst_grad:.3e} <= 1e-6; max probe/modulus "
        f"ratio {worst_head:.6f} <= 1",
    )
