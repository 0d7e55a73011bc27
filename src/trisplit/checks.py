"""Check measurements shared by `trisplit check` and the acceptance suite.

Each measurement function returns the worst value it measured and asserts
nothing, so every caller keeps its own sizes, seeds and tolerances. The
problem builders the measurements run on live here too.

The `check_*` functions are the hermetic diagnostic suite behind
`trisplit check`: fixed seeds, no file or network access, a few seconds of
compute. Each raises AssertionError on failure; the runner prints one
PASS/FAIL line per check.
"""

from __future__ import annotations

import math

import numpy as np

from .baselines import DysParams, run_dys
from .bench import build_problem, generate_instance
from .core import CompositeProblem, RealVector, evaluate_objective, gradient_check, lipschitz_probe
from .proxlib import (
    NonnegDistanceTerm,
    QuadraticTerm,
    ScaledL1Term,
    SeparableMCPTerm,
    brute_force_prox_1d,
    default_prox_bracket,
    mcp_value,
    prox_scalar_mcp,
)
from .splitting import (
    RelaxationParams,
    StoppingRule,
    composite_residual,
    descent_constants,
    identity_check,
    lagrangian_value,
    make_state,
    run_ryu,
    ryu_envelope_moreau,
    ryu_step,
    state_envelope,
)
from .stepsize import StepsizePlan, alpha_lower_bound, eps1_interval, eps2_lower, gamma_bounds, plan

SMALL_BENCH = dict(m=12, n=9, r=3, s=40, seed=7)


# ---------------------------------------------------------------------------
# Problem builders
# ---------------------------------------------------------------------------


def random_psd(rng, d, lmax):
    """Symmetric PSD matrix with largest eigenvalue exactly lmax."""
    q = rng.standard_normal((d, d))
    a = q.T @ q
    eigs = np.linalg.eigvalsh(a)
    return a * (lmax / eigs[-1])


def make_quadratic_problem(rng, d=8, l1=None, l2=None, f3="l1"):
    """Two random quadratics plus a separable nonsmooth term, as a test triple."""
    l1 = l1 if l1 is not None else float(rng.uniform(0.5, 10.0))
    l2 = l2 if l2 is not None else float(rng.uniform(0.5, 10.0))
    f1 = QuadraticTerm(matrix=random_psd(rng, d, l1), center=rng.standard_normal(d))
    f2 = QuadraticTerm(matrix=random_psd(rng, d, l2), center=rng.standard_normal(d))
    if f3 == "l1":
        t3 = ScaledL1Term(weight=0.3)
    elif f3 == "mcp":
        t3 = SeparableMCPTerm(weight=0.3, tau=2.0)
    else:
        raise ValueError(f3)
    return CompositeProblem(f1=f1, f2=f2, f3=t3, shape=(d,))


def convex_l1_problem(d, seed=0):
    """1/2 ||x-p||^2 + ||x-q||^2 + 0.5 ||x||_1, p and q drawn from `seed`, with a closed-form minimizer."""
    rng = np.random.default_rng(seed)
    p_ = rng.standard_normal(d) * 2
    q_ = rng.standard_normal(d) * 2
    prob = CompositeProblem(
        f1=QuadraticTerm(matrix=np.eye(d), center=p_),
        f2=QuadraticTerm(matrix=2.0 * np.eye(d), center=q_),
        f3=ScaledL1Term(weight=0.5),
        shape=(d,),
    )
    # soft threshold written out, not proxlib's: this is the reference value
    c = (p_ + 2.0 * q_) / 3.0
    xstar = np.sign(c) * np.maximum(np.abs(c) - 0.5 / 3.0, 0.0)
    return prob, RealVector(xstar, (d,))


def _small_bench_problem():
    return build_problem(generate_instance(**SMALL_BENCH))


# ---------------------------------------------------------------------------
# Measurements: each returns its worst value and asserts nothing
# ---------------------------------------------------------------------------


def _sandwich_margins(problem, params, s, env):
    """Normalized slack of the two envelope-vs-objective inequalities at s."""
    l1, l2 = problem.f1.lipschitz, problem.f2.lipschitz
    d12 = (s.x1 - s.x2).norm() ** 2
    upper = min(
        evaluate_objective(problem, s.x1) + 0.5 * (l2 + 1.0 / params.gamma2) * d12,
        evaluate_objective(problem, s.x2) + 0.5 * (l1 + 1.0 / params.gamma1) * d12,
    )
    g = params.gamma
    lower = (
        evaluate_objective(problem, s.x3)
        + (params.alpha - g * l1) / (2.0 * g) * (s.x3 - s.x1).norm() ** 2
        + ((1.0 - params.alpha) - g * l2) / (2.0 * g) * (s.x3 - s.x2).norm() ** 2
    )
    return (upper - env) / (1.0 + abs(upper)), (env - lower) / (1.0 + abs(lower))


def step_margins(problem, params, M, state, steps):
    """Run `steps` iterations from `state` and return the worst margins seen.

    Returns (min descent slack, min upper sandwich margin, min lower sandwich
    margin, max identity residual):
    - descent slack: env drop - M (||dz1||^2 + ||dz2||^2) + 1e-9 (1 + |env|),
      per step; nonnegative means sufficient descent;
    - sandwich margins: (upper - env)/(1 + |upper|) and
      (env - lower)/(1 + |lower|) at every iterate, the first included;
    - identity residual: |lhs - rhs| / (1 + |lhs|) of both displacement
      identities, per step.
    """
    s = state
    env = state_envelope(problem, params, s)
    min_slack = math.inf
    min_up, min_low = _sandwich_margins(problem, params, s, env)
    max_ident = 0.0
    for _ in range(steps):
        nxt = ryu_step(problem, params, s)
        env_next = state_envelope(problem, params, nxt)
        drop = env - env_next
        need = M * ((nxt.z1 - s.z1).norm() ** 2 + (nxt.z2 - s.z2).norm() ** 2)
        min_slack = min(min_slack, drop - need + 1e-9 * (1.0 + abs(env)))
        up, low = _sandwich_margins(problem, params, nxt, env_next)
        min_up, min_low = min(min_up, up), min(min_low, low)
        lhs1, rhs1, lhs2, rhs2 = identity_check(problem, params, s, nxt)
        max_ident = max(
            max_ident,
            abs(lhs1 - rhs1) / (1.0 + abs(lhs1)),
            abs(lhs2 - rhs2) / (1.0 + abs(lhs2)),
        )
        s, env = nxt, env_next
    return min_slack, min_up, min_low, max_ident


def envelope_form_gaps(problem, params, rng, probes, scale):
    """Worst relative gaps of the solver's min-form envelope (`state_envelope`)
    to its other two forms.

    Probes `probes` points (z1, z2) with entries scale * N(0, 1) and returns
    (max |min-form - Moreau form|, max |min-form - Lagrangian|), each
    divided by 1 + |min-form|.
    """
    worst_moreau = worst_lagr = 0.0
    for _ in range(probes):
        z1 = RealVector(scale * rng.standard_normal(problem.dim), problem.shape)
        z2 = RealVector(scale * rng.standard_normal(problem.dim), problem.shape)
        s = make_state(problem, params, z1, z2)
        val = state_envelope(problem, params, s)
        other = ryu_envelope_moreau(problem, params, z1, z2)
        worst_moreau = max(worst_moreau, abs(val - other) / (1.0 + abs(val)))
        mu1 = (s.x1 - s.z1) / params.gamma
        mu2 = (params.alpha * (s.x2 - s.x1) - s.z2) / params.gamma
        lag = lagrangian_value(
            problem, 1.0 / params.gamma1, 1.0 / params.gamma2, s.x1, s.x2, s.x3, mu1, mu2
        )
        worst_lagr = max(worst_lagr, abs(val - lag) / (1.0 + abs(val)))
    return worst_moreau, worst_lagr


def scalar_mcp_prox_error(rng, probes):
    """Max |firm threshold - 1-D brute force| over `probes` random (w, tau, gamma, v)."""
    worst = 0.0
    for _ in range(probes):
        w = float(rng.uniform(0.1, 3.0))
        tau = float(rng.uniform(0.5, 5.0))
        gamma = float(rng.uniform(0.01, 1.0))
        if gamma * w >= tau:
            gamma = 0.5 * tau / w
        v = float(rng.uniform(-6.0, 6.0))
        lo, hi = default_prox_bracket(v, gamma * w)
        ref = brute_force_prox_1d(
            lambda t: gamma * w * mcp_value(t, tau) + 0.5 * (t - v) ** 2, lo, hi
        )
        worst = max(worst, abs(prox_scalar_mcp(w, tau, gamma, v) - ref))
    return worst


def nonneg_prox_error(rng, probes):
    """Max |nonnegativity-distance prox - 1-D brute force| over `probes` random (w, gamma, v)."""
    worst = 0.0
    for _ in range(probes):
        w = float(rng.uniform(0.1, 5.0))
        gamma = float(rng.uniform(0.01, 2.0))
        v = float(rng.uniform(-6.0, 6.0))
        got = NonnegDistanceTerm(w).prox(gamma, RealVector([v])).data[0]
        ref = brute_force_prox_1d(
            lambda t: gamma * 0.5 * w * np.minimum(t, 0.0) ** 2 + 0.5 * (t - v) ** 2,
            min(v, 0.0) - 1.0,
            max(v, 0.0) + 1.0,
        )
        worst = max(worst, abs(got - ref))
    return worst


def epsilon_grid(L1, L2, lam, alpha, side):
    """Yield (eps1, eps2, min{gbar1, gbar2, gbar3}) over a side x side grid:
    eps1 (the outer loop) linear on I1 inset by 1e-6 of its width, eps2 geometric on I2."""
    lo, hi = eps1_interval(lam, alpha)
    inset = 1e-6 * (hi - lo)
    elo = eps2_lower(L2, lam, alpha)
    eps2s = np.geomspace(elo * (1.0 + 1e-9) + 1e-12, elo * 50.0 + 10.0, side)
    for e1 in np.linspace(lo + inset, hi - inset, side):
        for e2 in eps2s:
            yield e1, e2, min(gamma_bounds(L1, L2, lam, alpha, e1, e2)[1:])


def plan_admissible(sp: StepsizePlan) -> bool:
    """Whether a plan's epsilons lie in I1 x I2, its four caps are positive,
    and gamma_ryu lies strictly below every cap and 1/(L1+L2)."""
    lo1, hi1 = eps1_interval(sp.lam, sp.alpha)
    caps = min(sp.gbar0, sp.gbar1, sp.gbar2, sp.gbar3)
    return (
        caps > 0.0
        and lo1 < sp.eps1 < hi1
        and sp.eps2 > eps2_lower(sp.l2, sp.lam, sp.alpha)
        and 0.0 < sp.gamma_ryu < min(caps, 1.0 / (sp.l1 + sp.l2))
    )


def convex_sanity_errors(d, seed, stop):
    """Run ryu on convex_l1_problem(d, seed) from a start drawn with seed d.

    Returns (||x3 - x*||, |envelope - F(x*)|) at the final state.
    """
    problem, xstar = convex_l1_problem(d=d, seed=seed)
    lam = 1.0
    alpha = 0.5 * (alpha_lower_bound(lam) + 1.0)
    sp = plan(problem.f1.lipschitz, problem.f2.lipschitz, lam, alpha)
    params = RelaxationParams(sp.gamma_ryu, lam, alpha)
    rng = np.random.default_rng(d)
    state, _ = run_ryu(
        problem,
        params,
        RealVector(rng.standard_normal(d)),
        RealVector(rng.standard_normal(d)),
        stop,
    )
    env = state_envelope(problem, params, state)
    return (state.x3 - xstar).norm(), abs(env - evaluate_objective(problem, xstar))


def gradient_error(problem, rng):
    """Max central-difference gradient error of f1 and f2 at one N(0, 1) point."""
    x = RealVector(rng.standard_normal(problem.dim), problem.shape)
    return max(gradient_check(problem.f1, x), gradient_check(problem.f2, x))


def lipschitz_ratio(problem, trials, seed):
    """Max over f1, f2 of the probed gradient ratio / (modulus (1 + 1e-12)); above 1 is a violation."""
    return max(
        lipschitz_probe(t, trials=trials, seed=seed, shape=problem.shape)
        / (t.lipschitz * (1.0 + 1e-12))
        for t in (problem.f1, problem.f2)
    )


# ---------------------------------------------------------------------------
# The `trisplit check` suite
# ---------------------------------------------------------------------------


def check_gradient_oracles():
    err = gradient_error(_small_bench_problem(), np.random.default_rng(0))
    assert err <= 1e-6, f"gradient check failed: {err}"


def check_lipschitz_bounds():
    ratio = lipschitz_ratio(_small_bench_problem(), trials=50, seed=1)
    assert ratio <= 1.0, f"gradient ratio {ratio} times the stated modulus"


def check_prox_oracles():
    rng = np.random.default_rng(2)
    err = scalar_mcp_prox_error(rng, 60)
    assert err <= 1e-6, f"scalar MCP prox off by {err}"
    err = nonneg_prox_error(rng, 60)
    assert err <= 1e-6, f"nonneg-distance prox off by {err}"


def check_spectral_prox():
    rng = np.random.default_rng(3)
    p = _small_bench_problem()
    x = RealVector(rng.standard_normal(p.dim), p.shape)
    gamma = 0.05
    out = p.f3.prox(gamma, x)
    s_in = np.linalg.svd(x.mat, compute_uv=False)
    s_out = np.linalg.svd(out.mat, compute_uv=False)
    expected = prox_scalar_mcp(p.f3.weight, p.f3.tau, gamma, s_in)
    assert np.allclose(s_out, expected, atol=1e-10), "spectral prox singular values off"


def check_planner():
    sp = plan(10.0, 1.0, 1.0, 0.99)
    assert plan_admissible(sp), f"plan not admissible: {sp}"
    dc = descent_constants(
        10.0, 1.0, RelaxationParams(sp.gamma_ryu, sp.lam, sp.alpha), sp.eps1, sp.eps2
    )
    assert dc.C0 >= 0 and dc.C1 >= 0 and dc.C2 > 0 and dc.C3 > 0 and dc.M > 0
    rng = np.random.default_rng(4)
    for _ in range(100):
        lam = rng.uniform(0.1, 1.9)
        abar = alpha_lower_bound(lam)
        alpha = rng.uniform(abar + 1e-3, 1 - 1e-3)
        sp2 = plan(rng.uniform(0.5, 10), rng.uniform(0.5, 10), lam, alpha)
        assert plan_admissible(sp2), f"plan not admissible: {sp2}"


def _quadratic_margins(seed, d, alpha, steps):
    """step_margins on make_quadratic_problem(d) at the planned stepsize, lam = 1."""
    rng = np.random.default_rng(seed)
    p = make_quadratic_problem(rng, d=d)
    l1, l2 = p.f1.lipschitz, p.f2.lipschitz
    sp = plan(l1, l2, 1.0, alpha)
    params = RelaxationParams(sp.gamma_ryu, 1.0, alpha)
    m_const = descent_constants(l1, l2, params, sp.eps1, sp.eps2).M
    assert m_const > 0, f"descent constant M = {m_const}"
    s = make_state(p, params, RealVector(rng.standard_normal(d)), RealVector(rng.standard_normal(d)))
    return step_margins(p, params, m_const, s, steps)


def check_identities():
    *_, ident = _quadratic_margins(5, 8, 0.9, 50)
    assert ident <= 1e-10, f"displacement identity residual {ident}"


def check_envelope_consistency():
    rng = np.random.default_rng(6)
    for p in (make_quadratic_problem(rng), _small_bench_problem()):
        L = p.f1.lipschitz + p.f2.lipschitz
        moreau, lagr = envelope_form_gaps(p, RelaxationParams(0.5 / L, 1.0, 0.9), rng, 20, 1.0)
        assert moreau <= 1e-8, f"envelope forms disagree by {moreau}"
        assert lagr <= 1e-10, f"envelope and Lagrangian disagree by {lagr}"


def check_descent():
    slack, up, low, _ = _quadratic_margins(7, 20, 0.5 * (alpha_lower_bound(1.0) + 1.0), 300)
    assert slack >= 0.0, f"descent violated: min slack {slack}"
    assert up >= -1e-9 and low >= -1e-9, f"envelope outside its bounds: margins {up}, {low}"


def check_convex_sanity():
    x_err, env_err = convex_sanity_errors(1, 5, StoppingRule(tol=1e-9, max_iter=5000))
    assert x_err <= 1e-6, f"minimizer error {x_err}"
    assert env_err <= 1e-6, f"envelope-vs-minimum error {env_err}"


def check_dys_transcription():
    d = 4
    f = QuadraticTerm(np.eye(d), np.zeros(d))
    p = CompositeProblem(f1=f, f2=f, f3=ScaledL1Term(0.5), shape=(d,))
    params = DysParams(gamma=0.4, lam=1.0)

    def points(z):
        """x_f and x3 written out for f1 = f2 = ||x||^2/2, f3 = 0.5 ||x||_1, gamma = 0.4."""
        x_f = z / 1.4
        anchor = 2 * x_f - z - 0.4 * x_f
        return x_f, np.sign(anchor) * np.maximum(np.abs(anchor) - 0.4 * 0.5, 0.0)

    z = np.full(d, 2.0)
    x_f, x3 = points(z)
    z_plus = z + x3 - x_f
    x_f_plus, x3_plus = points(z_plus)
    state, trace = run_dys(p, params, RealVector(z), StoppingRule(tol=1e-12, max_iter=1))
    assert [r.k for r in trace] == [1]
    assert np.allclose(state.z.data, z_plus, atol=1e-12)
    assert np.allclose(state.x_f.data, x_f_plus, atol=1e-12)
    assert np.allclose(state.x3.data, x3_plus, atol=1e-12)
    assert math.isclose(trace[0].dx1, np.linalg.norm(x_f_plus - x_f), rel_tol=1e-12)
    state, _ = run_dys(p, params, RealVector(z), StoppingRule(tol=1e-9, max_iter=5000))
    assert composite_residual(p, StoppingRule().prox_gamma, state.x3) < 1e-9


ALL_CHECKS = (
    ("gradient-oracles", check_gradient_oracles),
    ("lipschitz-bounds", check_lipschitz_bounds),
    ("prox-oracles", check_prox_oracles),
    ("spectral-prox", check_spectral_prox),
    ("stepsize-planner", check_planner),
    ("displacement-identities", check_identities),
    ("envelope-consistency", check_envelope_consistency),
    ("sufficient-descent", check_descent),
    ("convex-sanity", check_convex_sanity),
    ("davis-yin-baseline", check_dys_transcription),
)


def run_all_checks() -> bool:
    ok = True
    for name, fn in ALL_CHECKS:
        try:
            fn()
        except AssertionError as exc:
            ok = False
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return ok
