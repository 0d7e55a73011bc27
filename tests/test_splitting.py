import csv
import dataclasses
import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisplit.baselines as baselines
import trisplit.bench as bench
import trisplit.splitting as splitting
from trisplit import (
    AdaptiveController,
    CallableSmoothTerm,
    CompositeProblem,
    DivergenceError,
    DysParams,
    EnvelopeUndefinedError,
    InputError,
    NumericalError,
    ProxTerm,
    QuadraticTerm,
    RealVector,
    RelaxationParams,
    ScaledL1Term,
    SpectralMCPTerm,
    SplitState,
    StoppingRule,
    ZeroProxTerm,
    build_problem,
    composite_residual,
    descent_constants,
    evaluate_objective,
    generate_instance,
    identity_check,
    lagrangian_value,
    make_state,
    plan,
    run_experiment,
    run_ryu,
    ryu_envelope_moreau,
    run_dys,
    ryu_step,
    state_envelope,
    write_trace_csv,
    write_trace_json,
)
from trisplit.checks import convex_l1_problem, make_quadratic_problem
from trisplit.splitting import CERTIFICATE_WINDOW, TRACE_COLUMNS

from bits import bits


class NoModulus(ProxTerm):
    """Delegates to an f3 without stating its weak-convexity modulus, as a
    timing wrapper does, so the solvers take the exact residual at every step."""

    def __init__(self, inner):
        self.inner = inner

    def value(self, x):
        return self.inner.value(x)

    def prox(self, gamma, z):
        return self.inner.prox(gamma, z)

    def prox_with_value(self, gamma, z):
        return self.inner.prox_with_value(gamma, z)


class Drift(ProxTerm):
    """The linear f3(x) = -c sum(x), whose prox moves every entry by gamma c."""

    def __init__(self, c):
        self.c = c

    def value(self, x):
        return -self.c * float(x.data.sum())

    def prox(self, gamma, z):
        return z.with_data(z.data + gamma * self.c)


def overflowing_problem():
    """From z = 0 the start's x3 is gamma c = 1e308, so the exact residual's
    norm overflows to inf, and so does the first relaxation at lam = 2,
    z + 2 (x3 - 0)."""
    q = QuadraticTerm(matrix=1e-3 * np.eye(1), center=np.zeros(1))
    return CompositeProblem(f1=q, f2=q, f3=Drift(1e308), shape=(1,))


class TestParams:
    def test_relaxation_params_validation(self):
        for gamma in (0.0, math.inf, math.nan):
            with pytest.raises(InputError, match="gamma must be positive and finite"):
                RelaxationParams(gamma=gamma)
        with pytest.raises(InputError):
            RelaxationParams(gamma=0.1, lam=2.5)
        with pytest.raises(InputError):
            RelaxationParams(gamma=0.1, alpha=0.0)
        with pytest.raises(InputError):
            RelaxationParams(gamma=0.1, alpha=1.2)

    def test_proximal_weights(self):
        p = RelaxationParams(gamma=0.4, alpha=0.8)
        assert p.gamma1 == pytest.approx(0.5)
        assert p.gamma2 == pytest.approx(2.0)
        assert RelaxationParams(gamma=0.4, alpha=1.0).gamma2 == math.inf

    def test_stopping_rule_validation(self):
        with pytest.raises(InputError):
            StoppingRule(prox_gamma=0.0)
        with pytest.raises(InputError):
            StoppingRule(tol=-1.0)
        for bad in (0, 2.5, math.inf, math.nan, True):
            with pytest.raises(InputError, match="max_iter"):
                StoppingRule(max_iter=bad)
        for bad in (math.inf, math.nan):
            with pytest.raises(InputError, match="tol"):
                StoppingRule(tol=bad)
            with pytest.raises(InputError, match="prox_gamma"):
                StoppingRule(prox_gamma=bad)


class TestStepTranscription:
    def test_one_step_by_hand_in_1d(self):
        # f1 = f2 = x^2/2, f3 = 0: every map has a one-line closed form
        prob = CompositeProblem(
            f1=QuadraticTerm(matrix=np.eye(1), center=np.zeros(1)),
            f2=QuadraticTerm(matrix=np.eye(1), center=np.zeros(1)),
            f3=ZeroProxTerm(),
            shape=(1,),
        )
        g, lam, al = 0.1, 1.2, 0.9
        params = RelaxationParams(gamma=g, lam=lam, alpha=al)
        z1, z2 = 1.0, 0.5
        x1 = z1 / (1 + g)
        x2 = (z2 / al + x1) / (1 + g / al)
        x3 = x1 - z1 + x2 - z2
        s = make_state(prob, params, RealVector([z1], (1,)), RealVector([z2], (1,)))
        assert s.x1.data[0] == pytest.approx(x1, rel=1e-15)
        assert s.x2.data[0] == pytest.approx(x2, rel=1e-15)
        assert s.x3.data[0] == pytest.approx(x3, rel=1e-15)
        nxt = ryu_step(prob, params, s)
        assert nxt.z1.data[0] == pytest.approx(z1 + lam * (x3 - x1), rel=1e-15)
        assert nxt.z2.data[0] == pytest.approx(z2 + lam * (x3 - x2), rel=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_prox_optimality_identities(self, seed):
        # x1 = prox_{g f1}(z1) forces z1 = g grad f1(x1) + x1 exactly;
        # x2 = prox_{(g/al) f2}(z2/al + x1) forces z2 = g grad f2(x2) + al (x2 - x1)
        rng = np.random.default_rng(seed)
        prob = make_quadratic_problem(rng, d=6)
        params = RelaxationParams(gamma=float(rng.uniform(0.01, 0.3)), alpha=0.85)
        z1 = RealVector(rng.standard_normal(6), (6,))
        z2 = RealVector(rng.standard_normal(6), (6,))
        s = make_state(prob, params, z1, z2)
        lhs1 = params.gamma * prob.f1.grad(s.x1).data + s.x1.data
        npt.assert_allclose(lhs1, z1.data, rtol=1e-10, atol=1e-10)
        lhs2 = params.gamma * prob.f2.grad(s.x2).data + params.alpha * (s.x2.data - s.x1.data)
        npt.assert_allclose(lhs2, z2.data, rtol=1e-10, atol=1e-10)

    def test_smooth_prox_gradient_fallback(self):
        # a smooth term given only through callables still proxes correctly
        c = np.array([2.0, -1.0])
        t = CallableSmoothTerm(
            value_fn=lambda x: 0.5 * float(((x.data - c) ** 2).sum()),
            grad_fn=lambda x: x.with_data(x.data - c),
            lipschitz=1.0,
        )
        z = RealVector([0.5, 0.5], (2,))
        g = 0.7
        out = t.prox(g, z)
        npt.assert_allclose(out.data, (z.data + g * c) / (1 + g), rtol=1e-9)

    def test_smooth_prox_gradient_fallback_fails_loudly(self):
        # ill-conditioned: 10000 steps contract the 0.01-curvature coordinate
        # too little, and the last iterate would be -1.135 where the prox is -1
        h = np.array([100.0, 0.01])
        t = CallableSmoothTerm(
            value_fn=lambda x: 0.5 * float((h * x.data**2).sum()),
            grad_fn=lambda x: x.with_data(h * x.data),
            lipschitz=100.0,
        )
        with pytest.raises(NumericalError):
            t.prox(100.0, RealVector([1.0, -2.0], (2,)))

    def test_step_overflow_raises_divergence(self):
        prob = CompositeProblem(
            f1=QuadraticTerm(matrix=np.eye(1), center=np.zeros(1)),
            f2=QuadraticTerm(matrix=np.eye(1), center=np.zeros(1)),
            f3=ZeroProxTerm(),
            shape=(1,),
        )
        big = RealVector([1e308], (1,))
        zero = RealVector([0.0], (1,))
        s = SplitState(z1=big, z2=zero, x1=zero, x2=zero, x3=big, f3_at_x3=0.0, u=np.zeros(1))
        # outside a run there is no iteration to name
        with pytest.raises(DivergenceError, match="^z1 became non-finite$"):
            ryu_step(prob, RelaxationParams(gamma=0.1, lam=2.0), s)


class TestEnvelope:
    def probe(self, seed, f3="l1"):
        rng = np.random.default_rng(seed)
        prob = make_quadratic_problem(rng, d=5, f3=f3)
        cap = 1.0 / (prob.f1.lipschitz + prob.f2.lipschitz)
        params = RelaxationParams(gamma=0.8 * cap, alpha=0.8, lam=1.0)
        z1 = RealVector(rng.standard_normal(5), (5,))
        z2 = RealVector(rng.standard_normal(5), (5,))
        return prob, params, z1, z2

    def test_min_form_value_matches_grid_in_1d(self):
        prob = CompositeProblem(
            f1=QuadraticTerm(matrix=2.0 * np.eye(1), center=np.ones(1)),
            f2=QuadraticTerm(matrix=np.eye(1), center=-np.ones(1)),
            f3=ScaledL1Term(weight=0.7),
            shape=(1,),
        )
        params = RelaxationParams(gamma=0.2, alpha=0.75)
        z1, z2 = RealVector([0.6], (1,)), RealVector([-0.3], (1,))
        s = make_state(prob, params, z1, z2)
        val = state_envelope(prob, params, s)
        g1 = prob.f1.grad(s.x1).data[0]
        g2 = prob.f2.grad(s.x2).data[0]

        def envelope_objective(t):
            return (
                0.7 * abs(t)
                + prob.f1.value(s.x1)
                + g1 * (t - s.x1.data[0])
                + (t - s.x1.data[0]) ** 2 / (2 * params.gamma1)
                + prob.f2.value(s.x2)
                + g2 * (t - s.x2.data[0])
                + (t - s.x2.data[0]) ** 2 / (2 * params.gamma2)
            )

        grid = np.linspace(-10, 10, 200001)
        grid_min = min(envelope_objective(t) for t in grid)
        # the minimizing point is the f3-prox of the anchor, i.e. x3
        assert val == pytest.approx(envelope_objective(s.x3.data[0]), rel=1e-12)
        assert val <= grid_min + 1e-7

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["l1", "mcp"]))
    @settings(max_examples=30, deadline=None)
    def test_moreau_form_agrees_with_min_form(self, seed, f3):
        prob, params, z1, z2 = self.probe(seed, f3)
        v_min = state_envelope(prob, params, make_state(prob, params, z1, z2))
        v_mor = ryu_envelope_moreau(prob, params, z1, z2)
        assert v_mor == pytest.approx(v_min, rel=1e-10, abs=1e-10)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lagrangian_with_gradient_multipliers_equals_envelope(self, seed):
        prob, params, z1, z2 = self.probe(seed)
        s = make_state(prob, params, z1, z2)
        v_min = state_envelope(prob, params, s)
        mu1 = -prob.f1.grad(s.x1)
        mu2 = -prob.f2.grad(s.x2)
        v_lag = lagrangian_value(
            prob, 1.0 / params.gamma1, 1.0 / params.gamma2, s.x1, s.x2, s.x3, mu1, mu2
        )
        assert v_lag == pytest.approx(v_min, rel=1e-12, abs=1e-12)

    def test_state_envelope_reuses_cached_value(self):
        prob, params, z1, z2 = self.probe(11)
        calls = []

        class Counting(ProxTerm):
            def value(self, x):
                calls.append("value")
                return prob.f3.value(x)

            def prox(self, gamma, z):
                calls.append("prox")
                return prob.f3.prox(gamma, z)

        counted = dataclasses.replace(prob, f3=Counting())
        s = make_state(counted, params, z1, z2)
        calls.clear()
        env = state_envelope(counted, params, s)
        assert calls == []
        # the cached f3(x3) is the value f3 gives when recomputed
        v_lag = lagrangian_value(
            prob, 1.0 / params.gamma1, 1.0 / params.gamma2, s.x1, s.x2, s.x3,
            -prob.f1.grad(s.x1), -prob.f2.grad(s.x2),
        )
        assert env == pytest.approx(v_lag, rel=1e-12)

    def test_envelope_rejects_alpha_one(self):
        prob, _, z1, z2 = self.probe(3)
        params = RelaxationParams(gamma=0.05, alpha=1.0)
        with pytest.raises(EnvelopeUndefinedError):
            ryu_envelope_moreau(prob, params, z1, z2)
        s = make_state(prob, params, z1, z2)
        with pytest.raises(EnvelopeUndefinedError):
            state_envelope(prob, params, s)


class TestIdentitiesAndDescent:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_displacement_identities_along_run(self, seed):
        rng = np.random.default_rng(seed)
        prob = make_quadratic_problem(rng, d=6)
        pl = plan(prob.f1.lipschitz, prob.f2.lipschitz, lam=1.0, alpha=0.8)
        params = RelaxationParams(gamma=pl.gamma_ryu, lam=1.0, alpha=0.8)
        s = make_state(
            prob,
            params,
            RealVector(rng.standard_normal(6), (6,)),
            RealVector(rng.standard_normal(6), (6,)),
        )
        for _ in range(25):
            nxt = ryu_step(prob, params, s)
            lhs1, rhs1, lhs2, rhs2 = identity_check(prob, params, s, nxt)
            assert abs(lhs1 - rhs1) <= 1e-10 * (1.0 + abs(lhs1))
            assert abs(lhs2 - rhs2) <= 1e-10 * (1.0 + abs(lhs2))
            s = nxt

    def test_descent_constants_positive_at_planned_stepsize(self):
        pl = plan(10.0, 1.0, lam=1.0, alpha=0.99)
        params = RelaxationParams(gamma=pl.gamma_ryu, lam=1.0, alpha=0.99)
        dc = descent_constants(10.0, 1.0, params, pl.eps1, pl.eps2)
        assert dc.C0 >= 0 and dc.C1 >= 0
        assert dc.C2 > 0 and dc.C3 > 0
        assert dc.C4 == pytest.approx(min(dc.C2, dc.C3))
        assert dc.M > 0

    @pytest.mark.parametrize(
        "L1, L2, eps1, eps2",
        [(math.nan, 1.0, 2.0, 2.0), (1.0, math.inf, 2.0, 2.0), (0.0, 1.0, 2.0, 2.0),
         (1.0, 1.0, math.nan, 2.0), (1.0, 1.0, 2.0, -1.0), (1.0, 1.0, math.inf, 2.0), (1.0, 1.0, 2.0, math.inf)],
    )
    def test_descent_constants_reject_bad_moduli_and_epsilons(self, L1, L2, eps1, eps2):
        with pytest.raises(InputError):
            descent_constants(L1, L2, RelaxationParams(0.01, 1.0, 0.9), eps1, eps2)

    def test_envelope_decreases_with_certified_margin(self, rng):
        prob = make_quadratic_problem(rng, d=6, f3="mcp")
        l1, l2 = prob.f1.lipschitz, prob.f2.lipschitz
        alpha = 0.8
        pl = plan(l1, l2, lam=1.0, alpha=alpha)
        params = RelaxationParams(gamma=pl.gamma_ryu, lam=1.0, alpha=alpha)
        dc = descent_constants(l1, l2, params, pl.eps1, pl.eps2)
        s = make_state(
            prob,
            params,
            RealVector(rng.standard_normal(6) * 3, (6,)),
            RealVector(rng.standard_normal(6) * 3, (6,)),
        )
        env = state_envelope(prob, params, s)
        for _ in range(200):
            nxt = ryu_step(prob, params, s)
            env_next = state_envelope(prob, params, nxt)
            dz = (nxt.z1 - s.z1).norm() ** 2 + (nxt.z2 - s.z2).norm() ** 2
            assert env - env_next >= dc.M * dz - 1e-9 * (1.0 + abs(env))
            env, s = env_next, nxt


class TestResidual:
    def test_zero_exactly_at_analytic_critical_point(self):
        prob, xstar = convex_l1_problem(d=4, seed=5)
        assert composite_residual(prob, 5e-3, xstar) < 1e-12

    def test_positive_away_from_critical_points(self):
        prob, xstar = convex_l1_problem(d=4, seed=5)
        off = xstar + RealVector(np.full(4, 0.5), (4,))
        assert composite_residual(prob, 5e-3, off) > 1e-4

    def test_rejects_bad_prox_gamma(self):
        prob, xstar = convex_l1_problem(d=2)
        with pytest.raises(InputError):
            composite_residual(prob, 0.0, xstar)


class TestRunRyu:
    def test_converges_to_analytic_minimizer(self):
        prob, xstar = convex_l1_problem(d=5, seed=2)
        pl = plan(prob.f1.lipschitz, prob.f2.lipschitz, lam=1.0, alpha=0.8)
        params = RelaxationParams(gamma=pl.gamma_ryu, lam=1.0, alpha=0.8)
        state, trace = run_ryu(
            prob, params, stop=StoppingRule(tol=1e-9, max_iter=50000)
        )
        assert (state.x3 - xstar).norm() < 1e-6
        assert trace[-1].residual < 1e-9
        ks = [r.k for r in trace]
        assert ks == list(range(1, len(trace) + 1))

    def test_fixed_point_start_returns_empty_trace(self):
        prob, xstar = convex_l1_problem(d=3, seed=9)
        g = 0.05
        params = RelaxationParams(gamma=g, lam=1.0, alpha=0.8)
        z1 = xstar + prob.f1.grad(xstar) * g
        z2 = prob.f2.grad(xstar) * g
        state, trace = run_ryu(prob, params, z1_0=z1, z2_0=z2)
        assert trace == []
        assert (state.x3 - xstar).norm() < 1e-9

    def test_envelope_column_follows_flag(self):
        prob, _ = convex_l1_problem(d=3, seed=4)
        cap = 1.0 / (prob.f1.lipschitz + prob.f2.lipschitz)
        params = RelaxationParams(gamma=0.5 * cap, lam=1.0, alpha=0.8)
        stop = StoppingRule(tol=1e-7, max_iter=40)
        _, auto = run_ryu(prob, params, stop=stop)
        assert all(r.envelope is not None for r in auto)
        # above the prox-boundedness threshold recording is off
        params_big = RelaxationParams(gamma=2.0 * cap, lam=1.0, alpha=0.8)
        _, big = run_ryu(prob, params_big, stop=stop)
        assert all(r.envelope is None for r in big)

    def test_envelope_rule_at_the_planner_bounds(self):
        # recorded at the planner's largest admissible stepsize, which lies
        # below 1/(L1+L2) here; not recorded at 1/(L1+L2) itself
        prob, _ = convex_l1_problem(d=3, seed=4)
        L1, L2 = prob.f1.lipschitz, prob.f2.lipschitz
        stop = StoppingRule(tol=1e-12, max_iter=5)
        upper = plan(L1, L2, lam=1.0, alpha=0.8).gamma_upper
        assert upper < 1.0 / (L1 + L2)
        _, at_upper = run_ryu(prob, RelaxationParams(gamma=upper, lam=1.0, alpha=0.8), stop=stop)
        assert len(at_upper) == 5 and all(r.envelope is not None for r in at_upper)
        _, at_cap = run_ryu(prob, RelaxationParams(gamma=1.0 / (L1 + L2), lam=1.0, alpha=0.8), stop=stop)
        assert len(at_cap) == 5 and all(r.envelope is None for r in at_cap)

    def test_alpha_one_runs_without_envelope(self):
        prob, xstar = convex_l1_problem(d=3, seed=6)
        params = RelaxationParams(gamma=0.05, lam=1.0, alpha=1.0)
        state, trace = run_ryu(prob, params, stop=StoppingRule(tol=1e-8, max_iter=20000))
        assert all(r.envelope is None for r in trace)
        assert (state.x3 - xstar).norm() < 1e-5

    START = RealVector(np.full(4, 1e11))

    @classmethod
    def cutting_run(cls, stop):
        """ryu from 50 gamma_ryu and z1 = z2 = 1e11 (shadow points far past the
        controller's 1e10 norm trigger), so it cuts before every step until the floor."""
        prob, _ = convex_l1_problem(d=4, seed=8)
        pl = plan(prob.f1.lipschitz, prob.f2.lipschitz, lam=1.0, alpha=0.8)
        ctrl = AdaptiveController(gamma_ryu=pl.gamma_ryu, gamma_current=50.0 * pl.gamma_ryu)
        params = RelaxationParams(gamma=ctrl.gamma_current, lam=1.0, alpha=0.8)
        state, trace = run_ryu(prob, params, cls.START, cls.START, stop=stop, controller=ctrl)
        return prob, pl, ctrl, state, trace

    @classmethod
    def replay(cls, prob, trace):
        """The cutting run's steps by hand, each at the stepsize its record
        gives; returns the final state, each step's objective, and each step's
        (start, next) states, the start rebuilt at the step's stepsize."""
        params = RelaxationParams(gamma=trace[0].gamma, lam=1.0, alpha=0.8)
        s = make_state(prob, params, cls.START, cls.START)
        objectives, steps = [], []
        for rec in trace:
            if rec.gamma != params.gamma:
                params = RelaxationParams(gamma=rec.gamma, lam=1.0, alpha=0.8)
                s = make_state(prob, params, s.z1, s.z2)
            nxt = ryu_step(prob, params, s)
            steps.append((s, nxt))
            s = nxt
            objectives.append(evaluate_objective(prob, s.x3))
        return s, objectives, steps

    def test_controller_shrinks_gamma_and_trace_records_it(self):
        prob, pl, ctrl, _, trace = self.cutting_run(StoppingRule(tol=1e-10, max_iter=200))
        gammas = [r.gamma for r in trace]
        assert all(b <= a for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] == pytest.approx(ctrl.floor)
        assert gammas[0] == pytest.approx(50.0 * pl.gamma_ryu)
        # each record's gamma is the stepsize its step ran at
        _, objectives, _ = self.replay(prob, trace)
        assert [r.objective for r in trace] == pytest.approx(objectives, rel=1e-12)

    def test_every_trace_column_measures_its_step_states(self):
        # a cut step's dx1 and dx2 measure from the start rebuilt at the new
        # stepsize, not from the state the previous step returned
        prob, _, _, _, trace = self.cutting_run(StoppingRule(tol=1e-10, max_iter=200))
        _, _, steps = self.replay(prob, trace)
        assert len(trace) == 200 and len({r.gamma for r in trace}) > 1
        dist = splitting._dist
        for rec, (s, nxt) in zip(trace, steps):
            assert bits((rec.dz1, rec.dz2, rec.dx1, rec.dx2, rec.gap31, rec.gap32)) == bits((
                dist(nxt.z1, s.z1),
                dist(nxt.z2, s.z2),
                dist(nxt.x1, s.x1),
                dist(nxt.x2, s.x2),
                dist(nxt.x3, nxt.x1),
                dist(nxt.x3, nxt.x2),
            ))

    def test_a_controller_must_start_at_the_run_stepsize(self, tiny_instance, monkeypatch):
        # a controller started above params.gamma would raise the stepsize at
        # its first step; the run is refused before any state is built
        prob = build_problem(tiny_instance)
        pl = plan(prob.f1.lipschitz, prob.f2.lipschitz)
        ctrl = AdaptiveController(gamma_ryu=pl.gamma_ryu, gamma_current=0.5)
        assert ctrl.gamma_current == 0.5
        built, real_make_state = [], splitting.make_state

        def spy(*args):
            built.append(args)
            return real_make_state(*args)

        monkeypatch.setattr(splitting, "make_state", spy)
        with pytest.raises(InputError, match="controller"):
            run_ryu(prob, RelaxationParams(gamma=0.01), controller=ctrl)
        assert built == []

    def test_the_loop_numbers_the_records_of_every_solver(self):
        # ryu+ across its controller's cuts, and ryu and dys from the same start
        prob, _, _, _, cutting = self.cutting_run(StoppingRule(tol=1e-10, max_iter=200))
        assert len({r.gamma for r in cutting}) > 1
        stop = StoppingRule(tol=1e-10, max_iter=60)
        params = RelaxationParams(gamma=cutting[-1].gamma, lam=1.0, alpha=0.8)
        _, fixed = run_ryu(prob, params, self.START, self.START, stop)
        _, dys = run_dys(prob, DysParams(gamma=0.5 / prob.f1.lipschitz), self.START, stop)
        for trace in (cutting, fixed, dys):
            assert [r.k for r in trace] == list(range(1, len(trace) + 1))

    def test_a_step_records_the_envelope_exactly_below_the_prox_bound(self):
        # the cutting run starts above 1/(L1+L2) and cuts down to a floor below it
        prob, _, ctrl, _, trace = self.cutting_run(StoppingRule(tol=1e-10, max_iter=200))
        bound = 1.0 / (prob.f1.lipschitz + prob.f2.lipschitz)
        assert trace[0].gamma > bound > ctrl.floor
        assert [r.envelope is not None for r in trace] == [r.gamma < bound for r in trace]
        assert {r.envelope is None for r in trace} == {True, False}

    def test_envelope_monotone_compares_only_envelopes_at_one_stepsize(self):
        # the envelope rises across the cuts after steps 3 and 4, where it
        # changes function, and never between two records at the same stepsize
        prob, _, _, _, trace = self.cutting_run(StoppingRule(tol=1e-10, max_iter=200))
        recorded = [r for r in trace if r.envelope is not None]
        rises = [(a.k, b.k, a.gamma == b.gamma) for a, b in zip(recorded, recorded[1:]) if b.envelope > a.envelope]
        assert rises == [(3, 4, False), (4, 5, False)]
        assert bench._envelope_monotone(trace) is True

    def test_controller_is_not_consulted_after_the_last_iteration(self):
        # a cut after the third and last step would return a state rebuilt at
        # a stepsize that no iteration ran at
        prob, _, ctrl, state, trace = self.cutting_run(StoppingRule(tol=1e-12, max_iter=3))
        assert [r.k for r in trace] == [1, 2, 3]
        assert ctrl.gamma_current == trace[-1].gamma
        assert evaluate_objective(prob, state.x3) == pytest.approx(trace[-1].objective, rel=1e-12)
        replayed, _, _ = self.replay(prob, trace)
        npt.assert_array_equal(state.x3.data, replayed.x3.data)

    def test_solvers_reach_the_minimizer_through_the_fallback_prox(self):
        # twins of f1 and f2 without a closed-form prox: ryu proxes both, and
        # Davis-Yin proxes f2, through SmoothTerm.prox's gradient descent
        prob, xstar = convex_l1_problem(d=4, seed=3)
        twins = {
            name: CallableSmoothTerm(value_fn=t.value, grad_fn=t.grad, lipschitz=t.lipschitz)
            for name, t in (("f1", prob.f1), ("f2", prob.f2))
        }
        prob = dataclasses.replace(prob, **twins)
        stop = StoppingRule(tol=1e-9, max_iter=50000)
        pl = plan(prob.f1.lipschitz, prob.f2.lipschitz, lam=1.0, alpha=0.8)
        state, _ = run_ryu(prob, RelaxationParams(gamma=pl.gamma_ryu, lam=1.0, alpha=0.8), stop=stop)
        assert (state.x3 - xstar).norm() < 1e-6
        state, _ = run_dys(prob, DysParams(gamma=0.9 / prob.f1.lipschitz), stop=stop)
        assert (state.x3 - xstar).norm() < 1e-6

    def test_divergence_attaches_partial_trace(self, monkeypatch):
        prob, _ = convex_l1_problem(d=3, seed=1)
        params = RelaxationParams(gamma=0.05, lam=1.0, alpha=0.8)
        real_step = splitting.ryu_step
        calls = {"n": 0}

        def flaky(p, pr, s):
            calls["n"] += 1
            if calls["n"] > 3:
                raise DivergenceError("synthetic blow-up")
            return real_step(p, pr, s)

        monkeypatch.setattr(splitting, "ryu_step", flaky)
        with pytest.raises(DivergenceError, match="^synthetic blow-up at iteration 4$") as exc_info:
            run_ryu(prob, params, stop=StoppingRule(tol=1e-12, max_iter=50))
        assert len(exc_info.value.trace) == 3

    def test_nonfinite_residual_is_divergence(self, monkeypatch):
        # an f3 that states no modulus: every residual is the exact one
        prob, _ = convex_l1_problem(d=3, seed=1)
        prob = dataclasses.replace(prob, f3=NoModulus(prob.f3))
        params = RelaxationParams(gamma=0.05, lam=1.0, alpha=0.8)
        residuals = iter([1.0, 0.5, 0.25, math.inf])
        monkeypatch.setattr(splitting, "composite_residual", lambda p, g, x: next(residuals))
        with pytest.raises(DivergenceError) as exc_info:
            run_ryu(prob, params, stop=StoppingRule(tol=1e-12, max_iter=50))
        assert [r.k for r in exc_info.value.trace] == [1, 2]
        assert str(exc_info.value) == "objective or residual became non-finite at iteration 3"

    @pytest.mark.parametrize(
        "run, name",
        [
            (lambda prob: run_ryu(prob, RelaxationParams(gamma=1.0, lam=2.0)), "z1"),
            (lambda prob: run_dys(prob, DysParams(gamma=1.0, lam=2.0)), "z"),
        ],
        ids=["ryu", "dys"],
    )
    def test_an_overflowing_governing_variable_is_named_with_its_step(self, run, name, monkeypatch):
        # the residual is held at 1, as the exact one overflows at this scale
        monkeypatch.setattr(splitting, "composite_residual", lambda p, g, x: 1.0)
        with pytest.raises(DivergenceError, match=f"^{name} became non-finite at iteration 1$") as exc_info:
            run(overflowing_problem())
        assert exc_info.value.trace == ()

    @pytest.mark.parametrize(
        "run",
        [
            lambda prob: run_ryu(prob, RelaxationParams(gamma=1.0, lam=2.0)),
            lambda prob: run_dys(prob, DysParams(gamma=1.0, lam=2.0)),
        ],
        ids=["ryu", "dys"],
    )
    def test_a_start_whose_residual_overflows_takes_no_step(self, run, monkeypatch):
        relaxed, real_relax = [], splitting._relax

        def spy(*args):
            relaxed.append(args)
            return real_relax(*args)

        monkeypatch.setattr(splitting, "_relax", spy)
        monkeypatch.setattr(baselines, "_relax", spy)
        with pytest.raises(NumericalError, match="at the start"), np.errstate(over="ignore"):
            run(overflowing_problem())
        assert relaxed == []

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_nonfinite_certificate_is_divergence(self, monkeypatch, bad):
        # l1 states rho = 0, so away from the tolerance the certificate is the residual
        prob, _ = convex_l1_problem(d=3, seed=1)
        params = RelaxationParams(gamma=0.05, lam=1.0, alpha=0.8)
        certificates = iter([0.5, 0.25, bad])
        monkeypatch.setattr(splitting, "_certificate", lambda p, g, rho, x, u: next(certificates))
        with pytest.raises(DivergenceError) as exc_info:
            run_ryu(prob, params, stop=StoppingRule(tol=1e-12, max_iter=50))
        assert [(r.k, r.residual) for r in exc_info.value.trace] == [(1, 0.5), (2, 0.25)]

    def test_huge_finite_start_is_numerical_error(self, tiny_instance):
        # a finite start whose arithmetic overflows is lost numerics, not bad input
        for prob in (build_problem(tiny_instance), convex_l1_problem(d=4)[0]):
            z0 = RealVector(np.full(prob.dim, 1.7e308), prob.shape)
            with pytest.raises(NumericalError), np.errstate(over="ignore"):
                run_ryu(prob, RelaxationParams(gamma=0.05), z1_0=z0, z2_0=z0)

    def test_overflowing_f2_prox_stepsize_is_numerical_error(self, tiny_instance):
        # gamma/alpha overflows although gamma and alpha are valid: lost numerics, not bad input
        prob = build_problem(tiny_instance)
        with pytest.raises(NumericalError, match="overflows"):
            run_ryu(prob, RelaxationParams(gamma=1e308, lam=0.5, alpha=0.4), stop=StoppingRule(max_iter=2))

    def test_objective_column_matches_direct_evaluation(self):
        prob, _ = convex_l1_problem(d=4, seed=3)
        params = RelaxationParams(gamma=0.05, lam=1.0, alpha=0.8)
        state, trace = run_ryu(prob, params, stop=StoppingRule(tol=1e-6, max_iter=30))
        assert trace[-1].objective == pytest.approx(
            evaluate_objective(prob, state.x3), rel=1e-12
        )

    @pytest.mark.parametrize("algo", ["ryu", "ryu+", "dys"])
    def test_every_solver_is_recorded_at_its_x3(self, tiny_instance, algo):
        # the loop reads the objective and the residual at each state's x3 alone
        p, stop, _, solve, _ = bench._set_up(tiny_instance, algo)
        state, trace = solve()
        assert float(p.f1.value(state.x3)) + float(p.f2.value(state.x3)) + state.f3_at_x3 == trace[-1].objective
        assert composite_residual(p, stop.prox_gamma, state.x3) == trace[-1].residual


PROTOCOL_SEED = dict(m=100, n=100, r=10, s=1000)


def certificate_spy(monkeypatch):
    """Record (certificate, exact residual) at every certificate a run takes."""
    seen = []
    real = splitting._certificate

    def spy(p, g, rho, x, u):
        cert = real(p, g, rho, x, u)
        seen.append((cert, composite_residual(p, g, x)))
        return cert

    monkeypatch.setattr(splitting, "_certificate", spy)
    return seen


def forbid_certificate(monkeypatch):
    def fail(*args):
        raise AssertionError("a certificate was taken")

    monkeypatch.setattr(splitting, "_certificate", fail)


def certified_rows(exact, windowed, tol):
    """Check that two reports of one run agree bit for bit in every field but
    time_ms and trace, and their traces in every field but residual and
    time_ms. A residual inside the window or on the last row must be the
    exact one; elsewhere it must be at least the exact one. Returns the number
    of rows whose residual differs."""
    assert bits(windowed, ("time_ms", "trace")) == bits(exact, ("time_ms", "trace"))
    assert len(windowed.trace) == len(exact.trace)
    for w, e in zip(windowed.trace, exact.trace):
        assert bits(w, ("residual", "time_ms")) == bits(e, ("residual", "time_ms"))
        if w.residual < CERTIFICATE_WINDOW * tol or w is windowed.trace[-1]:
            assert w.residual == e.residual
        else:
            assert w.residual >= e.residual
    return sum(w.residual != e.residual for w, e in zip(windowed.trace, exact.trace))


class TestResidualCertificate:
    def test_every_state_carries_the_subgradient_its_f3_prox_yields(self, tiny_instance, monkeypatch):
        # u = (anchor - x3)/gamma bit for bit, with the anchor formed by hand
        # from the state's fields and gamma from the step's record: every
        # (start, next) pair the loop sees for ryu and dys on the 12x9
        # instance, and every pair of the cutting run, cut rebuilds included
        def anchor(prob, s, gamma):
            if isinstance(s, SplitState):
                return s.x1.data - s.z1.data + s.x2.data - s.z2.data
            return 2.0 * s.x_f.data - s.z.data - gamma * prob.f1.grad(s.x_f).data

        prob, _, _, _, trace = TestRunRyu.cutting_run(StoppingRule(tol=1e-10, max_iter=200))
        assert len({r.gamma for r in trace}) > 1
        _, _, steps = TestRunRyu.replay(prob, trace)
        checked = [(prob, s, rec.gamma) for rec, pair in zip(trace, steps) for s in pair]
        seen, real_iterate = [], splitting._iterate

        def watching_iterate(p, stop, state, step):
            def watched(s, prev):
                nxt, fields = step(s, prev)
                seen.append((s, nxt))
                return nxt, fields

            return real_iterate(p, stop, state, watched)

        monkeypatch.setattr(splitting, "_iterate", watching_iterate)
        monkeypatch.setattr(baselines, "_iterate", watching_iterate)
        tiny = build_problem(tiny_instance)
        stop = StoppingRule(tol=1e-6, max_iter=300)
        gamma_ryu = plan(tiny.f1.lipschitz, tiny.f2.lipschitz).gamma_ryu
        for run in (
            lambda: run_ryu(tiny, RelaxationParams(gamma=gamma_ryu), stop=stop),
            lambda: run_dys(tiny, DysParams(gamma=0.5 / tiny.f1.lipschitz), stop=stop),
        ):
            seen.clear()
            _, tiny_trace = run()
            assert len(seen) == len(tiny_trace) > 10
            checked += [(tiny, s, rec.gamma) for rec, pair in zip(tiny_trace, seen) for s in pair]
        for p, s, gamma in checked:
            assert s.u.tobytes() == ((anchor(p, s, gamma) - s.x3.data) / gamma).tobytes()
            assert not s.u.flags.writeable and not np.shares_memory(s.u, s.x3.data)
        with pytest.raises(ValueError):
            checked[-1][1].u[0] = 0.0

    @pytest.mark.parametrize("algo", ["ryu", "ryu+", "dys"])
    def test_bounds_the_residual_on_the_protocol_instance(self, monkeypatch, algo):
        # tol = 1e-12 keeps every step but the last outside the window
        seen = certificate_spy(monkeypatch)
        inst = generate_instance(**PROTOCOL_SEED, seed=0)
        rep = run_experiment(inst, algo, stop=StoppingRule(tol=1e-12, max_iter=200))
        assert len(seen) == 199
        assert all(cert >= exact for cert, exact in seen)
        assert [r.residual for r in rep.trace[:-1]] == [cert for cert, _ in seen]

    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_the_residual_on_mcp_quadratics(self, monkeypatch, seed):
        seen = certificate_spy(monkeypatch)
        prob = make_quadratic_problem(np.random.default_rng(seed), d=6, f3="mcp")
        assert prob.f3.weak_convexity == 0.15
        stop = StoppingRule(tol=1e-9, max_iter=300)
        pl = plan(prob.f1.lipschitz, prob.f2.lipschitz, lam=1.0, alpha=0.8)
        run_ryu(prob, RelaxationParams(gamma=pl.gamma_ryu, lam=1.0, alpha=0.8), stop=stop)
        run_dys(prob, DysParams(gamma=0.9 / prob.f1.lipschitz), stop=stop)
        assert len(seen) >= 100
        # tight here: where every coordinate of x lies on an affine piece of
        # the firm threshold, the prox's Lipschitz bound holds with equality,
        # so rounding may put the certificate a few ulps below the residual
        assert all(cert >= exact * (1.0 - 1e-12) - 1e-15 for cert, exact in seen)

    @pytest.mark.parametrize("algo", ["ryu", "ryu+", "dys"])
    def test_a_term_without_modulus_takes_the_exact_residual_every_step(self, monkeypatch, tiny_instance, algo):
        stop = StoppingRule(tol=1e-4, max_iter=3000)
        windowed = run_experiment(tiny_instance, algo, stop=stop)
        real_build, real_residual, residuals = bench.build_problem, splitting.composite_residual, []

        def build_without_modulus(inst):
            p = real_build(inst)
            return dataclasses.replace(p, f3=NoModulus(p.f3))

        def exact_residual(p, g, x):
            residuals.append(real_residual(p, g, x))
            return residuals[-1]

        monkeypatch.setattr(bench, "build_problem", build_without_modulus)
        monkeypatch.setattr(splitting, "composite_residual", exact_residual)
        forbid_certificate(monkeypatch)
        exact = run_experiment(tiny_instance, algo, stop=stop)
        assert [r.residual for r in exact.trace] == residuals[1:]  # the first is the start's
        assert certified_rows(exact, windowed, stop.tol) > 0

    def test_no_certificate_where_prox_gamma_times_rho_reaches_one(self, monkeypatch, tiny_instance):
        inst = dataclasses.replace(tiny_instance, tau=1e-300)
        assert StoppingRule().prox_gamma * build_problem(inst).f3.weak_convexity >= 1.0
        forbid_certificate(monkeypatch)
        for algo in ("ryu", "ryu+", "dys"):
            assert len(run_experiment(inst, algo, stop=StoppingRule(tol=1e-12, max_iter=20)).trace) == 20

    def test_protocol_ryu_plus_report_is_the_same_without_the_modulus(self, monkeypatch):
        inst = generate_instance(**PROTOCOL_SEED, seed=1)
        windowed = run_experiment(inst, "ryu+")
        monkeypatch.setattr(SpectralMCPTerm, "weak_convexity", None)
        exact = run_experiment(inst, "ryu+")
        assert windowed.converged and windowed.iterations == 360
        assert certified_rows(exact, windowed, StoppingRule().tol) > 200


class TestTraceExport:
    def make_trace(self):
        prob, _ = convex_l1_problem(d=3, seed=12)
        cap = 1.0 / (prob.f1.lipschitz + prob.f2.lipschitz)
        params = RelaxationParams(gamma=0.5 * cap, lam=1.0, alpha=0.8)
        _, trace = run_ryu(prob, params, stop=StoppingRule(tol=1e-8, max_iter=12))
        return trace

    @staticmethod
    def csv_roundtrip(tmp_path, trace):
        """Write the trace as CSV, read it back, and check that every field of
        every row parses to the record's exact value (blank means None)."""
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as fh:
            write_trace_csv(fh, trace)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == len(trace) + 1
        for rec, row in zip(trace, rows[1:]):
            parsed = [None if v == "" else (int if c == "k" else float)(v) for c, v in zip(TRACE_COLUMNS, row)]
            assert parsed == [getattr(rec, c) for c in TRACE_COLUMNS]
        return rows

    def test_csv_header_and_roundtrip(self, tmp_path):
        trace = self.make_trace()
        rows = self.csv_roundtrip(tmp_path, trace)
        assert rows[0] == list(TRACE_COLUMNS)
        assert rows[0] == "k,gamma,envelope,objective,residual,dz1,dz2,dx1,dx2,gap31,gap32,time_ms".split(",")
        assert all(r.envelope is not None for r in trace)

    def test_csv_blank_envelope_when_absent(self, tmp_path):
        # at alpha = 1 the envelope is undefined, so it is never recorded
        prob, _ = convex_l1_problem(d=3, seed=12)
        params = RelaxationParams(gamma=0.05, lam=1.0, alpha=1.0)
        _, trace = run_ryu(prob, params, stop=StoppingRule(tol=1e-8, max_iter=5))
        rows = self.csv_roundtrip(tmp_path, trace)
        assert len(rows) == 6
        assert all(r[2] == "" for r in rows[1:])

    def test_json_mirrors_columns(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.json"
        with open(path, "w", newline="") as fh:
            write_trace_json(fh, trace)
        data = json.loads(path.read_text())
        assert len(data) == len(trace)
        assert set(data[0]) == set(TRACE_COLUMNS)
        assert data[0]["k"] == 1
        assert data[0]["envelope"] == pytest.approx(trace[0].envelope)
