import dataclasses
import math
import re

import numpy as np
import pytest

import trisplit.baselines as baselines
import trisplit.splitting as splitting
from trisplit import (
    CompositeProblem,
    DivergenceError,
    DysParams,
    InputError,
    NumericalError,
    QuadraticTerm,
    RealVector,
    StoppingRule,
    ZeroProxTerm,
    build_problem,
    run_dys,
)
from trisplit.checks import convex_l1_problem, make_quadratic_problem

from bits import bits


class TestDysParams:
    def test_validation(self):
        for gamma in (0.0, math.inf, math.nan):
            with pytest.raises(InputError, match="gamma must be positive and finite"):
                DysParams(gamma=gamma)
        with pytest.raises(InputError):
            DysParams(gamma=0.1, lam=3.0)


class TestDysStep:
    def test_one_step_by_hand_in_1d(self):
        # f2 = x^2/2 (prox slot), f3 = 0 (second prox slot), f1 = x^2/2 (gradient slot)
        prob = CompositeProblem(
            f1=QuadraticTerm(matrix=np.eye(1), center=np.zeros(1)),
            f2=QuadraticTerm(matrix=np.eye(1), center=np.zeros(1)),
            f3=ZeroProxTerm(),
            shape=(1,),
        )
        g, lam = 0.25, 1.1
        params = DysParams(gamma=g, lam=lam)

        def points(z):
            x_f = z / (1 + g)
            return x_f, 2 * x_f - z - g * x_f  # identity prox of the zero term

        z = 1.4
        x_f, x3 = points(z)
        z_plus = z + lam * (x3 - x_f)
        x_f_plus, x3_plus = points(z_plus)
        state, trace = run_dys(prob, params, RealVector([z], (1,)), StoppingRule(tol=1e-12, max_iter=1))
        assert [r.k for r in trace] == [1]
        assert state.z.data[0] == pytest.approx(z_plus, rel=1e-15)
        assert state.x_f.data[0] == pytest.approx(x_f_plus, rel=1e-15)
        assert state.x3.data[0] == pytest.approx(x3_plus, rel=1e-15)
        assert trace[0].dz1 == pytest.approx(abs(z_plus - z), rel=1e-15)
        assert trace[0].dx1 == pytest.approx(abs(x_f_plus - x_f), rel=1e-15)
        assert trace[0].gap31 == pytest.approx(abs(x3_plus - x_f_plus), rel=1e-15)

    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    def test_rejects_a_misshaped_start_before_any_prox(self, shape, monkeypatch):
        prob, _ = convex_l1_problem(d=4)

        def no_prox(*args):
            raise AssertionError("a prox was taken")

        monkeypatch.setattr(type(prob.f2), "prox", no_prox)
        monkeypatch.setattr(type(prob.f3), "prox_with_value", no_prox)
        with pytest.raises(InputError, match="^" + re.escape(f"z has shape {shape}, problem expects (4,)")):
            run_dys(prob, DysParams(gamma=0.5 / prob.f1.lipschitz), RealVector.zeros(shape))

    def test_rejects_gamma_at_or_above_gradient_cap(self):
        prob, _ = convex_l1_problem(d=2)
        # the gradient slot holds f1, here with L = 1
        with pytest.raises(InputError):
            run_dys(prob, DysParams(gamma=1.0))


class TestRunDys:
    def test_converges_to_analytic_minimizer(self):
        prob, xstar = convex_l1_problem(d=5, seed=21)
        params = DysParams(gamma=0.9 / prob.f1.lipschitz)
        state, trace = run_dys(prob, params, stop=StoppingRule(tol=1e-9, max_iter=50000))
        assert (state.x3 - xstar).norm() < 1e-6
        assert trace[-1].residual < 1e-9

    def test_fixed_point_start_returns_empty_trace(self):
        prob, xstar = convex_l1_problem(d=3, seed=30)
        g = 0.3
        params = DysParams(gamma=g)
        # z such that x_f = prox_{g f2}(z) = xstar: z = xstar + g grad f2(xstar)
        z0 = xstar + prob.f2.grad(xstar) * g
        state, trace = run_dys(prob, params, z0=z0)
        assert trace == []
        assert (state.x3 - xstar).norm() < 1e-9

    def test_divergence_attaches_partial_trace(self, monkeypatch):
        prob, _ = convex_l1_problem(d=3, seed=1)
        real_relax = baselines._relax
        calls = {"n": 0}

        def flaky(lam, z, x_new, x_old, msg):
            calls["n"] += 1
            if calls["n"] > 3:
                raise DivergenceError("synthetic blow-up")
            return real_relax(lam, z, x_new, x_old, msg)

        monkeypatch.setattr(baselines, "_relax", flaky)
        with pytest.raises(DivergenceError) as exc_info:
            run_dys(prob, DysParams(gamma=0.3), stop=StoppingRule(tol=1e-12, max_iter=50))
        assert [r.k for r in exc_info.value.trace] == [1, 2, 3]

    def test_huge_finite_start_is_numerical_error(self, tiny_instance):
        # a finite start whose arithmetic overflows is lost numerics, not bad input
        for prob in (build_problem(tiny_instance), convex_l1_problem(d=4)[0]):
            z0 = RealVector(np.full(prob.dim, 1.7e308), prob.shape)
            with pytest.raises(NumericalError), np.errstate(over="ignore"):
                run_dys(prob, DysParams(gamma=0.05), z0=z0)

    def test_every_trace_column_measures_its_step_states(self, tiny_instance):
        # one-step runs chained from the full run's start give each step's
        # (start, next) states
        prob = build_problem(tiny_instance)
        params = DysParams(gamma=0.5 / prob.f1.lipschitz)
        stop = StoppingRule(tol=1e-10, max_iter=20)
        _, trace = run_dys(prob, params, stop=stop)
        assert len(trace) == 20
        states = [baselines._make_state(prob, params, prob.zeros())]
        for _ in trace:
            state, one = run_dys(prob, params, states[-1].z, dataclasses.replace(stop, max_iter=1))
            assert len(one) == 1
            states.append(state)
        dist = splitting._dist
        for rec, s, nxt in zip(trace, states, states[1:]):
            assert bits((rec.dz1, rec.dx1, rec.gap31)) == bits(
                (dist(nxt.z, s.z), dist(nxt.x_f, s.x_f), dist(nxt.x3, nxt.x_f))
            )

    def test_trace_schema_padding(self):
        prob, _ = convex_l1_problem(d=3, seed=17)
        params = DysParams(gamma=0.3)
        _, trace = run_dys(prob, params, stop=StoppingRule(tol=1e-8, max_iter=10))
        for r in trace:
            assert r.envelope is None
            assert r.dz2 == 0.0 and r.dx2 == 0.0 and r.gap32 == 0.0
            assert r.gamma == 0.3

    def test_convex_gap_is_nonincreasing(self, rng):
        # for a fully convex triple the fixed-point map is averaged, so the
        # per-step gap ||x3 - x_f|| cannot grow
        prob = make_quadratic_problem(rng, d=6, f3="l1")
        params = DysParams(gamma=0.5 / prob.f1.lipschitz)
        _, trace = run_dys(prob, params, stop=StoppingRule(tol=1e-12, max_iter=400))
        gaps = [r.gap31 for r in trace]
        assert all(b <= a + 1e-10 * (1 + a) for a, b in zip(gaps, gaps[1:]))
