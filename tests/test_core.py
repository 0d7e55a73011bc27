import math
import pickle
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import trisplit
from trisplit import (
    AdaptiveController,
    CallableSmoothTerm,
    CompositeProblem,
    InputError,
    NonnegDistanceTerm,
    NumericalError,
    QuadraticTerm,
    RealVector,
    ScaledL1Term,
    SmoothTerm,
    SplitState,
    StoppingRule,
    ZeroProxTerm,
    baselines,
    bench,
    composite_residual,
    core,
    evaluate_objective,
    gradient_check,
    lipschitz_probe,
    proxlib,
    splitting,
    stepsize,
)

finite_arrays = hnp.arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestRealVector:
    def test_flattens_and_remembers_shape(self):
        v = RealVector([[1.0, 2.0], [3.0, 4.0]], (2, 2))
        assert v.shape == (2, 2)
        assert v.dim == 4
        npt.assert_array_equal(v.data, [1.0, 2.0, 3.0, 4.0])
        npt.assert_array_equal(v.mat, [[1.0, 2.0], [3.0, 4.0]])

    def test_int_shape_normalized_to_tuple(self):
        v = RealVector([1.0, 2.0, 3.0], 3)
        assert v.shape == (3,)

    def test_default_shape_is_input_shape(self):
        v = RealVector(np.ones((3, 2)))
        assert v.shape == (3, 2)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            RealVector([1.0, np.nan], (2,))
        with pytest.raises(InputError):
            RealVector([np.inf, 0.0], (2,))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InputError):
            RealVector([1.0, 2.0], (3,))

    @pytest.mark.parametrize("shape", [(), (2, 2, 2), (0,), (4, -1)])
    def test_rejects_a_shape_other_than_d_or_m_by_n(self, shape):
        with pytest.raises(InputError, match="shape must be"):
            RealVector.zeros(shape)

    @pytest.mark.parametrize("shape", [(2.9,), (True,), ("1",), (math.nan,), (math.inf,), (2.5, 2.2)], ids=repr)
    @pytest.mark.parametrize(
        "build",
        [
            lambda shape: RealVector(np.zeros(2), shape),
            RealVector.zeros,
            lambda shape: CompositeProblem(*[QuadraticTerm(matrix=np.eye(2), center=np.zeros(2))] * 2, ZeroProxTerm(), shape),
            lambda shape: lipschitz_probe(QuadraticTerm(matrix=np.eye(2), center=np.zeros(2)), 1, 0, shape),
        ],
        ids=["RealVector", "RealVector.zeros", "CompositeProblem", "lipschitz_probe"],
    )
    def test_a_size_follows_the_rule_for_counts(self, build, shape):
        # a size is a positive integer and never a bool: none is truncated or converted
        with pytest.raises(InputError, match=r"^shape must be \(d,\) or \(m, n\), and each size must be a positive integer"):
            build(shape)

    def test_data_is_read_only_and_decoupled(self):
        src = np.ones(3)
        v = RealVector(src, (3,))
        src[0] = 99.0
        assert v.data[0] == 1.0
        with pytest.raises(ValueError):
            v.data[0] = 5.0

    def test_with_data_keeps_shape_and_checks(self):
        v = RealVector(np.zeros(6), (2, 3))
        w = v.with_data(np.arange(6.0))
        assert w.shape == (2, 3)
        with pytest.raises(InputError):
            v.with_data(np.zeros(5))
        # a computed array that is not finite is lost numerics, not bad input
        with pytest.raises(NumericalError):
            v.with_data(np.array([np.nan] * 6))

    def test_zeros(self):
        z = RealVector.zeros((4, 2))
        assert z.norm() == 0.0
        assert z.shape == (4, 2)

    @given(finite_arrays)
    @settings(max_examples=40, deadline=None)
    def test_norm_and_dot_match_numpy(self, a):
        v = RealVector(a, a.shape)
        assert v.norm() == pytest.approx(np.linalg.norm(a), rel=1e-14, abs=1e-300)
        assert v.dot(v) == pytest.approx(float(a @ a), rel=1e-12, abs=1e-300)

    @given(finite_arrays, st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_is_componentwise(self, a, c):
        v = RealVector(a, a.shape)
        w = RealVector(2.0 * a + 1.0, a.shape)
        npt.assert_allclose((v + w).data, a + (2.0 * a + 1.0), rtol=1e-14)
        npt.assert_allclose((v - w).data, -a - 1.0, rtol=1e-13, atol=1e-12)
        npt.assert_allclose((v * c).data, c * a, rtol=1e-14)
        npt.assert_allclose((-v).data, -a)
        with np.errstate(over="ignore"):
            quotient_finite = c != 0 and np.isfinite(a / c).all()
        if quotient_finite:
            npt.assert_allclose((v / c).data, a / c, rtol=1e-14)

    def test_shape_mismatch_in_arithmetic(self):
        v = RealVector(np.zeros(3), (3,))
        w = RealVector(np.zeros(4), (4,))
        with pytest.raises(InputError):
            _ = v + w

    def test_equality_and_hash_are_by_identity(self):
        a, b = RealVector([1.0, 2.0]), RealVector([1.0, 2.0])
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
        # states compare their vectors with ==, so they compare too
        u = np.zeros(2)
        assert SplitState(a, a, a, a, a, 0.0, u) == SplitState(a, a, a, a, a, 0.0, u)
        assert SplitState(a, a, a, a, a, 0.0, u) != SplitState(b, a, a, a, a, 0.0, u)
        # the subgradient array u is left out of == and hash
        s, t = SplitState(a, a, a, a, a, 0.0, np.zeros(2)), SplitState(a, a, a, a, a, 0.0, np.ones(2))
        assert s == t and hash(s) == hash(t)

    def test_pickle_round_trip_is_read_only_with_the_same_bits(self):
        v = RealVector([[1.5, -0.0], [np.pi, 5e-324]], (2, 2))
        w = pickle.loads(pickle.dumps(v))
        assert w.shape == v.shape
        assert w.data.tobytes() == v.data.tobytes()
        with pytest.raises(ValueError):
            w.data[0] = np.nan


class TestCompositeProblem:
    def test_rejects_nonconvex_smooth_term(self):
        bad = CallableSmoothTerm(
            value_fn=lambda x: -x.norm() ** 2,
            grad_fn=lambda x: x * (-2.0),
            lipschitz=2.0,
            convex=False,
        )
        good = QuadraticTerm(matrix=np.eye(2), center=np.zeros(2))
        with pytest.raises(InputError):
            CompositeProblem(f1=bad, f2=good, f3=ZeroProxTerm(), shape=(2,))
        with pytest.raises(InputError):
            CompositeProblem(f1=good, f2=bad, f3=ZeroProxTerm(), shape=(2,))

    def test_rejects_nonpositive_lipschitz(self):
        t = CallableSmoothTerm(value_fn=lambda x: 0.0, grad_fn=lambda x: x * 0.0, lipschitz=0.0)
        good = QuadraticTerm(matrix=np.eye(2), center=np.zeros(2))
        with pytest.raises(InputError):
            CompositeProblem(f1=t, f2=good, f3=ZeroProxTerm(), shape=(2,))

    @pytest.mark.parametrize("slot", ["f1", "f2"])
    def test_rejects_smooth_term_without_a_modulus(self, slot):
        class NoModulus(SmoothTerm):
            def value(self, x):
                return 0.5 * x.norm() ** 2

            def grad(self, x):
                return x

        good = QuadraticTerm(matrix=np.eye(2), center=np.zeros(2))
        terms = {"f1": good, "f2": good, slot: NoModulus()}
        with pytest.raises(InputError, match=rf"^{slot} .*lipschitz"):
            CompositeProblem(**terms, f3=ZeroProxTerm(), shape=(2,))

    def test_callable_smooth_term_requires_a_modulus(self):
        with pytest.raises(TypeError, match="lipschitz"):
            CallableSmoothTerm(value_fn=lambda x: 0.5 * x.norm() ** 2, grad_fn=lambda x: x)

    @pytest.mark.parametrize("slot", ["f1", "f2"])
    def test_rejects_nonsmooth_term_in_smooth_slot(self, slot):
        good = QuadraticTerm(matrix=np.eye(2), center=np.zeros(2))
        terms = {"f1": good, "f2": good, slot: ScaledL1Term(1.0)}
        with pytest.raises(InputError, match=rf"^{slot} .*lipschitz"):
            CompositeProblem(**terms, f3=ZeroProxTerm(), shape=(2,))

    @pytest.mark.parametrize(
        "f3", [QuadraticTerm(matrix=np.eye(3), center=np.zeros(3)), None], ids=["QuadraticTerm", "None"]
    )
    def test_rejects_non_prox_term_in_f3_slot(self, f3):
        good = QuadraticTerm(matrix=np.eye(3), center=np.zeros(3))
        with pytest.raises(InputError, match=rf"^f3 .*{type(f3).__name__}"):
            CompositeProblem(f1=good, f2=good, f3=f3, shape=(3,))

    def test_check_shape(self):
        p = CompositeProblem(
            f1=QuadraticTerm(matrix=np.eye(2), center=np.zeros(2)),
            f2=QuadraticTerm(matrix=np.eye(2), center=np.zeros(2)),
            f3=ZeroProxTerm(),
            shape=(2,),
        )
        p.check_shape(p.zeros())
        with pytest.raises(InputError):
            p.check_shape(RealVector.zeros((3,)))

    def test_objective_sums_terms(self, rng):
        d = 4
        p = CompositeProblem(
            f1=QuadraticTerm(matrix=np.eye(d), center=np.zeros(d)),
            f2=QuadraticTerm(matrix=2.0 * np.eye(d), center=np.ones(d)),
            f3=ScaledL1Term(weight=0.5),
            shape=(d,),
        )
        x = RealVector(rng.standard_normal(d), (d,))
        expected = (
            0.5 * x.norm() ** 2
            + float((x.data - 1.0) @ (x.data - 1.0))
            + 0.5 * float(np.abs(x.data).sum())
        )
        assert evaluate_objective(p, x) == pytest.approx(expected, rel=1e-12)

    def test_objective_propagates_f3_infinity(self):
        class IndicatorLike(ZeroProxTerm):
            def value(self, x):
                return math.inf

        p = CompositeProblem(
            f1=QuadraticTerm(matrix=np.eye(2), center=np.zeros(2)),
            f2=QuadraticTerm(matrix=np.eye(2), center=np.zeros(2)),
            f3=IndicatorLike(),
            shape=(2,),
        )
        assert evaluate_objective(p, p.zeros()) == math.inf

    def test_objective_rejects_nan(self):
        nan_term = CallableSmoothTerm(
            value_fn=lambda x: math.nan, grad_fn=lambda x: x, lipschitz=1.0
        )
        p = CompositeProblem(
            f1=nan_term,
            f2=QuadraticTerm(matrix=np.eye(2), center=np.zeros(2)),
            f3=ZeroProxTerm(),
            shape=(2,),
        )
        with pytest.raises(NumericalError):
            evaluate_objective(p, p.zeros())

    def test_objective_rejects_nan_from_f3(self):
        class NaNValued(ZeroProxTerm):
            def value(self, x):
                return math.nan

        p = CompositeProblem(
            f1=QuadraticTerm(matrix=np.eye(2), center=np.zeros(2)),
            f2=QuadraticTerm(matrix=np.eye(2), center=np.zeros(2)),
            f3=NaNValued(),
            shape=(2,),
        )
        with pytest.raises(NumericalError, match="f3 returned NaN"):
            evaluate_objective(p, p.zeros())


class TestDerivativeProbes:
    def test_gradient_check_accepts_correct_gradient(self, rng):
        t = QuadraticTerm(matrix=np.diag([1.0, 3.0, 0.5]), center=np.array([1.0, -1.0, 0.0]))
        x = RealVector(rng.standard_normal(3), (3,))
        assert gradient_check(t, x) < 1e-7

    def test_gradient_check_flags_wrong_gradient(self, rng):
        t = CallableSmoothTerm(
            value_fn=lambda x: 0.5 * x.norm() ** 2,
            grad_fn=lambda x: x * 2.0,  # deliberately off by a factor of 2
            lipschitz=1.0,
        )
        x = RealVector(rng.standard_normal(3) + 1.0, (3,))
        assert gradient_check(t, x) > 1e-2

    def test_lipschitz_probe_respects_declared_bound(self, rng):
        lmax = 4.0
        q = rng.standard_normal((6, 6))
        a = q.T @ q
        a *= lmax / np.linalg.eigvalsh(a)[-1]
        t = QuadraticTerm(matrix=a, center=np.zeros(6))
        est = lipschitz_probe(t, trials=60, seed=3, shape=(6,))
        assert 0.05 * lmax < est <= lmax * (1 + 1e-12)
        for trials in (0, 2.5):
            with pytest.raises(InputError, match="^trials must be a positive integer"):
                lipschitz_probe(t, trials=trials, seed=3, shape=(6,))
        for seed in (-1, 2.5, True):
            with pytest.raises(InputError, match="^seed must be a non-negative integer"):
                lipschitz_probe(t, trials=1, seed=seed, shape=(6,))


@pytest.mark.parametrize("module", [core, proxlib, splitting, stepsize, baselines, bench], ids=lambda m: m.__name__)
def test_every_public_name_is_top_level(module):
    for name in module.__all__:
        assert getattr(trisplit, name) is getattr(module, name), name


def _residual(prox_gamma):
    p = CompositeProblem(NonnegDistanceTerm(), NonnegDistanceTerm(), ZeroProxTerm(), shape=(2,))
    return composite_residual(p, prox_gamma, RealVector([1.0, -1.0]))


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "name, call",
    [
        ("prox_gamma", lambda v: StoppingRule(prox_gamma=v)),
        ("tol", lambda v: StoppingRule(tol=v)),
        ("prox_gamma", _residual),
        ("gamma_ryu", lambda v: AdaptiveController(gamma_ryu=v, gamma_current=1.0)),
    ],
    ids=["StoppingRule.prox_gamma", "StoppingRule.tol", "composite_residual", "AdaptiveController.gamma_ryu"],
)
def test_stepsizes_and_tolerances_must_be_positive_and_finite(name, call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{name} must be positive and finite"):
            call(value)
