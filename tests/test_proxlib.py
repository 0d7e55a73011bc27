import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import (
    CallableSmoothTerm,
    InputError,
    MaskedQuadraticTerm,
    NonnegDistanceTerm,
    NumericalError,
    ProxTerm,
    QuadraticTerm,
    RealVector,
    ScaledL1Term,
    SeparableMCPTerm,
    SpectralMCPTerm,
    ZeroProxTerm,
    brute_force_prox_1d,
    default_prox_bracket,
    mcp_value,
    prox_scalar_mcp,
    soft_threshold,
)

moderate = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def scalar_mcp_objective(weight, tau, gamma, v):
    return lambda t: gamma * weight * mcp_value(t, tau) + 0.5 * (t - v) ** 2


class TestScalarPieces:
    def test_mcp_value_shape(self):
        # zero at zero, increasing on [0, tau], flat at tau/2 beyond
        tau = 4.0
        assert mcp_value(0.0, tau) == 0.0
        assert mcp_value(tau, tau) == pytest.approx(tau / 2.0)
        assert mcp_value(10 * tau, tau) == pytest.approx(tau / 2.0)
        ts = np.linspace(0, tau, 100)
        vals = mcp_value(ts, tau)
        assert np.all(np.diff(vals) > 0)

    def test_soft_threshold_known_values(self):
        npt.assert_allclose(soft_threshold([3.0, -3.0, 0.5, -0.5], 1.0), [2.0, -2.0, 0.0, 0.0])

    def test_firm_threshold_regions(self):
        w, tau, g = 2.0, 5.0, 0.5  # a = gamma*w = 1 < tau
        a = g * w
        # dead zone
        assert prox_scalar_mcp(w, tau, g, 0.7 * a) == 0.0
        # linear ramp
        v = 3.0
        assert prox_scalar_mcp(w, tau, g, v) == pytest.approx((v - a) / (1 - a / tau))
        # identity past tau
        assert prox_scalar_mcp(w, tau, g, 8.0) == 8.0
        # odd symmetry
        assert prox_scalar_mcp(w, tau, g, -v) == -prox_scalar_mcp(w, tau, g, v)

    def test_degenerate_branch_picks_global_min(self):
        # gamma*w >= tau: the surviving candidates are 0 and sign(v)max(tau, |v|)
        w, tau, g = 3.0, 1.0, 1.0  # a = 3 >= tau = 1
        for v in [-4.0, -2.0, -0.8, -0.2, 0.0, 0.2, 0.8, 2.0, 4.0]:
            got = prox_scalar_mcp(w, tau, g, v)
            obj = scalar_mcp_objective(w, tau, g, v)
            lo, hi = default_prox_bracket(v, g * w)
            ref = brute_force_prox_1d(obj, lo, hi)
            assert obj(got) <= obj(ref) + 1e-9

    def test_degenerate_tie_breaks_to_zero(self):
        # at the exact tie the smaller-magnitude candidate (0) wins;
        # with a = gamma*w = 4, tau = 1 the tie sits at v = sqrt(a*tau) = 2,
        # where both candidate objectives equal 2 exactly in floats
        assert prox_scalar_mcp(4.0, 1.0, 1.0, 2.0) == 0.0
        assert prox_scalar_mcp(4.0, 1.0, 1.0, -2.0) == 0.0
        # just past the tie the nonzero candidate wins
        assert prox_scalar_mcp(4.0, 1.0, 1.0, 2.0 + 1e-6) == pytest.approx(2.0 + 1e-6)

    @given(moderate, st.floats(0.1, 5.0), st.floats(0.05, 3.0), st.floats(0.5, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_scalar_mcp_matches_brute_force(self, v, w, g, tau):
        got = prox_scalar_mcp(w, tau, g, v)
        obj = scalar_mcp_objective(w, tau, g, v)
        lo, hi = default_prox_bracket(v, g * w)
        ref = brute_force_prox_1d(obj, lo, hi)
        # compare objective values: the minimizer can be non-unique at kinks
        assert obj(got) <= obj(ref) + 1e-8

    def test_input_validation(self):
        with pytest.raises(InputError):
            prox_scalar_mcp(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(InputError):
            prox_scalar_mcp(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(InputError):
            prox_scalar_mcp(1.0, 1.0, -0.5, 0.0)
        with pytest.raises(InputError, match="weight"):
            prox_scalar_mcp(np.nan, 1.0, 1.0, 0.5)
        with pytest.raises(InputError, match="weight"):
            prox_scalar_mcp(np.inf, 1.0, 0.1, 2.0)
        with pytest.raises(InputError, match="tau"):
            prox_scalar_mcp(1.0, np.nan, 1.0, 0.5)
        with pytest.raises(InputError):
            brute_force_prox_1d(lambda t: t * t, 1.0, -1.0)

    def test_brute_force_rejects_a_non_vectorized_objective(self):
        # written for a scalar t, this collapses the grid to a single value
        with pytest.raises(InputError, match="vectorized"):
            brute_force_prox_1d(lambda t: np.dot(t - 0.3, t - 0.3), -1.0, 1.0)


class TestNonnegDistance:
    def test_value_and_grad(self):
        t = NonnegDistanceTerm(10.0)
        x = RealVector([1.0, -2.0, 0.0, -0.5], (4,))
        assert t.value(x) == pytest.approx(0.5 * 10.0 * (4.0 + 0.25))
        npt.assert_allclose(t.grad(x).data, [0.0, -20.0, 0.0, -5.0])
        assert t.lipschitz == 10.0

    def test_prox_shrinks_only_negatives(self):
        t = NonnegDistanceTerm(10.0)
        g = 0.3
        x = RealVector([2.0, -1.0], (2,))
        out = t.prox(g, x)
        npt.assert_allclose(out.data, [2.0, -1.0 / (1 + g * 10.0)], rtol=1e-14)

    @given(moderate)
    @settings(max_examples=40, deadline=None)
    def test_prox_matches_brute_force(self, v):
        t = NonnegDistanceTerm(3.0)
        g = 0.7
        got = t.prox(g, RealVector([v], (1,))).data[0]

        def obj(u):
            return g * 0.5 * 3.0 * np.minimum(u, 0.0) ** 2 + 0.5 * (u - v) ** 2

        # this prox only moves points toward 0, so [min(v,0)-1, max(v,0)+1] brackets it
        ref = brute_force_prox_1d(obj, min(v, 0.0) - 1.0, max(v, 0.0) + 1.0)
        assert got == pytest.approx(ref, abs=2e-6)


class TestMaskedQuadratic:
    def make(self):
        target = RealVector(np.arange(6.0).reshape(2, 3), (2, 3))
        mask = np.array([[True, False, True], [False, True, False]])
        return MaskedQuadraticTerm(target=target, mask=mask)

    def test_value_only_counts_observed(self):
        t = self.make()
        x = RealVector(np.zeros((2, 3)), (2, 3))
        # observed targets: 0, 2, 4
        assert t.value(x) == pytest.approx(0.5 * (0.0 + 4.0 + 16.0))

    def test_grad_zero_off_mask(self):
        t = self.make()
        x = RealVector(np.ones((2, 3)), (2, 3))
        g = t.grad(x).mat
        assert g[0, 1] == 0.0 and g[1, 0] == 0.0 and g[1, 2] == 0.0
        assert g[0, 0] == pytest.approx(1.0 - 0.0)

    def test_prox_blends_toward_target_on_mask(self):
        t = self.make()
        g = 0.5
        x = RealVector(np.ones((2, 3)), (2, 3))
        out = t.prox(g, x).mat
        # off the mask: untouched; on the mask: (x + g m)/(1 + g)
        assert out[0, 1] == 1.0
        assert out[0, 0] == pytest.approx((1.0 + g * 0.0) / (1 + g))
        assert out[1, 1] == pytest.approx((1.0 + g * 4.0) / (1 + g))

    def test_prox_solves_optimality_condition(self, rng):
        t = self.make()
        g = 1.3
        x = RealVector(rng.standard_normal((2, 3)), (2, 3))
        out = t.prox(g, x)
        resid = g * t.grad(out).data + (out.data - x.data)
        npt.assert_allclose(resid, 0.0, atol=1e-12)

    def test_rejects_mask_that_is_not_boolean_of_target_shape(self):
        target = RealVector(np.arange(6.0).reshape(2, 3), (2, 3))
        for mask in (
            np.array([[0, 0], [0, 2], [1, 1]]),  # index pairs
            np.array([[1, 0, 1], [0, 1, 0]]),  # 0/1 integers
            [[True, False, True], [False, True, False]],  # not an array
            np.ones((3, 2), dtype=bool),  # transposed shape
        ):
            with pytest.raises(InputError):
                MaskedQuadraticTerm(target=target, mask=mask)

    @pytest.mark.parametrize("oracle", ["value", "grad", "prox"])
    def test_rejects_a_point_of_another_shape(self, oracle):
        t = self.make()
        x = RealVector(np.zeros((3, 2)), (3, 2))
        args = (0.5, x) if oracle == "prox" else (x,)
        with pytest.raises(InputError, match="does not match target"):
            getattr(t, oracle)(*args)


class TestSpectralMCP:
    def test_prox_thresholds_singular_values(self, rng):
        m, n = 7, 5
        t = SpectralMCPTerm(weight=5.0, tau=100.0)
        z = RealVector(rng.standard_normal((m, n)) * 3.0, (m, n))
        g = 0.02
        out = t.prox(g, z)
        su = np.linalg.svd(z.mat, compute_uv=False)
        so = np.linalg.svd(out.mat, compute_uv=False)
        expected = prox_scalar_mcp(t.weight, t.tau, g, su)
        npt.assert_allclose(np.sort(so)[::-1], np.sort(expected)[::-1], atol=1e-10)

    def test_prox_with_value_reports_penalty_at_point(self, rng):
        t = SpectralMCPTerm(weight=2.0, tau=8.0)
        z = RealVector(rng.standard_normal((6, 6)), (6, 6))
        pt, val = t.prox_with_value(0.4, z)
        assert val == pytest.approx(t.value(pt), rel=1e-12, abs=1e-12)

    def test_value_is_spectral_sum(self, rng):
        t = SpectralMCPTerm(weight=2.0, tau=3.0)
        x = RealVector(rng.standard_normal((5, 4)), (5, 4))
        sv = np.linalg.svd(x.mat, compute_uv=False)
        assert t.value(x) == pytest.approx(2.0 * float(mcp_value(sv, 3.0).sum()))

    def test_zero_matrix_fixed(self):
        t = SpectralMCPTerm(weight=1.0, tau=2.0)
        z = RealVector(np.zeros((3, 3)), (3, 3))
        out = t.prox(0.5, z)
        npt.assert_array_equal(out.mat, np.zeros((3, 3)))

    @pytest.mark.parametrize("oracle", ["value", "prox"])
    def test_rejects_a_vector_shaped_point(self, oracle):
        t = SpectralMCPTerm(weight=1.0, tau=2.0)
        x = RealVector(np.ones(4), (4,))
        args = (0.5, x) if oracle == "prox" else (x,)
        with pytest.raises(InputError, match="matrix-shaped"):
            getattr(t, oracle)(*args)


class TestParameterValidation:
    @pytest.mark.parametrize(
        "term", [NonnegDistanceTerm, ScaledL1Term, SeparableMCPTerm, SpectralMCPTerm]
    )
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_rejects_bad_weight(self, term, bad):
        with pytest.raises(InputError):
            term(weight=bad)

    @pytest.mark.parametrize("term", [SeparableMCPTerm, SpectralMCPTerm])
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, 0.0])
    def test_rejects_bad_tau(self, term, bad):
        with pytest.raises(InputError):
            term(tau=bad)

    def test_infinite_tau_is_the_l1_limit(self):
        t = SpectralMCPTerm(weight=2.0, tau=float("inf"))
        x = RealVector(np.diag([3.0, 1.0]), (2, 2))
        assert t.value(x) == pytest.approx(2.0 * 4.0)
        assert SeparableMCPTerm(weight=2.0, tau=float("inf")).value(x) == pytest.approx(8.0)


def svd_prox(term, gamma, a):
    """The thin-SVD prox and its value, written out as the reference for the Gram path."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s_new = prox_scalar_mcp(term.weight, term.tau, gamma, s)
    return (u * s_new) @ vt, term.weight * float(np.sum(mcp_value(s_new, term.tau)))


def with_singular_values(m, n, s, seed=0):
    """An m x n matrix whose nonzero singular values are `s`."""
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(rng.standard_normal((m, m)))[0][:, : len(s)]
    q2 = np.linalg.qr(rng.standard_normal((n, n)))[0][:, : len(s)]
    return (q1 * np.asarray(s)) @ q2.T


def fail(*args, **kwargs):
    raise np.linalg.LinAlgError("did not converge")


GAUSSIAN = np.random.default_rng(5).standard_normal((7, 7)) * 3.0
GRAM_CASES = {
    # (term, gamma, input); every kept singular value is far above the Gram
    # matrix's resolution, so the prox takes the Gram path
    "square": (SpectralMCPTerm(1.0, 10.0), 0.5, GAUSSIAN),
    "tall-7x5": (SpectralMCPTerm(1.0, 10.0), 0.5, GAUSSIAN[:, :5]),
    "wide-5x7": (SpectralMCPTerm(1.0, 10.0), 0.5, GAUSSIAN[:5]),
    "rank-2": (SpectralMCPTerm(1.0, 10.0), 0.5, with_singular_values(7, 5, [4.0, 2.0])),
    "wide-rank-2": (SpectralMCPTerm(1.0, 10.0), 0.5, with_singular_values(5, 7, [4.0, 2.0])),
    "zero": (SpectralMCPTerm(1.0, 10.0), 0.5, np.zeros((6, 6))),
    "clustered": (
        SpectralMCPTerm(1.0, 10.0), 0.5, with_singular_values(6, 5, [5.0, 5.0 + 1e-12, 5.0 + 2e-12, 5.0, 2.0])
    ),
    "gamma-w-above-tau": (SpectralMCPTerm(3.0, 1.0), 1.0, with_singular_values(7, 6, [6.0, 4.0, 2.5, 1.0, 0.5])),
    "tau-inf": (SpectralMCPTerm(1.0, float("inf")), 0.5, GAUSSIAN[:6]),
}

TINY = 1e-170 * np.random.default_rng(4).standard_normal((6, 6))
FALLBACK_CASES = {
    # (term, gamma, input, whether eigh raises)
    # sigma = 1e-2 is kept, but sigma^2 = 1e-4 is within 1e4 times the Gram
    # matrix's resolution of 5 * eps * (1e4)^2
    "guard": (SpectralMCPTerm(0.01, 100.0), 0.1, with_singular_values(5, 3, [1e4, 1.0, 1e-2]), False),
    # a^T a underflows to zero, while the threshold keeps every sigma
    "underflow-weight-0": (SpectralMCPTerm(0.0, 10.0), 1.0, TINY, False),
    "underflow-weight-1e-300": (SpectralMCPTerm(1e-300, 10.0), 1.0, TINY, False),
    "eigh-fails": (*GRAM_CASES["square"], True),
}


class TestSpectralGramPath:
    @pytest.mark.parametrize("case", GRAM_CASES.values(), ids=GRAM_CASES.keys())
    def test_matches_the_svd_prox(self, case, monkeypatch):
        term, gamma, a = case
        ref, ref_val = svd_prox(term, gamma, a)
        monkeypatch.setattr(np.linalg, "svd", fail)  # so a fallback would raise
        out, val = term.prox_with_value(gamma, RealVector(a))
        assert np.linalg.norm(out.mat - ref) <= 1e-12 * np.linalg.norm(ref)
        assert val == pytest.approx(ref_val, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", FALLBACK_CASES.values(), ids=FALLBACK_CASES.keys())
    def test_falls_back_to_the_svd_bits(self, case, monkeypatch):
        term, gamma, a, eigh_fails = case
        ref, ref_val = svd_prox(term, gamma, a)
        if eigh_fails:
            monkeypatch.setattr(np.linalg, "eigh", fail)
        out, val = term.prox_with_value(gamma, RealVector(a))
        npt.assert_array_equal(out.mat, ref)
        assert val == ref_val

    @pytest.mark.parametrize("huge", [np.s_[:, :], np.s_[:, :1]], ids=["all-entries", "one-column"])
    def test_overflowing_gram_matrix_falls_back_to_the_svd_bits(self, huge):
        # entries near 1e200 overflow a^T a; the SVD path still works, and
        # the prox warns only where the SVD path does (nowhere, as the penalty
        # squares no singular value past its knee). With one such column,
        # eigh returns NaNs for the overflowed Gram matrix instead of raising.
        term, gamma = SpectralMCPTerm(5.0, 100.0), 0.5
        a = np.random.default_rng(3).standard_normal((5, 5))
        a[huge] *= 1e200
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always")
            ref, ref_val = svd_prox(term, gamma, a)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            out, val = term.prox_with_value(gamma, RealVector(a))
        npt.assert_array_equal(out.mat, ref)
        assert val == ref_val
        assert [str(w.message) for w in got] == [str(w.message) for w in want]


class TestSpectralSVDFailure:
    @pytest.fixture(autouse=True)
    def failing_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "eigh", svd)

    def test_value_maps_to_numerical_error(self):
        t = SpectralMCPTerm(weight=1.0, tau=2.0)
        with pytest.raises(NumericalError):
            t.value(RealVector(np.eye(3), (3, 3)))

    def test_prox_maps_to_numerical_error(self):
        t = SpectralMCPTerm(weight=1.0, tau=2.0)
        with pytest.raises(NumericalError):
            t.prox_with_value(0.5, RealVector(np.eye(3), (3, 3)))


class TestConvexProxContraction:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonexpansiveness(self, seed):
        rng = np.random.default_rng(seed)
        d = 6
        target = RealVector(rng.standard_normal(d), (d,))
        mask = rng.random(d) < 0.6
        terms = [
            NonnegDistanceTerm(float(rng.uniform(0.5, 10.0))),
            MaskedQuadraticTerm(target=target, mask=mask),
            ScaledL1Term(weight=float(rng.uniform(0.1, 3.0))),
        ]
        g = float(rng.uniform(0.05, 2.0))
        u = RealVector(rng.standard_normal(d) * 10, (d,))
        v = RealVector(rng.standard_normal(d) * 10, (d,))
        for t in terms:
            pu, pv = t.prox(g, u), t.prox(g, v)
            assert (pu - pv).norm() <= (u - v).norm() + 1e-12


class TestQuadraticTerm:
    def test_prox_optimality(self, rng):
        d = 5
        q = rng.standard_normal((d, d))
        a = q.T @ q
        t = QuadraticTerm(matrix=a, center=rng.standard_normal(d))
        z = RealVector(rng.standard_normal(d), (d,))
        g = 0.37
        u = t.prox(g, z)
        resid = g * t.grad(u).data + (u.data - z.data)
        npt.assert_allclose(resid, 0.0, atol=1e-10)

    def test_validation(self):
        with pytest.raises(InputError, match="square"):
            QuadraticTerm(matrix=np.ones((2, 3)), center=np.zeros(2))
        with pytest.raises(InputError):
            QuadraticTerm(matrix=np.array([[1.0, 2.0], [0.0, 1.0]]), center=np.zeros(2))
        with pytest.raises(InputError):
            QuadraticTerm(matrix=-np.eye(2), center=np.zeros(2))
        with pytest.raises(InputError):
            QuadraticTerm(matrix=np.eye(2), center=np.zeros(3))

    def test_lipschitz_is_top_eigenvalue(self):
        t = QuadraticTerm(matrix=np.diag([0.5, 4.0]), center=np.zeros(2))
        assert t.lipschitz == pytest.approx(4.0)


class TestSeparableMCP:
    def test_prox_is_componentwise_scalar_prox(self, rng):
        t = SeparableMCPTerm(weight=1.5, tau=2.5)
        z = RealVector(rng.standard_normal(8) * 3, (8,))
        g = 0.6
        out = t.prox(g, z)
        npt.assert_allclose(out.data, prox_scalar_mcp(1.5, 2.5, g, z.data))

    def test_value(self):
        t = SeparableMCPTerm(weight=2.0, tau=4.0)
        x = RealVector([0.0, 4.0, -10.0], (3,))
        assert t.value(x) == pytest.approx(2.0 * (0.0 + 2.0 + 2.0))


def midpoint_slacks(term, rho, pairs):
    """(h(x) + h(y))/2 - h((x + y)/2) for h = term + (rho/2)||.||^2, per pair;
    (rho/2)'s share is rho ||x - y||^2 / 8."""
    out = []
    for x, y in pairs:
        mid = x.with_data(0.5 * (x.data + y.data))
        gap = 0.5 * (term.value(x) + term.value(y)) - term.value(mid)
        out.append(gap + rho * float(np.sum((x.data - y.data) ** 2)) / 8.0)
    return np.array(out)


def random_orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


class TestWeakConvexity:
    """The stated modulus rho makes f + (rho/2)||.||^2 convex, and no smaller one does."""

    TERMS = {
        "separable": SeparableMCPTerm(weight=1.5, tau=2.5),
        "spectral": SpectralMCPTerm(weight=1.5, tau=2.5),
    }

    @staticmethod
    def segments(kind, rng, tau, count=200):
        """Seeded pairs: `any` draws entries or singular values across the knee
        and both signs; `ramp` keeps them in (0, tau), where the penalty is
        concave, sharing the signs or the singular vectors of the pair."""
        pairs = []
        for _ in range(count):
            if kind == "spectral":
                u, v = random_orthogonal(rng, 4)[:, :3], random_orthogonal(rng, 3)
                x, y = ((u * rng.uniform(0.0, tau, 3)) @ v.T for _ in range(2))
            else:
                x, y = rng.uniform(0.0, tau, 5), rng.uniform(0.0, tau, 5)
            pairs.append((RealVector(x), RealVector(y)))
        return pairs

    @staticmethod
    def generic(kind, rng, tau, count=200):
        shape = (4, 3) if kind == "spectral" else (5,)
        return [(RealVector(rng.standard_normal(shape) * 2 * tau), RealVector(rng.standard_normal(shape) * 2 * tau))
                for _ in range(count)]

    @pytest.mark.parametrize("kind", ["separable", "spectral"])
    def test_stated_modulus_holds_and_is_tight(self, kind):
        term = self.TERMS[kind]
        rho = term.weak_convexity
        assert rho == term.weight / term.tau
        rng = np.random.default_rng(21)
        generic = self.generic(kind, rng, term.tau)
        ramp = self.segments(kind, rng, term.tau)
        assert midpoint_slacks(term, rho, generic + ramp).min() >= -1e-12
        assert (midpoint_slacks(term, 0.9 * rho, ramp) < -1e-6).all()

    def test_convex_terms_state_zero_and_others_nothing(self):
        assert ScaledL1Term(weight=0.7).weak_convexity == 0.0
        assert ZeroProxTerm().weak_convexity == 0.0
        assert SpectralMCPTerm(weight=1.0, tau=np.inf).weak_convexity == 0.0
        assert SeparableMCPTerm(weight=0.0, tau=1.0).weak_convexity == 0.0
        assert ProxTerm().weak_convexity is None
        pairs = self.generic("separable", np.random.default_rng(22), 1.0)
        assert midpoint_slacks(ScaledL1Term(weight=0.7), 0.0, pairs).min() >= -1e-12


def candidate_comparison_prox(weight, tau, gamma, v):
    """The scalar MCP prox written out the long way: in the regime
    gamma*weight >= tau it compares the objectives of 0 and of
    sign(v)*max(tau, |v|), and the firm threshold rescales every entry."""
    a = gamma * weight
    if a >= tau:
        big = np.sign(v) * np.maximum(tau, np.abs(v))
        at_zero = 0.5 * v * v
        at_big = a * (tau / 2.0) + 0.5 * (big - v) ** 2
        return np.where(at_big < at_zero, big, 0.0)
    av = np.abs(v)
    mid = np.sign(v) * (av - a) / (1.0 - a / tau)
    return np.where(av <= a, 0.0, np.where(av <= tau, mid, v))


@pytest.mark.parametrize("tau", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("ratio", [0.0, 0.1, 0.5, 0.99, 1.0, 1.5, 4.0, 100.0])  # gamma*weight / tau
def test_scalar_mcp_prox_matches_the_candidate_comparison_bit_for_bit(tau, ratio):
    gamma, weight = 0.5, 2.0 * ratio * tau
    a = gamma * weight
    v = np.random.default_rng(7).standard_normal(20000) * 3.0 * max(a, tau)
    knots = [0.0, a, tau, np.nextafter(tau, 0.0), np.nextafter(tau, np.inf)]
    v = np.concatenate([v, knots, np.negative(knots)])
    if a >= tau:  # the two ways round the hard threshold sqrt(a*tau) apart by an ulp or two
        thresh = np.sqrt(a * tau)
        v = v[np.abs(np.abs(v) - thresh) > 4.0 * np.spacing(thresh)]
    with np.errstate(all="raise"):  # on these inputs the long way neither overflows nor underflows
        want = candidate_comparison_prox(weight, tau, gamma, v)
        got = prox_scalar_mcp(weight, tau, gamma, v)
    npt.assert_array_equal(got, want)
    assert np.signbit(got).tolist() == np.signbit(want).tolist()


SCALES = [0.0, 1e-300, 1.0, 1e150, 1e160, 1e200, 1e300, 1.7e308]
TAUS = [1e-3, 1.0, 100.0, 1e200, 1e308, np.inf]


def regimes(tau):
    """(gamma, weight) with gamma*weight at tau/2 (firm threshold), and at tau
    and 1.5 tau (hard threshold); tau = inf has only the firm regime."""
    if tau == np.inf:
        return [(1.0, 1.0)]
    return [(f * tau, 1.0) for f in (0.5, 1.0, 1.5)]


class TestFiniteAtEveryScale:
    """No MCP oracle overflows, underflows or turns invalid, from 0 to the
    largest float and from tau = 1e-3 to the l1 limit tau = inf."""

    @pytest.mark.parametrize("tau", TAUS)
    def test_mcp_value(self, tau):
        t = np.array(SCALES + [-s for s in SCALES])
        with np.errstate(all="raise"):
            got = mcp_value(t, tau)
        assert np.isfinite(got).all()
        npt.assert_array_equal(got[np.abs(t) >= tau], tau / 2.0)
        if tau == np.inf:
            npt.assert_array_equal(got, np.abs(t))

    @pytest.mark.parametrize("tau", TAUS)
    def test_prox_scalar_mcp(self, tau):
        v = np.array(SCALES + [-s for s in SCALES])
        for gamma, weight in regimes(tau):
            with np.errstate(all="raise"):
                got = prox_scalar_mcp(weight, tau, gamma, v)
            assert np.isfinite(got).all()
            if gamma * weight >= tau:
                kept = np.abs(v) > math.sqrt(gamma * weight) * math.sqrt(tau)
                npt.assert_array_equal(got, np.where(kept, v, 0.0))

    @pytest.mark.parametrize("t", SCALES)
    @pytest.mark.parametrize("tau", TAUS)
    def test_spectral_and_separable_terms(self, tau, t):
        for gamma, weight in regimes(tau):
            for term, x in [
                (SpectralMCPTerm(weight, tau), RealVector(np.diag([t, 1.0, 0.5]))),
                (SeparableMCPTerm(weight, tau), RealVector([-t, 1.0, 0.5])),
            ]:
                with np.errstate(all="raise"):
                    value = term.value(x)
                    out, out_value = term.prox_with_value(gamma, x)
                assert np.isfinite([value, out_value]).all()
                assert np.isfinite(out.data).all()


Z = RealVector([[1.0, -2.0], [0.5, 3.0]])
PROX_ORACLES = {
    "prox_scalar_mcp": lambda g: prox_scalar_mcp(1.0, 1.0, g, 0.5),
    "nonneg-distance": lambda g: NonnegDistanceTerm(1.0).prox(g, Z),
    "masked-quadratic": lambda g: MaskedQuadraticTerm(Z, np.eye(2, dtype=bool)).prox(g, Z),
    "spectral-mcp": lambda g: SpectralMCPTerm(1.0, 1.0).prox(g, Z),
    "spectral-mcp-with-value": lambda g: SpectralMCPTerm(1.0, 1.0).prox_with_value(g, Z),
    "quadratic": lambda g: QuadraticTerm(np.eye(4), np.zeros(4)).prox(g, Z),
    "scaled-l1": lambda g: ScaledL1Term(1.0).prox(g, Z),
    "separable-mcp": lambda g: SeparableMCPTerm(1.0, 1.0).prox(g, Z),
    "zero": lambda g: ZeroProxTerm().prox(g, Z),
    "zero-with-value": lambda g: ZeroProxTerm().prox_with_value(g, Z),
    "smooth-fallback": lambda g: CallableSmoothTerm(lambda x: 0.5 * x.norm() ** 2, lambda x: x, 1.0).prox(g, Z),
}


@pytest.mark.parametrize("gamma", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("oracle", PROX_ORACLES.values(), ids=PROX_ORACLES.keys())
def test_every_prox_oracle_rejects_a_stepsize_outside_the_positive_reals(oracle, gamma):
    with pytest.raises(InputError, match="gamma must be positive and finite"):
        oracle(gamma)
