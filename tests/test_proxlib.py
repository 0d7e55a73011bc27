import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisplit import (
    InputError,
    MaskedQuadraticTerm,
    NonnegDistanceTerm,
    NumericalError,
    QuadraticTerm,
    RealVector,
    ScaledL1Term,
    SeparableMCPTerm,
    SpectralMCPTerm,
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


class TestSpectralSVDFailure:
    @pytest.fixture(autouse=True)
    def failing_svd(self, monkeypatch):
        def svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd)

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
