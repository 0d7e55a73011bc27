import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trisplit import (
    AdaptiveController,
    InputError,
    NumericalError,
    RelaxationParams,
    alpha_lower_bound,
    descent_constants,
    gamma_bounds,
    plan,
    stepsize,
)
from trisplit.checks import epsilon_grid
from trisplit.stepsize import _balanced_caps, _bisect, eps1_interval, eps2_lower

lams = st.floats(0.05, 1.95, allow_nan=False)
lips = st.floats(0.5, 10.0, allow_nan=False)


def admissible_alpha(lam, frac):
    lo = alpha_lower_bound(lam)
    return lo + frac * (1.0 - lo)


class TestAlphaBound:
    def test_known_values(self):
        # golden-ratio conjugate at lam = 1, and the boundary value 1 at lam = 2
        assert alpha_lower_bound(1.0) == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0)
        assert alpha_lower_bound(2.0) == pytest.approx(1.0)
        assert alpha_lower_bound(1e-9) == pytest.approx(0.0, abs=1e-9)

    @given(lams)
    @settings(max_examples=50, deadline=None)
    def test_stays_in_unit_interval_and_dominates_half_lam(self, lam):
        a = alpha_lower_bound(lam)
        assert 0.0 <= a < 1.0
        assert a > lam / 2.0 - 1e-12

    @given(lams, lams)
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_lam(self, l1, l2):
        lo, hi = sorted((l1, l2))
        assert alpha_lower_bound(lo) <= alpha_lower_bound(hi) + 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            alpha_lower_bound(0.0)
        with pytest.raises(InputError):
            alpha_lower_bound(2.5)


class TestEpsilonGeometry:
    @given(lams, st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_eps1_interval_nonempty_for_admissible_alpha(self, lam, frac):
        alpha = admissible_alpha(lam, frac)
        assume(alpha < 1.0 - 1e-9)
        lo, hi = eps1_interval(lam, alpha)
        assert lo < hi
        assert lo > 0

    def test_eps1_interval_rejects_small_alpha(self):
        with pytest.raises(InputError):
            eps1_interval(1.0, 0.5)  # below the lam=1 lower bound 0.618...

    @given(lams, st.floats(0.1, 0.9), lips, lips, st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_eps2_star_balances_first_two_caps(self, lam, frac, L1, L2, t):
        alpha = admissible_alpha(lam, frac)
        assume(alpha < 1.0 - 1e-9)
        lo, hi = eps1_interval(lam, alpha)
        eps1 = lo + t * (hi - lo)
        e2, _ = _balanced_caps(L1, L2, lam, alpha, eps1)
        assert e2 > eps2_lower(L2, lam, alpha)
        _, g1, g2, _ = gamma_bounds(L1, L2, lam, alpha, eps1, e2)
        assert g1 == pytest.approx(g2, rel=1e-8, abs=1e-12)

    def test_eps2_lower_rejects_lam_zero(self):
        with pytest.raises(InputError, match="lam must lie in"):
            eps2_lower(1.0, 0.0, 0.5)


class TestPlan:
    def test_benchmark_constants(self):
        p = plan(10.0, 1.0, lam=1.0, alpha=0.99)
        assert p.alpha_bar == pytest.approx(0.6180339887498949)
        assert p.eps1 == pytest.approx(99.41120615222084, rel=1e-6)
        assert p.eps2 == pytest.approx(0.9997964026895337, rel=1e-6)
        # the optimum balances all three epsilon-dependent caps
        assert p.gbar1 == pytest.approx(p.gbar2, rel=1e-9)
        assert p.gbar1 == pytest.approx(p.gbar3, rel=1e-6)
        assert p.gbar0 == pytest.approx(0.05)
        assert p.gamma_ryu == pytest.approx(0.004850206820383053, rel=1e-6)
        assert p.gamma_ryu == pytest.approx(0.99 * p.gamma_upper, rel=1e-12)
        assert p.thm2_cap == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "args, eps1, eps2, gamma_ryu, gamma_upper",
        [
            ((10.0, 1.0, 1.0, 0.99), "0x1.8da51339becf6p+6", "0x1.ffe550686b845p-1", "0x1.3ddcf7ac212f5p-8", "0x1.4112eaa8b2540p-8"),
            ((2.0, 3.0, 1.2, 0.9), "0x1.eff1778c6311ap+2", "0x1.2d820fd81b972p+1", "0x1.22ad06d037e32p-7", "0x1.259cac608b330p-7"),
            # a near-empty I1, whose inset ends cross: the I1 midpoint
            ((0.5, 0.5, 0.5, math.nextafter(alpha_lower_bound(0.5), 1.0)), "0x1.1b8d5389ba84bp+1", "0x1.4a9fea74be3adp-2", "0x1.dfdc6a4a883c7p-53", "0x1.e4b54493b0667p-53"),
            # no sign change of the crossing: the better I1 end
            ((0.5, 0.5, 0.5, 0.999999999), "0x1.65a0a539b1012p+30", "0x1.000032509b5e7p+0", "0x1.983195025a7f0p-30", "0x1.9c511cfa9ea48p-30"),
        ],
    )
    def test_pinned_bits(self, args, eps1, eps2, gamma_ryu, gamma_upper):
        # the planner's output bits, pinned so that a change of its arithmetic shows
        p = plan(*args)
        assert [p.eps1.hex(), p.eps2.hex(), p.gamma_ryu.hex(), p.gamma_upper.hex()] == [eps1, eps2, gamma_ryu, gamma_upper]

    def test_bisection_returns_an_endpoint_root(self):
        # an end where the crossing is exactly zero is the root: no halving
        assert _bisect(lambda x: 1.0 - x, 0.0, 1.0, 1.0, 0.0) == 1.0
        assert _bisect(lambda x: x - 0.25, 0.25, 1.0, 0.0, 0.75) == 0.25

    def test_bisection_failures_are_numerical_errors(self):
        with pytest.raises(NumericalError, match="NaN"):
            _bisect(lambda x: math.nan, 0.0, 1.0, -1.0, 1.0)
        with pytest.raises(NumericalError, match="200 halvings"):
            _bisect(lambda x: 1.0, 0.0, 1e300, -1.0, 1.0)

    @given(lams, st.floats(0.05, 0.95), lips, lips)
    @settings(max_examples=80, deadline=None)
    def test_plan_output_is_admissible(self, lam, frac, L1, L2):
        alpha = admissible_alpha(lam, frac)
        assume(alpha < 1.0 - 1e-9)
        p = plan(L1, L2, lam=lam, alpha=alpha)
        lo1, hi1 = eps1_interval(lam, alpha)
        assert lo1 < p.eps1 < hi1
        assert p.eps2 > eps2_lower(L2, lam, alpha)
        for g in (p.gbar0, p.gbar1, p.gbar2, p.gbar3):
            assert g > 0
        assert 0 < p.gamma_ryu < min(p.gbar0, p.gbar1, p.gbar2, p.gbar3, 1.0 / (L1 + L2))

    @pytest.mark.parametrize("L1, L2", [(10.0, 1.0), (2.0, 3.0), (1.0, 1.0), (1.0, 10.0), (0.1, 100.0)])
    def test_thm2_cap_lies_above_the_certified_range(self, L1, L2):
        # gbar0 = lam/(2 L1) < alpha/L1 since alpha > lam/2, and gbar3 < (1-alpha)/L2
        for lam in (0.05, 0.25, 0.5, 1.0, 1.5, 1.95):
            for frac in (1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999999):
                p = plan(L1, L2, lam=lam, alpha=admissible_alpha(lam, frac))
                assert p.gamma_upper < p.thm2_cap

    def test_plan_rejects_inadmissible_alpha(self):
        with pytest.raises(InputError):
            plan(1.0, 1.0, lam=1.0, alpha=0.5)
        with pytest.raises(InputError):
            plan(1.0, 1.0, lam=1.0, alpha=1.0)
        with pytest.raises(InputError):
            plan(1.0, 1.0, lam=2.0, alpha=0.99)

    @pytest.mark.parametrize("L1, L2", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (0.0, 1.0), (1.0, -2.0)])
    def test_rejects_nan_infinite_and_nonpositive_moduli(self, L1, L2):
        with pytest.raises(InputError, match="L1 and L2"):
            plan(L1, L2)
        with pytest.raises(InputError, match="L1 and L2"):
            gamma_bounds(L1, L2, 1.0, 0.99, 2.0, 2.0)
        with pytest.raises(InputError, match="L1 and L2"):
            descent_constants(L1, L2, RelaxationParams(0.01, 1.0, 0.9), 2.0, 2.0)
        with pytest.raises(InputError, match="L2 must be positive and finite"):
            eps2_lower(L2 if L1 == 1.0 else L1, 1.0, 0.99)  # the one bad modulus, as L2

    def test_plan_checks_its_input_once(self, monkeypatch):
        calls = []
        for name in ("_validate_moduli", "_validate_lam_alpha"):
            check = getattr(stepsize, name)
            monkeypatch.setattr(stepsize, name, lambda *a, check=check, name=name: calls.append(name) or check(*a))
        plan(10.0, 1.0, 1.0, 0.99)
        assert calls == ["_validate_moduli", "_validate_lam_alpha"]

    @pytest.mark.parametrize("eps1, eps2", [(math.nan, 2.0), (2.0, math.nan), (0.0, 2.0), (math.inf, 2.0), (2.0, math.inf)])
    def test_gamma_bounds_rejects_nan_and_nonpositive_epsilons(self, eps1, eps2):
        with pytest.raises(InputError, match="eps1 and eps2"):
            gamma_bounds(1.0, 1.0, 1.0, 0.99, eps1, eps2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_epsilons_nearly_maximize_min_cap_vs_grid(self, seed):
        rng = np.random.default_rng(seed)
        lam = float(rng.uniform(0.3, 1.8))
        alpha = admissible_alpha(lam, float(rng.uniform(0.2, 0.9)))
        L1 = float(rng.uniform(0.5, 10.0))
        L2 = float(rng.uniform(0.5, 10.0))
        p = plan(L1, L2, lam, alpha)
        e1, e2 = p.eps1, p.eps2
        ours = min(gamma_bounds(L1, L2, lam, alpha, e1, e2)[1:])
        best = max(cap for _, _, cap in epsilon_grid(L1, L2, lam, alpha, 160))
        assert ours >= 0.99 * best


class TestAdaptiveController:
    def test_clamps_up_to_floor_at_construction(self):
        c = AdaptiveController(gamma_ryu=1.0, gamma_current=0.1)
        assert c.gamma_current == pytest.approx(0.99)

    def test_shrinks_on_large_displacement(self):
        c = AdaptiveController(gamma_ryu=0.01, gamma_current=0.8)
        g = c.update(k=1, dx1_norm=5e3, dx2_norm=7e3, x1_norm=0.0, x2_norm=0.0)
        assert g == pytest.approx(0.4)

    def test_displacement_trigger_uses_the_smaller_norm(self):
        c = AdaptiveController(gamma_ryu=0.01, gamma_current=0.8)
        # min(dx1, dx2) = 500 < 1e3/k = 1e3: no shrink even though dx1 is large
        g = c.update(k=1, dx1_norm=5e3, dx2_norm=500.0, x1_norm=0.0, x2_norm=0.0)
        assert g == pytest.approx(0.8)

    def test_displacement_trigger_scales_with_one_over_k(self):
        c = AdaptiveController(gamma_ryu=0.01, gamma_current=0.8)
        # 500 < 1e3/1 at k = 1, but 500 > 1e3/4 at k = 4
        assert c.update(k=1, dx1_norm=500.0, dx2_norm=500.0, x1_norm=0.0, x2_norm=0.0) == 0.8
        assert c.update(k=4, dx1_norm=500.0, dx2_norm=500.0, x1_norm=0.0, x2_norm=0.0) == pytest.approx(0.4)

    def test_shrinks_on_large_iterate_norm(self):
        c = AdaptiveController(gamma_ryu=0.01, gamma_current=0.8)
        g = c.update(k=3, dx1_norm=0.0, dx2_norm=0.0, x1_norm=2e10, x2_norm=3e10)
        assert g == pytest.approx(0.4)

    def test_never_drops_below_floor(self):
        c = AdaptiveController(gamma_ryu=0.1, gamma_current=0.15)
        for k in range(1, 10):
            g = c.update(k=k, dx1_norm=1e4, dx2_norm=1e4, x1_norm=0.0, x2_norm=0.0)
        assert g == pytest.approx(0.099)

    def test_no_shrink_once_at_or_below_gamma_ryu(self):
        c = AdaptiveController(gamma_ryu=0.5, gamma_current=0.5)
        g = c.update(k=1, dx1_norm=1e6, dx2_norm=1e6, x1_norm=1e12, x2_norm=1e12)
        assert g == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(InputError):
            AdaptiveController(gamma_ryu=0.0, gamma_current=1.0)
        for bad in (math.nan, math.inf):
            for name in ("gamma_ryu", "gamma_current"):
                with pytest.raises(InputError, match="positive and finite"):
                    AdaptiveController(**{"gamma_ryu": 1.0, "gamma_current": 1.0, name: bad})
        c = AdaptiveController(gamma_ryu=1.0, gamma_current=2.0)
        with pytest.raises(InputError):
            c.update(k=0, dx1_norm=0, dx2_norm=0, x1_norm=0, x2_norm=0)

    def test_update_stores_the_returned_stepsize(self):
        c = AdaptiveController(gamma_ryu=0.01, gamma_current=0.8)
        g = c.update(1, 5e3, 7e3, 0.0, 0.0)
        assert g == pytest.approx(0.4)
        assert c.gamma_current == pytest.approx(0.4)

    @given(st.lists(st.tuples(st.floats(0, 1e6), st.floats(0, 1e12)), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_gamma_is_nonincreasing_and_floored(self, updates):
        c = AdaptiveController(gamma_ryu=0.02, gamma_current=1.0)
        prev = c.gamma_current
        for k, (dx, xn) in enumerate(updates, start=1):
            g = c.update(k=k, dx1_norm=dx, dx2_norm=dx, x1_norm=xn, x2_norm=xn)
            assert g <= prev
            assert g >= c.floor - 1e-15
            prev = g
