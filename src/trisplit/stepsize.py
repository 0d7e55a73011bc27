"""Stepsize planning: admissibility bounds, epsilon optimization, adaptive control.

For relaxation lam in (0,2) the admissible alpha interval is (alpha_bar, 1)
with alpha_bar = (2 lam - 3 + sqrt(9 - 4 lam))/2. Given free parameters
eps1, eps2 the four stepsize caps are

    gbar0 = lam / (2 L1)
    gbar1 = lam / (2 L2) - alpha / (2 eps2)
    gbar2 = alpha (2 - lam - (1-alpha) eps1) / (alpha eps2 + 2 (1-alpha) L1)
    gbar3 = (1-alpha)(eps1 (2 alpha - lam) - alpha) / (2 alpha L2 eps1)

all positive when eps1 in I1 = (alpha/(2 alpha - lam), (2-lam)/(1-alpha)) and
eps2 in I2 = (alpha L2 / lam, inf). The planner picks (eps1, eps2) to
maximize min{gbar1, gbar2, gbar3} and returns

    gamma_ryu = 0.99 * min{gbar0, gbar1, gbar2, gbar3, 1/(L1+L2)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import InputError, NumericalError, _validate_gamma, _validate_lam

__all__ = [
    "PlanInfeasibleError",
    "StepsizePlan",
    "AdaptiveController",
    "alpha_lower_bound",
    "eps1_interval",
    "eps2_lower",
    "gamma_bounds",
    "eps2_star",
    "optimize_epsilons",
    "plan",
]


class PlanInfeasibleError(InputError):
    """No admissible (eps1, eps2) pair could be constructed."""


def alpha_lower_bound(lam: float) -> float:
    """Smallest admissible alpha, (2 lam - 3 + sqrt(9 - 4 lam))/2; in (lam/2, 1)."""
    _validate_lam(lam)
    return (2.0 * lam - 3.0 + math.sqrt(9.0 - 4.0 * lam)) / 2.0


def _validate_moduli(L1: float, L2: float) -> None:
    if not (0 < L1 < math.inf and 0 < L2 < math.inf):
        raise InputError(f"L1 and L2 must be positive and finite, got L1={L1}, L2={L2}")


def _validate_epsilons(eps1: float, eps2: float) -> None:
    if not (0 < eps1 < math.inf and 0 < eps2 < math.inf):
        raise InputError(f"eps1 and eps2 must be positive and finite, got eps1={eps1}, eps2={eps2}")


def _validate_lam_alpha(lam: float, alpha: float) -> None:
    abar = alpha_lower_bound(lam)  # at lam = 2, alpha_bar = 1 and no alpha is admissible
    if not abar < alpha < 1:
        raise InputError(f"alpha must lie in ({abar}, 1) for lam={lam}, got {alpha}")


def eps1_interval(lam: float, alpha: float) -> tuple[float, float]:
    """Admissible eps1 interval I1 (open); nonempty for alpha in (alpha_bar, 1)."""
    _validate_lam_alpha(lam, alpha)
    return alpha / (2.0 * alpha - lam), (2.0 - lam) / (1.0 - alpha)


def eps2_lower(L2: float, lam: float, alpha: float) -> float:
    """Left end of the open admissible eps2 interval I2 = (alpha L2 / lam, inf)."""
    _validate_gamma(L2, "L2")
    _validate_lam_alpha(lam, alpha)
    return alpha * L2 / lam


def _caps(L1, L2, lam, alpha, eps1, eps2) -> tuple[float, float, float, float]:
    g0 = lam / (2.0 * L1)
    g1 = lam / (2.0 * L2) - alpha / (2.0 * eps2)
    g2 = alpha * (2.0 - lam - (1.0 - alpha) * eps1) / (alpha * eps2 + 2.0 * (1.0 - alpha) * L1)
    g3 = (1.0 - alpha) * (eps1 * (2.0 * alpha - lam) - alpha) / (2.0 * alpha * L2 * eps1)
    return g0, g1, g2, g3


def gamma_bounds(
    L1: float, L2: float, lam: float, alpha: float, eps1: float, eps2: float
) -> tuple[float, float, float, float]:
    """The four stepsize caps (gbar0, gbar1, gbar2, gbar3) for given epsilons."""
    _validate_moduli(L1, L2)
    _validate_epsilons(eps1, eps2)
    _validate_lam_alpha(lam, alpha)
    return _caps(L1, L2, lam, alpha, eps1, eps2)


def _eps2_star(L1, L2, lam, alpha, eps1) -> float:
    A = lam * alpha
    B = (
        2.0 * lam * (1.0 - alpha) * L1
        - alpha * alpha * L2
        - 2.0 * alpha * L2 * (2.0 - lam - (1.0 - alpha) * eps1)
    )
    C = -2.0 * alpha * (1.0 - alpha) * L1 * L2
    q = -0.5 * (B + math.copysign(math.sqrt(B * B - 4.0 * A * C), B if B != 0 else 1.0))
    root = max(q / A, C / q)  # the roots q/A and C/q multiply to C/A < 0
    if not root > alpha * L2 / lam:  # outside I2 only where the coefficients under- or overflow
        raise PlanInfeasibleError(f"no eps2 root inside I2 for lam={lam}, alpha={alpha}")
    return root


def eps2_star(L1: float, L2: float, lam: float, alpha: float, eps1: float) -> float:
    """The root of gbar1(eps2) = gbar2(eps1, eps2) inside I2, for eps1 in I1.

    Clearing denominators gives the quadratic

        lam*alpha*e^2
        + (2 lam (1-alpha) L1 - alpha^2 L2 - 2 alpha L2 (2 - lam - (1-alpha) eps1)) e
        - 2 alpha (1-alpha) L1 L2 = 0

    whose leading coefficient is positive and constant term negative, so
    there is exactly one positive root, and (since gbar1 vanishes at the left
    end of I2 while gbar2 is positive on I1) it lies in I2.
    """
    _validate_moduli(L1, L2)
    lo, hi = eps1_interval(lam, alpha)
    if not lo < eps1 < hi:
        raise InputError(f"eps1 must lie in I1 = ({lo}, {hi}) for lam={lam}, alpha={alpha}, got {eps1}")
    return _eps2_star(L1, L2, lam, alpha, eps1)


def _balanced_caps(L1, L2, lam, alpha, eps1) -> tuple[float, tuple[float, float, float, float]]:
    """eps2_star at eps1 and the four caps there: one step of the epsilon search."""
    eps2 = _eps2_star(L1, L2, lam, alpha, eps1)
    return eps2, _caps(L1, L2, lam, alpha, eps1, eps2)


def _bisect(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root of f on [a, b] from fa = f(a), fb = f(b) of opposite sign: halve the
    step dm from a, moving a to the midpoint whenever f there has the sign of
    the first fa, until f vanishes or |dm| < 1e-15 + 1e-12 |mid|. A NaN value
    or 200 halvings without convergence raise NumericalError."""
    if fa == 0:
        return a
    if fb == 0:
        return b
    dm = b - a
    for _ in range(200):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if math.isnan(fm):
            raise NumericalError(f"the eps1 crossing value at {xm} is NaN")
        if fm * fa >= 0:
            a = xm
        if fm == 0 or abs(dm) < 1e-15 + 1e-12 * abs(xm):
            return xm
    raise NumericalError("the eps1 bisection did not converge in 200 halvings")


def _optimize(L1, L2, lam, alpha, lo, hi) -> tuple[float, float, tuple[float, float, float, float]]:
    """`optimize_epsilons` on checked input and I1 = (lo, hi): eps1, eps2 and the caps there."""
    if not lo < hi:
        raise PlanInfeasibleError(f"empty eps1 interval for lam={lam}, alpha={alpha}")
    a = lo * (1.0 + 1e-6)
    b = hi * (1.0 - 1e-6)
    if a >= b:
        return (0.5 * (lo + hi), *_balanced_caps(L1, L2, lam, alpha, 0.5 * (lo + hi)))

    def crossing(e1: float) -> float:
        _, (_, g1, _, g3) = _balanced_caps(L1, L2, lam, alpha, e1)
        return g1 - g3

    fa, fb = crossing(a), crossing(b)
    if fa == 0 or fb == 0 or fa * fb < 0:  # not `fa * fb <= 0`: the product can underflow
        eps1 = _bisect(crossing, a, b, fa, fb)
    else:
        eps1 = max((a, b), key=lambda e1: min(_balanced_caps(L1, L2, lam, alpha, e1)[1][1:]))
    return (eps1, *_balanced_caps(L1, L2, lam, alpha, eps1))


def optimize_epsilons(L1: float, L2: float, lam: float, alpha: float) -> tuple[float, float]:
    """Pick (eps1, eps2) maximizing min{gbar1, gbar2, gbar3}.

    For fixed eps1, eps2_star balances gbar1 = gbar2 (optimal since gbar1
    increases and gbar2 decreases in eps2). Over eps1, h(eps1) =
    gbar1(eps2_star) decreases while gbar3 increases, so their crossing —
    found by bisection at 1e-12 relative tolerance — is the max-min point.
    Without a sign change the I1 endpoints (inset by 1e-6 relative) are both
    evaluated and the better one wins.
    """
    _validate_moduli(L1, L2)
    return _optimize(L1, L2, lam, alpha, *eps1_interval(lam, alpha))[:2]


@dataclass(frozen=True)
class StepsizePlan:
    """Everything the solvers need to pick a safe stepsize.

    thm2_cap lies above gamma_upper on every plan: gbar0 = lam/(2 L1) is below
    alpha/L1 because alpha > alpha_bar > lam/2, and gbar3 is below
    (1-alpha)/L2 by its form. So a stepsize above thm2_cap is above the
    certified descent range too.
    """

    l1: float
    l2: float
    lam: float
    alpha: float
    alpha_bar: float
    eps1: float
    eps2: float
    gbar0: float
    gbar1: float
    gbar2: float
    gbar3: float
    gamma_upper: float
    gamma_ryu: float
    thm2_cap: float

    @property
    def gamma_in_thm2_cap(self) -> bool:
        """Whether gamma_ryu also satisfies the stronger subsequential-convergence cap."""
        return self.gamma_ryu <= self.thm2_cap


def plan(L1: float, L2: float, lam: float = 1.0, alpha: float = 0.99) -> StepsizePlan:
    """Optimize the epsilons and assemble the stepsize plan.

    gamma_ryu = 0.99 min{gbar0..gbar3, 1/(L1+L2)} always lies strictly inside
    the admissible interval; thm2_cap = min{alpha/L1, (1-alpha)/L2} is the
    extra cap under which subsequential convergence to critical points is
    guaranteed, reported separately and never enforced. It always exceeds
    gamma_upper (see `StepsizePlan`): a stepsize in (gamma_upper, thm2_cap] is
    outside the certified range yet below this cap.
    """
    _validate_moduli(L1, L2)
    eps1, eps2, (g0, g1, g2, g3) = _optimize(L1, L2, lam, alpha, *eps1_interval(lam, alpha))
    gamma_upper = min(g0, g1, g2, g3, 1.0 / (L1 + L2))
    gamma_ryu = 0.99 * gamma_upper
    if not gamma_ryu > 0:
        raise PlanInfeasibleError(
            f"nonpositive stepsize cap for lam={lam}, alpha={alpha}: "
            f"gbar=({g0}, {g1}, {g2}, {g3})"
        )
    return StepsizePlan(
        l1=L1,
        l2=L2,
        lam=lam,
        alpha=alpha,
        alpha_bar=alpha_lower_bound(lam),
        eps1=eps1,
        eps2=eps2,
        gbar0=g0,
        gbar1=g1,
        gbar2=g2,
        gbar3=g3,
        gamma_upper=gamma_upper,
        gamma_ryu=gamma_ryu,
        thm2_cap=min(alpha / L1, (1.0 - alpha) / L2),
    )


DISPLACEMENT_TRIGGER, NORM_TRIGGER, SHRINK = 1e3, 1e10, 0.5  # AdaptiveController's fixed rule


@dataclass
class AdaptiveController:
    """Shrinking-stepsize rule: start large, halve on instability symptoms.

    At iterate k >= 1, while gamma_current > gamma_ryu, the stepsize is halved,
    but not below the floor 0.99 * gamma_ryu, whenever the smaller shadow-point
    displacement exceeds 1e3/k or the smaller shadow-point norm exceeds 1e10.
    These fixed triggers are guesses outside the descent guarantee and never
    fire on the benchmark protocol, so a run can end far above gamma_ryu.
    gamma_current never increases, never drops below the floor, and is
    clamped up to it at construction.
    """

    gamma_ryu: float
    gamma_current: float

    def __post_init__(self):
        _validate_gamma(self.gamma_ryu, "gamma_ryu")
        _validate_gamma(self.gamma_current)  # the starting stepsize, run_experiment's `gamma`
        self.gamma_current = max(self.gamma_current, self.floor)

    @property
    def floor(self) -> float:
        return 0.99 * self.gamma_ryu

    def update(
        self, k: int, dx1_norm: float, dx2_norm: float, x1_norm: float, x2_norm: float
    ) -> float:
        """Apply the shrink rule once and return the (possibly updated) stepsize."""
        if k < 1:
            raise InputError("adaptive update needs k >= 1")
        if self.gamma_current > self.gamma_ryu and (
            min(dx1_norm, dx2_norm) > DISPLACEMENT_TRIGGER / k or min(x1_norm, x2_norm) > NORM_TRIGGER
        ):
            self.gamma_current = max(SHRINK * self.gamma_current, self.floor)
        return self.gamma_current
