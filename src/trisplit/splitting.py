"""Relaxed three-operator splitting: iteration map, envelope merit, diagnostics.

One iteration from governing variables (z1, z2) with stepsize gamma and
relaxation (lam, alpha):

    x1  = prox_{gamma f1}(z1)
    x2  = prox_{(gamma/alpha) f2}(z2/alpha + x1)
    x3 in prox_{gamma f3}(x1 - z1 + x2 - z2)
    z1+ = z1 + lam (x3 - x1)
    z2+ = z2 + lam (x3 - x2)

alpha = 1 recovers the unrelaxed method. The envelope merit function is the
minimum over y of f3(y) plus the proximal linearizations of f1, f2 anchored at
the shadow points x1, x2 with weights gamma1 = gamma/alpha and
gamma2 = gamma/(1-alpha); it decreases by a computable margin per step for
admissible stepsizes. `state_envelope` is its one min-form evaluator: the
minimizer is the state's own x3, so the solver records it without a prox
call. `ryu_envelope_moreau` and `lagrangian_value` are the two independent
forms the checks compare it with.

`_iterate` is the only iteration loop: `run_ryu` and the Davis-Yin
`baselines.run_dys` each pass it one step function, and both relax their
governing variables through `_relax`. Everything an iteration does, ryu+'s
stepsize cut included, happens inside that step function. The loop's
arithmetic runs on the flat arrays of the vectors; a RealVector is built only
where a term oracle takes one, and each new governing variable is checked for
finiteness once.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import Sequence, TextIO

import numpy as np

from .core import CompositeProblem, DivergenceError, InputError, NumericalError, RealVector
from .core import _validate_alpha, _validate_count, _validate_gamma, _validate_lam
from .stepsize import _validate_epsilons, _validate_moduli

__all__ = [
    "EnvelopeUndefinedError",
    "RelaxationParams",
    "SplitState",
    "IterRecord",
    "DescentConstants",
    "StoppingRule",
    "make_state",
    "ryu_step",
    "ryu_envelope_moreau",
    "state_envelope",
    "lagrangian_value",
    "descent_constants",
    "composite_residual",
    "identity_check",
    "run_ryu",
    "TRACE_COLUMNS",
    "write_trace_csv",
    "write_trace_json",
]


class EnvelopeUndefinedError(InputError):
    """The envelope needs alpha < 1; at alpha = 1 the second proximal weight is infinite."""


@dataclass(frozen=True)
class RelaxationParams:
    """Stepsize gamma and relaxation pair (lam, alpha); alpha = 1 is the unrelaxed method."""

    gamma: float
    lam: float = 1.0
    alpha: float = 0.99

    def __post_init__(self):
        _validate_gamma(self.gamma)
        _validate_lam(self.lam)
        _validate_alpha(self.alpha)

    @property
    def gamma1(self) -> float:
        return self.gamma / self.alpha

    @property
    def gamma2(self) -> float:
        # convention: c/0 = +inf
        if self.alpha == 1.0:
            return math.inf
        return self.gamma / (1.0 - self.alpha)


@dataclass(frozen=True)
class SplitState:
    """Governing variables plus the shadow points computed from them.

    Invariants: x1 = prox_{gamma f1}(z1); x2 = prox_{(gamma/alpha) f2}(z2/alpha + x1);
    x3, f3_at_x3 and u are `_f3_step`'s at the anchor x1 - z1 + x2 - z2.
    """

    z1: RealVector
    z2: RealVector
    x1: RealVector
    x2: RealVector
    x3: RealVector
    f3_at_x3: float
    u: np.ndarray = field(compare=False)


@dataclass(frozen=True, kw_only=True)
class IterRecord:
    """Per-iteration diagnostics; norms of the displacements and gaps.

    `residual` is the composite residual or a certified upper bound on it, by
    the rule that `_iterate` states. The blank rule, stated here only: a
    column that a solver has no counterpart for keeps its default, None for
    `envelope` and 0.0 for the rest. `run_ryu` leaves `envelope` blank where
    it does not record it. The one-variable Davis-Yin solver reports its
    governing variable's displacement as dz1, its first prox point's as dx1
    and the gap ||x3 - x_f|| as gap31, and leaves envelope, dz2, dx2 and
    gap32 blank.
    """

    k: int
    gamma: float
    envelope: float | None = None
    objective: float
    residual: float
    dz1: float
    dz2: float = 0.0
    dx1: float
    dx2: float = 0.0
    gap31: float
    gap32: float = 0.0
    time_ms: float


@dataclass(frozen=True)
class DescentConstants:
    """Constants certifying per-step envelope decrease; M = C4/C5."""

    C0: float
    C1: float
    C2: float
    C3: float
    C4: float
    C5: float
    M: float


@dataclass(frozen=True)
class StoppingRule:
    """Composite-residual stopping: stop when residual < tol or k = max_iter.

    Where the residual is exact and where a certified bound stands in for it
    is the rule that `_iterate` states.
    """

    prox_gamma: float = 5e-3
    tol: float = 1e-3
    max_iter: int = 20000

    def __post_init__(self):
        _validate_gamma(self.prox_gamma, "prox_gamma")
        _validate_gamma(self.tol, "tol")
        _validate_count(self.max_iter, "max_iter")


def _dist(a: RealVector, b: RealVector) -> float:
    """||a - b||, computed on the flat arrays."""
    return float(np.linalg.norm(a.data - b.data))


def _relax(lam: float, z: RealVector, x_new: RealVector, x_old: RealVector, name: str) -> RealVector:
    """z + lam (x_new - x_old); a non-finite entry is a DivergenceError naming `name`."""
    with np.errstate(over="ignore", invalid="ignore"):
        arr = z.data + lam * (x_new.data - x_old.data)
    try:
        return z.with_data(arr)
    except NumericalError:
        raise DivergenceError(f"{name} became non-finite") from None


def _smooth_points(
    p: CompositeProblem, params: RelaxationParams, z1: RealVector, z2: RealVector
) -> tuple[RealVector, RealVector]:
    """x1 = prox_{gamma f1}(z1) and x2 = prox_{(gamma/alpha) f2}(z2/alpha + x1)."""
    p.check_shape(z1, "z1")
    p.check_shape(z2, "z2")
    gamma, alpha = params.gamma, params.alpha
    if params.gamma1 == math.inf:  # a finite gamma over a small alpha: lost numerics, not bad input
        raise NumericalError(f"the f2 prox stepsize gamma/alpha = {gamma}/{alpha} overflows")
    x1 = p.f1.prox(gamma, z1)
    x2 = p.f2.prox(gamma / alpha, z2.with_data(z2.data / alpha + x1.data))
    return x1, x2


def _f3_step(p: CompositeProblem, gamma: float, like: RealVector, anchor: np.ndarray) -> dict:
    """The f3 step every solver state ends in, as the state fields `_iterate` reads: x3 in
    prox_{gamma f3}(anchor), the flat `anchor` shaped like `like`; f3_at_x3 = f3(x3); and the read-only
    flat array u = (anchor - x3)/gamma, in f3's regular subdifferential at x3 (prox optimality)."""
    x3, f3v = p.f3.prox_with_value(gamma, like.with_data(anchor))
    u = (anchor - x3.data) / gamma  # a new array: x3 may share anchor's buffer
    u.setflags(write=False)
    return dict(x3=x3, f3_at_x3=f3v, u=u)


def make_state(p: CompositeProblem, params: RelaxationParams, z1: RealVector, z2: RealVector) -> SplitState:
    """Compute the shadow points for (z1, z2) and bundle them into a state."""
    x1, x2 = _smooth_points(p, params, z1, z2)
    anchor = x1.data - z1.data + x2.data - z2.data
    return SplitState(z1=z1, z2=z2, x1=x1, x2=x2, **_f3_step(p, params.gamma, z1, anchor))


def ryu_step(p: CompositeProblem, params: RelaxationParams, s: SplitState) -> SplitState:
    """One full iteration: relax the governing variables, refresh shadow points."""
    z1 = _relax(params.lam, s.z1, s.x3, s.x1, "z1")
    z2 = _relax(params.lam, s.z2, s.x3, s.x2, "z2")
    return make_state(p, params, z1, z2)


def _require_envelope(params: RelaxationParams) -> None:
    if params.alpha >= 1.0:
        raise EnvelopeUndefinedError(
            "envelope undefined at alpha = 1 (second proximal weight gamma/(1-alpha) is infinite)"
        )


def _linearization_gap(
    x: RealVector, anchor: RealVector, grad: RealVector, weight: float
) -> float:
    """<x - anchor, grad> + ||x - anchor||^2 / (2 weight)."""
    diff = x.data - anchor.data
    return float(diff @ grad.data) + float(np.linalg.norm(diff)) ** 2 / (2.0 * weight)


def ryu_envelope_moreau(
    p: CompositeProblem, params: RelaxationParams, z1: RealVector, z2: RealVector
) -> float:
    """Envelope via the Moreau envelope of f3 (independent evaluation path).

    env = env_{gamma f3}(w) - ||w||^2/(2 gamma)
          + sum_i [f_i(x_i) - <x_i, grad f_i(x_i)> + ||x_i||^2 / (2 gamma_i)]

    with w = alpha u1 + (1-alpha) u2 and u_i = x_i - gamma_i grad f_i(x_i):
    complete the square in the min-form and what is left of the quadratic is
    exactly the Moreau envelope of f3 at w.
    """
    _require_envelope(params)
    gamma, alpha = params.gamma, params.alpha
    x1, x2 = _smooth_points(p, params, z1, z2)
    g1 = p.f1.grad(x1)
    g2 = p.f2.grad(x2)
    u1 = x1 - params.gamma1 * g1
    u2 = x2 - params.gamma2 * g2
    w = alpha * u1 + (1.0 - alpha) * u2
    y, f3y = p.f3.prox_with_value(gamma, w)
    moreau = f3y + (y - w).norm() ** 2 / (2.0 * gamma)
    corr = (
        float(p.f1.value(x1))
        - x1.dot(g1)
        + x1.norm() ** 2 / (2.0 * params.gamma1)
        + float(p.f2.value(x2))
        - x2.dot(g2)
        + x2.norm() ** 2 / (2.0 * params.gamma2)
    )
    return moreau - w.norm() ** 2 / (2.0 * gamma) + corr


def state_envelope(p: CompositeProblem, params: RelaxationParams, s: SplitState) -> float:
    """Min-form envelope value at the state's (z1, z2), reusing its shadow
    points and cached f3(x3).

    env = min_y f3(y) + sum_i [f_i(x_i) + <y - x_i, grad f_i(x_i)>
                               + ||y - x_i||^2 / (2 gamma_i)]

    The quadratic parts collapse to ||y - w||^2/(2 gamma) around
    w = alpha x1 + (1-alpha) x2 - gamma (grad f1(x1) + grad f2(x2)), which the
    prox optimality of x1 and x2 makes equal to x3's anchor x1 - z1 + x2 - z2.
    So the state's x3 is the minimizer and no extra prox evaluation is needed.
    Requires alpha < 1; the stepsize must keep gamma f3 prox-bounded
    (gamma < 1/(L1+L2) always suffices).
    """
    _require_envelope(params)
    g1 = p.f1.grad(s.x1)
    g2 = p.f2.grad(s.x2)
    return (
        s.f3_at_x3
        + float(p.f1.value(s.x1))
        + float(p.f2.value(s.x2))
        + _linearization_gap(s.x3, s.x1, g1, params.gamma1)
        + _linearization_gap(s.x3, s.x2, g2, params.gamma2)
    )


def lagrangian_value(
    p: CompositeProblem,
    beta1: float,
    beta2: float,
    x1: RealVector,
    x2: RealVector,
    x3: RealVector,
    mu1: RealVector,
    mu2: RealVector,
) -> float:
    """Penalized Lagrangian of the consensus reformulation.

    f3(x3) + sum_i [f_i(x_i) + <mu_i, x_i - x3> + (beta_i/2) ||x_i - x3||^2].
    With beta_i = 1/gamma_i and mu_i = -grad f_i(x_i) this equals the envelope.
    """
    total = float(p.f3.value(x3)) + float(p.f1.value(x1)) + float(p.f2.value(x2))
    for xi, mui, betai in ((x1, mu1, beta1), (x2, mu2, beta2)):
        diff = xi - x3
        total += mui.dot(diff) + 0.5 * betai * diff.norm() ** 2
    return total


def descent_constants(
    L1: float, L2: float, params: RelaxationParams, eps1: float, eps2: float
) -> DescentConstants:
    """Per-step envelope-decrease constants; env drop >= M * (|dz1|^2 + |dz2|^2).

    Signs are reported, not enforced: C0, C1 >= 0 and C2, C3 > 0 hold exactly
    when gamma lies in the admissible interval for (eps1, eps2).
    """
    _validate_moduli(L1, L2)
    _validate_epsilons(eps1, eps2)
    _require_envelope(params)
    g, lam, a = params.gamma, params.lam, params.alpha
    C0 = 1.0 / (2.0 * L1) - g / lam
    C1 = 1.0 / (2.0 * L2) - g / lam - a / (2.0 * lam * eps2)
    C2 = (
        a / (g * lam)
        - a / (2.0 * g)
        + (a - 1.0) * L1 / lam
        - (1.0 - a) * a * eps1 / (2.0 * g * lam)
        - a * eps2 / (2.0 * lam)
    )
    C3 = (
        a * (1.0 - a) / (g * lam)
        - (1.0 - a) / (2.0 * g)
        - a * L2 / lam
        - (1.0 - a) * a / (2.0 * g * lam * eps1)
    )
    C4 = min(C2, C3)
    C5 = max(2.0 * a * a + (1.0 + L1 * g) ** 2, 2.0 * (a + L2 * g) ** 2)
    return DescentConstants(C0=C0, C1=C1, C2=C2, C3=C3, C4=C4, C5=C5, M=C4 / C5)


def composite_residual(p: CompositeProblem, prox_gamma: float, x: RealVector) -> float:
    """||x - prox_{g f3}(x - g (grad f1(x) + grad f2(x)))|| with g = prox_gamma.

    Zero exactly at critical points of f1 + f2 + f3; the stopping criterion.
    Where the solvers take it is the rule that `_iterate` states.
    """
    _validate_gamma(prox_gamma, "prox_gamma")
    p.check_shape(x)
    g = p.f1.grad(x).data + p.f2.grad(x).data
    step = p.f3.prox(prox_gamma, x.with_data(x.data - prox_gamma * g))
    return _dist(x, step)


def identity_check(
    p: CompositeProblem,
    params: RelaxationParams,
    s_before: SplitState,
    s_after: SplitState,
) -> tuple[float, float, float, float]:
    """Both sides of the two exact displacement identities across one step.

    First identity:  ||x3-x1||^2 - ||x3-x1'||^2
                     = (2/lam - 1)||dx1||^2 + (2 gamma/lam) <dx1, dg1>
    Second identity: ||x3-x2||^2 - ||x3-x2'||^2
                     = (2 alpha/lam - 1)||dx2||^2 + (2 gamma/lam) <dx2, dg2>
                       - (2 alpha/lam) <dx2, dx1>

    where x3, x1, x2 come from the pre-step state and primes from the
    post-step state. Returns (lhs1, rhs1, lhs2, rhs2).
    """
    g, lam, a = params.gamma, params.lam, params.alpha
    dx1 = s_after.x1 - s_before.x1
    dx2 = s_after.x2 - s_before.x2
    dg1 = p.f1.grad(s_after.x1) - p.f1.grad(s_before.x1)
    dg2 = p.f2.grad(s_after.x2) - p.f2.grad(s_before.x2)
    x3 = s_before.x3
    lhs1 = (x3 - s_before.x1).norm() ** 2 - (x3 - s_after.x1).norm() ** 2
    rhs1 = (2.0 / lam - 1.0) * dx1.norm() ** 2 + (2.0 * g / lam) * dx1.dot(dg1)
    lhs2 = (x3 - s_before.x2).norm() ** 2 - (x3 - s_after.x2).norm() ** 2
    rhs2 = (
        (2.0 * a / lam - 1.0) * dx2.norm() ** 2
        + (2.0 * g / lam) * dx2.dot(dg2)
        - (2.0 * a / lam) * dx2.dot(dx1)
    )
    return lhs1, rhs1, lhs2, rhs2


def _objective(p: CompositeProblem, x: RealVector, f3_at_x: float) -> float:
    """f1(x) + f2(x) + f3(x), with f3(x) already known."""
    return float(p.f1.value(x)) + float(p.f2.value(x)) + f3_at_x


def _envelope_enabled(p: CompositeProblem, params: RelaxationParams) -> bool:
    """Record the envelope where it is defined (alpha < 1), where
    gamma < 1/(L1+L2) keeps gamma f3 prox-bounded, and up to dimension 1e4.

    The dimension cap is a cost choice, not a condition of the envelope. It
    keeps the protocol size (100x100), where `envelope_monotone` reports
    ryu's descent, and turns recording off at 300x300. There the envelope
    took 1.0 ms of a 15-18 ms ryu iteration (timeit, one BLAS thread,
    300:10000 seed 0 after 120 steps), paid on each of the 20000 steps of
    the benchmark's capped ryu runs."""
    cap = 1.0 / (p.f1.lipschitz + p.f2.lipschitz)
    return params.alpha < 1.0 and params.gamma < cap and p.dim <= 10_000


# The opening window: until a run has taken its first exact residual beside a
# certificate, the exact residual is taken where the certificate is below this
# many tolerances. Certificate/residual ratios measured on protocol seeds 0-4
# (100:1000), with the exact residual taken at every iteration: ryu+ 1.055 to
# 1.240 at its stop and at most 1.465 anywhere in a run; dys 1.0003 at its
# stop and at most 1.006; ryu at most 1.003 over 3000 iterations. After the
# first exact residual the window is _RATIO_MARGIN times the largest ratio the
# run has seen, so on those runs it stays below 1.05 * 1.465 = 1.54.
CERTIFICATE_WINDOW = 2.0
_RATIO_MARGIN = 1.05


def _certificate(p: CompositeProblem, prox_gamma: float, rho: float, x: RealVector, u: np.ndarray) -> float:
    """g ||u + grad f1(x) + grad f2(x)|| / (1 - g rho), with g = prox_gamma.

    An upper bound on `composite_residual(p, g, x)` when u is a subgradient
    of a rho-weakly convex f3 at x and g rho < 1: then x = prox_{g f3}(x + g u),
    and prox_{g f3} is 1/(1 - g rho)-Lipschitz (Drusvyatskiy & Lewis, Math.
    Oper. Res. 2018). A solver state's u is such a subgradient at its x3, so
    the bound costs two gradients and no prox.
    """
    v = u + p.f1.grad(x).data + p.f2.grad(x).data
    return prox_gamma * float(np.linalg.norm(v)) / (1.0 - prox_gamma * rho)


def _iterate(p: CompositeProblem, stop: StoppingRule | None, state, step):
    """The iteration loop shared by every solver.

    Every solver state holds the fields of its `_f3_step`: f3's prox point
    `x3`, f3's value there `f3_at_x3` and the subgradient `u` of f3 at x3;
    the loop takes the residual and the objective at x3. `step(state, prev)` gets
    the previous IterRecord as prev (None on the first step) and returns the
    next state and the remaining IterRecord fields it has a value for (the
    rest keep IterRecord's blanks). The loop alone numbers the steps: it adds
    k, objective, residual and time_ms, and a step that needs k reads prev.k.
    A step that changes its own parameters, such as ryu+'s stepsize, does so
    inside `step`. The loop runs on one condition: the last residual, the
    start's included, is not below tol and fewer than max_iter steps have
    run. It returns the final state and the records, which are empty for a
    start that already meets the tolerance. `stop` defaults to StoppingRule().

    The residual rule, stated here only. The residual is the exact
    `composite_residual` at the start, on the last step the budget allows,
    and wherever f3 states no weak-convexity modulus rho or
    prox_gamma * rho >= 1. Elsewhere the loop takes the certificate, an upper
    bound on it from the state's u (`_certificate`), and takes the exact
    residual as well only where the certificate is below window * tol. The
    window opens at CERTIFICATE_WINDOW; once a step has taken both values it
    is _RATIO_MARGIN times r_max, the largest certificate/residual ratio the
    run's steps have shown so far (at least 1). So a run stops only on an
    exact residual below tol, and a converged or capped run's last record
    holds the exact residual. A stop comes later than the exact test alone
    gives only at a step whose exact residual is below tol while its
    certificate is not below the window, that is, whose ratio exceeds the
    window: CERTIFICATE_WINDOW before the run's first step with both values,
    and _RATIO_MARGIN r_max after it. Where a step takes both, a certificate
    below the residual beyond rounding means that f3 understates rho:
    InputError, naming f3's class and its stated rho. Rounding is
    1e-12 exact + 1e-13 (||x|| + 1): both values subtract vectors of x's
    size, so their rounding scales with ||x||, and where the prox is
    1-Lipschitz without slack (the identity, a shift) the two agree up to it.

    A start whose residual is not finite is lost numerics: NumericalError,
    before any step. After the start, a non-finite objective, residual or
    certificate is divergence. Every DivergenceError leaves the loop naming
    the step that raised it, with the records so far attached as `.trace`.
    """
    stop = stop or StoppingRule()
    records: list[IterRecord] = []
    rho = p.f3.weak_convexity
    certify = rho is not None and stop.prox_gamma * rho < 1.0
    window, r_max = CERTIFICATE_WINDOW, 1.0  # the certificate is an upper bound: a ratio below 1 is rounding
    residual = composite_residual(p, stop.prox_gamma, state.x3)
    if not math.isfinite(residual):
        raise NumericalError("the composite residual at the start is not finite")
    t0 = time.perf_counter()
    try:
        while not residual < stop.tol and len(records) < stop.max_iter:
            k = len(records) + 1
            nxt, fields = step(state, records[-1] if records else None)
            x = nxt.x3
            objective = _objective(p, x, nxt.f3_at_x3)
            cert = _certificate(p, stop.prox_gamma, rho, x, nxt.u) if certify and k < stop.max_iter else None
            if cert is not None and not cert < window * stop.tol:
                residual = cert  # a non-finite certificate is kept here, so it diverges below
            else:
                residual = composite_residual(p, stop.prox_gamma, x)
                if cert is not None and 0.0 < residual < math.inf:
                    if cert < residual * (1.0 - 1e-12) - 1e-13 * (x.norm() + 1.0):
                        raise InputError(
                            f"f3 ({type(p.f3).__name__}) states weak_convexity {rho!r}, but at iteration {k} "
                            f"its residual certificate {cert:.6g} is below the composite residual {residual:.6g}"
                        )
                    r_max = max(r_max, cert / residual)
                    window = _RATIO_MARGIN * r_max
            rec = IterRecord(
                k=k,
                objective=objective,
                residual=residual,
                time_ms=(time.perf_counter() - t0) * 1e3,
                **fields,
            )
            if not (math.isfinite(objective) and math.isfinite(residual)):
                raise DivergenceError("objective or residual became non-finite")
            records.append(rec)
            state = nxt
    except DivergenceError as err:
        err.args = (f"{err} at iteration {len(records) + 1}",)
        err.trace = tuple(records)
        raise
    return state, records


def run_ryu(
    p: CompositeProblem,
    params: RelaxationParams,
    z1_0: RealVector | None = None,
    z2_0: RealVector | None = None,
    stop: StoppingRule | None = None,
    controller=None,
) -> tuple[SplitState, list[IterRecord]]:
    """Iterate until the composite residual drops below tol or max_iter is hit.

    The residual is taken by the rule that `_iterate` states. Starts from
    z1 = z2 = 0 unless given. A step records the envelope exactly when
    alpha < 1, the gamma it ran at is below 1/(L1+L2) (strictly, so gamma f3
    stays prox-bounded) and the dimension is at most 1e4; otherwise the
    envelope field is None. `controller`, when given, owns the stepsize: it
    must start at params.gamma, or InputError is raised before any state is
    built. It may lower gamma at the start of every step but the first, from
    the previous step's shadow-point displacements (see the stepsize
    planner); the step's shadow points are recomputed whenever it does.

    On divergence raises DivergenceError with the trace so far attached as
    `.trace`.
    """
    if controller is not None and controller.gamma_current != params.gamma:
        raise InputError(
            f"gamma={params.gamma} must equal the controller's current stepsize {controller.gamma_current}"
        )
    z1 = z1_0 if z1_0 is not None else p.zeros()
    z2 = z2_0 if z2_0 is not None else p.zeros()
    state = make_state(p, params, z1, z2)

    def step(s: SplitState, prev: IterRecord | None):
        nonlocal params
        if controller is not None and prev is not None:
            new_gamma = controller.update(
                k=prev.k,
                dx1_norm=prev.dx1,
                dx2_norm=prev.dx2,
                x1_norm=s.x1.norm(),
                x2_norm=s.x2.norm(),
            )
            if new_gamma != params.gamma:
                params = replace(params, gamma=new_gamma)
                # shadow points depend on gamma: refresh for the new value,
                # from which the step's dx1 and dx2 are measured
                s = make_state(p, params, s.z1, s.z2)
        nxt = ryu_step(p, params, s)
        return nxt, dict(
            gamma=params.gamma,
            envelope=state_envelope(p, params, nxt) if _envelope_enabled(p, params) else None,
            dz1=_dist(nxt.z1, s.z1),
            dz2=_dist(nxt.z2, s.z2),
            dx1=_dist(nxt.x1, s.x1),
            dx2=_dist(nxt.x2, s.x2),
            gap31=_dist(nxt.x3, nxt.x1),
            gap32=_dist(nxt.x3, nxt.x2),
        )

    return _iterate(p, stop, state, step)


TRACE_COLUMNS = tuple(f.name for f in fields(IterRecord))


def write_trace_csv(fh: TextIO, records: Sequence[IterRecord]) -> None:
    """One row per iteration to a text file opened with newline=""; envelope
    written blank when not evaluated."""
    writer = csv.writer(fh)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows([getattr(r, c) for c in TRACE_COLUMNS] for r in records)


def write_trace_json(fh: TextIO, records: Sequence[IterRecord]) -> None:
    """Same fields as the CSV to a text file, as a JSON array of records (null envelope)."""
    json.dump([{c: getattr(r, c) for c in TRACE_COLUMNS} for r in records], fh, indent=1)
    fh.write("\n")
