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
admissible stepsizes and is used both as a diagnostic and in the tests.

`_iterate` is the only iteration loop: `run_ryu` and the Davis-Yin
`baselines.run_dys` each pass it one step function, and both relax their
governing variables through `_relax`. The loop's arithmetic runs on the flat
arrays of the vectors; a RealVector is built only where a term oracle takes
one, and each new governing variable is checked for finiteness once.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, fields, replace
from typing import Sequence, TextIO

import numpy as np

from .core import (
    CompositeProblem,
    DivergenceError,
    InputError,
    NumericalError,
    RealVector,
)
from .stepsize import _validate_moduli

__all__ = [
    "EnvelopeUndefinedError",
    "RelaxationParams",
    "SplitState",
    "IterRecord",
    "DescentConstants",
    "StoppingRule",
    "make_state",
    "ryu_step",
    "ryu_envelope",
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
        if not 0 < self.gamma < math.inf:
            raise InputError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.lam <= 2:
            raise InputError(f"lam must lie in (0, 2], got {self.lam}")
        if not 0 < self.alpha <= 1:
            raise InputError(f"alpha must lie in (0, 1], got {self.alpha}")

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
    x3 in prox_{gamma f3}(x1 - z1 + x2 - z2); f3_at_x3 = f3(x3).
    """

    z1: RealVector
    z2: RealVector
    x1: RealVector
    x2: RealVector
    x3: RealVector
    f3_at_x3: float
    k: int = 0


@dataclass(frozen=True)
class IterRecord:
    """Per-iteration diagnostics; norms of the displacements and gaps."""

    k: int
    gamma: float
    envelope: float | None
    objective: float
    residual: float
    dz1: float
    dz2: float
    dx1: float
    dx2: float
    gap31: float
    gap32: float
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
    """Composite-residual stopping: stop when residual < tol or k = max_iter."""

    prox_gamma: float = 5e-3
    tol: float = 1e-3
    max_iter: int = 20000

    def __post_init__(self):
        if not 0 < self.prox_gamma < math.inf:
            raise InputError(f"prox_gamma must be positive and finite, got {self.prox_gamma}")
        if not 0 < self.tol < math.inf:
            raise InputError(f"tol must be positive and finite, got {self.tol}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise InputError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


def _dist(a: RealVector, b: RealVector) -> float:
    """||a - b||, computed on the flat arrays."""
    return float(np.linalg.norm(a.data - b.data))


def _relax(lam: float, z: RealVector, x_new: RealVector, x_old: RealVector, msg: str) -> RealVector:
    """z + lam (x_new - x_old); a non-finite entry is a DivergenceError(msg)."""
    with np.errstate(over="ignore", invalid="ignore"):
        arr = z.data + lam * (x_new.data - x_old.data)
    try:
        return z.with_data(arr)
    except NumericalError:
        raise DivergenceError(msg) from None


def _smooth_points(
    p: CompositeProblem, params: RelaxationParams, z1: RealVector, z2: RealVector
) -> tuple[RealVector, RealVector]:
    """x1 = prox_{gamma f1}(z1) and x2 = prox_{(gamma/alpha) f2}(z2/alpha + x1)."""
    p.check_shape(z1, "z1")
    p.check_shape(z2, "z2")
    gamma, alpha = params.gamma, params.alpha
    x1 = p.f1.prox(gamma, z1)
    x2 = p.f2.prox(gamma / alpha, z2.with_data(z2.data / alpha + x1.data))
    return x1, x2


def make_state(
    p: CompositeProblem, params: RelaxationParams, z1: RealVector, z2: RealVector, k: int = 0
) -> SplitState:
    """Compute the shadow points for (z1, z2) and bundle them into a state."""
    x1, x2 = _smooth_points(p, params, z1, z2)
    anchor = x1.data - z1.data + x2.data - z2.data
    x3, f3v = p.f3.prox_with_value(params.gamma, z1.with_data(anchor))
    return SplitState(z1=z1, z2=z2, x1=x1, x2=x2, x3=x3, f3_at_x3=f3v, k=k)


def ryu_step(p: CompositeProblem, params: RelaxationParams, s: SplitState) -> SplitState:
    """One full iteration: relax the governing variables, refresh shadow points."""
    k, lam = s.k + 1, params.lam
    z1 = _relax(lam, s.z1, s.x3, s.x1, f"z1 became non-finite at iteration {k}")
    z2 = _relax(lam, s.z2, s.x3, s.x2, f"z2 became non-finite at iteration {k}")
    return make_state(p, params, z1, z2, k=k)


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


def ryu_envelope(
    p: CompositeProblem, params: RelaxationParams, z1: RealVector, z2: RealVector
) -> tuple[float, RealVector]:
    """Envelope value at (z1, z2) and the minimizing point (min-form).

    env = min_y f3(y) + sum_i [f_i(x_i) + <y - x_i, grad f_i(x_i)>
                               + ||y - x_i||^2 / (2 gamma_i)]

    The quadratic parts collapse to ||y - w||^2/(2 gamma) around
    w = alpha x1 + (1-alpha) x2 - gamma (grad f1(x1) + grad f2(x2)), so the
    minimizer is a prox point of f3. Requires alpha < 1; the stepsize must
    keep gamma f3 prox-bounded (gamma < 1/(L1+L2) always suffices).
    """
    _require_envelope(params)
    gamma, alpha = params.gamma, params.alpha
    x1, x2 = _smooth_points(p, params, z1, z2)
    g1 = p.f1.grad(x1)
    g2 = p.f2.grad(x2)
    w = alpha * x1 + (1.0 - alpha) * x2 - gamma * (g1 + g2)
    y, f3y = p.f3.prox_with_value(gamma, w)
    value = (
        f3y
        + float(p.f1.value(x1))
        + float(p.f2.value(x2))
        + _linearization_gap(y, x1, g1, params.gamma1)
        + _linearization_gap(y, x2, g2, params.gamma2)
    )
    return value, y


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
    """Envelope value at a state, reusing its shadow points and cached f3(x3).

    The state's x3 already minimizes the envelope subproblem for its own
    (z1, z2), so no extra prox evaluation is needed.
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
    if not (eps1 > 0 and eps2 > 0):
        raise InputError("eps1 and eps2 must be positive")
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
    """
    if prox_gamma <= 0:
        raise InputError("prox_gamma must be positive")
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
    gamma < 1/(L1+L2) keeps gamma f3 prox-bounded, and up to dimension 1e4."""
    cap = 1.0 / (p.f1.lipschitz + p.f2.lipschitz)
    return params.alpha < 1.0 and params.gamma < cap and p.dim <= 10_000


def _iterate(p: CompositeProblem, stop: StoppingRule, state, point: str, step, after=None):
    """The iteration loop shared by every solver.

    `point` names the state attribute the composite residual is taken at.
    `step(state)` returns the next state, whose `k` is one higher, and the
    remaining IterRecord fields; the loop adds k, residual and time_ms. It
    stops when the residual drops below tol or after max_iter steps. Before
    every step but the first it hands the current state and its record to
    `after`, which returns the state to continue from. Returns the final
    state and the records.

    A non-finite objective or residual is divergence. On divergence the
    records so far are attached to the DivergenceError as `.trace`.
    """
    records: list[IterRecord] = []
    if composite_residual(p, stop.prox_gamma, getattr(state, point)) < stop.tol:
        return state, records
    t0 = time.perf_counter()
    try:
        for i in range(stop.max_iter):
            if i and after is not None:
                state = after(state, records[-1])
            nxt, fields = step(state)
            rec = IterRecord(
                k=nxt.k,
                residual=composite_residual(p, stop.prox_gamma, getattr(nxt, point)),
                time_ms=(time.perf_counter() - t0) * 1e3,
                **fields,
            )
            if not (math.isfinite(rec.objective) and math.isfinite(rec.residual)):
                raise DivergenceError(f"objective or residual became non-finite at iteration {rec.k}")
            records.append(rec)
            state = nxt
            if rec.residual < stop.tol:
                break
    except DivergenceError as err:
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

    Starts from z1 = z2 = 0 unless given. Envelope values are recorded
    exactly when alpha < 1, gamma < 1/(L1+L2) (strictly, so gamma f3 stays
    prox-bounded) and the dimension is at most 1e4; otherwise the envelope
    field is None. `controller`, when given, may lower gamma between
    iterations (see the stepsize planner); shadow points are recomputed, and
    the envelope rule re-applied, whenever it does.

    On divergence raises DivergenceError with the trace so far attached as
    `.trace`.
    """
    stop = stop or StoppingRule()
    z1 = z1_0 if z1_0 is not None else p.zeros()
    z2 = z2_0 if z2_0 is not None else p.zeros()
    state = make_state(p, params, z1, z2, k=0)
    want_envelope = _envelope_enabled(p, params)

    def step(s: SplitState):
        nxt = ryu_step(p, params, s)
        return nxt, dict(
            gamma=params.gamma,
            envelope=state_envelope(p, params, nxt) if want_envelope else None,
            objective=_objective(p, nxt.x3, nxt.f3_at_x3),
            dz1=_dist(nxt.z1, s.z1),
            dz2=_dist(nxt.z2, s.z2),
            dx1=_dist(nxt.x1, s.x1),
            dx2=_dist(nxt.x2, s.x2),
            gap31=_dist(nxt.x3, nxt.x1),
            gap32=_dist(nxt.x3, nxt.x2),
        )

    def adapt(s: SplitState, rec: IterRecord) -> SplitState:
        nonlocal params, want_envelope
        new_gamma = controller.update(
            k=s.k,
            dx1_norm=rec.dx1,
            dx2_norm=rec.dx2,
            x1_norm=s.x1.norm(),
            x2_norm=s.x2.norm(),
        )
        if new_gamma == params.gamma:
            return s
        params = replace(params, gamma=new_gamma)
        want_envelope = _envelope_enabled(p, params)
        # shadow points depend on gamma: refresh for the new value
        return make_state(p, params, s.z1, s.z2, k=s.k)

    return _iterate(p, stop, state, "x3", step, adapt if controller is not None else None)


TRACE_COLUMNS = tuple(f.name for f in fields(IterRecord))


def write_trace_csv(fh: TextIO, records: Sequence[IterRecord]) -> None:
    """One row per iteration to a text file opened with newline=""; envelope
    written blank when not evaluated."""
    writer = csv.writer(fh)
    writer.writerow(TRACE_COLUMNS)
    for r in records:
        row = [getattr(r, c) for c in TRACE_COLUMNS]
        row[2] = "" if r.envelope is None else repr(r.envelope)
        writer.writerow(row)


def write_trace_json(fh: TextIO, records: Sequence[IterRecord]) -> None:
    """Same fields as the CSV to a text file, as a JSON array of records (null envelope)."""
    json.dump([{c: getattr(r, c) for c in TRACE_COLUMNS} for r in records], fh, indent=1)
    fh.write("\n")
