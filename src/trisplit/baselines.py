"""Davis-Yin three-operator splitting baseline.

One iteration from the single governing variable z:

    x_f = prox_{gamma f}(z)
    x_g in prox_{gamma g}(2 x_f - z - gamma grad h(x_f))
    z+  = z + lam (x_g - x_f)

with f = f2, g = f3 and h = f1: the masked quadratic in the f slot, the
nonsmooth spectral term in the g slot, and the stiffer smooth term in the
gradient slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CompositeProblem, InputError, RealVector
from .splitting import IterRecord, StoppingRule, _dist, _iterate, _objective, _relax, smooth_prox

__all__ = ["DysParams", "DysState", "dys_step", "run_dys"]


@dataclass(frozen=True)
class DysParams:
    """Stepsize and relaxation."""

    gamma: float
    lam: float = 1.0

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise InputError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.lam <= 2:
            raise InputError(f"lam must lie in (0, 2], got {self.lam}")


@dataclass(frozen=True)
class DysState:
    z: RealVector
    x_f: RealVector
    x_g: RealVector
    f3_at_xg: float
    k: int = 0


def _check_gamma(p: CompositeProblem, params: DysParams) -> None:
    if not params.gamma < 1.0 / p.f1.lipschitz:
        raise InputError(
            f"gamma={params.gamma} must be below 1/L={1.0 / p.f1.lipschitz} "
            "of the gradient-handled term f1"
        )


def _make_state(p: CompositeProblem, params: DysParams, z: RealVector, k: int) -> DysState:
    gamma = params.gamma
    x_f = smooth_prox(p.f2, gamma, z)
    anchor = 2.0 * x_f.data - z.data - gamma * p.f1.grad(x_f).data
    x_g, f3v = p.f3.prox_with_value(gamma, z.with_data(anchor))
    return DysState(z=z, x_f=x_f, x_g=x_g, f3_at_xg=f3v, k=k)


def dys_step(
    p: CompositeProblem, params: DysParams, z: RealVector
) -> tuple[RealVector, RealVector, RealVector]:
    """One iteration from z; returns (z_plus, x_f, x_g)."""
    p.check_shape(z, "z")
    _check_gamma(p, params)
    s = _make_state(p, params, z, k=0)
    return _relax(params.lam, z, s.x_g, s.x_f, "z became non-finite at iteration 1"), s.x_f, s.x_g


def run_dys(
    p: CompositeProblem,
    params: DysParams,
    z0: RealVector | None = None,
    stop: StoppingRule | None = None,
) -> tuple[DysState, list[IterRecord]]:
    """Iterate until the composite residual at x_g drops below tol or max_iter.

    Shares the trace schema of the relaxed runner; the single governing
    variable's displacement is reported as dz1, the first prox point's as
    dx1, and the prox-point gap ||x_g - x_f|| as gap31. The columns without a
    counterpart (envelope, dz2, dx2, gap32) hold None/0.
    """
    stop = stop or StoppingRule()
    z = z0 if z0 is not None else p.zeros()
    _check_gamma(p, params)

    def step(s: DysState):
        k = s.k + 1
        z = _relax(params.lam, s.z, s.x_g, s.x_f, f"z became non-finite at iteration {k}")
        nxt = _make_state(p, params, z, k=k)
        return nxt, dict(
            gamma=params.gamma,
            envelope=None,
            objective=_objective(p, nxt.x_g, nxt.f3_at_xg),
            dz1=_dist(nxt.z, s.z),
            dz2=0.0,
            dx1=_dist(nxt.x_f, s.x_f),
            dx2=0.0,
            gap31=_dist(nxt.x_g, nxt.x_f),
            gap32=0.0,
        )

    return _iterate(p, stop, _make_state(p, params, z, k=0), "x_g", step)
