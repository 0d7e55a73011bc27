"""Davis-Yin three-operator splitting baseline.

One iteration from the single governing variable z:

    x_f = prox_{gamma f}(z)
    x3 in prox_{gamma g}(2 x_f - z - gamma grad h(x_f))
    z+  = z + lam (x3 - x_f)

with f = f2, g = f3 and h = f1: the masked quadratic in the f slot, the
nonsmooth spectral term in the g slot, and the stiffer smooth term in the
gradient slot. So x3 is f3's prox point, the name `splitting._iterate` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CompositeProblem, InputError, RealVector, _validate_gamma, _validate_lam
from .splitting import IterRecord, StoppingRule, _dist, _iterate, _relax

__all__ = ["DysParams", "DysState", "run_dys"]


@dataclass(frozen=True)
class DysParams:
    """Stepsize and relaxation."""

    gamma: float
    lam: float = 1.0

    def __post_init__(self):
        _validate_gamma(self.gamma)
        _validate_lam(self.lam)


@dataclass(frozen=True)
class DysState:
    z: RealVector
    x_f: RealVector
    x3: RealVector
    f3_at_x3: float


def _check_gamma(p: CompositeProblem, params: DysParams) -> None:
    if not params.gamma < 1.0 / p.f1.lipschitz:
        raise InputError(
            f"gamma={params.gamma} must be below 1/L={1.0 / p.f1.lipschitz} "
            "of the gradient-handled term f1"
        )


def _make_state(p: CompositeProblem, params: DysParams, z: RealVector) -> tuple[DysState, np.ndarray]:
    """The state at z, and the anchor its x3 = prox_{gamma f3}(anchor) was taken at."""
    gamma = params.gamma
    x_f = p.f2.prox(gamma, z)
    anchor = 2.0 * x_f.data - z.data - gamma * p.f1.grad(x_f).data
    x3, f3v = p.f3.prox_with_value(gamma, z.with_data(anchor))
    return DysState(z=z, x_f=x_f, x3=x3, f3_at_x3=f3v), anchor


def run_dys(
    p: CompositeProblem,
    params: DysParams,
    z0: RealVector | None = None,
    stop: StoppingRule | None = None,
) -> tuple[DysState, list[IterRecord]]:
    """Iterate until the composite residual at x3 drops below tol or max_iter.

    The residual is taken by the rule that `splitting._iterate` states.
    Shares the trace schema of the relaxed runner, with the columns that
    `IterRecord` states for a one-variable solver.
    """
    stop = stop or StoppingRule()
    z = z0 if z0 is not None else p.zeros()
    _check_gamma(p, params)

    def step(s: DysState, _prev: IterRecord | None):  # no controller reads the previous record
        nxt, anchor = _make_state(p, params, _relax(params.lam, s.z, s.x3, s.x_f, "z"))
        fields = dict(
            gamma=params.gamma,
            dz1=_dist(nxt.z, s.z),
            dx1=_dist(nxt.x_f, s.x_f),
            gap31=_dist(nxt.x3, nxt.x_f),
        )
        return nxt, fields, anchor

    return _iterate(p, stop, _make_state(p, params, z)[0], step)
