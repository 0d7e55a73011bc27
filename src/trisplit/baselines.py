"""Davis-Yin three-operator splitting baseline.

One iteration from the single governing variable z:

    x_f = prox_{gamma f}(z)
    x_g in prox_{gamma g}(2 x_f - z - gamma grad h(x_f))
    z+  = z + lam (x_g - x_f)

with a configurable role assignment of (f1, f2, f3) to (f, g, h). The default
puts the masked quadratic in the f slot, the nonsmooth spectral term in the
g slot, and the stiffer smooth term in the gradient slot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CompositeProblem,
    DivergenceError,
    InputError,
    ProxTerm,
    RealVector,
)
from .splitting import IterRecord, StoppingRule, _iterate, _objective, smooth_prox

__all__ = ["DysParams", "DysState", "dys_step", "run_dys"]


@dataclass(frozen=True)
class DysParams:
    """Stepsize, relaxation, and the (f, g, h) role assignment by term name."""

    gamma: float
    lam: float = 1.0
    roles: tuple[str, str, str] = ("f2", "f3", "f1")

    def __post_init__(self):
        if not self.gamma > 0:
            raise InputError(f"gamma must be positive, got {self.gamma}")
        if not 0 < self.lam <= 2:
            raise InputError(f"lam must lie in (0, 2], got {self.lam}")
        if sorted(self.roles) != ["f1", "f2", "f3"]:
            raise InputError(f"roles must be a permutation of (f1, f2, f3), got {self.roles}")


@dataclass(frozen=True)
class DysState:
    z: RealVector
    x_f: RealVector
    x_g: RealVector
    f3_at_xg: float
    k: int = 0


def _resolve_roles(p: CompositeProblem, params: DysParams):
    f_term, g_term, h_term = (getattr(p, name) for name in params.roles)
    if isinstance(h_term, ProxTerm):
        raise InputError("the gradient slot must hold a smooth term")
    if not params.gamma < 1.0 / h_term.lipschitz:
        raise InputError(
            f"gamma={params.gamma} must be below 1/L={1.0 / h_term.lipschitz} "
            "of the gradient-handled term"
        )
    return f_term, g_term, h_term


def _make_state(p: CompositeProblem, params: DysParams, z: RealVector, k: int) -> DysState:
    f_term, g_term, h_term = _resolve_roles(p, params)
    gamma = params.gamma
    x_f = smooth_prox(f_term, gamma, z)
    anchor = 2.0 * x_f - z - gamma * h_term.grad(x_f)
    if g_term is p.f3:
        x_g, f3v = p.f3.prox_with_value(gamma, anchor)
    else:
        x_g = smooth_prox(g_term, gamma, anchor)
        f3v = float(p.f3.value(x_g))
    return DysState(z=z, x_f=x_f, x_g=x_g, f3_at_xg=f3v, k=k)


def _relax(params: DysParams, s: DysState) -> RealVector:
    """z+ = z + lam (x_g - x_f); a non-finite entry is divergence."""
    z_plus = s.z.data + params.lam * (s.x_g.data - s.x_f.data)
    if not np.isfinite(z_plus).all():
        raise DivergenceError(f"z became non-finite at iteration {s.k + 1}")
    return s.z.with_data(z_plus)


def dys_step(
    p: CompositeProblem, params: DysParams, z: RealVector
) -> tuple[RealVector, RealVector, RealVector]:
    """One iteration from z; returns (z_plus, x_f, x_g)."""
    p.check_shape(z, "z")
    s = _make_state(p, params, z, k=0)
    return _relax(params, s), s.x_f, s.x_g


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

    def step(s: DysState):
        nxt = _make_state(p, params, _relax(params, s), k=s.k + 1)
        return nxt, dict(
            gamma=params.gamma,
            envelope=None,
            objective=_objective(p, nxt.x_g, nxt.f3_at_xg),
            dz1=float(np.linalg.norm(nxt.z.data - s.z.data)),
            dz2=0.0,
            dx1=(nxt.x_f - s.x_f).norm(),
            dx2=0.0,
            gap31=(nxt.x_g - nxt.x_f).norm(),
            gap32=0.0,
        )

    return _iterate(p, stop, _make_state(p, params, z, k=0), "x_g", step)
