"""Vector primitives, function-term interfaces, and composite-problem assembly.

The solvers minimize f1(x) + f2(x) + f3(x) where f1, f2 are convex and
L-smooth and f3 is proper lower semicontinuous with a computable proximal
map (possibly nonconvex, possibly set-valued prox).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "InputError",
    "NumericalError",
    "DivergenceError",
    "RealVector",
    "SmoothTerm",
    "CallableSmoothTerm",
    "ProxTerm",
    "CompositeProblem",
    "evaluate_objective",
    "gradient_check",
    "lipschitz_probe",
]


class InputError(ValueError):
    """Malformed input: bad shape, out-of-range parameter, non-finite data."""


class NumericalError(ArithmeticError):
    """A computation lost numerical meaning (NaN, failed factorization)."""


class DivergenceError(NumericalError):
    """Iterates escaped to non-finite values."""


def _validate_gamma(gamma: float, name: str = "gamma") -> None:
    """The rule for every stepsize, tolerance and lone modulus, named `name` in the error:
    a value in (0, inf). NaN fails the comparison, so no warning is raised."""
    if not 0 < gamma < math.inf:
        raise InputError(f"{name} must be positive and finite, got {gamma}")


def _validate_lam(lam: float) -> None:
    if not 0 < lam <= 2:
        raise InputError(f"lam must lie in (0, 2], got {lam}")


def _validate_alpha(alpha: float) -> None:
    if not 0 < alpha <= 1:
        raise InputError(f"alpha must lie in (0, 1], got {alpha}")


def _validate_count(value, name: str, least: int = 1) -> None:
    """The rule for every size, count and seed: an integer >= least, 1 or 0; a bool is no count."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least):
        kind = "positive" if least else "non-negative"
        raise InputError(f"{name} must be a {kind} integer, got {value!r}")


def _normalize_shape(shape) -> tuple[int, ...]:
    shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    if len(shape) not in (1, 2):
        raise InputError(f"shape must be (d,) or (m, n), got {shape!r}")
    for size in shape:
        _validate_count(size, "shape must be (d,) or (m, n), and each size")
    return tuple(int(size) for size in shape)


@dataclass(frozen=True, eq=False)
class RealVector:
    """Immutable finite float64 vector; matrix problems carry an (m, n) shape.

    Data is stored flattened row-major; `mat` gives the shaped view.
    Construction rejects NaN/Inf: non-finite numbers are errors, never
    sentinels. Equality and hashing are by identity, and unpickling goes
    through the constructor, so a copy is read-only and finite too.
    """

    data: np.ndarray
    shape: tuple[int, ...]

    def __init__(self, data, shape=None):
        arr = np.asarray(data, dtype=np.float64)
        if shape is None:
            shape = arr.shape if arr.ndim > 0 else (1,)
        shape = _normalize_shape(shape)
        arr = arr.reshape(-1)
        if arr.size != math.prod(shape):
            raise InputError(f"data length {arr.size} does not match shape {shape}")
        if not np.isfinite(arr).all():
            raise InputError("RealVector entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "shape", shape)

    def __reduce__(self):
        return (RealVector, (self.data, self.shape))

    @classmethod
    def zeros(cls, shape) -> "RealVector":
        shape = _normalize_shape(shape)
        return cls(np.zeros(math.prod(shape)), shape)

    @property
    def dim(self) -> int:
        return self.data.size

    @property
    def mat(self) -> np.ndarray:
        """Read-only view reshaped to the stored shape."""
        return self.data.reshape(self.shape)

    def with_data(self, arr) -> "RealVector":
        """Same-shape vector taking ownership of a freshly computed array.

        Unlike the constructor this does not copy; callers must not mutate
        `arr` afterwards. Finiteness is still enforced, but as NumericalError:
        the array was computed by the program, so a non-finite entry means
        the numerics overflowed, not that the input was malformed.
        """
        a = np.asarray(arr, dtype=np.float64).reshape(-1)
        if a.size != self.data.size:
            raise InputError(f"data length {a.size} does not match shape {self.shape}")
        if not np.isfinite(a).all():
            raise NumericalError("a computed vector has non-finite entries (overflow or NaN)")
        if a.flags.writeable:
            a.setflags(write=False)
        v = object.__new__(RealVector)
        object.__setattr__(v, "data", a)
        object.__setattr__(v, "shape", self.shape)
        return v

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def _check_same_shape(self, other: "RealVector") -> None:
        if self.shape != other.shape:
            raise InputError(f"shape mismatch: {self.shape} vs {other.shape}")

    def dot(self, other: "RealVector") -> float:
        self._check_same_shape(other)
        return float(self.data @ other.data)

    def __add__(self, other: "RealVector") -> "RealVector":
        self._check_same_shape(other)
        return self.with_data(self.data + other.data)

    def __sub__(self, other: "RealVector") -> "RealVector":
        self._check_same_shape(other)
        return self.with_data(self.data - other.data)

    def __mul__(self, c: float) -> "RealVector":
        return self.with_data(self.data * float(c))

    __rmul__ = __mul__

    def __truediv__(self, c: float) -> "RealVector":
        return self.with_data(self.data / float(c))

    def __neg__(self) -> "RealVector":
        return self.with_data(-self.data)


class SmoothTerm:
    """Differentiable term with an L-Lipschitz gradient.

    Subclasses must set `lipschitz` (any valid upper bound on the gradient's
    Lipschitz modulus; there is no default), may set `convex`, implement
    `value` and `grad`, and override `prox` where it has a closed form.
    Oracles must be pure functions of their inputs.
    """

    lipschitz: float
    convex: bool = True

    def value(self, x: RealVector) -> float:
        raise NotImplementedError

    def grad(self, x: RealVector) -> RealVector:
        raise NotImplementedError

    def prox(self, gamma: float, z: RealVector) -> RealVector:
        """prox_{gamma f}(z) by gradient descent, for terms without a closed form.

        The subproblem f(u) + ||u - z||^2/(2 gamma) is strongly convex
        (1/gamma-strongly, (1/gamma + L)-smooth) and is solved with the fixed
        step 1/(1/gamma + L) to relative tolerance 1e-12; NumericalError if
        10000 steps do not reach it.
        """
        _validate_gamma(gamma)
        step = 1.0 / (1.0 / gamma + self.lipschitz)
        u = z.data
        for _ in range(10000):
            g = self.grad(z.with_data(u)).data + (u - z.data) / gamma
            nxt = u - step * g
            if np.linalg.norm(nxt - u) <= 1e-12 * (1.0 + np.linalg.norm(nxt)):
                return z.with_data(nxt)
            u = nxt
        raise NumericalError("smooth prox by gradient descent did not reach tolerance 1e-12 in 10000 steps")


@dataclass(frozen=True)
class CallableSmoothTerm(SmoothTerm):
    """Smooth term built from plain callables; its prox is the gradient-descent fallback."""

    value_fn: Callable[[RealVector], float]
    grad_fn: Callable[[RealVector], RealVector]
    lipschitz: float
    convex: bool = True

    def value(self, x: RealVector) -> float:
        return float(self.value_fn(x))

    def grad(self, x: RealVector) -> RealVector:
        return self.grad_fn(x)


class ProxTerm:
    """Proper lsc term with value in R ∪ {+inf} and a proximal oracle.

    `prox(gamma, z)` returns one minimizer of f(y) + ||y - z||^2 / (2 gamma);
    it must be deterministic, and where the minimizer set has several points
    a fixed tie-break applies (see the prox library).

    `weak_convexity` is a stated modulus rho >= 0 such that
    f + (rho/2)||.||^2 is convex: 0 for a convex term, None (the default)
    when the term states nothing. A term that states it lets the solvers
    bound the stopping residual from the subgradient their own prox step
    yields, with no second prox. For a spectral function
    X -> sum_i phi(sigma_i(X)), Lewis (SIAM J. Optim. 1996) gives
    convexity from that of the even scalar phi + (rho/2) t^2.
    """

    @property
    def weak_convexity(self) -> float | None:
        return None

    def value(self, x: RealVector) -> float:
        raise NotImplementedError

    def prox(self, gamma: float, z: RealVector) -> RealVector:
        raise NotImplementedError

    def prox_with_value(self, gamma: float, z: RealVector) -> tuple[RealVector, float]:
        """Prox point together with f(point); override when that is cheaper."""
        p = self.prox(gamma, z)
        return p, self.value(p)


@dataclass(frozen=True)
class CompositeProblem:
    """The triple (f1, f2, f3) over vectors of a fixed shape."""

    f1: SmoothTerm
    f2: SmoothTerm
    f3: ProxTerm
    shape: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "shape", _normalize_shape(self.shape))
        for name, t in (("f1", self.f1), ("f2", self.f2)):
            if not isinstance(t, SmoothTerm):
                raise InputError(
                    f"{name} must be a smooth term with a `lipschitz` modulus, "
                    f"but {type(t).__name__} is not a SmoothTerm"
                )
            lipschitz = getattr(t, "lipschitz", None)  # there is no default to fall back on
            if lipschitz is None or not lipschitz > 0:
                raise InputError(f"{name} must state a positive `lipschitz` modulus, got {lipschitz}")
            if not t.convex:
                raise InputError(f"{name} must be convex for this method")
        if not isinstance(self.f3, ProxTerm):
            raise InputError(f"f3 must be a prox term, but {type(self.f3).__name__} is not a ProxTerm")

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    def zeros(self) -> RealVector:
        return RealVector.zeros(self.shape)

    def check_shape(self, x: RealVector, name: str = "x") -> None:
        if x.shape != self.shape:
            raise InputError(f"{name} has shape {x.shape}, problem expects {self.shape}")


def evaluate_objective(p: CompositeProblem, x: RealVector) -> float:
    """f1(x) + f2(x) + f3(x); +inf exactly when f3(x) = +inf."""
    p.check_shape(x)
    smooth = float(p.f1.value(x)) + float(p.f2.value(x))
    if not np.isfinite(smooth):
        raise NumericalError(f"smooth terms returned non-finite value {smooth}")
    v3 = float(p.f3.value(x))
    if math.isnan(v3):
        raise NumericalError("f3 returned NaN")
    return smooth + v3


def gradient_check(t: SmoothTerm, x: RealVector) -> float:
    """Max relative error between central differences (step 1e-6) and the gradient oracle."""
    h = 1e-6
    g = t.grad(x).data
    err = 0.0
    for i in range(x.dim):
        e = np.zeros_like(x.data)
        e[i] = h
        fp = t.value(x.with_data(x.data + e))
        fm = t.value(x.with_data(x.data - e))
        cd = (fp - fm) / (2.0 * h)
        err = max(err, abs(cd - g[i]) / (1.0 + abs(g[i])))
    return err


def lipschitz_probe(t: SmoothTerm, trials: int, seed: int, shape) -> float:
    """Max of ||grad f(x) - grad f(y)|| / ||x - y|| over random Gaussian pairs.

    The caller asserts the result against the declared modulus; `shape` is
    needed because terms do not carry the ambient dimension.
    """
    _validate_count(trials, "trials")
    _validate_count(seed, "seed", least=0)
    shape = _normalize_shape(shape)
    rng = np.random.default_rng(seed)
    d = math.prod(shape)
    worst = 0.0
    for _ in range(trials):
        xa = rng.standard_normal(d) * rng.uniform(0.1, 10.0)
        ya = rng.standard_normal(d) * rng.uniform(0.1, 10.0)
        gap = float(np.linalg.norm(xa - ya))
        gx = t.grad(RealVector(xa, shape)).data
        gy = t.grad(RealVector(ya, shape)).data
        worst = max(worst, float(np.linalg.norm(gx - gy)) / gap)
    return worst
