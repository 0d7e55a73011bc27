"""Closed-form gradient/prox oracles for the benchmark terms plus generic test terms.

Benchmark triple (matrix completion with a nonnegativity push and a spectral
MCP penalty):

* ``NonnegDistanceTerm``   f1(X) = (w/2) ||min(X, 0)||_F^2
* ``MaskedQuadraticTerm``  f2(X) = (1/2) ||P(X - M)||_F^2 on an entry mask P
* ``SpectralMCPTerm``      f3(X) = w * sum_i mcp(sigma_i(X); tau)

The spectral prox firm-thresholds singular values taken from an
eigendecomposition of the Gram matrix X^T X (or X X^T for a wide X), with the
thin SVD as its guarded fallback; its value takes an SVD.

Every closed form is certified in the tests against ``brute_force_prox_1d``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InputError, NumericalError, ProxTerm, RealVector, SmoothTerm, _validate_gamma

__all__ = [
    "NonnegDistanceTerm",
    "MaskedQuadraticTerm",
    "SpectralMCPTerm",
    "QuadraticTerm",
    "ScaledL1Term",
    "SeparableMCPTerm",
    "ZeroProxTerm",
    "mcp_value",
    "prox_scalar_mcp",
    "soft_threshold",
    "brute_force_prox_1d",
    "default_prox_bracket",
]


def _validate_penalty(weight: float, tau: float | None = None, name: str = "weight") -> None:
    """The rules of every penalty term: a weight in [0, inf), named `name` in the
    error, and an MCP knee tau > 0."""
    if not 0 <= weight < np.inf:
        raise InputError(f"{name} must be finite and nonnegative, got {weight}")
    if tau is not None and not tau > 0:
        raise InputError(f"tau must be positive, got {tau}")


def mcp_value(t, tau: float):
    """Minimax-concave penalty |t| - t^2/(2 tau) on |t| clamped to tau, so tau/2 past the knee."""
    a = np.minimum(np.abs(np.asarray(t, dtype=np.float64)), tau)
    with np.errstate(under="ignore"):  # an underflowing t^2/(2 tau) is below the last bit of |t|
        return a - a * (0.5 * (a / tau))  # not a / (2 tau): 2 tau overflows past 9e307


def soft_threshold(v, thresh: float):
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def prox_scalar_mcp(weight: float, tau: float, gamma: float, v):
    """Minimizer of gamma*weight*mcp(t; tau) + (t - v)^2 / 2 (firm threshold).

    For gamma*weight < tau the objective is strongly convex and the firm
    threshold applies: 0, then linear rescaling, then identity past tau.
    For a = gamma*weight >= tau it is concave on [-tau, 0] and on [0, tau],
    and the penalty is flat past tau, so only 0 and v can minimize: v wins
    when v^2/2 > a*tau/2, that is |v| > sqrt(a*tau) >= tau; ties go to 0.
    """
    _validate_penalty(weight, tau)
    _validate_gamma(gamma)
    a = gamma * weight
    arr = np.asarray(v, dtype=np.float64)
    av = np.abs(arr)
    if a >= tau:
        out = np.where(av > np.sqrt(a) * np.sqrt(tau), arr, 0.0)  # sqrt(a*tau) may overflow
    else:
        mid = np.sign(arr) * (np.minimum(av, tau) - a) / (1.0 - a / tau)
        out = np.where(av <= a, 0.0, np.where(av <= tau, mid, arr))
    if np.ndim(v) == 0:
        return float(out)
    return out


def brute_force_prox_1d(objective, lo: float, hi: float) -> float:
    """Grid minimization of a scalar objective with local ternary refinement.

    Accurate to (hi - lo)/2000 from a 2001-point grid pass, then refined to
    1e-8 on the bracketing interval. `objective` must be vectorized (one value
    per grid point, else InputError). Used purely as a certification oracle.
    """
    if not lo < hi:
        raise InputError("need lo < hi")
    xs = np.linspace(lo, hi, 2001)
    fs = np.asarray(objective(xs), dtype=np.float64)
    if fs.shape != xs.shape:
        raise InputError(f"objective returned shape {fs.shape} on a {xs.shape} grid; it must be vectorized")
    i = int(np.argmin(fs))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, len(xs) - 1)]
    while b - a > 1e-9:
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if float(objective(m1)) <= float(objective(m2)):
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


def default_prox_bracket(v: float, gamma_times_weight: float) -> tuple[float, float]:
    """Search interval guaranteed to contain any shrinkage-type prox output."""
    pad = 5.0 * gamma_times_weight + 1.0
    return v - pad, v + pad


@dataclass(frozen=True)
class NonnegDistanceTerm(SmoothTerm):
    """(w/2) * squared distance to the nonnegative orthant; smooth, convex."""

    weight: float = 1.0

    def __post_init__(self):
        _validate_penalty(self.weight)

    @property
    def lipschitz(self) -> float:
        # gradient is w * min(x, 0): modulus w, but any positive bound works
        return self.weight if self.weight > 0 else 1.0

    def value(self, x: RealVector) -> float:
        neg = np.minimum(x.data, 0.0)
        return 0.5 * self.weight * float(neg @ neg)

    def grad(self, x: RealVector) -> RealVector:
        return x.with_data(self.weight * np.minimum(x.data, 0.0))

    def prox(self, gamma: float, x: RealVector) -> RealVector:
        """Componentwise: keep nonnegative entries, shrink negatives by 1/(1+gamma*w)."""
        _validate_gamma(gamma)
        d = x.data
        return x.with_data(np.where(d >= 0.0, d, d / (1.0 + gamma * self.weight)))


@dataclass(frozen=True, eq=False)
class MaskedQuadraticTerm(SmoothTerm):
    """(1/2) ||P(X - M)||_F^2 where P keeps the masked entries; smooth, convex, L=1.

    `mask` is a boolean array of the target's shape, True where observed.
    """

    target: RealVector
    mask: np.ndarray

    def __post_init__(self):
        m = self.mask
        if not (isinstance(m, np.ndarray) and m.dtype == np.bool_ and m.shape == self.target.shape):
            raise InputError(f"mask must be a boolean array of the target's shape {self.target.shape}")
        mask = m.copy()
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    lipschitz = 1.0

    def _masked_diff(self, x: RealVector) -> np.ndarray:
        if x.shape != self.target.shape:
            raise InputError(f"point shape {x.shape} does not match target {self.target.shape}")
        diff = x.data - self.target.data
        return np.where(self.mask.reshape(-1), diff, 0.0)

    def value(self, x: RealVector) -> float:
        d = self._masked_diff(x)
        return 0.5 * float(d @ d)

    def grad(self, x: RealVector) -> RealVector:
        return x.with_data(self._masked_diff(x))

    def prox(self, gamma: float, x: RealVector) -> RealVector:
        """X - gamma/(1+gamma) * P(X - M); entries outside the mask pass through."""
        _validate_gamma(gamma)
        return x.with_data(x.data - (gamma / (1.0 + gamma)) * self._masked_diff(x))


# The Gram path's guard. Forming a^T a squares the condition number: its
# eigenvalues carry an absolute error of about n*eps*lambda_max, where n is
# a's larger dimension (each entry of a^T a sums n products, and eigh's own
# error is of the same order). The prox takes the Gram path only when that
# error is at most GRAM_GUARD times the smallest kept eigenvalue. So the
# guard allows a relative error of up to 1e-4 in each kept sigma^2, and of
# 5e-5 in each kept sigma: a worst-case bound. Below n*tiny (tiny, the
# smallest normal float) a^T a underflows, so the path also needs
# (gamma*w)^2, the square of the lowest singular value the threshold can
# keep, to be at least n*tiny/GRAM_GUARD. On iterates recorded from all
# three solvers at 100x100 and 300x300, the output was within 5e-13
# (relative) of the SVD path's, and no input failed the guard.
GRAM_GUARD = 1e-4


@dataclass(frozen=True)
class SpectralMCPTerm(ProxTerm):
    """w * sum of MCP penalties of the singular values; nonconvex.

    The prox firm-thresholds the singular values. It takes them, and the
    right singular vectors, from an eigendecomposition of the Gram matrix,
    and falls back to the thin SVD where that cannot be trusted (see
    `GRAM_GUARD`). `value` always takes an SVD, so it stays an independent
    reference for the prox.
    """

    weight: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        _validate_penalty(self.weight, self.tau)

    @property
    def weak_convexity(self) -> float:
        """weight/tau: w*mcp(t) + (w/(2 tau)) t^2 is w|t| up to tau and convex past it,
        so by Lewis's theorem f3 + (rho/2)||X||_F^2, its spectral sum, is convex."""
        return self.weight / self.tau

    @staticmethod
    def _matrix(x: RealVector) -> np.ndarray:
        if len(x.shape) != 2:
            raise InputError("spectral MCP term requires matrix-shaped vectors")
        return x.mat

    @staticmethod
    def _svd(a: np.ndarray, **kwargs):
        try:
            return np.linalg.svd(a, **kwargs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD failed in spectral MCP term: {exc}") from None

    def value(self, x: RealVector) -> float:
        s = self._svd(self._matrix(x), compute_uv=False)
        return self.weight * float(np.sum(mcp_value(s, self.tau)))

    def prox(self, gamma: float, z: RealVector) -> RealVector:
        return self.prox_with_value(gamma, z)[0]

    def prox_with_value(self, gamma: float, z: RealVector) -> tuple[RealVector, float]:
        """Firm-threshold each singular value and reconstruct, by the Gram path or the thin SVD."""
        _validate_gamma(gamma)
        a = self._matrix(z)
        gram = self._gram_prox(gamma, a)
        if gram is None:
            u, s, vt = self._svd(a, full_matrices=False)
            s_new = prox_scalar_mcp(self.weight, self.tau, gamma, s)
            out = (u * s_new) @ vt
        else:
            out, s_new = gram
        # scalar prox is monotone on sorted values, so s_new are the output's
        # singular values and the penalty value comes for free
        val = self.weight * float(np.sum(mcp_value(s_new, self.tau)))
        return z.with_data(out), val

    def _gram_prox(self, gamma: float, a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The prox of `a` and its singular values from eigh(t^T t), t = a or a^T
        whichever is tall, as t V_k diag(f(s_k)/s_k) V_k^T over the kept s_k;
        None where the Gram matrix is non-finite, eigh fails or the guard fails."""
        t = a if a.shape[0] >= a.shape[1] else a.T
        lowest_kept = gamma * self.weight
        if t.shape[0] * np.finfo(np.float64).tiny > GRAM_GUARD * lowest_kept * lowest_kept:
            return None
        # t.T @ t.copy() runs gemm. numpy sends t.T @ t, one buffer on both
        # sides, to syrk, whose bits at 100x100 change with the number of
        # BLAS threads; gemm's, eigh's and the SVD's do not.
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            g = t.T @ t.copy()
        if not np.isfinite(g).all():
            return None
        try:
            lam, v = np.linalg.eigh(g)
        except np.linalg.LinAlgError:
            return None
        s = np.sqrt(np.maximum(lam, 0.0))
        s_new = prox_scalar_mcp(self.weight, self.tau, gamma, s)
        keep = s_new > 0.0
        if keep.any() and t.shape[0] * np.finfo(np.float64).eps * lam[-1] > GRAM_GUARD * lam[keep].min():
            return None
        vk = v[:, keep]
        out = ((t @ vk) * (s_new[keep] / s[keep])) @ vk.T
        return (out if t is a else out.T), s_new


@dataclass(frozen=True, eq=False)
class QuadraticTerm(SmoothTerm):
    """(1/2)(x - c)^T A (x - c) with symmetric PSD A; prox by direct solve."""

    matrix: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InputError("matrix must be square")
        if not np.allclose(a, a.T, atol=1e-12):
            raise InputError("matrix must be symmetric")
        c = np.asarray(self.center, dtype=np.float64).reshape(-1)
        if c.size != a.shape[0]:
            raise InputError("center length must match matrix size")
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] < -1e-12:
            raise InputError("matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "lipschitz", max(float(eigs[-1]), 1e-12))

    def value(self, x: RealVector) -> float:
        d = x.data - self.center
        return 0.5 * float(d @ (self.matrix @ d))

    def grad(self, x: RealVector) -> RealVector:
        return x.with_data(self.matrix @ (x.data - self.center))

    def prox(self, gamma: float, z: RealVector) -> RealVector:
        _validate_gamma(gamma)
        d = self.matrix.shape[0]
        rhs = z.data + gamma * (self.matrix @ self.center)
        return z.with_data(np.linalg.solve(np.eye(d) + gamma * self.matrix, rhs))


@dataclass(frozen=True)
class ScaledL1Term(ProxTerm):
    """w * ||x||_1 with the soft-threshold prox."""

    weight: float = 1.0
    weak_convexity = 0.0

    def __post_init__(self):
        _validate_penalty(self.weight)

    def value(self, x: RealVector) -> float:
        return self.weight * float(np.sum(np.abs(x.data)))

    def prox(self, gamma: float, z: RealVector) -> RealVector:
        _validate_gamma(gamma)
        return z.with_data(soft_threshold(z.data, gamma * self.weight))


@dataclass(frozen=True)
class SeparableMCPTerm(ProxTerm):
    """w * sum_i mcp(x_i; tau): the coordinatewise (nonconvex) MCP penalty."""

    weight: float = 1.0
    tau: float = 1.0

    def __post_init__(self):
        _validate_penalty(self.weight, self.tau)

    @property
    def weak_convexity(self) -> float:
        """weight/tau, as for the spectral MCP."""
        return self.weight / self.tau

    def value(self, x: RealVector) -> float:
        return self.weight * float(np.sum(mcp_value(x.data, self.tau)))

    def prox(self, gamma: float, z: RealVector) -> RealVector:
        return z.with_data(prox_scalar_mcp(self.weight, self.tau, gamma, z.data))


@dataclass(frozen=True)
class ZeroProxTerm(ProxTerm):
    """Identically zero prox-friendly term; prox is the identity."""

    weak_convexity = 0.0

    def value(self, x: RealVector) -> float:
        return 0.0

    def prox(self, gamma: float, z: RealVector) -> RealVector:
        _validate_gamma(gamma)
        return z
