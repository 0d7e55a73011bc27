"""Outside-in layer tracing through trisplit's public term interfaces.

A traced problem wraps f1, f2 and f3 in delegating terms that time every
oracle call. Passed to the public `run_ryu` / `run_dys`, it follows the same
program path as the untraced problem: the wrappers return the inner terms'
results unchanged. The split of f3 calls names the two SVD sites of one
iteration:

- `f3.prox_with_value` is the iteration's spectral prox (`make_state`, and
  the Davis-Yin `x_g` step);
- `f3.prox` is the stopping residual (`composite_residual`).
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from trisplit import CompositeProblem, ProxTerm, SmoothTerm, prox_scalar_mcp

# One spectral-prox call in this many also has its kept singular values
# counted. The count needs an extra values-only SVD, timed as "sampling" and
# kept out of every layer's time.
KEPT_SAMPLE_EVERY = 10


class Tracer:
    """Busy seconds and call counts per (algorithm, span)."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.kept = defaultdict(int)
        self.sampled = defaultdict(int)
        self.algo = None

    def timed(self, span, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.busy[self.algo, span] += time.perf_counter() - t0
        self.calls[self.algo, span] += 1
        return out

    def sample_kept(self, term, gamma, z):
        """Count the singular values of the prox input that the firm threshold keeps."""
        t0 = time.perf_counter()
        s = np.linalg.svd(z.mat, compute_uv=False)
        self.kept[self.algo] += int(np.count_nonzero(prox_scalar_mcp(term.weight, term.tau, gamma, s)))
        self.sampled[self.algo] += s.size
        self.busy[self.algo, "sampling"] += time.perf_counter() - t0

    def wrap(self, p: CompositeProblem) -> CompositeProblem:
        return CompositeProblem(
            f1=TracedSmooth(p.f1, self), f2=TracedSmooth(p.f2, self), f3=TracedSpectral(p.f3, self), shape=p.shape
        )

    def total(self, span, algo=None):
        """Summed busy seconds of a span, for one algorithm or all."""
        return sum(v for (a, s), v in self.busy.items() if s == span and algo in (None, a))

    def count(self, span, algo=None):
        return sum(v for (a, s), v in self.calls.items() if s == span and algo in (None, a))


class TracedSmooth(SmoothTerm):
    """A smooth term whose value, gradient and closed-form prox are timed as "smooth"."""

    def __init__(self, inner: SmoothTerm, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.lipschitz = inner.lipschitz
        self.convex = inner.convex

    def value(self, x):
        return self.tracer.timed("smooth", self.inner.value, x)

    def grad(self, x):
        return self.tracer.timed("smooth", self.inner.grad, x)

    def prox(self, gamma, z):
        return self.tracer.timed("smooth", self.inner.prox, gamma, z)


class TracedSpectral(ProxTerm):
    """The spectral-MCP term with its two SVD call sites timed apart."""

    def __init__(self, inner: ProxTerm, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def value(self, x):
        return self.tracer.timed("f3_value", self.inner.value, x)

    def prox(self, gamma, z):
        return self.tracer.timed("residual", self.inner.prox, gamma, z)

    def prox_with_value(self, gamma, z):
        out = self.tracer.timed("spectral", self.inner.prox_with_value, gamma, z)
        if self.tracer.calls[self.tracer.algo, "spectral"] % KEPT_SAMPLE_EVERY == 1:
            self.tracer.sample_kept(self.inner, gamma, z)
        return out
