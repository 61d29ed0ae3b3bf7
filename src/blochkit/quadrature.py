"""Gauss-Legendre quadrature: fixed node counts and node doubling.

``integrate_fixed`` applies one cached Gauss-Legendre rule; ``integrate_adaptive``
doubles the node count until two successive rules agree to the tolerance.  Both
assume an integrand that is smooth on the closed interval: callers with
square-root endpoint behavior (the surface integrals) substitute t = a + u^2
or t = b - u^2 themselves first.

Integrands must accept numpy arrays.  Gauss nodes are strictly interior, so
integrands are never evaluated at the endpoints themselves.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConvergenceError, DomainError

MAX_NODES = 2048


@functools.lru_cache(maxsize=64)
def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Legendre nodes and weights on [-1, 1] (cached, read-only)."""
    if n < 1:
        raise DomainError("node count must be positive")
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def integrate_fixed(f, a: float, b: float, n: int):
    """Gauss quadrature of f over [a, b] with exactly n nodes."""
    x, w = gauss_nodes(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * np.dot(w, f(mid + half * x))


def integrate_adaptive(f, a: float, b: float, tol: float = 1e-12,
                       n0: int = 16) -> tuple[complex, int]:
    """Node-doubling Gauss: accept I(2N) once |I(2N) - I(N)| is below
    tol * max(1, |I(2N)|).  Returns (value, accepted node count)."""
    n = max(int(n0), 2)
    prev = integrate_fixed(f, a, b, n)
    delta = float("inf")
    # the absolute node cap matters: Legendre node generation is superlinear
    # in n, so an unattainable tolerance must fail fast instead of climbing
    # into minute-long eigenvalue solves
    while 2 * n <= MAX_NODES:
        n *= 2
        cur = integrate_fixed(f, a, b, n)
        delta = abs(cur - prev)
        if delta <= tol * max(1.0, abs(cur)):
            return cur, n
        prev = cur
    raise ConvergenceError(
        f"quadrature did not converge by {n} nodes (last delta {delta:.3e})"
    )
