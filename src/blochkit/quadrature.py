"""Gauss-Legendre quadrature: fixed node counts and node doubling.

``integrate_fixed`` applies one cached Gauss-Legendre rule; ``integrate_adaptive``
doubles the node count until two successive rules agree to the tolerance.  Both
assume an integrand that is smooth on the closed interval: callers with
square-root endpoint behavior (the surface integrals) substitute t = a + u^2
or t = b - u^2 themselves first.

Both integrate a batch of rows in one pass.  The endpoints a and b broadcast
to the row shape (a scalar pair is the one-row case), and the integrand gets
the nodes of every row at once, an array of the row shape plus (n,), and
returns the integrand values in the same shape.  ``integrate_adaptive``
accepts each row at its own first passing doubling, so a row's value and node
count do not depend on the other rows in its batch.  Gauss nodes are strictly
interior, so integrands are never evaluated at the endpoints themselves.

``gauss_nodes`` builds the n-point rule by Halley's method in theta, x = cos
theta, on the classical cosine series

    P_n(cos theta) = sum_k g_k g_(n-k) cos((n - 2k) theta),
    g_k = C(2k, k) / 4^k = prod_(i<=k) (2i - 1) / (2i),

with term k paired with term n - k (Swarztrauber, SIAM J. Sci. Comput. 24,
2002).  It iterates over the ceil(n/2) nodes with x >= 0 from Tricomi's
asymptotic guesses and mirrors them, so the rule is symmetric bit for bit and
an odd rule has its middle node at exactly 0.0.  The weights are
w = 2 / (dP_n/dtheta)^2, which equals 2 / ((1 - x^2) P_n'(x)^2) without the
cancellation in 1 - x^2 next to the endpoints.  Each pass costs O(n^2): a
cosine and a sine per (node, frequency) pair, built in row blocks of at most
``products._EVAL_BLOCK`` entries, and three products with coefficient
vectors.  The series gives P and dP/dtheta; Legendre's equation in theta,
P'' = -cot(theta) P' - n(n + 1) P, gives the second derivative for the
Halley step and the third for carrying the slope to the new node.  A node
leaves the iteration after a pass whose step is at most (eps / n^2)^(1/3),
past which the cubic convergence leaves less than eps.  Every rule from
n = 2 to 2048 takes one pass over its ceil(n/2) nodes and one more over the
one or two nodes next to the end (two from n = 4 to 31).  A rule costs 0.09
ms at n = 32, 0.11 ms at 64, 0.17 ms at 128, 7.0 ms at 1024 and 22 ms at 2048
on one x86-64 core, where numpy's eigenvalue-based ``leggauss`` took 0.43 ms,
0.88 ms, 2.0 ms, 121 ms and 811 ms.

Against a 64-bit-mantissa reference (tests/test_quadrature.py) the nodes
agree within 1.4e-16 and the weights within 2.2e-16 absolute (one ulp of the
n = 2 weights, which are 1.0) at every n tested up to 2048.  The relative
weight error is at most 2.6e-14 (n = 2048) at the middle nodes, where the
series sums terms of alternating sign, and 4.0e-15 (n = 256) at the four end
nodes of each side, where ``leggauss``'s end weights were off by 1.2e-9
(n = 1024) and 6.3e-8 (n = 2048).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConvergenceError, DomainError
from .products import _row_blocks

#: node cap of ``integrate_adaptive``: a tolerance the rules cannot reach (a
#: singular integrand, or one below its rounding floor) must fail fast, not
#: keep doubling; each doubling costs four times the rule and twice the
#: integrand evaluations of the last
MAX_NODES = 2048

#: Halley passes allowed before ``gauss_nodes`` gives up; the Tricomi
#: guesses need two up to n = 2048, so the cap only turns a fault into an
#: error
_PASSES = 8


def _legendre_series(theta: np.ndarray, freq: np.ndarray,
                     coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(cos theta) and dP_n/dtheta at each theta from the paired series
    sum_k coef_k cos(freq_k theta).

    theta = hi + lo, with hi on a grid coarse enough that freq_k * hi is
    exact; the rounding of the angles, up to 2.3e-13 at n = 2048, would
    otherwise cost the weights two digits.  cos and sin of freq_k * lo are
    taken as 1 and freq_k * lo, which errs by less than 2^-61 of a term at
    n <= 2048."""
    scale = 2.0 ** (52 - int(freq[0]).bit_length())
    hi = np.round(theta * scale) / scale
    lo = theta - hi
    dcoef = coef * freq
    even = np.column_stack([coef, dcoef * freq])
    p = np.empty_like(theta)
    dp = np.empty_like(theta)
    for rows in _row_blocks(theta.size, freq.size):
        angle = np.multiply.outer(hi[rows], freq)
        cos_terms = np.cos(angle) @ even
        sin_terms = np.sin(angle, out=angle) @ dcoef
        p[rows] = cos_terms[:, 0] - lo[rows] * sin_terms
        dp[rows] = -(sin_terms + lo[rows] * cos_terms[:, 1])
    return p, dp


@functools.lru_cache(maxsize=64)
def gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Legendre nodes (ascending) and weights on [-1, 1] (cached, read-only)."""
    if n < 1:
        raise DomainError("node count must be positive")
    i = np.arange(1, n + 1)
    g = np.concatenate([[1.0], np.cumprod((2 * i - 1) / (2.0 * i))])
    k = np.arange(n // 2 + 1)
    freq = (n - 2 * k).astype(np.float64)
    coef = np.where(freq > 0, 2.0, 1.0) * g[k] * g[n - k]

    half = (n + 1) // 2
    phi = np.pi * (4 * np.arange(1, half + 1) - 1) / (4 * n + 2)
    shrink = (n - 1) / (8.0 * n**3) + (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4)
    theta = phi + shrink / np.tan(phi)        # arccos((1 - shrink) cos phi)
    slope = np.empty(half)
    nn = n * (n + 1.0)
    tol = (np.finfo(np.float64).eps / n**2) ** (1.0 / 3.0)
    active = np.arange(half)
    for _ in range(_PASSES):
        t = theta[active]
        p, dp = _legendre_series(t, freq, coef)
        # Halley step; the Legendre equation in theta gives the second and
        # third derivatives from P and P' alone
        cot = 1.0 / np.tan(t)
        d2p = -cot * dp - nn * p
        d3p = (1.0 + cot * cot - nn) * dp - cot * d2p
        step = p / dp
        step /= 1.0 - 0.5 * step * d2p / dp
        theta[active] = t - step
        # carry dP/dtheta to the new node to second order; the relative
        # remainder is O((n step)^3), and n |step| < 2e-5 at every node that
        # leaves here up to n = 2048
        slope[active] = dp - step * d2p + 0.5 * step * step * d3p
        active = active[np.abs(step) > tol]
        if active.size == 0:
            break
    else:
        raise ConvergenceError(f"Legendre nodes did not converge at n = {n}")

    x = np.empty(n)
    w = np.empty(n)
    x[:half] = -np.cos(theta)
    x[n - half:] = np.cos(theta[::-1])
    if n % 2:
        x[half - 1] = 0.0
    w[:half] = 2.0 / slope**2
    w[n - half:] = w[half - 1::-1]
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def integrate_fixed(f, a, b, n: int):
    """Gauss quadrature of f over [a, b] with exactly n nodes, per row."""
    x, w = gauss_nodes(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * np.dot(f(np.multiply.outer(half, x) + np.asarray(mid)[..., None]), w)


def integrate_adaptive(f, a, b, tol: float = 1e-12, n0: int = 16):
    """Node-doubling Gauss: accept a row's I(2N) once |I(2N) - I(N)| is below
    tol * max(1, |I(2N)|), and double until every row is accepted.  Returns
    (value, accepted node count): a scalar and an int for a single row,
    arrays of the row shape otherwise."""
    n = max(int(n0), 2)
    if n > MAX_NODES // 2:
        raise DomainError(f"starting node count {n} leaves no doubling under "
                          f"the cap of {MAX_NODES}")
    prev = integrate_fixed(f, a, b, n)
    value = np.zeros_like(prev)
    nodes = np.zeros(np.shape(prev), dtype=np.int64)   # 0 while a row is open
    while 2 * n <= MAX_NODES:
        n *= 2
        cur = integrate_fixed(f, a, b, n)
        delta = abs(cur - prev)
        accept = (delta <= tol * np.maximum(1.0, abs(cur))) & (nodes == 0)
        value = np.where(accept, cur, value)
        nodes = np.where(accept, n, nodes)
        if nodes.all():
            return (value[()], n) if nodes.ndim == 0 else (value, nodes)
        prev = cur
    raise ConvergenceError(
        f"quadrature did not converge by {n} nodes "
        f"(last delta {np.max(delta, where=nodes == 0, initial=0.0):.3e})"
    )
