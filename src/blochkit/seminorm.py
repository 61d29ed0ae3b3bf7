"""Bloch seminorm estimation for finite Blaschke products.

The pointwise quantity is |B'(z)|(1-|z|^2); its supremum over the disk is the
Bloch seminorm, which for a Blaschke product sits in [0, 1] by Schwarz-Pick.
The estimator is a deterministic multistart local search.  Its starts are the
origin, the zeros, and three points (1 - t/|B'(zeta)|) zeta, t in
{1/4, 1/2, 1}, toward each sampled local maximum zeta of |B'| on the circle
(``products.boundary_peaks``): Theorem 4 places its certified point
z0 = (1 - d delta/|B'(zeta)|) zeta on that radius.  The critical points of B
are not starts: the quantity is zero there, its global minimum.  Each start
is refined by a safeguarded Newton ascent on the logarithm of the quantity,
whose gradient and Hessian follow from B', B'' and B''': a Newton step where
the Hessian is negative definite and a shifted one elsewhere, at most the
start's scale min(0.1, (1 - |z|)/2) long, with Armijo backtracking.  A start
where B' vanishes (the origin of z^n, a repeated zero) keeps its value 0.
The whole search, from the boundary scan to the best start, is one kernel
call, ``seminorm_search``, for a whole batch of products: ``seminorms``
estimates a batch in one call, which in the compiled kernel runs without the
interpreter lock, and ``seminorm`` and ``composed_seminorm`` are batches of
one.  A product's estimate does not depend on the batch it is in.  The numpy
fallback (``blochkit._kernels._fallback``) holds the reference steps.  The
reported value is the kernel's own value at the argmax, capped at 1 as
``pointwise_bloch`` is.  It is not recomputed: it agrees with
``pointwise_bloch`` at the argmax to 3e-12 on the ``sweep`` products, and to
rounding in 1 - |z|^2 nearer the circle (the agreement bound in
``blochkit._kernels``).

Also here: the closed form for the z^n family, and a small catalog of outer
maps for estimating the seminorm of compositions f o B via the chain rule
|f'(B(z))| |B'(z)| (1-|z|^2).  The catalog is one family, f(w) = w +
slope w^2/2 with f'(w) = 1 + slope w: ``identity`` (slope 0), ``convex``
(slope 1/2, convex univalent) and ``quadratic`` (slope 1, not convex).  Each
f' is bounded on the disk, so each f o B has a finite seminorm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from . import _kernels as impl
from .errors import DomainError
from .products import BlaschkeProduct, derivative, evaluate

MAX_ITERATIONS = 500        # Newton iterations per start
#: a start stops after the first Newton step whose predicted gain in the
#: logarithm of the quantity, a relative gain in the quantity, is at most this
OBJECTIVE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class SeminormEstimate:
    value: float
    argmax: complex
    starts_used: int
    refinement_iterations: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "argmax": [self.argmax.real, self.argmax.imag],
            "starts_used": self.starts_used,
            "refinement_iterations": self.refinement_iterations,
        }


@dataclass(frozen=True)
class AnalyticCatalogEntry:
    """The outer map f(w) = w + slope w^2/2 for composition estimates.

    f(0) = 0, f'(w) = 1 + slope w and f'(0) = 1.  w + c w^2 is convex
    univalent in the disk iff |c| <= 1/4, so f is iff |slope| <= 1/2.  The
    kernels take the slope itself, so f, f' and convexity all follow from
    it."""

    name: str
    slope: float

    def __post_init__(self):
        if not math.isfinite(self.slope):
            raise DomainError(f"catalog slope must be finite, got {self.slope!r}")

    def f_value(self, w: complex) -> complex:
        return w + 0.5 * self.slope * w * w

    def f_derivative(self, w: complex) -> complex:
        return 1.0 + self.slope * w

    @property
    def is_convex_univalent(self) -> bool:
        return abs(self.slope) <= 0.5


CATALOG: tuple[AnalyticCatalogEntry, ...] = (
    AnalyticCatalogEntry("identity", 0.0),
    AnalyticCatalogEntry("convex", 0.5),
    AnalyticCatalogEntry("quadratic", 1.0),
)


def catalog_entry(name: str) -> AnalyticCatalogEntry:
    for entry in CATALOG:
        if entry.name == name:
            return entry
    raise DomainError(f"unknown catalog entry {name!r}; "
                      f"choose from {', '.join(e.name for e in CATALOG)}")


def pointwise_bloch(B: BlaschkeProduct, z: complex) -> float:
    """|B'(z)| (1-|z|^2) for a point strictly inside the disk, capped at 1.

    By Schwarz-Pick the quantity never exceeds 1, with equality everywhere
    for a disk automorphism.  Next to a zero a close to the circle,
    1 - conj(a) z cancels and the computed product can round above 1 (by up
    to 5.5e-14 on degree-1 sweep products); the cap returns the bound
    instead."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("pointwise Bloch quantity is defined for |z| < 1")
    value = abs(derivative(B, z)) * (1.0 - abs(z) ** 2)
    return 1.0 if value > 1.0 else value


def composed_pointwise(entry: AnalyticCatalogEntry, B: BlaschkeProduct,
                       z: complex) -> float:
    """|f'(B(z))| |B'(z)| (1-|z|^2) for f from the catalog.

    An independent reference that the tests check ``composed_seminorm``
    against; nothing in the package calls it."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("pointwise quantity is defined for |z| < 1")
    return (abs(entry.f_derivative(evaluate(B, z)))
            * abs(derivative(B, z)) * (1.0 - abs(z) ** 2))


def _golden_section(f, lo, hi, tol: float):
    """Midpoint of the final bracket of a golden-section search for a maximum
    of the unimodal f on [lo, hi], stopped once the bracket is at most tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _search(products: Sequence[BlaschkeProduct], slope: float):
    """(value, argmax, starts, iterations) of the search on each product for
    the outer map of this slope, all from one kernel call."""
    zeros = np.array([z for B in products for z in B.zeros], dtype=np.complex128)
    ends = np.array(list(accumulate(B.degree for B in products)), dtype=np.int64)
    lams = np.array([B.rotation for B in products], dtype=np.complex128)
    found = impl.seminorm_search(zeros, ends, lams, slope, MAX_ITERATIONS, OBJECTIVE_TOLERANCE)
    return zip(*(a.tolist() for a in found))


def seminorms(products: Sequence[BlaschkeProduct]) -> list[SeminormEstimate]:
    """``seminorm`` of each product, from one kernel call for the whole batch.

    Each estimate is the one that ``seminorm`` gives its product alone, bit
    for bit: the kernel searches the products one after the other."""
    return [SeminormEstimate(min(value, 1.0), argmax, used, iters)
            for value, argmax, used, iters in _search(products, 0.0)]


def seminorm(B: BlaschkeProduct) -> SeminormEstimate:
    """Multistart lower-bound estimate of sup |B'(z)|(1-|z|^2).

    The value is the kernel's objective at the argmax, capped at 1: a degree-1
    product with a zero close to the circle can round above the Schwarz-Pick
    bound.  It is within 3e-12 of ``pointwise_bloch(B, argmax)`` on the
    ``sweep`` products (measured: at most 2.3e-12 on the 2,000 of seeds 1-20);
    both round apart further next to the circle (see ``blochkit._kernels``).
    """
    return seminorms([B])[0]


def composed_seminorm(entry: AnalyticCatalogEntry, B: BlaschkeProduct) -> SeminormEstimate:
    """Lower-bound estimate of the Bloch seminorm of f o B for a catalog f.

    The value is the kernel's objective at the argmax, uncapped, since
    |f'| can exceed 1."""
    (found,) = _search([B], entry.slope)
    return SeminormEstimate(*found)


def znorm_closed_form(n: int) -> float:
    """sup over [0,1) of n x^(n-1) (1-x^2) = (2n/(n+1)) ((n-1)/(n+1))^((n-1)/2).

    Strictly decreasing in n, tending to 2/e; n = 1 gives 1.  Evaluated with
    log1p so that huge n stays accurate.  An independent reference that the
    tests check the search on z^n against; nothing in the package calls it.
    """
    if n < 1:
        raise DomainError("degree must be a positive integer")
    if n == 1:
        return 1.0
    exponent = 0.5 * (n - 1) * math.log1p(-2.0 / (n + 1))
    return (2.0 * n / (n + 1)) * math.exp(exponent)


def degree2_axis_oracle(b: float, grid: int = 400_001) -> tuple[float, float]:
    """Exact-by-symmetry maximum for the two-zero family {0, b}, b real >= 0.

    The product z(z-b)/(1-bz) commutes with conjugation, so the maximum of
    |B'(x)| (1-x^2) over the real diameter is the seminorm.  Dense grid search
    plus golden-section polish to 1e-12; returns (value, argmax_x).
    Independent of the multistart machinery: pure closed-form arithmetic.
    """
    if not (0.0 <= b < 1.0):
        raise DomainError("zero offset must lie in [0, 1)")

    def val(x):
        return (np.abs(2.0 * x - b - b * x * x) / (1.0 - b * x) ** 2
                * (1.0 - x * x))

    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, grid)
    vs = val(xs)
    k = int(np.argmax(vs))
    lo = xs[max(k - 1, 0)]
    hi = xs[min(k + 1, grid - 1)]
    x_star = _golden_section(val, lo, hi, 1e-12)
    return float(val(x_star)), float(x_star)
