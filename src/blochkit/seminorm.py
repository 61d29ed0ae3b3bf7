"""Bloch seminorm estimation for finite Blaschke products.

The pointwise quantity is |B'(z)|(1-|z|^2); its supremum over the disk is the
Bloch seminorm, which for a Blaschke product sits in [0, 1] by Schwarz-Pick.
The estimator is a deterministic multistart local search: starts at the
origin, the zeros, the critical points of B, and a nested polar grid, each
refined by a derivative-free simplex descent (compiled kernel when available),
then one restart pass from the best point at a tenth of the scale.  The result
is always a certified lower bound of the supremum.

Also here: the closed form for the z^n family, and a small catalog of analytic
outer functions f with f'(0) = 1 for estimating the seminorm of compositions
f o B via the chain rule |f'(B(z))| |B'(z)| (1-|z|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels as impl
from .errors import DomainError, RangeError, RootCountError
from .products import BlaschkeProduct, derivative, evaluate

BARRIER_RADIUS = 1.0 - 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    """Deterministic multistart settings; identical configs give identical runs."""

    grid_angles: int = 24
    grid_radii: int = 16
    max_iterations: int = 500
    objective_tolerance: float = 1e-10
    include_critical_starts: bool = True
    stochastic_starts: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.grid_angles < 1 or self.grid_radii < 0:
            raise RangeError("grid shape must be positive")
        if self.max_iterations < 1:
            raise RangeError("max_iterations must be positive")
        if not (0.0 < self.objective_tolerance < 1.0):
            raise RangeError("objective_tolerance must lie in (0, 1)")
        if self.stochastic_starts < 0:
            raise RangeError("stochastic_starts must be nonnegative")


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
    """Outer function f with f'(0) = 1 for composition estimates.

    kernel_kind selects the compiled implementation of f' and must stay in
    sync with f_derivative; see blochkit._kernels for the dispatch table.
    """

    name: str
    f_value: Callable[[complex], complex]
    f_derivative: Callable[[complex], complex]
    is_convex_univalent: bool
    kernel_kind: int


CATALOG: tuple[AnalyticCatalogEntry, ...] = (
    AnalyticCatalogEntry("identity", lambda w: w, lambda w: 1.0 + 0.0j, True, 0),
    AnalyticCatalogEntry(
        "halfplane",
        lambda w: w / (1.0 - w),
        lambda w: 1.0 / (1.0 - w) ** 2,
        True,
        1,
    ),
    AnalyticCatalogEntry(
        "quadratic",
        lambda w: w + 0.5 * w * w,
        lambda w: 1.0 + w,
        False,
        2,
    ),
)


def catalog_entry(name: str) -> AnalyticCatalogEntry:
    for entry in CATALOG:
        if entry.name == name:
            return entry
    raise DomainError(f"unknown catalog entry {name!r}; "
                      f"choose from {', '.join(e.name for e in CATALOG)}")


def pointwise_bloch(B: BlaschkeProduct, z: complex) -> float:
    """|B'(z)| (1-|z|^2) for a point strictly inside the disk."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("pointwise Bloch quantity is defined for |z| < 1")
    return abs(derivative(B, z)) * (1.0 - abs(z) ** 2)


def composed_pointwise(entry: AnalyticCatalogEntry, B: BlaschkeProduct,
                       z: complex) -> float:
    """|f'(B(z))| |B'(z)| (1-|z|^2) for f from the catalog."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise DomainError("pointwise quantity is defined for |z| < 1")
    return (abs(entry.f_derivative(evaluate(B, z)))
            * abs(derivative(B, z)) * (1.0 - abs(z) ** 2))


def _van_der_corput(count: int) -> np.ndarray:
    """First ``count`` terms of the base-2 radical-inverse sequence (no zero).

    The first k terms are always a subset of the first 2k, which makes the
    polar start grid nested under doubling and the estimate monotone in the
    grid size.
    """
    out = np.empty(count)
    for i in range(count):
        x, f, n = 0.0, 0.5, i + 1
        while n:
            if n & 1:
                x += f
            f *= 0.5
            n >>= 1
        out[i] = x
    return out


def _start_points(B: BlaschkeProduct, config: OptimizerConfig) -> list[complex]:
    starts: list[complex] = [0.0 + 0.0j]
    starts.extend(complex(z) for z in B.zeros)
    if config.include_critical_starts and B.degree >= 2:
        from . import covering

        try:
            starts.extend(covering.critical_points(B))
        except RootCountError:
            pass
    radii = _van_der_corput(config.grid_radii)
    for k in range(config.grid_angles):
        theta = 2.0 * math.pi * k / config.grid_angles
        rot = complex(math.cos(theta), math.sin(theta))
        for r in radii:
            starts.append(r * rot)
    if config.stochastic_starts:
        rng = np.random.default_rng(config.seed)
        u = rng.random(config.stochastic_starts)
        ang = 2.0 * math.pi * rng.random(config.stochastic_starts)
        for rr, tt in zip((1.0 - 1e-6) * np.sqrt(u), ang):
            starts.append(rr * complex(math.cos(tt), math.sin(tt)))
    seen: set[complex] = set()
    unique: list[complex] = []
    for s in starts:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return unique


def _scales(starts: np.ndarray) -> np.ndarray:
    return np.minimum(0.1, 0.5 * (1.0 - np.abs(starts)))


def _run_multistart(B: BlaschkeProduct, config: OptimizerConfig,
                    kernel_kind: int) -> tuple[float, complex, int, int]:
    starts = np.asarray(_start_points(B, config), dtype=np.complex128)
    zeros = B.zeros_array
    lam = complex(B.rotation)
    vals, pts, iters = impl.refine_starts(
        zeros, lam, starts, _scales(starts), kernel_kind,
        config.max_iterations, config.objective_tolerance, BARRIER_RADIUS,
    )
    best = _argbest(vals, pts)
    total_iters = int(np.sum(iters))
    restart = np.array([pts[best]], dtype=np.complex128)
    rvals, rpts, riters = impl.refine_starts(
        zeros, lam, restart, _scales(restart) * 0.1, kernel_kind,
        config.max_iterations, config.objective_tolerance, BARRIER_RADIUS,
    )
    total_iters += int(riters[0])
    all_vals = np.concatenate([vals, rvals])
    all_pts = np.concatenate([pts, rpts])
    winner = _argbest(all_vals, all_pts)
    return (float(all_vals[winner]), complex(all_pts[winner]),
            starts.size + 1, total_iters)


def _argbest(vals: np.ndarray, pts: np.ndarray) -> int:
    """Index of the maximal value; exact ties go to the lexicographically
    smallest (Re, Im) argmax so the reduction is order-independent."""
    top = np.max(vals)
    tied = np.nonzero(vals == top)[0]
    if tied.size == 1:
        return int(tied[0])
    keys = sorted((pts[i].real, pts[i].imag, int(i)) for i in tied)
    return keys[0][2]


def seminorm(B: BlaschkeProduct, config: OptimizerConfig | None = None) -> SeminormEstimate:
    """Multistart lower-bound estimate of sup |B'(z)|(1-|z|^2).

    The returned value is recomputed at the argmax with the pointwise formula,
    so ``value == pointwise_bloch(B, argmax)`` holds by construction.
    """
    config = config or OptimizerConfig()
    _val, argmax, used, iters = _run_multistart(B, config, 0)
    return SeminormEstimate(pointwise_bloch(B, argmax), argmax, used, iters)


def composed_seminorm(entry: AnalyticCatalogEntry, B: BlaschkeProduct,
                      config: OptimizerConfig | None = None) -> SeminormEstimate:
    """Lower-bound estimate of the Bloch seminorm of f o B for a catalog f."""
    config = config or OptimizerConfig()
    _val, argmax, used, iters = _run_multistart(B, config, entry.kernel_kind)
    return SeminormEstimate(composed_pointwise(entry, B, argmax), argmax, used, iters)


def znorm_closed_form(n: int) -> float:
    """sup over [0,1) of n x^(n-1) (1-x^2) = (2n/(n+1)) ((n-1)/(n+1))^((n-1)/2).

    Strictly decreasing in n, tending to 2/e; n = 1 gives 1.  Evaluated with
    log1p so that huge n stays accurate.
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
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = val(c), val(d)
    while hi - lo > 1e-12:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = val(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = val(d)
    x_star = 0.5 * (lo + hi)
    return float(val(x_star)), float(x_star)
