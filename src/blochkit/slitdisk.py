"""Maximal conformal radius of the radially slit disk.

The domain is the unit disk minus the radial segment [a, 1), 0 <= a < 1.  Its
conformal radius along the opposite radius, parameterized by x > 0 through the
half-plane uniformization, is

    g(x) = 4 (1-a^2) x (sqrt(x^2+1)-x)^2 / (sqrt(x^2+1) (1 - a (sqrt(x^2+1)-x)^2)^2),

whose maximum has the closed form

    g_max = 4 s0 (1-a^2) / (s0-a)^2 * (s0-1)/(s0+1),

where s0 is the unique root in (1, 1+sqrt(2)] of the cubic

    psi(s) = s^3 - (2-a) s^2 + (2a-1) s - a,

and the maximizing x is x0 = (s0-1)/(2 sqrt(s0)).  The cubic is solved by a
verified bracket + bisection + Newton polish.  Inverting s -> a is algebraic:
a(s) = s (2s - (s^2-1)) / (2s + (s^2-1)); the quarter-scale profile

    L(s) = s (1-a(s)^2)/(s-a(s))^2 * (s-1)/(s+1)

is strictly decreasing on (1, 1+sqrt(2)] from 1/4 down to 3 - 2 sqrt(2)
~ 0.1715729 at the a = 0 endpoint, which bounds the attainable targets of
``solve_a_for_target``; tests/test_slitdisk.py checks the decrease on a
50-point grid, so the solver does not repeat it.  Note g_max is increasing in
a (the slit shrinks as a grows, so the domain swells toward the full disk and
g_max -> 1 as a -> 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchError, DomainError, NoSolutionError, StructureError

_SQRT2 = math.sqrt(2.0)
_S_HI = 1.0 + _SQRT2
_S_LO = 1.0 + 1e-6


@dataclass(frozen=True)
class SlitDiskSolution:
    a: float
    s0: float
    x0: float
    max_radius: float

    def __post_init__(self) -> None:
        if abs(cubic_psi(self.s0, self.a)) > 1e-12:
            raise StructureError("cubic residual exceeds 1e-12")
        if abs(self.x0 - (self.s0 - 1.0) / (2.0 * math.sqrt(self.s0))) > 1e-12:
            raise StructureError("x0 is inconsistent with s0")
        closed = (4.0 * self.s0 * (1.0 - self.a**2) / (self.s0 - self.a) ** 2
                  * (self.s0 - 1.0) / (self.s0 + 1.0))
        if abs(self.max_radius - closed) > 1e-12:
            raise StructureError("max_radius disagrees with the closed form")

    def to_json(self) -> dict:
        return {"a": self.a, "s0": self.s0, "x0": self.x0,
                "max_radius": self.max_radius}


def cubic_psi(s: float, a: float) -> float:
    """psi(s) = s^3 - (2-a) s^2 + (2a-1) s - a."""
    return ((s - (2.0 - a)) * s + (2.0 * a - 1.0)) * s - a


def _check_a(a: float) -> float:
    a = float(a)
    if not (0.0 <= a < 1.0) or not math.isfinite(a):
        raise DomainError("slit start must satisfy 0 <= a < 1")
    return a


def solve_cubic(a: float) -> float:
    """Unique root of psi in (1, 1+sqrt(2)]; residual below 1e-13.

    The bracket is verified first: psi(1) = 2(a-1) < 0 and
    psi(1+sqrt(2)) = a(4+4*sqrt(2)) >= 0 (zero exactly at a = 0, so the upper
    end is padded by 1e-9 before the sign test).
    """
    a = _check_a(a)
    lo, hi = 1.0, _S_HI + 1e-9
    if not (cubic_psi(lo, a) < 0.0 and cubic_psi(hi, a) >= 0.0):
        raise StructureError("cubic bracket check failed")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if cubic_psi(mid, a) < 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    for _ in range(60):
        r = cubic_psi(s, a)
        if abs(r) < 1e-15:
            break
        dr = (3.0 * s - 2.0 * (2.0 - a)) * s + (2.0 * a - 1.0)
        step = r / dr
        s_new = s - step
        if not (lo - 1e-6 <= s_new <= hi + 1e-6):
            s_new = 0.5 * (lo + hi)
        s = s_new
    s = min(max(s, 1.0 + 1e-15), _S_HI)
    if abs(cubic_psi(s, a)) >= 1e-13:
        raise StructureError("cubic polish did not reach residual 1e-13")
    return s


def a_of_s(s: float) -> float:
    """Algebraic inverse: the a for which s solves the cubic."""
    if not (1.0 < s <= _S_HI + 1e-12):
        raise DomainError("s must lie in (1, 1+sqrt(2)]")
    return s * (2.0 * s - (s * s - 1.0)) / (2.0 * s + (s * s - 1.0))


def g_profile(x, a: float):
    """Conformal-radius profile g(x) for x > 0 (scalar or array)."""
    a = _check_a(a)
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0.0) or not np.all(np.isfinite(xs)):
        raise DomainError("profile argument must be positive and finite")
    root = np.sqrt(xs * xs + 1.0)
    q = (root - xs) ** 2
    val = 4.0 * (1.0 - a * a) * xs * q / (root * (1.0 - a * q) ** 2)
    return float(val) if np.isscalar(x) or xs.ndim == 0 else val


def max_conformal_radius(a: float) -> SlitDiskSolution:
    """Closed-form maximum of g via the cubic root s0."""
    a = _check_a(a)
    s0 = solve_cubic(a)
    x0 = (s0 - 1.0) / (2.0 * math.sqrt(s0))
    max_radius = (4.0 * s0 * (1.0 - a * a) / (s0 - a) ** 2
                  * (s0 - 1.0) / (s0 + 1.0))
    return SlitDiskSolution(a, s0, x0, max_radius)


def intro_lhs(s: float) -> float:
    """Quarter-scale profile L(s) = s (1-a(s)^2)/(s-a(s))^2 * (s-1)/(s+1)."""
    a = a_of_s(s)
    return s * (1.0 - a * a) / (s - a) ** 2 * (s - 1.0) / (s + 1.0)


def solve_a_for_target(target: float) -> float:
    """The a whose slit disk has maximal conformal radius 4*target.

    Solves L(s) = target by bisection on s in [1+1e-6, 1+sqrt(2)], where L
    is strictly decreasing, then inverts a = a(s).
    Attainable targets are (L(1+sqrt(2)), L(1+1e-6)) ~ (0.1715729, 0.25).
    """
    if not (0.0 < target < 1.0):
        raise DomainError("target must lie in (0, 1)")
    f_lo = intro_lhs(_S_LO)   # ~0.25, the larger value
    f_hi = intro_lhs(_S_HI)   # ~0.1715729
    if not (f_hi <= target <= f_lo):
        raise NoSolutionError(
            f"target {target} outside the attainable range [{f_hi:.9f}, {f_lo:.9f}]"
        )
    lo, hi = _S_LO, _S_HI
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if intro_lhs(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    s = 0.5 * (lo + hi)
    a = a_of_s(s)
    return min(max(a, 0.0), 1.0 - 1e-15)


def solve_a_by_radius_bisection(radius_target: float) -> float:
    """Independent route: bisection on a against the closed-form max radius.

    The maximal radius is increasing in a; this never reuses the s-profile
    inversion, so agreement with solve_a_for_target is a genuine cross-check.
    """
    lo_r = max_conformal_radius(0.0).max_radius
    if not (lo_r <= radius_target < 1.0):
        raise NoSolutionError(
            f"radius target {radius_target} outside [{lo_r:.9f}, 1)"
        )
    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if max_conformal_radius(mid).max_radius < radius_target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=1)
def default_threshold() -> float:
    """The package-wide slit parameter: maximal radius exactly 0.7."""
    return solve_a_for_target(0.175)


def slit_disk_map(w: complex, a: float) -> complex:
    """Half-plane uniformization h(w) = ((w-R)^2+a)/(1+a(w-R)^2), R^2 = w^2-1.

    The branch of R is fixed by |w - R| < 1 on the lower half-plane; both
    candidate roots are tried and exactly one can satisfy the condition (their
    |w - R| values multiply to 1).  BranchError if neither does.
    """
    a = _check_a(a)
    w = complex(w)
    if not (w.imag < 0.0):
        raise DomainError("the uniformization takes the open lower half-plane")
    root = np.sqrt(np.complex128(w * w - 1.0))
    for r in (complex(root), -complex(root)):
        u = w - r
        if abs(u) < 1.0:
            u2 = u * u
            return (u2 + a) / (1.0 + a * u2)
    raise BranchError("no square-root branch satisfies |w - sqrt(w^2-1)| < 1")
