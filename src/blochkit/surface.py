"""Conformal radius of the two-sheeted surface via a half-plane mapping.

The surface is uniformized from the closed upper half-plane by w = e^(f(z))
where

    f(z) = -2 * integral from -1 to z of
           sqrt(t-d) / (sqrt(t-c) sqrt(t-1) sqrt(t+1)) dt,

with real parameters 1 < c < d fixed by two side-length conditions on the
image polygon (a half-strip of width 2*pi glued to a rectangle of height 3*pi
and width -log a):

    I1(c, d) = integral_{-1}^{1} sqrt(d-t)/sqrt((c-t)(1-t^2)) dt = 3*pi/2,
    I2(c, d) = integral_{1}^{c} sqrt(d-t)/sqrt((c-t)(t^2-1)) dt = -log(a)/2.

All square roots are numpy principal branches: each factor t - x0 has
nonnegative imaginary part on the closed upper half-plane, so every factor is
analytic there and the product agrees with the branch that is positive for
real t > d.  Contours are polylines (up from -1, across at a safe height, down
to z); the leg leaving -1 is regularized by t = -1 + i u^2.  The legs of one
contour are the rows of one batched adaptive quadrature.

The side-length integrals are sums of substituted pieces (``_pieces``) that
are smooth for every 1 < c < d: t = x0 +- u^2 at each inverse-sqrt endpoint
x0, and u = sqrt(c - 1) sinh v where the factor t - 1 = c - 1 + u^2 would
leave a near-singularity of width sqrt(c - 1).  ``parameter_integrals`` takes
one or more (c, d) points and integrates every piece at every point as the
rows of one node-doubling quadrature, each row accepted at its own node
count.  The damped Newton solve runs in u = log(c - 1) and v = log(d - c)
(Trefethen, SIAM J. Sci. Stat. Comput. 1, 1980, solves the Schwarz-Christoffel
parameter problem in log gaps between prevertices in the same way): every
(u, v) is a point of 1 < c < d, and I1 ~ -log(c - 1) / 2 next to c = 1 is
nearly linear in u.  It evaluates each trial point in one call with the two
shifted points of its forward-difference Jacobian.

The conformal radius at z with Im z > 0 is

    r(z) = 4 Im z |e^(f(z))| sqrt|z-d| / sqrt(|z-c| |z^2-1|),

maximized over the half-plane by a deterministic multistart damped Newton
iteration on the stationarity equation of log r, whose gradient and Hessian
are closed-form in the integrand of f (no quadrature until the final value).
A start is dropped as soon as its Newton step is not an ascent direction of
log r: such a step heads for a saddle, a minimum or the edge of the search
box, while every step in the concave region around a maximum climbs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    PathError,
    SingularityError,
)
from .quadrature import integrate_adaptive, integrate_fixed

TARGET_HEIGHT = 1.5 * math.pi     # I1 condition (rectangle height 3*pi over 2)
PATH_CLEARANCE = 1e-3
BRANCH_TOL = 1e-12
#: tolerance of the adaptive quadrature on each leg of map_f's contour
MAP_TOL = 1e-12

#: upper-half-plane point where the radius is near-maximal for the default
#: parameter set; used as the primary optimizer seed and the constants-table
#: checkpoint
RADIUS_PROBE = -0.0205 + 0.3659j

#: starts of the radius search: the probe, then a 7 x 4 grid over the
#: fundamental domain
RADIUS_STARTS = (RADIUS_PROBE,) + tuple(
    complex(x, y) for x in np.linspace(-1.2, 1.2, 7) for y in (0.15, 0.36, 0.7, 1.2))


@dataclass(frozen=True)
class SurfaceSolution:
    a: float
    c: float
    d: float
    r0: float
    argmax_z: complex

    def __post_init__(self) -> None:
        if not (1.0 < self.c < self.d):
            raise DomainError("parameters must satisfy 1 < c < d")
        if not (0.0 < self.a < 1.0):
            raise DomainError("slit parameter must satisfy 0 < a < 1")

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "c": self.c,
            "d": self.d,
            "r0": self.r0,
            "argmax_z": [self.argmax_z.real, self.argmax_z.imag],
        }


# ----------------------------------------------------------------------------
# parameter problem
# ----------------------------------------------------------------------------

def _points(c, d) -> tuple[np.ndarray, np.ndarray]:
    """c and d as matching 1-D arrays of parameter points with 1 < c < d."""
    c = np.atleast_1d(np.asarray(c, dtype=np.float64))
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    if (c.ndim != 1 or c.shape != d.shape
            or not ((1.0 < c) & (c < d) & np.isfinite(d)).all()):
        raise DomainError("parameters must satisfy 1 < c < d")
    return c, d


# The integrals over [-1, 1], [1, c] and [c, d], each split into two pieces
# that are smooth for every 1 < c < d.  At an endpoint x0 with an inverse
# square root, t = x0 +- u^2 turns dt / sqrt(|t - x0|) into 2 du.  Next to
# t = 1 the factor t - 1 = c - 1 + u^2 leaves a near-singularity of width
# sqrt(c - 1) at u = 0.  On those two pieces u = sqrt(c - 1) sinh v turns
# du / sqrt(c - 1 + u^2) into dv exactly (Johnston & Elliott, IJNME 62, 2005),
# and v runs over [0, asinh(U / sqrt(c - 1))], which grows only like
# log(1 / (c - 1)) / 2.

def _pieces(c: np.ndarray, d: np.ndarray, count: int):
    """The first ``count`` pieces at every point (c, d) as one batch for the
    quadrature: the integrand of the (piece, point) rows and their upper
    limits, both of shape (count, points); every lower limit is 0."""
    root = np.sqrt(c - 1.0)
    inner = np.sqrt(0.5 * (c - 1.0))
    outer = np.sqrt(0.5 * (d - c))
    upper = np.array([np.ones_like(c), np.arcsinh(1.0 / root), inner, inner,
                      np.arcsinh(outer / root), outer])[:count]
    c, d, root = c[:, None], d[:, None], root[:, None]

    def integrand(v):
        s = v * v
        s[1] = np.square(root * np.sinh(v[1]))
        out = np.empty_like(v)
        # [-1, 1]: t = -1 + u^2, then t = 1 - u^2 with u = sqrt(c - 1) sinh v
        out[0] = np.sqrt((d + 1.0 - s[0]) / ((c + 1.0 - s[0]) * (2.0 - s[0])))
        out[1] = np.sqrt((d - 1.0 + s[1]) / (2.0 - s[1]))
        # [1, c]: t = 1 + u^2, then t = c - u^2
        out[2] = np.sqrt((d - 1.0 - s[2]) / ((c - 1.0 - s[2]) * (2.0 + s[2])))
        out[3] = np.sqrt((d - c + s[3]) / ((c - 1.0 - s[3]) * (c + 1.0 - s[3])))
        if count > 4:
            # [c, d]: t = c + u^2 with u = sqrt(c - 1) sinh v, then t = d - u^2
            s[4] = np.square(root * np.sinh(v[4]))
            out[4] = np.sqrt((d - c - s[4]) / (c + 1.0 + s[4]))
            out[5] = s[5] / np.sqrt((d - c - s[5]) * (d - 1.0 - s[5]) * (d + 1.0 - s[5]))
        return 2.0 * out

    return integrand, upper


def _side_lengths(c, d, count: int, integrate) -> tuple:
    """Sums of piece pairs, (I1, I2) or (I1, I2, [c, d] integral): floats for
    a scalar (c, d), arrays over the points otherwise.  ``integrate`` maps
    (integrand, upper limits) to the integrals of all rows."""
    values = integrate(*_pieces(*_points(c, d), count))
    sums = values[0::2] + values[1::2]
    if np.ndim(c) == 0 and np.ndim(d) == 0:
        return tuple(float(s[0]) for s in sums)
    return tuple(sums)


def parameter_integrals(c, d):
    """(I1, I2) by node-doubling Gauss from 64 nodes on the substituted
    smooth pieces, all pieces at all points in one batch; floats for a
    scalar (c, d), arrays for arrays of points."""
    return _side_lengths(
        c, d, 4, lambda f, upper: integrate_adaptive(f, 0.0, upper, tol=1e-13, n0=64)[0])


def parameter_integrals_fixed(c, d, n: int):
    """(I1, I2) at exactly n nodes per substituted piece (convergence tables)."""
    return _side_lengths(c, d, 4, lambda f, upper: integrate_fixed(f, 0.0, upper, n))


def _residual(c, d, a: float) -> np.ndarray:
    """Side-length residuals at one point (shape (2,)) or at an array of
    points (shape (2, points))."""
    i1, i2 = parameter_integrals(c, d)
    return np.array([i1 - TARGET_HEIGHT, i2 + 0.5 * math.log(a)])


def parameter_jacobian(c: float, d: float, a: float) -> tuple[np.ndarray, np.ndarray]:
    """The two residuals at (c, d) and their forward-difference Jacobian
    w.r.t. u = log(c - 1) and v = log(d - c), from one ``_residual`` call at
    (c, d) and its two shifted points.

    The step is h = 1e-6 in u and in v.  In u it moves c and d together by
    (c - 1)(e^h - 1), and in v it moves d alone by (d - c)(e^h - 1), so both
    shifted points lie inside 1 < c < d."""
    h = 1e-6
    grow = math.expm1(h)
    shift = (c - 1.0) * grow
    cs = np.array([c, c + shift, c])
    ds = np.array([d, d + shift, d + (d - c) * grow])
    r = _residual(cs, ds, a)
    return r[:, 0], (r[:, 1:] - r[:, :1]) / h


def _parameter_start(a: float) -> tuple[float, float]:
    """The solve's start (c, d) at a.

    u = log(c - 1) and v = log(d - c) are least-squares fits over the basis
    (1, 1/L, log L) in L = -log a, made on the 160 values of a log-spaced
    from 1e-4 to 0.4 of the README scan.  They miss the solution by at most
    0.09 in u and 0.12 in v there, and by 0.24 and 0.35 up to a = 0.532;
    outside that they extrapolate, until c - 1 rounds to 0 (a >= 0.745)."""
    big = -math.log(a)
    small, log_big = 1.0 / big, math.log(big)
    c = 1.0 + math.exp(-2.6125 - 9.4206 * small + 2.1549 * log_big)
    try:
        return c, c + math.exp(-3.5889 + 0.6852 * small + 2.2896 * log_big)
    except OverflowError:
        return c, math.inf


def solve_parameters(a: float) -> tuple[float, float]:
    """Damped Newton for the side-length conditions; residuals below 1e-9.

    The iteration runs in u = log(c - 1) and v = log(d - c), where every
    point is inside 1 < c < d, from a start predicted from a.  Steps are
    halved until they reduce the residual norm; a failure reports the best
    point the iteration reached, or the start when it is outside 1 < c < d."""
    if not (0.0 < a < 1.0):
        raise DomainError("slit parameter must satisfy 0 < a < 1")
    start = c, d = _parameter_start(a)
    if not 1.0 < c < d < math.inf:
        raise ConvergenceError(f"parameter solve cannot start from {start}, outside 1 < c < d")
    r, jac = parameter_jacobian(c, d, a)
    norm = float(np.max(np.abs(r)))
    for _ in range(100):
        if norm < 1e-12:
            break
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        u, v = math.log(c - 1.0), math.log(d - c)
        step = None
        alpha = 1.0
        while alpha > 1e-8:
            try:
                cn = 1.0 + math.exp(u + alpha * delta[0])
                dn = cn + math.exp(v + alpha * delta[1])
            except OverflowError:
                cn = dn = math.nan
            if (cn, dn) == (c, d):
                # the residuals sit on their quadrature floor above the 1e-12
                # goal; no step that rounds to nothing can lower them
                break
            rn = None
            if 1.0 < cn < dn < math.inf:
                # a trial point comes with its Jacobian, in the same batch,
                # for the step after it
                try:
                    rn, jn = parameter_jacobian(cn, dn, a)
                except ConvergenceError:
                    # a trial point pushed toward c = 1 can defeat the
                    # quadrature; that counts as a rejected step
                    pass
            if (rn is not None and np.isfinite(jn).all()
                    and np.max(np.abs(rn)) < norm * (1.0 - 1e-4 * alpha) + 1e-15):
                step = cn, dn, rn, jn
                break
            if norm < 1e-9:
                # the point already passes, and a full step that fails here
                # meets the quadrature floor: halved steps would only
                # revisit its noise
                break
            alpha *= 0.5
        if step is None:
            break
        c, d, r, jac = step
        previous, norm = norm, float(np.max(np.abs(r)))
        if norm >= previous:
            # taken only through the 1e-15 slack: the residuals sit on their
            # quadrature floor, where more steps wander without lowering them
            break
    if norm < 1e-9:
        return c, d
    raise ConvergenceError(
        f"parameter solve failed from the start {start}; "
        f"best point (c, d) = ({c!r}, {d!r}) with residual {norm:.3g}"
    )


# ----------------------------------------------------------------------------
# the mapping
# ----------------------------------------------------------------------------

def _F(t, c: float, d: float, sqrt=np.sqrt):
    """Integrand of f with principal square roots (valid on the closed UHP);
    t is complex, a scalar or an array.  A Python complex t may pass
    ``cmath.sqrt``, which takes the same principal branch without numpy's
    per-call cost."""
    return sqrt(t - d) / (sqrt(t - c) * sqrt(t - 1.0) * sqrt(t + 1.0))


def _segment_clearance(p0, p1, points) -> np.ndarray:
    """Distance from each segment p0 -> p1 (broadcast together) to the nearest
    of the real points; a degenerate segment measures from p0."""
    p0 = np.asarray(p0, dtype=np.complex128)
    d = np.asarray(p1, dtype=np.complex128) - p0
    q = np.asarray(points, dtype=np.float64).reshape((-1,) + (1,) * d.ndim)
    t = ((q - p0) / np.where(d == 0.0, 1.0, d)).real
    return np.abs(q - (p0 + np.minimum(np.maximum(t, 0.0), 1.0) * d)).min(axis=0)


def map_f(z: complex, sol: SurfaceSolution, contour: str = "default") -> complex:
    """f(z) along an admissible polyline contour from -1 (adaptive nodes)."""
    z = complex(z)
    c, d = sol.c, sol.d
    branch = (-1.0, 1.0, c, d)
    if abs(z - (-1.0)) <= BRANCH_TOL:
        return 0.0 + 0.0j
    for b in branch:
        if abs(z - b) <= BRANCH_TOL:
            raise SingularityError(f"evaluation point coincides with branch point {b}")
    x, y = z.real, z.imag
    if y < 0.0:
        raise DomainError("the mapping is defined on the closed upper half-plane")

    if contour == "default":
        height = max(1.0, y)
        lateral = 0.0
    elif contour == "offset":
        height = max(0.5, y)
        lateral = 0.3
    else:
        raise DomainError(f"unknown contour {contour!r}")

    # each leg is t = z0 + s (z1 + z2 s) for s in [0, length]; all legs are
    # rows of one adaptive quadrature, each accepted at its own node count
    # up from -1 with t = -1 + i u^2 (kills the inverse-sqrt endpoint)
    legs = [(-1.0, 0.0, 1j, math.sqrt(height))]
    # across at the safe height
    xs = x + lateral
    if _segment_clearance(-1.0 + 1j * height, xs + 1j * height, branch) < PATH_CLEARANCE:
        raise PathError("horizontal leg violates the branch-point clearance")
    if xs != -1.0:
        legs.append((-1.0 + 1j * height, xs + 1.0, 0.0, 1.0))
    # down to the target height
    if height != y:
        if _segment_clearance(xs + 1j * height, xs + 1j * y, branch) < PATH_CLEARANCE:
            raise PathError("vertical leg violates the branch-point clearance")
        legs.append((xs + 1j * height, 1j * (y - height), 0.0, 1.0))
    # lateral return (offset contour only)
    if lateral != 0.0:
        if _segment_clearance(xs + 1j * y, z, branch) < PATH_CLEARANCE:
            raise PathError("return leg violates the branch-point clearance")
        legs.append((xs + 1j * y, x - xs, 0.0, 1.0))
    z0, z1, z2, length = np.array(legs).T
    z0, z1, z2 = z0[:, None], z1[:, None], z2[:, None]

    def integrand(s):
        return _F(z0 + s * (z1 + z2 * s), c, d) * (z1 + 2.0 * z2 * s)

    values, _ = integrate_adaptive(integrand, 0.0, length.real, tol=MAP_TOL, n0=32)
    return -2.0 * sum(values.tolist(), 0.0 + 0.0j)


def conformal_radius_at(z: complex, sol: SurfaceSolution) -> float:
    """r(z) = 4 Im z |e^(f(z))| sqrt|z-d| / sqrt(|z-c| |z^2-1|), Im z > 0."""
    z = complex(z)
    if not z.imag > 0.0:
        raise DomainError("the radius is defined for Im z > 0")
    fz = map_f(z, sol)
    pref = math.sqrt(abs(z - sol.d)) / math.sqrt(abs(z - sol.c) * abs(z * z - 1.0))
    return float(4.0 * z.imag * abs(np.exp(fz)) * pref)


def _log_radius_derivatives(z: complex, c: float, d: float):
    """Gradient and Hessian of log r at z in the real coordinates (x, y).

    log r = log 4 + log y + Re H with H' = -2F + 1/(2(z-d)) - 1/(2(z-c))
    - z/(z^2-1), so both follow from F in closed form; the Hessian is returned
    as (xx, xy, yy)."""
    f = _F(z, c, d, cmath.sqrt)
    h1 = -2.0 * f + 0.5 / (z - d) - 0.5 / (z - c) - z / (z * z - 1.0)
    h2 = (-f * (1.0 / (z - d) - 1.0 / (z - c) - 1.0 / (z - 1.0) - 1.0 / (z + 1.0))
          + 0.5 / (z - c) ** 2 - 0.5 / (z - d) ** 2 + (z * z + 1.0) / (z * z - 1.0) ** 2)
    y = z.imag
    return (h1.real, 1.0 / y - h1.imag), (h2.real, -h2.imag, -1.0 / (y * y) - h2.real)


def _stationary_maximum(z: complex, c: float, d: float) -> complex | None:
    """Damped Newton on grad log r = 0 from z: the local maximum it reaches,
    or None when the step underflows, the iterations run out, a Newton step
    s = -H^-1 g is not an ascent direction of log r (g.s <= 0) or the
    stationary point is not a maximum.

    Where the Hessian is negative definite, g.s = -g^T H^-1 g > 0, so no
    iterate in the concave region around a maximum is dropped; a step with
    g.s <= 0 heads downhill, for a saddle, a minimum or the box edge."""
    g, h = _log_radius_derivatives(z, c, d)
    for _ in range(100):
        norm = math.hypot(*g)
        det = h[0] * h[2] - h[1] * h[1]
        if norm <= 1e-10:
            return z if h[0] < 0.0 and det > 0.0 else None
        if det == 0.0:
            return None
        step = complex((h[1] * g[1] - h[2] * g[0]) / det, (h[1] * g[0] - h[0] * g[1]) / det)
        if g[0] * step.real + g[1] * step.imag <= 0.0:
            return None
        alpha = 1.0
        while alpha >= 1e-10:
            trial = z + alpha * step
            # r -> 0 like 4y/|z|^3 at infinity and its gradient vanishes there
            # too: unconfined, about half the starts walk off to |z| ~ 1e13,
            # where only the sign of Hessian eigenvalues of size 1e-27 would
            # reject them
            if (0.0 < trial.imag < 4.0 and abs(trial.real) < 4.0
                    and abs(trial + 1.0) >= 1e-6 and abs(trial - 1.0) >= 1e-6
                    and abs(trial - c) >= 1e-6 and abs(trial - d) >= 1e-6):
                gt, ht = _log_radius_derivatives(trial, c, d)
                if math.hypot(*gt) <= norm * (1.0 - 1e-4 * alpha):
                    break
            alpha *= 0.5
        else:
            return None
        z, g, h = trial, gt, ht
    return None


def maximize_radius(sol: SurfaceSolution) -> tuple[complex, float]:
    """Deterministic multistart maximization of the radius over the half-plane.

    Each start runs a damped Newton iteration on the closed-form stationarity
    equation of log r, and is dropped once a Newton step points downhill; the
    distinct local maxima the starts reach are evaluated with the adaptive
    map, so the value is a certified lower bound.  Ties break
    toward the lexicographically smallest (Re, Im) argmax.  Raises
    ConvergenceError when no start reaches a local maximum."""
    found: list[complex] = []
    for start in RADIUS_STARTS:
        z = _stationary_maximum(start, sol.c, sol.d)
        if z is not None and all(abs(z - w) > 1e-8 for w in found):
            found.append(z)
    if not found:
        raise ConvergenceError(f"no radius search start reached a local maximum "
                               f"(c={sol.c!r}, d={sol.d!r})")
    value, x, y = min((-conformal_radius_at(z, sol), z.real, z.imag) for z in found)
    return complex(x, y), -value


def edge_integrals(sol: SurfaceSolution, ray: float = 50.0) -> dict:
    """Side lengths of the image polygon, straight from the real axis.

    Returns the rectangle height (2*I1 = 3*pi), the rectangle width
    (2*I2 = -log a), the drop between the two horizontal edges (the integral
    over [c, d], equal to pi), and the half-strip width measured as
    |Im f(-ray) - Im f(ray)| (equal to 2*pi).  An independent reference,
    by adaptive quadrature, that the tests check the solved parameters
    against; nothing in the package calls it."""
    i1, i2, i3 = _side_lengths(
        sol.c, sol.d, 6, lambda f, upper: integrate_adaptive(f, 0.0, upper, tol=1e-13, n0=32)[0])
    width = abs(map_f(complex(-ray, 0.0), sol).imag
                - map_f(complex(ray, 0.0), sol).imag)
    return {
        "rectangle_height": 2.0 * i1,
        "rectangle_width": 2.0 * i2,
        "edge_drop": 2.0 * i3,
        "strip_width": float(width),
    }


def solve_surface(a: float | None = None) -> SurfaceSolution:
    """Full pipeline: parameters, then radius maximization."""
    if a is None:
        from .slitdisk import default_threshold

        a = default_threshold()
    c, d = solve_parameters(a)
    provisional = SurfaceSolution(a, c, d, 1.0, RADIUS_PROBE)
    argmax, r0 = maximize_radius(provisional)
    return replace(provisional, r0=r0, argmax_z=argmax)
