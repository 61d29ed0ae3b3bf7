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
to z); the leg leaving -1 is regularized by t = -1 + i u^2.

The conformal radius at z with Im z > 0 is

    r(z) = 4 Im z |e^(f(z))| sqrt|z-d| / sqrt(|z-c| |z^2-1|),

maximized over the half-plane by a deterministic multistart Nelder-Mead
whose starts all run in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    PathError,
    SingularityError,
)
from .quadrature import gauss_nodes, integrate_adaptive, integrate_fixed
from .seminorm import _van_der_corput

TARGET_HEIGHT = 1.5 * math.pi     # I1 condition (rectangle height 3*pi over 2)
PATH_CLEARANCE = 1e-3
BRANCH_TOL = 1e-12

#: upper-half-plane point where the radius is near-maximal for the default
#: parameter set; used as the primary optimizer seed and the constants-table
#: checkpoint
RADIUS_PROBE = -0.0205 + 0.3659j


@dataclass(frozen=True)
class SurfaceSolution:
    a: float
    c: float
    d: float
    r0: float
    argmax_z: complex
    quadrature_nodes: int

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
            "quadrature_nodes": self.quadrature_nodes,
        }


# ----------------------------------------------------------------------------
# parameter problem
# ----------------------------------------------------------------------------

def _check_params(c: float, d: float) -> None:
    if not (1.0 < c < d) or not (math.isfinite(c) and math.isfinite(d)):
        raise DomainError("parameters must satisfy 1 < c < d")


def _inner_pieces(c: float, d: float):
    """Both halves of the [-1, 1] integral after t = -1 + u^2 / t = 1 - u^2.

    The substitutions are carried out algebraically so the offset from the
    singular endpoint is exactly u^2 (no cancellation near the endpoints)."""
    return (
        (lambda u: 2.0 * np.sqrt(d + 1.0 - u * u)
         / np.sqrt((c + 1.0 - u * u) * (2.0 - u * u)), 0.0, 1.0),
        (lambda u: 2.0 * np.sqrt(d - 1.0 + u * u)
         / np.sqrt((c - 1.0 + u * u) * (2.0 - u * u)), 0.0, 1.0),
    )


def _middle_pieces(c: float, d: float):
    """[1, c] integral split at the midpoint, substituted at both ends."""
    half = math.sqrt(0.5 * (c - 1.0))
    return (
        (lambda u: 2.0 * np.sqrt(d - 1.0 - u * u)
         / np.sqrt((c - 1.0 - u * u) * (2.0 + u * u)), 0.0, half),
        (lambda u: 2.0 * np.sqrt(d - c + u * u)
         / np.sqrt((c - 1.0 - u * u) * (c + 1.0 - u * u)), 0.0, half),
    )


def _outer_pieces(c: float, d: float):
    """[c, d] integral: inverse-sqrt endpoint at c, sqrt endpoint at d."""
    half = math.sqrt(0.5 * (d - c))
    return (
        (lambda u: 2.0 * np.sqrt(d - c - u * u)
         / np.sqrt((c - 1.0 + u * u) * (c + 1.0 + u * u)), 0.0, half),
        (lambda u: 2.0 * u * u
         / np.sqrt((d - c - u * u) * (d - 1.0 - u * u) * (d + 1.0 - u * u)),
         0.0, half),
    )


def _sum_pieces(pieces, adaptive: bool, n: int) -> float:
    total = 0.0
    for g, lo, hi in pieces:
        if adaptive:
            val, _ = integrate_adaptive(g, lo, hi, tol=1e-13, n0=n)
        else:
            val = integrate_fixed(g, lo, hi, n)
        total += float(np.real(val))
    return total


def parameter_integrals(c: float, d: float, nodes: int = 256) -> tuple[float, float]:
    """(I1, I2) by node-doubling Gauss on the substituted smooth integrands."""
    _check_params(c, d)
    if nodes < 16:
        raise DomainError("node count must be at least 16")
    n0 = max(16, nodes // 4)
    return (_sum_pieces(_inner_pieces(c, d), True, n0),
            _sum_pieces(_middle_pieces(c, d), True, n0))


def parameter_integrals_fixed(c: float, d: float, n: int) -> tuple[float, float]:
    """(I1, I2) at exactly n nodes per substituted piece (convergence tables)."""
    _check_params(c, d)
    return (_sum_pieces(_inner_pieces(c, d), False, n),
            _sum_pieces(_middle_pieces(c, d), False, n))


def _residual(c: float, d: float, a: float, nodes: int) -> np.ndarray:
    i1, i2 = parameter_integrals(c, d, nodes)
    return np.array([i1 - TARGET_HEIGHT, i2 + 0.5 * math.log(a)])


def parameter_jacobian(c: float, d: float, a: float, nodes: int = 256,
                       step: float = 1e-6) -> np.ndarray:
    """Forward-difference Jacobian of the two residuals w.r.t. (c, d)."""
    base = _residual(c, d, a, nodes)
    jc = (_residual(c + step, d, a, nodes) - base) / step
    jd = (_residual(c, d + step, a, nodes) - base) / step
    return np.column_stack([jc, jd])


def solve_parameters(a: float, nodes: int = 256) -> tuple[float, float]:
    """Damped Newton for the side-length conditions; residuals below 1e-9.

    Starts at (1.1, 1.8); a second deterministic start (1.5, 3.0) guards
    against basin escape.  Steps are halved until they stay in {1 < c < d} and
    reduce the residual norm."""
    if not (0.0 < a < 1.0):
        raise DomainError("slit parameter must satisfy 0 < a < 1")
    last = None
    for start in ((1.1, 1.8), (1.5, 3.0)):
        result = _newton_from(start, a, nodes)
        if result is not None:
            return result
        last = start
    raise ConvergenceError(
        f"parameter solve failed from starts (1.1, 1.8) and {last}; "
        f"last residuals {_residual(*last, a, nodes)}"
    )


def _newton_from(start: tuple[float, float], a: float, nodes: int):
    c, d = start
    r = _residual(c, d, a, nodes)
    for _ in range(100):
        norm = np.max(np.abs(r))
        if norm < 1e-12:
            break
        jac = parameter_jacobian(c, d, a, nodes)
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return None
        alpha = 1.0
        while alpha > 1e-8:
            cn, dn = c + alpha * delta[0], d + alpha * delta[1]
            if 1.0 + 1e-9 < cn < dn - 1e-9:
                try:
                    rn = _residual(cn, dn, a, nodes)
                except ConvergenceError:
                    # a trial point pushed toward c = 1 can defeat the
                    # quadrature; that counts as a rejected step
                    rn = None
                if rn is not None and np.max(np.abs(rn)) < norm * (1.0 - 1e-4 * alpha) + 1e-15:
                    c, d, r = cn, dn, rn
                    break
            alpha *= 0.5
        else:
            break
    if np.max(np.abs(r)) < 1e-9:
        return float(c), float(d)
    return None


# ----------------------------------------------------------------------------
# the mapping
# ----------------------------------------------------------------------------

def _F(t, c: float, d: float):
    """Integrand of f with principal square roots (valid on the closed UHP)."""
    t = np.asarray(t, dtype=np.complex128)
    return np.sqrt(t - d) / (np.sqrt(t - c) * np.sqrt(t - 1.0) * np.sqrt(t + 1.0))


def _segment_clearance(p0, p1, points) -> np.ndarray:
    """Distance from each segment p0 -> p1 (broadcast together) to the nearest
    of the real points; a degenerate segment measures from p0."""
    p0 = np.asarray(p0, dtype=np.complex128)
    d = np.asarray(p1, dtype=np.complex128) - p0
    q = np.asarray(points, dtype=np.float64).reshape((-1,) + (1,) * d.ndim)
    t = ((q - p0) / np.where(d == 0.0, 1.0, d)).real
    return np.abs(q - (p0 + np.minimum(np.maximum(t, 0.0), 1.0) * d)).min(axis=0)


def map_f(z: complex, sol: SurfaceSolution, contour: str = "default",
          tol: float = 1e-12) -> complex:
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

    def leg(fun, lo, hi):
        val, _ = integrate_adaptive(fun, lo, hi, tol=tol, n0=32)
        return val

    total = 0.0 + 0.0j
    # up from -1 with t = -1 + i u^2 (kills the inverse-sqrt endpoint)
    total += leg(lambda u: _F(-1.0 + 1j * u * u, c, d) * 2j * u,
                 0.0, math.sqrt(height))
    # across at the safe height
    xs = x + lateral
    if _segment_clearance(-1.0 + 1j * height, xs + 1j * height, branch) < PATH_CLEARANCE:
        raise PathError("horizontal leg violates the branch-point clearance")
    if xs != -1.0:
        total += leg(lambda s: _F(-1.0 + s * (xs + 1.0) + 1j * height, c, d)
                     * (xs + 1.0), 0.0, 1.0)
    # down to the target height
    if height != y:
        if _segment_clearance(xs + 1j * height, xs + 1j * y, branch) < PATH_CLEARANCE:
            raise PathError("vertical leg violates the branch-point clearance")
        total += leg(lambda s: _F(xs + 1j * (height + s * (y - height)), c, d)
                     * 1j * (y - height), 0.0, 1.0)
    # lateral return (offset contour only)
    if lateral != 0.0:
        if _segment_clearance(xs + 1j * y, z, branch) < PATH_CLEARANCE:
            raise PathError("return leg violates the branch-point clearance")
        total += leg(lambda s: _F(xs + s * (x - xs) + 1j * y, c, d) * (x - xs),
                     0.0, 1.0)
    return -2.0 * total


def conformal_radius_at(z: complex, sol: SurfaceSolution) -> float:
    """r(z) = 4 Im z |e^(f(z))| sqrt|z-d| / sqrt(|z-c| |z^2-1|), Im z > 0."""
    z = complex(z)
    if not z.imag > 0.0:
        raise DomainError("the radius is defined for Im z > 0")
    fz = map_f(z, sol)
    pref = math.sqrt(abs(z - sol.d)) / math.sqrt(abs(z - sol.c) * abs(z * z - 1.0))
    return 4.0 * z.imag * abs(np.exp(fz)) * pref


def _radius_evaluator(c: float, d: float, n: int):
    """r(x, y) over arrays of points on the default contour, n Gauss nodes per leg.

    This is the search's objective.  A point with y <= 1e-6 or within 2e-3 of
    a branch point scores -1.  Every point with y <= 1 shares the first leg
    (up from -1 to height 1), which is integrated once here; each leg is a
    matrix-vector product of its integrand rows with the Gauss weights, taken
    by einsum because BLAS may hand a product of this size to its threads."""
    branch = np.array([-1.0, 1.0, c, d])
    nodes, weights = gauss_nodes(n)
    s = 0.5 + 0.5 * nodes   # the nodes on [0, 1]

    def gauss(rows):
        return np.einsum("kn,n->k", rows, weights)

    def up(half):
        u = half[:, None] + half[:, None] * nodes
        return half * gauss(_F(-1.0 + 1j * u * u, c, d) * 2j * u)

    up_to_one = up(np.array([0.5]))[0]   # half the leg's length sqrt(1)

    def radius(x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        z = x + 1j * y
        out = np.full(z.shape, -1.0)
        near = np.abs(z[:, None] - branch).min(axis=1)
        ok = (y > 1e-6) & (near >= 2e-3)
        if not ok.any():
            return out
        x, y, z = x[ok], y[ok], z[ok]
        height = np.maximum(1.0, y)
        if (_segment_clearance(-1.0 + 1j * height, x + 1j * height, branch)
                < PATH_CLEARANCE).any():
            raise PathError("horizontal leg violates the branch-point clearance")
        low = height != y
        if (_segment_clearance(x[low] + 1j * height[low], z[low], branch)
                < PATH_CLEARANCE).any():
            raise PathError("vertical leg violates the branch-point clearance")

        total = np.full(z.shape, up_to_one)
        high = y > 1.0
        if high.any():
            total[high] = up(0.5 * np.sqrt(y[high]))
        # across at the safe height (zero when x = -1)
        h = height[:, None]
        total += 0.5 * gauss(_F(-1.0 + s * (x[:, None] + 1.0) + 1j * h, c, d)
                             * (x[:, None] + 1.0))
        # down to the target height
        if low.any():
            xl, yl = x[low, None], y[low, None]
            total[low] += 0.5 * gauss(_F(xl + 1j * (1.0 + s * (yl - 1.0)), c, d)
                                      * 1j * (yl - 1.0))
        pref = np.sqrt(np.abs(z - d)) / np.sqrt(np.abs(z - c) * np.abs(z * z - 1.0))
        out[ok] = 4.0 * y * np.abs(np.exp(-2.0 * total)) * pref
        return out

    return radius


def _default_starts(count: int) -> list[complex]:
    starts = [RADIUS_PROBE]
    for xx in np.linspace(-1.2, 1.2, 7):
        for yy in (0.15, 0.36, 0.7, 1.2):
            starts.append(complex(xx, yy))
    # the base-2 radical inverse fills extra starts deterministically
    for x in _van_der_corput(max(count - len(starts), 0)):
        starts.append(complex(2.4 * (x - 0.5), 0.1 + 1.3 * x))
    return starts[:max(count, 1)]


def _lockstep_nelder_mead(fun, start: np.ndarray, h: float, ftol: float,
                          max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Maximize fun from every row of start (K x 2) at once.

    Each row runs its own Nelder-Mead on the simplex (x0, y0), (x0 + h, y0),
    (x0, y0 + h): reflection 1, expansion 2, inside and outside contraction
    1/2, shrink toward the best vertex.  A row stops once its values span at
    most ftol; fun is called on the pending vertices of all running rows
    together.  Returns each row's best value and vertex."""
    k = start.shape[0]
    pts = np.repeat(start[:, None, :], 3, axis=1)
    pts[:, 1, 0] += h
    pts[:, 2, 1] += h
    vals = fun(pts[..., 0].ravel(), pts[..., 1].ravel()).reshape(k, 3)
    rows = np.arange(k)
    for _ in range(max_iter):
        order = np.argsort(-vals[rows], axis=1, kind="stable")
        pts[rows], vals[rows] = pts[rows[:, None], order], vals[rows[:, None], order]
        rows = rows[vals[rows, 0] - vals[rows, 2] > ftol]
        if rows.size == 0:
            break
        p, v = pts[rows], vals[rows]
        cen = 0.5 * (p[:, 0] + p[:, 1])
        ref = 2.0 * cen - p[:, 2]
        fr = fun(ref[:, 0], ref[:, 1])
        expand = fr > v[:, 0]
        accept = ~expand & (fr > v[:, 1])
        contract = ~expand & ~accept
        # one call for the expansion and the contraction points
        trial = np.where(expand[:, None], cen + 2.0 * (ref - cen),
                         np.where((fr > v[:, 2])[:, None], cen + 0.5 * (ref - cen),
                                  cen + 0.5 * (p[:, 2] - cen)))
        probe = expand | contract
        ft = np.full(rows.size, -np.inf)
        ft[probe] = fun(trial[probe, 0], trial[probe, 1])
        better = expand & (ft > fr)
        take_ref = (expand & ~better) | accept
        take_trial = better | (contract & (ft > np.minimum(fr, v[:, 2])))
        shrink = contract & ~take_trial
        p[take_ref, 2], v[take_ref, 2] = ref[take_ref], fr[take_ref]
        p[take_trial, 2], v[take_trial, 2] = trial[take_trial], ft[take_trial]
        if shrink.any():
            q = 0.5 * (p[shrink, 1:] + p[shrink, :1])
            p[shrink, 1:] = q
            v[shrink, 1:] = fun(q[..., 0].ravel(), q[..., 1].ravel()).reshape(-1, 2)
        pts[rows], vals[rows] = p, v
    best = np.argmax(vals, axis=1)   # the first of equal values, as a stable sort
    return vals[np.arange(k), best], pts[np.arange(k), best]


def maximize_radius(sol: SurfaceSolution, starts: int = 29,
                    fast_nodes: int = 64) -> tuple[complex, float]:
    """Deterministic multistart maximization of the radius over the half-plane.

    All starts run in lockstep on fixed-node quadrature for speed; the final
    value is recomputed adaptively at the argmax, so it is a certified lower
    bound.  Ties break toward the lexicographically smallest (Re, Im) argmax."""
    seeds = np.array([(s.real, s.imag) for s in _default_starts(starts)])
    vals, pts = _lockstep_nelder_mead(_radius_evaluator(sol.c, sol.d, fast_nodes),
                                      seeds, 0.1, 1e-11, 300)
    best = min(range(len(vals)), key=lambda i: (-vals[i], pts[i, 0], pts[i, 1]))
    best_pt = complex(pts[best, 0], pts[best, 1])
    return best_pt, conformal_radius_at(best_pt, sol)


def edge_integrals(sol: SurfaceSolution, ray: float = 50.0) -> dict:
    """Side lengths of the image polygon, straight from the real axis.

    Returns the rectangle height (2*I1 = 3*pi), the rectangle width
    (2*I2 = -log a), the drop between the two horizontal edges (the integral
    over [c, d], equal to pi), and the half-strip width measured as
    |Im f(-ray) - Im f(ray)| (equal to 2*pi)."""
    c, d = sol.c, sol.d
    i1 = _sum_pieces(_inner_pieces(c, d), True, 32)
    i2 = _sum_pieces(_middle_pieces(c, d), True, 32)
    i3 = _sum_pieces(_outer_pieces(c, d), True, 32)
    width = abs(map_f(complex(-ray, 0.0), sol).imag
                - map_f(complex(ray, 0.0), sol).imag)
    return {
        "rectangle_height": 2.0 * i1,
        "rectangle_width": 2.0 * i2,
        "edge_drop": 2.0 * i3,
        "strip_width": float(width),
    }


def solve_surface(a: float | None = None, nodes: int = 256,
                  starts: int = 29) -> SurfaceSolution:
    """Full pipeline: parameters, then radius maximization."""
    if a is None:
        from .slitdisk import default_threshold

        a = default_threshold()
    c, d = solve_parameters(a, nodes)
    provisional = SurfaceSolution(a, c, d, 1.0, RADIUS_PROBE, nodes)
    argmax, r0 = maximize_radius(provisional, starts=starts)
    return replace(provisional, r0=r0, argmax_z=argmax)
