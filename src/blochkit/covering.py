"""Branched-covering structure of a finite Blaschke product.

A degree-n product covers the disk n-to-1 with exactly n-1 critical points
inside the open disk (counted with multiplicity); their images are the branch
points.  This module finds the critical points (the zeros of B'), classifies
the configuration against a radius threshold ``a`` (is some branch point
outside the small disk |w| < a, or do all of them crowd inside it?), and
computes the monodromy permutations by tracking the full fiber over a base
point around each distinct critical value.   For a generic configuration every
permutation is a transposition and the sheet graph they span is a tree on n
vertices.

Root finding uses Ehrlich-Aberth simultaneous iteration with the Newton
ratio p'/p taken from the partial-fraction form of B'/B (critical points) or
of B - w (fibers), so no polynomial is ever multiplied out in the monomial
basis (Bini, Numer. Algorithms 13, 1996; Bini & Robol, MPSolve, J. Comput.
Appl. Math. 272, 2014).  Each root freezes once its relative residual
reaches rounding level, and must pass a relative residual gate of 1e-10.
Fiber tracking uses an Euler predictor with a Newton corrector and adaptive
step control, with the fibers of all loops advanced together in one
lockstep batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CollisionError,
    ContinuationError,
    DegenerateError,
    DomainError,
    RootCountError,
    StructureError,
)
from .products import ZERO_SWITCH, BlaschkeProduct, _derivative_product_rule

SLIT_DISK = "SLIT_DISK"
SURFACE_CASE = "SURFACE_CASE"
DEGENERATE = "DEGENERATE"

#: moduli within this of the threshold, or critical values within this angle of
#: a common radius, make the configuration DEGENERATE
GENERICITY_TOL = 1e-9
#: two tracked fiber paths closer than this abort the continuation
COLLISION_TOL = 1e-10

_RESIDUAL_TOL = 1e-10
_VALUE_CLUSTER_TOL = 1e-9


# ----------------------------------------------------------------------------
# root finding: Ehrlich-Aberth on partial-fraction Newton ratios
# ----------------------------------------------------------------------------

#: broadcast temporaries of the root finder and the evaluator are split into
#: row blocks of at most this many entries (a single row may exceed it)
_EVAL_BLOCK = 1 << 18
#: a root freezes once its relative residual is at most this times the number
#: of terms summed
_FREEZE_ULPS = 4.0 * np.finfo(np.float64).eps


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices covering range(rows) with at most _EVAL_BLOCK entries of width
    ``width`` each (and at least one row)."""
    step = max(1, _EVAL_BLOCK // max(width, 1))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def _ring(count: int) -> np.ndarray:
    """Aberth start points: ``count`` points evenly spaced on the circle of
    radius 0.9, with a phase offset drawn from a generator seeded with 0."""
    phase = 2.0 * math.pi * np.random.default_rng(0).random()
    return 0.9 * np.exp(1j * (2.0 * math.pi * np.arange(count) / count + phase))


def _repulsion(z: np.ndarray, idx: np.ndarray, mirrored: bool) -> np.ndarray:
    """sum over j != i of 1/(z_i - z_j) for each i in idx; with ``mirrored``
    also over the mirror images 1/conj(z_j) of every z_j, the i-th included."""
    out = np.empty(idx.size, dtype=np.complex128)
    zc = np.conjugate(z)
    for rows in _row_blocks(idx.size, z.size):
        zi = z[idx[rows], None]
        diff = zi - z
        diff[np.arange(diff.shape[0]), idx[rows]] = np.inf
        s = (1.0 / diff).sum(axis=1)
        if mirrored:
            s += (zc / (zi * zc - 1.0)).sum(axis=1)
        out[rows] = s
    return out


def aberth_roots(ratio, start, freeze_tol: float, mirrored: bool = False,
                 max_iter: int = 200, step_tol: float = 1e-13):
    """Roots of p by Ehrlich-Aberth iteration from the points ``start``.

    ``ratio(z)`` returns p'/p at the points z together with the relative
    residual of p there.  A root freezes, keeping its place in the
    repulsion sums of the others, once its residual is at most
    ``freeze_tol``; the iteration stops when every root is frozen, when the
    live roots all step less than step_tol (1 + |z|), or after max_iter
    sweeps.  With ``mirrored`` the roots of p are the iterates together with
    their mirror images 1/conj(z) in the unit circle, which enter the
    repulsion sums but are not iterated; an iterate that steps out of the
    disk is replaced by its image, so the iterates stay in the closed disk.

    Returns the roots and their relative residuals.
    """
    z = np.array(start, dtype=np.complex128)
    res = np.full(z.shape, np.inf)
    live = np.ones(z.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            idx = np.flatnonzero(live)
            if idx.size == 0:
                break
            newton, res[idx] = ratio(z[idx])
            moving = ~(res[idx] <= freeze_tol)
            live[idx[~moving]] = False
            idx, newton = idx[moving], newton[moving]
            if idx.size == 0:
                break
            step = 1.0 / (newton - _repulsion(z, idx, mirrored))
            step = np.where(np.isfinite(step), step, 0.0)
            z[idx] -= step
            if mirrored:
                out = idx[np.abs(z[idx]) > 1.0]
                z[out] = 1.0 / np.conjugate(z[out])
            if np.max(np.abs(step) / (1.0 + np.abs(z[idx]))) < step_tol:
                break
        idx = np.flatnonzero(live)
        if idx.size:
            res[idx] = ratio(z[idx])[1]
    return z, res


def _critical_ratio(zeros: np.ndarray, mult: np.ndarray):
    """p'/p and the relative residual of g = B'/B at points z, for p the
    numerator of g written over the distinct zeros with their multiplicities:

        g = sum_k t_k,   t_k = m_k (1 - |a_k|^2) / ((z - a_k)(1 - conj(a_k) z)),
        p'/p = g'/g + sum_k [1/(z - a_k) - conj(a_k)/(1 - conj(a_k) z)],

    with g' = -sum_k t_k [1/(z - a_k) - conj(a_k)/(1 - conj(a_k) z)].  The
    residual is |g| over the sum of the |t_k|.
    """
    conj = np.conjugate(zeros)
    weight = mult * (1.0 - np.abs(zeros) ** 2)

    def ratio(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        newton = np.empty(z.size, dtype=np.complex128)
        res = np.empty(z.size)
        for rows in _row_blocks(z.size, zeros.size):
            x = z[rows, None]
            e = 1.0 / (x - zeros)
            f = 1.0 / (1.0 - conj * x)
            t = weight * e * f
            u = e - conj * f
            g = t.sum(axis=1)
            newton[rows] = u.sum(axis=1) - (t * u).sum(axis=1) / g
            res[rows] = np.abs(g) / np.abs(t).sum(axis=1)
        return newton, res

    return ratio


def _lex_sort(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points.imag, points.real))
    return points[order]


def critical_points(B: BlaschkeProduct) -> tuple[complex, ...]:
    """The n-1 zeros of B' in the open disk, lexicographically sorted.

    A zero of multiplicity m contributes m - 1 critical points at itself; the
    others are the zeros of g = B'/B.  Over d distinct zeros the numerator of
    g has 2d - 2 roots, d - 1 in the disk and their mirror images outside, so
    Aberth iterates d - 1 of them with the images standing in for the rest.

    Raises RootCountError when the in-disk count is off or a root fails the
    relative residual check; both signal a numerically hostile configuration,
    not a math fact.
    """
    if B.degree < 2:
        raise DomainError("critical points need degree >= 2")
    zeros, mult = np.unique(B.zeros_array, return_counts=True)
    roots = np.empty(0, dtype=np.complex128)
    if zeros.size > 1:
        roots, res = aberth_roots(_critical_ratio(zeros, mult), _ring(zeros.size - 1),
                                  _FREEZE_ULPS * zeros.size, mirrored=True)
        bad = ~(res <= _RESIDUAL_TOL)
        if bad.any():
            raise RootCountError(
                f"{int(bad.sum())} root(s) of the derivative numerator failed the "
                f"residual check"
            )
    inside = np.concatenate([roots[np.abs(roots) < 1.0], np.repeat(zeros, mult - 1)])
    if inside.size != B.degree - 1:
        raise RootCountError(
            f"expected {B.degree - 1} critical points in the disk, found {inside.size}"
        )
    return tuple(map(complex, _lex_sort(inside)))


# ----------------------------------------------------------------------------
# fused evaluation (no domain checks; tracking may poke just outside the disk)
# ----------------------------------------------------------------------------

def _evaluator(B: BlaschkeProduct):
    """``f(z) -> (B(z), B'(z))`` for an m x n array z of fibers.

    One broadcast pass over the Moebius factors (z - z_j) / (1 - conj(z_j) z),
    stacked along a leading axis of zeros, gives B and the log-derivative sum
    together; entries within ZERO_SWITCH of a zero, where that sum collapses,
    take the product rule instead.  Rows go through in blocks of under
    _EVAL_BLOCK broadcast entries.  Callers silence the floating-point
    warnings of points sitting on a zero.
    """
    zeros = B.zeros_array[:, None, None]
    conj = np.conjugate(zeros)
    weight = 1.0 - np.abs(zeros) ** 2
    lam = complex(B.rotation)

    def evaluate(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value = np.empty(z.shape, dtype=np.complex128)
        der = np.empty(z.shape, dtype=np.complex128)
        for rows in _row_blocks(z.shape[0], z.shape[1] * zeros.size):
            x = z[rows]
            num = x - zeros
            den = 1.0 - conj * x
            value[rows] = lam * np.multiply.reduce(num / den)
            der[rows] = value[rows] * np.add.reduce(weight / (num * den))
            near = np.minimum.reduce(num.real**2 + num.imag**2) <= ZERO_SWITCH**2
            if near.any():
                der[rows][near] = _derivative_product_rule(B, x[near])
        return value, der

    return evaluate


# ----------------------------------------------------------------------------
# fibers
# ----------------------------------------------------------------------------

def _fiber_ratio(B: BlaschkeProduct, w: complex):
    """p'/p and the relative residual at points z for p = lam N - w D, with
    B = lam N / D:  p'/p = -sum_j conj(a_j)/(1 - conj(a_j) z) + B'/(B - w).

    The residual is |B - w| over |w| + |B| + |B'|, the last term being the
    rounding of a point of the closed disk pushed through B'.
    """
    evaluate = _evaluator(B)
    conj = np.conjugate(B.zeros_array)

    def ratio(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value, der = (part[:, 0] for part in evaluate(z[:, None]))
        pole = np.empty(z.size, dtype=np.complex128)
        for rows in _row_blocks(z.size, conj.size):
            pole[rows] = (conj / (1.0 - conj * z[rows, None])).sum(axis=1)
        r = value - w
        return der / r - pole, np.abs(r) / (abs(w) + np.abs(value) + np.abs(der))

    return ratio


def fiber_solve(B: BlaschkeProduct, w: complex) -> np.ndarray:
    """All n solutions of B(z) = w for |w| < 1; they all lie in the open disk."""
    if abs(w) >= 1.0:
        raise DomainError("fiber points exist in the disk only for |w| < 1")
    roots, res = aberth_roots(_fiber_ratio(B, w), _ring(B.degree),
                              _FREEZE_ULPS * B.degree)
    if not np.all(res <= _RESIDUAL_TOL):
        raise RootCountError("fiber polynomial solve failed the residual check")
    if np.any(np.abs(roots) >= 1.0):
        raise RootCountError(
            f"expected {B.degree} fiber points in the disk over w={w!r}"
        )
    return _lex_sort(roots)


# ----------------------------------------------------------------------------
# lockstep fiber tracking
# ----------------------------------------------------------------------------

_H_START = 1.0 / 16.0   # step in t at the start of every piece of a route
_H_MAX = 0.125
_H_MIN = 1e-8           # a step below this aborts the continuation
_NEWTON_MAX = 4         # a corrector needing more iterations rejects the step
_NEWTON_EASY = 2        # a corrector needing at most this many doubles the step
_NEWTON_TOL = 1e-12     # residual floor of the corrector
_NEWTON_ULPS = 8.0 * np.finfo(np.float64).eps
_MAX_MOVE = 0.4         # per step, as a fraction of the fiber's minimal separation


def _min_separation(z: np.ndarray) -> np.ndarray:
    """Smallest distance between two points in each row of z."""
    d = np.abs(z[:, :, None] - z[:, None, :])
    k = np.arange(z.shape[1])
    d[:, k, k] = np.inf
    return d.min(axis=(1, 2))


def _newton(evaluate, z: np.ndarray, w: np.ndarray):
    """Newton on B(z) = w[i] for each row i of z, a fiber; returns (z, B'(z), iters, ok).

    A row stops at its first iterate where every point has |B(z) - w| <=
    max(1e-12, 8 eps |z| |B'(z)|), i.e. within one ulp of z pushed through
    B': near a zero close to the circle |B'| is large and an absolute 1e-12
    lies below rounding.  A row that needs more than _NEWTON_MAX updates, or
    whose derivative or iterate breaks down, is not ok.  Stopped rows are
    evaluated again at the same point, which keeps their B'.
    """
    iters = np.zeros(z.shape[0], dtype=np.int64)
    live = np.ones(z.shape[0], dtype=bool)
    ok = np.zeros(z.shape[0], dtype=bool)
    for it in range(_NEWTON_MAX + 1):
        value, der = evaluate(z)
        r = value - w[:, None]
        size = np.abs(der)
        done = (np.abs(r) <= np.fmax(_NEWTON_TOL, _NEWTON_ULPS * np.abs(z) * size)).all(axis=1)
        ok |= live & done
        live &= ~done
        if it == _NEWTON_MAX or not live.any():
            break
        step = z - r / der
        live &= (np.isfinite(der) & (size >= 1e-300)
                 & np.isfinite(step) & (np.abs(step) <= 1.2)).all(axis=1)
        z = np.where(live[:, None], step, z)
        iters += live
    return z, der, iters, ok


def _track_routes(B: BlaschkeProduct, base: np.ndarray, routes: list[list[tuple]]):
    """Continue the base fiber along every route at once, in lockstep.

    A route is a list of pieces w(t), t in [0, 1], made by _segment and
    _circle.  Row l of the L x n state is the fiber over route l, with its own
    piece, t, step h and last accepted w; an active mask drops the rows that
    are done.  Per row: Euler predictor
    dz = dw / B'(z), Newton corrector; the step halves when the corrector
    fails or needs more than 4 iterations, or a sheet moves more than 0.4 of
    the fiber's minimal separation, and doubles (up to 0.125) after at most
    2 iterations; every piece starts at h = 1/16.  The B' of the accepted
    corrector iterate serves the next predictor.

    Returns the end fibers and, per route, the error that stopped it or
    None.  A failure drops the later routes as well: a caller going through
    the routes in order raises before it reaches them.
    """
    evaluate = _evaluator(B)
    counts = [len(route) for route in routes]
    start, delta, radius, angle, circle = map(
        np.array, zip(*[piece for route in routes for piece in route]))
    end = np.cumsum(counts)
    piece = end - counts

    def w_at(g, t):
        theta = angle[g] + 2.0 * math.pi * t
        return np.where(circle[g], start[g] + radius[g] * (np.cos(theta) + 1j * np.sin(theta)),
                        start[g] + t * delta[g])

    L = len(routes)
    errors: list[Exception | None] = [None] * L
    stop = L  # the first failed route; it and all later ones are dropped
    with np.errstate(all="ignore"):
        z = np.tile(base, (L, 1))
        der = np.tile(evaluate(base[None, :])[1], (L, 1))
        sep = np.full(L, _min_separation(base[None, :])[0])
        t = np.zeros(L)
        h = np.full(L, _H_START)
        w_prev = w_at(piece, t)
        active = np.ones(L, dtype=bool)
        while active.any():
            rows = np.nonzero(active)[0]
            h[rows] = np.minimum(h[rows], 1.0 - t[rows])
            t_new = t[rows] + h[rows]
            w_new = w_at(piece[rows], t_new)
            z0 = z[rows]
            pred = z0 + (w_new - w_prev[rows])[:, None] / der[rows]
            pred = np.where(np.isfinite(pred), pred, z0)
            z1, d1, iters, ok = _newton(evaluate, pred, w_new)
            # a sheet may only move a fraction of the fiber's minimal
            # separation per step, otherwise Newton can silently converge to a
            # neighbouring sheet near a critical fiber and scramble the
            # permutation without tripping the collision check
            ok &= ~(np.abs(z1 - z0).max(axis=1) > _MAX_MOVE * sep[rows])

            rejected = rows[~ok]
            h[rejected] *= 0.5
            for row in rejected[h[rejected] < _H_MIN]:
                errors[row] = ContinuationError("fiber tracking step size underflow")
                stop = min(stop, row)

            good = np.flatnonzero(ok)
            new_sep = _min_separation(z1[good])
            collided = new_sep < COLLISION_TOL
            for row in rows[good[collided]]:
                errors[row] = CollisionError("two fiber paths collided during tracking")
                stop = min(stop, row)
            keep = good[~collided]
            acc = rows[keep]
            z[acc] = z1[keep]
            der[acc] = d1[keep]
            sep[acc] = new_sep[~collided]
            w_prev[acc] = w_new[keep]
            t[acc] = t_new[keep]
            easy = acc[iters[keep] <= _NEWTON_EASY]
            h[easy] = np.minimum(2.0 * h[easy], _H_MAX)

            finished = acc[~(t[acc] < 1.0 - 1e-15)]
            piece[finished] += 1
            active[finished[piece[finished] == end[finished]]] = False
            nxt = finished[piece[finished] < end[finished]]
            t[nxt] = 0.0
            h[nxt] = _H_START
            w_prev[nxt] = w_at(piece[nxt], t[nxt])
            active[stop:] = False
    return z, errors


def _segment_waypoints(w0: complex, w1: complex,
                       obstacles: list[tuple[complex, float]]) -> list[complex]:
    """Waypoints for w0 -> w1 detouring around (center, clearance) obstacles.

    Each detour point sits on the ray from the obstacle center through the
    closest point of the chord, i.e. on the same side of the obstacle as the
    straight segment.  That keeps the homotopy class of the route, gives the
    replacement legs real clearance, and produces the identical polyline for
    both traversal directions (an asymmetric in/out route would silently
    multiply the loop permutation by another branch point's monodromy).
    """
    d = w1 - w0
    L = abs(d)
    if L == 0.0:
        return [w0, w1]
    u = d / L
    detours = []
    for center, clear in obstacles:
        s = ((center - w0) / u).real
        if 0.0 < s < L:
            foot = w0 + s * u
            gap = abs(center - foot)
            if gap < clear:
                if gap < 1e-14 * max(1.0, L):
                    # chord through the center: either side works, pick one
                    # independently of the traversal direction
                    canon = u if (u.real, u.imag) > (-u.real, -u.imag) else -u
                    out_dir = 1j * canon
                else:
                    out_dir = (foot - center) / gap
                detours.append((s, center + 1.5 * clear * out_dir))
    detours.sort(key=lambda item: item[0])
    return [w0, *[pick for _, pick in detours], w1]


def _cluster_values(values: np.ndarray) -> list[np.ndarray]:
    """Group near-equal critical values (single-link within 1e-9)."""
    idx = list(range(values.size))
    groups: list[list[int]] = []
    for i in idx:
        placed = False
        for g in groups:
            if any(abs(values[i] - values[j]) <= _VALUE_CLUSTER_TOL for j in g):
                g.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    return [values[np.array(g)] for g in groups]


def monodromy(B: BlaschkeProduct, base_point: complex | None = None,
              loop_radius_factor: float = 0.25):
    """Loop permutations of the base fiber around each distinct critical value.

    Returns a list of (critical value, permutation) pairs, permutation[i] being
    the index of the base fiber point that the path starting at base index i
    lands on after the loop.  Deterministic: clusters are visited in
    lexicographic order and the base fiber is lexicographically indexed.
    """
    return _monodromy(B, base_point, loop_radius_factor)


def _monodromy(B: BlaschkeProduct, base_point: complex | None, loop_radius_factor: float,
               values=None):
    """``monodromy``, taking the critical values from a caller that already has them."""
    if not (0.0 < loop_radius_factor <= 0.5):
        raise DomainError("loop_radius_factor must lie in (0, 0.5]")
    if values is None:
        values = _values_of(B, critical_points(B))
    clusters = _cluster_values(np.asarray(values, dtype=np.complex128))
    centers = np.array([g.mean() for g in clusters])
    order = np.lexsort((centers.imag, centers.real))
    centers = centers[order]

    w_star = _default_base_point(centers) if base_point is None else complex(base_point)
    if abs(w_star) >= 1.0:
        raise DomainError("base point must lie in the open disk")
    if np.min(np.abs(centers - w_star)) < _BASE_CLEARANCE:
        raise DomainError("base point coincides with a critical value")

    base = fiber_solve(B, w_star)
    sep = np.abs(base[:, None] - base[None, :])
    np.fill_diagonal(sep, np.inf)
    match_tol = 0.45 * sep.min()

    radii = np.empty(centers.size)
    for i, v in enumerate(centers):
        others = np.delete(np.abs(centers - v), i)
        gap = others.min() if others.size else np.inf
        radii[i] = loop_radius_factor * min(gap, 1.0 - abs(v))

    routes = []
    for i, v in enumerate(centers):
        rho = radii[i]
        direction = (w_star - v) / abs(w_star - v)
        q = v + rho * direction
        obstacles = [(complex(centers[j]), 0.5 * radii[j])
                     for j in range(centers.size) if j != i]
        theta0 = math.atan2(direction.imag, direction.real)
        routes.append(
            [_segment(w0, w1) for w0, w1 in _pairs(_segment_waypoints(w_star, q, obstacles))]
            + [_circle(v, rho, theta0)]
            + [_segment(w0, w1) for w0, w1 in _pairs(_segment_waypoints(q, w_star, obstacles))])
    ends, errors = _track_routes(B, base, routes)
    out = []
    for v, fiber, error in zip(centers, ends, errors):
        if error is not None:
            raise error
        out.append((complex(v), _match_permutation(base, fiber, match_tol)))
    return out


def _values_of(B, pts):
    from .products import evaluate

    vals = np.asarray([evaluate(B, z) for z in pts], dtype=np.complex128)
    if np.any(np.abs(vals) >= 1.0 + 1e-12):
        raise StructureError("a critical value left the closed disk")
    return vals


_BASE_CLEARANCE = 1e-6  # least distance from the base point to a critical value


def _default_base_point(centers: np.ndarray) -> complex:
    """0 when it is clear of every critical value, else the first candidate on
    a small ring that is clear of them and of their outward radii."""
    if np.all(np.abs(centers) >= _BASE_CLEARANCE):
        return 0.0 + 0.0j
    from .slitdisk import default_threshold

    base_mod = 0.5 * default_threshold()
    for extra in (0.0, 0.37, 0.74, 1.11, 1.48, 1.85):
        cand = base_mod * complex(math.cos(extra), math.sin(extra))
        if np.min(np.abs(centers - cand)) < _BASE_CLEARANCE:
            continue
        on_slit = False
        for v in centers:
            if abs(v) <= 1e-12:
                continue
            dphi = abs(math.remainder(math.atan2(cand.imag, cand.real)
                                      - math.atan2(v.imag, v.real), 2.0 * math.pi))
            if dphi < 1e-6 and abs(cand) >= abs(v):
                on_slit = True
                break
        if not on_slit:
            return cand
    raise DegenerateError("no admissible base point found off the critical radii")


def _pairs(seq):
    return list(zip(seq[:-1], seq[1:]))


def _segment(w0: complex, w1: complex) -> tuple:
    """The route piece w0 + t (w1 - w0): (start, delta, radius, angle, is circle)."""
    return (w0, w1 - w0, 0.0, 0.0, False)


def _circle(center: complex, rho: float, theta0: float) -> tuple:
    """The route piece center + rho exp(i (theta0 + 2 pi t)), laid out as _segment's."""
    return (center, 0j, rho, theta0, True)


def _match_permutation(base: np.ndarray, final: np.ndarray, tol: float) -> tuple[int, ...]:
    n = base.size
    perm = [-1] * n
    used = set()
    for i in range(n):
        d = np.abs(base - final[i])
        j = int(np.argmin(d))
        if d[j] > tol or j in used:
            raise ContinuationError("fiber endpoints did not match the base fiber")
        used.add(j)
        perm[i] = j
    return tuple(perm)


# ----------------------------------------------------------------------------
# classification and the sheet graph
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringReport:
    critical_points: tuple[complex, ...]
    critical_values: tuple[complex, ...]
    max_critical_modulus: float
    case_label: str
    monodromy: tuple = ()
    sheet_edges: tuple = ()
    distinguished_sheet: int | None = None

    def to_json(self) -> dict:
        return {
            "critical_points": [[z.real, z.imag] for z in self.critical_points],
            "critical_values": [[v.real, v.imag] for v in self.critical_values],
            "max_critical_modulus": self.max_critical_modulus,
            "case_label": self.case_label,
            "monodromy": [
                {"critical_value": [v.real, v.imag], "permutation": cycle_string(p)}
                for v, p in self.monodromy
            ],
            "sheet_edges": [[i + 1, j + 1, k] for i, j, k in self.sheet_edges],
            "distinguished_sheet": (
                None if self.distinguished_sheet is None else self.distinguished_sheet + 1
            ),
        }


def cycle_string(perm: tuple[int, ...]) -> str:
    """One-line cycle notation on 1-based sheet labels; identity is '()'."""
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "()"


def classify(B: BlaschkeProduct, a: float) -> CoveringReport:
    """Label the configuration against the radius threshold a (no monodromy).

    SLIT_DISK when some critical value has modulus > a, SURFACE_CASE when all
    stay below, DEGENERATE when a modulus sits within 1e-9 of a or two nonzero
    critical values share a radius within 1e-9 of angle.  Zero critical values
    lie on every radius and are exempt from the angular test (z^n stays
    SURFACE_CASE for every n).
    """
    if not (0.0 < a < 1.0):
        raise DomainError("threshold must satisfy 0 < a < 1")
    if B.degree < 2:
        return CoveringReport((), (), 0.0, SURFACE_CASE)
    pts = critical_points(B)
    vals = _values_of(B, pts)
    mods = np.abs(vals)
    label = SLIT_DISK if mods.max() > a else SURFACE_CASE
    if np.any(np.abs(mods - a) <= GENERICITY_TOL):
        label = DEGENERATE
    else:
        nz = vals[mods > 1e-12]
        args = np.angle(nz)
        for i in range(nz.size):
            for j in range(i + 1, nz.size):
                if abs(math.remainder(args[i] - args[j], 2.0 * math.pi)) <= GENERICITY_TOL:
                    label = DEGENERATE
    return CoveringReport(pts, tuple(map(complex, vals)), float(mods.max()), label)


def sheet_tree(report: CoveringReport) -> tuple[tuple[int, int, int], ...]:
    """Edges (i, j, value_index) of the sheet graph; requires transpositions.

    For a generic configuration the n-1 transpositions span a tree on the n
    sheets; a cycle or a disconnected graph raises StructureError.
    """
    if not report.monodromy:
        raise StructureError("report carries no monodromy data")
    n = len(report.monodromy[0][1])
    edges = []
    for k, (_v, perm) in enumerate(report.monodromy):
        moved = [i for i in range(n) if perm[i] != i]
        if len(moved) != 2 or perm[moved[0]] != moved[1] or perm[moved[1]] != moved[0]:
            raise StructureError(
                "monodromy permutation is not a transposition; configuration "
                "is not generic"
            )
        edges.append((min(moved), max(moved), k))
    if len(edges) != n - 1:
        raise StructureError(f"expected {n - 1} edges, got {len(edges)}")
    adj = {i: [] for i in range(n)}
    for i, j, _k in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != n:
        raise StructureError("sheet graph is not connected")
    return tuple(edges)


def distinguished_sheet(edges, n: int) -> int:
    """Second vertex of a maximal path of the tree (double-BFS diameter)."""
    adj = {i: [] for i in range(n)}
    for i, j, _k in edges:
        adj[i].append(j)
        adj[j].append(i)

    def farthest(src):
        dist = {src: 0}
        parent = {src: None}
        queue = [src]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
        far = max(dist, key=lambda v: (dist[v], v))
        return far, parent

    u, _ = farthest(0)
    v, parent = farthest(u)
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()  # runs from u to v
    return path[1] if len(path) > 1 else path[0]


def _transitive(perms, n: int) -> bool:
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop()
        for p in perms:
            v = p[u]
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def analyze(B: BlaschkeProduct, a: float | None = None,
            base_point: complex | None = None, loop_radius_factor: float = 0.25,
            perturb: bool = False, seed: int = 0) -> CoveringReport:
    """Full covering report: classification, monodromy, sheet tree.

    ``perturb`` rotates every zero by an independent angle of magnitude at most
    1e-7 (seeded) before analyzing; this is the documented escape hatch for
    DEGENERATE configurations.  Monodromy is skipped for DEGENERATE inputs and
    for degree 1; the sheet tree is filled only when every permutation is a
    transposition (the z^n family yields a single n-cycle instead).
    """
    if a is None:
        from .slitdisk import default_threshold

        a = default_threshold()
    if perturb:
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-1e-7, 1e-7, B.degree)
        zeros = tuple(z * complex(math.cos(t), math.sin(t))
                      for z, t in zip(B.zeros, angles))
        B = BlaschkeProduct(zeros, B.rotation, margin=0.0)
    report = classify(B, a)
    if report.case_label == DEGENERATE or B.degree < 2:
        return report
    loops = tuple(_monodromy(B, base_point, loop_radius_factor, report.critical_values))
    if not _transitive([p for _v, p in loops], B.degree):
        raise StructureError("monodromy group does not act transitively")
    edges: tuple = ()
    sheet = None
    if all(_is_transposition(p) for _v, p in loops):
        tmp = CoveringReport(report.critical_points, report.critical_values,
                             report.max_critical_modulus, report.case_label, loops)
        edges = sheet_tree(tmp)
        sheet = distinguished_sheet(edges, B.degree)
    return CoveringReport(report.critical_points, report.critical_values,
                          report.max_critical_modulus, report.case_label,
                          loops, edges, sheet)


def _is_transposition(perm) -> bool:
    moved = [i for i in range(len(perm)) if perm[i] != i]
    return (len(moved) == 2 and perm[moved[0]] == moved[1]
            and perm[moved[1]] == moved[0])
