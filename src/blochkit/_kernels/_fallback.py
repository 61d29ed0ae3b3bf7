"""Pure-numpy kernel backend.

Runs every simplex in the multistart *simultaneously*: the Nelder-Mead control
flow is expressed through boolean masks so each of the k simplices follows
exactly the branch logic of the scalar compiled kernel (``_ckernel.c``), while
every objective evaluation is a single vectorized sweep over all active
simplices.  The whole seminorm search, from the boundary scan of
``products.boundary_peaks`` to the restart, is the reference that the
compiled ``seminorm_search`` follows step by step.  Fiber tracking works the
same way as the simplices: the fibers of all routes move in one lockstep
L x n batch, each row under the per-route rules that the compiled kernel
applies to one route at a time.  The critical points are
found by mirrored Ehrlich-Aberth iteration on all live roots at once, in row
blocks; ``covering.fiber_solve`` runs the same driver on its fibers, without
mirroring.
"""

from __future__ import annotations

import math

import numpy as np

from ..products import _boundary_peaks, _row_blocks, _value_and_derivative

_ALPHA, _GAMMA, _RHO, _SIGMA = 1.0, 2.0, 0.5, 0.5
#: the starts (1 - t/|B'(zeta)|) zeta toward each boundary peak zeta
PEAK_OFFSETS = (0.25, 0.5, 1.0)


def _objective(zeros: np.ndarray, lam: complex, pts: np.ndarray, f_kind: int,
               barrier_radius: float) -> np.ndarray:
    pts = np.asarray(pts, dtype=np.complex128)
    out = np.full(pts.shape, -1.0)
    r2 = pts.real**2 + pts.imag**2
    ok = r2 < barrier_radius * barrier_radius
    if not ok.any():
        return out
    value, der = _value_and_derivative(zeros, lam, pts[ok])
    if f_kind == 0:
        fp = 1.0
    elif f_kind == 1:
        u2 = np.abs(1.0 - value) ** 2
        fp = 1.0 / np.maximum(u2, 1e-250)
    else:
        fp = np.abs(1.0 + value)
    out[ok] = fp * np.abs(der) * (1.0 - r2[ok])
    return out


def _check_kind(f_kind) -> None:
    if int(f_kind) not in (0, 1, 2):
        raise ValueError(f"unknown catalog kind {f_kind}")


def refine_starts(zeros, lam, starts, scales, f_kind, max_iter, ftol, barrier_radius):
    """One Nelder-Mead maximization pass per start; all simplices in lockstep."""
    _check_kind(f_kind)
    # points sitting on a zero divide by zero in the log-derivative sum; the
    # product rule replaces those values, so the warnings carry no news
    with np.errstate(divide="ignore", invalid="ignore"):
        return _refine_starts(zeros, lam, starts, scales, f_kind, max_iter, ftol,
                              barrier_radius)


def _refine_starts(zeros, lam, starts, scales, f_kind, max_iter, ftol, barrier_radius):
    zeros = np.ascontiguousarray(zeros, dtype=np.complex128)
    starts = np.asarray(starts, dtype=np.complex128).ravel()
    scales = np.asarray(scales, dtype=np.float64).ravel()
    lam = complex(lam)
    k = starts.size
    b2 = float(barrier_radius)

    def f(pts):
        return _objective(zeros, lam, pts, int(f_kind), b2)

    V = np.empty((k, 3), dtype=np.complex128)
    V[:, 0] = starts
    v1 = starts + scales
    flip = np.abs(v1) >= b2
    v1[flip] = starts[flip] - scales[flip]
    v2 = starts + 1j * scales
    flip = np.abs(v2) >= b2
    v2[flip] = starts[flip] - 1j * scales[flip]
    V[:, 1] = v1
    V[:, 2] = v2
    F = f(V.ravel()).reshape(k, 3)
    iters = np.zeros(k, dtype=np.int64)
    active = np.ones(k, dtype=bool)

    for _ in range(int(max_iter)):
        order = np.argsort(-F, axis=1, kind="stable")
        V = np.take_along_axis(V, order, axis=1)
        F = np.take_along_axis(F, order, axis=1)
        active &= (F[:, 0] - F[:, 2]) > ftol
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        iters[idx] += 1
        v = V[idx]
        fv = F[idx]
        c = 0.5 * (v[:, 0] + v[:, 1])
        xr = c + _ALPHA * (c - v[:, 2])
        fr = f(xr)
        new_v = xr.copy()
        new_f = fr.copy()
        shrink = np.zeros(idx.size, dtype=bool)

        expand = fr > fv[:, 0]
        if expand.any():
            xe = c[expand] + _GAMMA * (xr[expand] - c[expand])
            fe = f(xe)
            better = fe > fr[expand]
            new_v[expand] = np.where(better, xe, xr[expand])
            new_f[expand] = np.where(better, fe, fr[expand])

        contract = fr <= fv[:, 1]
        outside = contract & (fr > fv[:, 2])
        if outside.any():
            xc = c[outside] + _RHO * (xr[outside] - c[outside])
            fc = f(xc)
            acc = fc >= fr[outside]
            new_v[outside] = np.where(acc, xc, new_v[outside])
            new_f[outside] = np.where(acc, fc, new_f[outside])
            shrink[outside] = ~acc
        inside = contract & ~(fr > fv[:, 2])
        if inside.any():
            xc = c[inside] + _RHO * (v[inside, 2] - c[inside])
            fc = f(xc)
            acc = fc > fv[inside, 2]
            new_v[inside] = np.where(acc, xc, new_v[inside])
            new_f[inside] = np.where(acc, fc, new_f[inside])
            shrink[inside] = ~acc

        keep = ~shrink
        v[keep, 2] = new_v[keep]
        fv[keep, 2] = new_f[keep]
        if shrink.any():
            s = np.nonzero(shrink)[0]
            v[s, 1] = v[s, 0] + _SIGMA * (v[s, 1] - v[s, 0])
            v[s, 2] = v[s, 0] + _SIGMA * (v[s, 2] - v[s, 0])
            fs = f(np.concatenate([v[s, 1], v[s, 2]]))
            fv[s, 1] = fs[: s.size]
            fv[s, 2] = fs[s.size:]
        V[idx] = v
        F[idx] = fv

    best = np.argmax(F, axis=1)
    rows = np.arange(k)
    return F[rows, best].copy(), V[rows, best].copy(), iters


# ----------------------------------------------------------------------------
# the whole seminorm search
# ----------------------------------------------------------------------------

def _peak_starts(zeros: np.ndarray) -> np.ndarray:
    """(1 - t/|B'(zeta)|) zeta for each boundary peak zeta and t in
    PEAK_OFFSETS, peak by peak; a t at or above the peak's |B'| gives no
    point of the open radius from 0 to zeta and is left out."""
    theta, modulus, _ = _boundary_peaks(zeros)
    radius = 1.0 - np.divide.outer(PEAK_OFFSETS, modulus).T
    points = radius * np.exp(1j * theta)[:, None]
    return points[radius > 0.0]


def _start_points(zeros: np.ndarray) -> np.ndarray:
    """The deduplicated starts, each at its first occurrence, in the order
    origin, zeros, boundary-peak starts."""
    points = np.concatenate([[0.0 + 0.0j], zeros, _peak_starts(zeros)])
    _, first = np.unique(points, return_index=True)
    return points[np.sort(first)]


def _scales(starts: np.ndarray) -> np.ndarray:
    return np.minimum(0.1, 0.5 * (1.0 - np.abs(starts)))


def _argbest(vals: np.ndarray, pts: np.ndarray) -> int:
    """Index of the maximal value; exact ties go to the lexicographically
    smallest (Re, Im) argmax so the reduction is order-independent."""
    top = np.max(vals)
    tied = np.nonzero(vals == top)[0]
    if tied.size == 1:
        return int(tied[0])
    keys = sorted((pts[i].real, pts[i].imag, int(i)) for i in tied)
    return keys[0][2]


def seminorm_search(zeros, lam, f_kind, max_iter, ftol, barrier_radius):
    """The multistart search: one refine_starts pass over the starts of
    _start_points, then one from the best point at a tenth of its scale;
    returns (value, argmax, starts, iterations) of the best of all passes."""
    _check_kind(f_kind)
    starts = _start_points(zeros)
    vals, pts, iters = refine_starts(zeros, lam, starts, _scales(starts), f_kind, max_iter,
                                     ftol, barrier_radius)
    best = _argbest(vals, pts)
    total_iters = int(np.sum(iters))
    restart = np.array([pts[best]], dtype=np.complex128)
    rvals, rpts, riters = refine_starts(zeros, lam, restart, _scales(restart) * 0.1, f_kind,
                                        max_iter, ftol, barrier_radius)
    total_iters += int(riters[0])
    all_vals = np.concatenate([vals, rvals])
    all_pts = np.concatenate([pts, rpts])
    winner = _argbest(all_vals, all_pts)
    return (float(all_vals[winner]), complex(all_pts[winner]), starts.size + 1, total_iters)


# ----------------------------------------------------------------------------
# fiber tracking
# ----------------------------------------------------------------------------

TRACKED, UNDERFLOW, COLLISION, NOT_TRACKED = 0, 1, 2, 3


def _min_separation(z: np.ndarray) -> np.ndarray:
    """Smallest distance between two points in each row of z."""
    d = np.abs(z[:, :, None] - z[:, None, :])
    k = np.arange(z.shape[1])
    d[:, k, k] = np.inf
    return d.min(axis=(1, 2))


def _newton(zeros, lam, z: np.ndarray, w: np.ndarray, newton_max: int, tol: float,
            ulps: float):
    """Newton on B(z) = w[i] for each row i of z, a fiber; returns (z, B'(z), iters, ok).

    A row stops at its first iterate where every point has |B(z) - w| <=
    max(tol, ulps |z| |B'(z)|), i.e. within one ulp of z pushed through B':
    near a zero close to the circle |B'| is large and an absolute tolerance
    lies below rounding.  A row that needs more than newton_max updates, or
    whose derivative or iterate breaks down, is not ok.  Stopped rows are
    evaluated again at the same point, which keeps their B'.
    """
    iters = np.zeros(z.shape[0], dtype=np.int64)
    live = np.ones(z.shape[0], dtype=bool)
    ok = np.zeros(z.shape[0], dtype=bool)
    for it in range(newton_max + 1):
        value, der = _value_and_derivative(zeros, lam, z)
        r = value - w[:, None]
        size = np.abs(der)
        done = (np.abs(r) <= np.fmax(tol, ulps * np.abs(z) * size)).all(axis=1)
        ok |= live & done
        live &= ~done
        if it == newton_max or not live.any():
            break
        step = z - r / der
        live &= (np.isfinite(der) & (size >= 1e-300)
                 & np.isfinite(step) & (np.abs(step) <= 1.2)).all(axis=1)
        z = np.where(live[:, None], step, z)
        iters += live
    return z, der, iters, ok


def track_routes(zeros, lam, base, pieces, counts, rules):
    """Continue the base fiber along every route at once, in lockstep.

    Row l of the L x n state is the fiber over route l, with its own piece,
    t, step h and last accepted w; an active mask drops the rows that are
    done.  The per-row rules are those of ``_ckernel.c``'s ``track_route``.
    The first failed route stops the later ones, which are NOT_TRACKED
    whatever they reached.
    """
    (h_start, h_max, h_min, newton_max, newton_easy, newton_tol, newton_ulps, max_move,
     collision_tol) = rules
    zeros = np.ascontiguousarray(zeros, dtype=np.complex128)
    lam = complex(lam)
    base = np.asarray(base, dtype=np.complex128)
    start, delta, radius, angle, circle = (np.asarray(a) for a in pieces)
    counts = np.asarray(counts, dtype=np.int64)
    end = np.cumsum(counts)
    piece = end - counts

    def w_at(g, t):
        theta = angle[g] + 2.0 * math.pi * t
        return np.where(circle[g], start[g] + radius[g] * (np.cos(theta) + 1j * np.sin(theta)),
                        start[g] + t * delta[g])

    L = counts.size
    status = np.full(L, TRACKED, dtype=np.int64)
    stop = L  # the first failed route; it and all later ones are dropped
    with np.errstate(all="ignore"):
        z = np.tile(base, (L, 1))
        der = np.tile(_value_and_derivative(zeros, lam, base)[1], (L, 1))
        sep = np.full(L, _min_separation(base[None, :])[0])
        t = np.zeros(L)
        h = np.full(L, h_start)
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
            z1, d1, iters, ok = _newton(zeros, lam, pred, w_new, newton_max, newton_tol,
                                        newton_ulps)
            ok &= ~(np.abs(z1 - z0).max(axis=1) > max_move * sep[rows])

            rejected = rows[~ok]
            h[rejected] *= 0.5
            for row in rejected[h[rejected] < h_min]:
                status[row] = UNDERFLOW
                stop = min(stop, row)

            good = np.flatnonzero(ok)
            new_sep = _min_separation(z1[good])
            collided = new_sep < collision_tol
            for row in rows[good[collided]]:
                status[row] = COLLISION
                stop = min(stop, row)
            keep = good[~collided]
            acc = rows[keep]
            z[acc] = z1[keep]
            der[acc] = d1[keep]
            sep[acc] = new_sep[~collided]
            w_prev[acc] = w_new[keep]
            t[acc] = t_new[keep]
            easy = acc[iters[keep] <= newton_easy]
            h[easy] = np.minimum(2.0 * h[easy], h_max)

            finished = acc[~(t[acc] < 1.0 - 1e-15)]
            piece[finished] += 1
            active[finished[piece[finished] == end[finished]]] = False
            nxt = finished[piece[finished] < end[finished]]
            t[nxt] = 0.0
            h[nxt] = h_start
            w_prev[nxt] = w_at(piece[nxt], t[nxt])
            active[stop:] = False
    status[stop + 1:] = NOT_TRACKED
    return z, status


# ----------------------------------------------------------------------------
# critical points: Ehrlich-Aberth on partial-fraction Newton ratios
# ----------------------------------------------------------------------------

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


def _aberth(ratio, start, freeze_tol: float, mirrored: bool, max_iter: int,
            step_tol: float):
    """Roots of p by Ehrlich-Aberth iteration from the points ``start``.

    ``ratio(z)`` returns p'/p at the points z together with the relative
    residual of p there.  A root freezes, keeping its place in the
    repulsion sums of the others, once its residual is at most
    ``freeze_tol``; the iteration stops when every root is frozen, when the
    live roots all step less than ``step_tol`` (1 + |z|), or after
    ``max_iter`` sweeps.  Every sweep steps all live roots from the same
    iterates (Jacobi style).  With ``mirrored``, which only critical_roots
    sets, the roots of p are the iterates together with their mirror images
    1/conj(z) in the unit circle, which enter the repulsion sums but are not
    iterated; an iterate that steps out of the disk is replaced by its
    image, so the iterates stay in the closed disk.

    Returns the roots and their relative residuals.
    """
    z = np.array(start, dtype=np.complex128)
    res = np.full(z.shape, np.inf)
    live = np.ones(z.size, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(int(max_iter)):
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


def critical_roots(zeros, mult, start, freeze_tol, max_iter, step_tol):
    """The roots in the closed disk of the numerator of g = B'/B over the
    distinct ``zeros`` with multiplicities ``mult``, by mirrored
    Ehrlich-Aberth from ``start``; returns (roots, relative residuals)."""
    zeros = np.ascontiguousarray(zeros, dtype=np.complex128)
    mult = np.asarray(mult, dtype=np.int64)
    return _aberth(_critical_ratio(zeros, mult), start, freeze_tol, True, max_iter, step_tol)
