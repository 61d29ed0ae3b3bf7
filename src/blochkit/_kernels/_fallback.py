"""Pure-numpy kernel backend.

Runs every start of the multistart *simultaneously*: each start follows the
safeguarded Newton ascent of the scalar compiled kernel (``_ckernel.c``), its
step rule, line search and stop rule expressed through boolean masks, while
every evaluation of the objective with its gradient and Hessian is a single
vectorized sweep over all live starts.  The whole seminorm search, from the
boundary scan of ``products.boundary_peaks`` to the best start, is the
reference that the compiled ``seminorm_search`` follows step by step.  Fiber
tracking works the same way as the starts: the fibers of all routes move in
one lockstep L x n batch, each row under the per-route rules that the
compiled kernel applies to one route at a time.  The critical points are
found by mirrored Ehrlich-Aberth iteration on all live roots at once, in row
blocks; ``covering.fiber_solve`` runs the same driver on its fibers, without
mirroring.
"""

from __future__ import annotations

import math

import numpy as np

from ..products import _boundary_peaks, _row_blocks, _value_and_derivative

#: the starts (1 - t/|B'(zeta)|) zeta toward each boundary peak zeta
PEAK_OFFSETS = (0.25, 0.5, 1.0)
#: the fraction of the first-order gain that a step of the line search must achieve
_ARMIJO = 1e-4


def _objective(zeros: np.ndarray, lam: complex, pts: np.ndarray, slope: float):
    """(f, grad, hess): f = |1 + slope B(z)| |B'(z)| (1 - |z|^2), the
    objective for f(w) = w + slope w^2/2; and for g = log f = Re H + log(1 -
    |z|^2), H = log B' + log(1 + slope B), the gradient as the rows (g_x, g_y)
    and the Hessian as the rows (g_xx, g_xy, g_yy).  For holomorphic H, Re H
    has gradient conj(H') and Hessian [[Re H'', -Im H''], [-Im H'', -Re H'']],
    with H' = B''/B' + slope B'/(1 + slope B) and H'' = B'''/B' - (B''/B')^2 +
    slope B''/(1 + slope B) - (slope B'/(1 + slope B))^2.  For slope 0 the
    first factor of f is exactly 1 and the slope's terms are exactly 0.  f is
    0 on the circle and negative or NaN beyond it, where the line search of
    _refine_starts rejects every step.  The gradient and Hessian are not
    finite where f is 0, such as at a zero of B' or on the circle."""
    pts = np.asarray(pts, dtype=np.complex128)
    value, der, second, third = _value_and_derivative(zeros, lam, pts, higher=True)
    x, y = pts.real, pts.imag
    d = 1.0 - (x**2 + y**2)
    u = 1.0 + slope * value
    f = np.abs(u) * np.abs(der) * d
    h1 = second / der
    h2 = third / der - h1 * h1
    v1 = slope * der / u
    h1 = h1 + v1
    h2 = h2 + (slope * second / u - v1 * v1)
    grad = np.stack([h1.real - 2.0 * x / d, -h1.imag - 2.0 * y / d])
    hess = np.stack([h2.real - 2.0 / d - 4.0 * x * x / (d * d),
                     -h2.imag - 4.0 * x * y / (d * d),
                     -h2.real - 2.0 / d - 4.0 * y * y / (d * d)])
    return f, grad, hess


def _ascent_step(grad: np.ndarray, hess: np.ndarray, scale: np.ndarray):
    """(step, rise, gain) of one safeguarded Newton iteration on g.

    The step solves (M - mu I) d = -grad for the Hessian M: mu is 0 where M is
    negative definite, and otherwise its larger eigenvalue plus |grad|/scale,
    which bounds |d| by scale; a longer step is cut back to length scale, and
    one that is not finite is 0.  rise = grad . d is the first-order gain in g
    along d, and gain = rise + d.M.d/2 the gain that the quadratic model
    predicts for the whole step."""
    gx, gy = grad
    a, b, c = hess
    top = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
    mu = np.where(top < 0.0, 0.0, top + np.hypot(gx, gy) / scale)
    sa, sc = a - mu, c - mu
    det = sa * sc - b * b
    dx = (b * gy - sc * gx) / det
    dy = (b * gx - sa * gy) / det
    length = np.hypot(dx, dy)
    cut = np.where(length > scale, scale / length, 1.0)
    dx, dy = dx * cut, dy * cut
    bad = ~(np.isfinite(dx) & np.isfinite(dy))
    dx[bad], dy[bad] = 0.0, 0.0
    rise = gx * dx + gy * dy
    gain = rise + 0.5 * (a * dx * dx + 2.0 * b * dx * dy + c * dy * dy)
    return dx + 1j * dy, rise, gain


def refine_starts(zeros, lam, starts, scales, slope, max_iter, ftol):
    """One safeguarded Newton ascent on log f per start, all starts in
    lockstep; returns the (values, points, iterations) they reach."""
    # points sitting on a zero divide by zero in the log-derivative sum, which
    # the product rule replaces, and where B' = 0 the Newton terms divide by
    # it, but such a start never moves, and a trial on the circle divides by
    # 1 - |z|^2 = 0, but its step is rejected: the warnings carry no news
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _refine_starts(zeros, lam, starts, scales, slope, max_iter, ftol)


def _refine_starts(zeros, lam, starts, scales, slope, max_iter, ftol):
    """Each iteration takes the step of _ascent_step at the start's scale and
    halves it until f rises by at least _ARMIJO times its first-order gain,
    rise f.  A start stops after the first step whose predicted gain is at
    most ftol, which is taken only if f does not fall; when its step rounds
    to nothing; when halving brings the first-order gain to at most ftol;
    or after max_iter iterations.  A start where f is not positive, such as
    a zero of B', stays where it is."""
    zeros = np.ascontiguousarray(zeros, dtype=np.complex128)
    z = np.array(starts, dtype=np.complex128).ravel()
    scales = np.asarray(scales, dtype=np.float64).ravel()
    lam = complex(lam)

    def terms(pts):
        return _objective(zeros, lam, pts, slope)

    f, grad, hess = terms(z)
    iters = np.zeros(z.size, dtype=np.int64)
    live = f > 0.0
    for _ in range(int(max_iter)):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        iters[idx] += 1
        step, rise, gain = _ascent_step(grad[:, idx], hess[:, idx], scales[idx])
        last = ~(gain > ftol)
        t = np.ones(idx.size)
        todo = np.arange(idx.size)
        while todo.size:
            rows = idx[todo]
            trial = z[rows] + t[todo] * step[todo]
            moved = trial != z[rows]
            live[rows[~moved]] = False
            todo, rows, trial = todo[moved], rows[moved], trial[moved]
            ft, gt, ht = terms(trial)
            need = np.where(last[todo], 0.0, _ARMIJO * t[todo] * rise[todo])
            up = ft - f[rows] >= need * f[rows]
            acc = rows[up]
            z[acc], f[acc], grad[:, acc], hess[:, acc] = trial[up], ft[up], gt[:, up], ht[:, up]
            t[todo] *= 0.5
            stop = last[todo] | ~(t[todo] * rise[todo] > ftol)
            live[rows[last[todo] | (~up & stop)]] = False
            todo = todo[~up & ~stop]
    return f, z, iters


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


def _search(zeros, lam, slope, max_iter, ftol):
    """The multistart search of one product: one refine_starts pass over the
    starts of _start_points, each at the scale of _scales; returns (value,
    argmax, starts, iterations) of the best start."""
    starts = _start_points(zeros)
    vals, pts, iters = refine_starts(zeros, lam, starts, _scales(starts), slope, max_iter,
                                     ftol)
    best = _argbest(vals, pts)
    return vals[best], pts[best], starts.size, np.sum(iters)


def _product_bounds(zeros: np.ndarray, ends: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The first zero of each product and, last, the end of the batch, after
    the compiled entry's checks: as many rotations as ends, the ends
    increasing from above 0 to the number of zeros."""
    if lams.size != ends.size:
        raise ValueError(f"lams: expected {ends.size} items, got {lams.size}")
    bounds = np.concatenate([[0], ends])
    if not (np.all(bounds[1:] > bounds[:-1]) and bounds[-1] == zeros.size):
        raise ValueError(f"ends: expected increasing ends, the first above 0 and the last "
                         f"{zeros.size}")
    return bounds


def seminorm_search(zeros, ends, lams, slope, max_iter, ftol):
    """The multistart search of each product of a batch: product p has the
    zeros zeros[ends[p-1]:ends[p]] (from 0 for p = 0) and the rotation
    lams[p].  Returns (values, argmaxes, starts, iterations), one entry per
    product."""
    zeros = np.asarray(zeros, dtype=np.complex128).ravel()
    ends = np.asarray(ends, dtype=np.int64).ravel()
    lams = np.asarray(lams, dtype=np.complex128).ravel()
    bounds = _product_bounds(zeros, ends, lams)
    values = np.empty(ends.size)
    argmaxes = np.empty(ends.size, dtype=np.complex128)
    starts = np.empty(ends.size, dtype=np.int64)
    iterations = np.empty(ends.size, dtype=np.int64)
    for p, lam in enumerate(lams):
        values[p], argmaxes[p], starts[p], iterations[p] = _search(
            zeros[bounds[p]:bounds[p + 1]], lam, slope, max_iter, ftol)
    return values, argmaxes, starts, iterations


# ----------------------------------------------------------------------------
# fiber tracking
# ----------------------------------------------------------------------------

TRACKED, UNDERFLOW, COLLISION, NOT_TRACKED = 0, 1, 2, 3


def _nearest(z: np.ndarray) -> np.ndarray:
    """The distance from each point of each row of z to the nearest other
    point of its row."""
    d = np.abs(z[:, :, None] - z[:, None, :])
    k = np.arange(z.shape[1])
    d[:, k, k] = np.inf
    return d.min(axis=2)


def _newton(zeros, lam, z: np.ndarray, w: np.ndarray, newton_max: int, tol: float,
            ulps: float):
    """Newton on B(z) = w[i] for each row i of z, a fiber; returns (z, B'(z), iters, ok).

    A point freezes at its first iterate with |B(z) - w| <= max(tol, ulps
    |z| |B'(z)|), i.e. within one ulp of z pushed through B': near a zero
    close to the circle |B'| is large and an absolute tolerance lies below
    rounding.  A frozen point keeps that iterate and is no longer updated;
    it is evaluated again at the same point, which keeps its B'.  A row
    stops once every point is frozen, and its iters is the number of updates
    its slowest point needed.  A row that needs more than newton_max
    updates, or where the derivative or iterate of a point still moving
    breaks down, is not ok.
    """
    iters = np.zeros(z.shape[0], dtype=np.int64)
    live = np.ones(z.shape[0], dtype=bool)
    ok = np.zeros(z.shape[0], dtype=bool)
    frozen = np.zeros(z.shape, dtype=bool)
    for it in range(newton_max + 1):
        value, der = _value_and_derivative(zeros, lam, z)
        r = value - w[:, None]
        size = np.abs(der)
        frozen |= np.abs(r) <= np.fmax(tol, ulps * np.abs(z) * size)
        done = frozen.all(axis=1)
        ok |= live & done
        live &= ~done
        if it == newton_max or not live.any():
            break
        step = z - r / der
        live &= (frozen | (np.isfinite(der) & (size >= 1e-300)
                           & np.isfinite(step) & (np.abs(step) <= 1.2))).all(axis=1)
        z = np.where(live[:, None] & ~frozen, step, z)
        iters += live
    return z, der, iters, ok


def track_routes(zeros, lam, base, pieces, counts, rules):
    """Continue row l of the L x n start fibers ``base`` along route l, for
    every route at once, in lockstep.

    Row l of the L x n state is the fiber over route l, with its own piece,
    t, step h and last accepted w, and per point its B', its distance to
    its nearest other point (its move limit is max_move times that) and its
    B''/B' from the last two accepted fibers (0 before the first, so the
    first step is Euler's); an active mask drops the rows that are done.
    The per-row rules are those of ``_ckernel.c``'s ``track_route``.  The
    first failed route stops the later ones, which are NOT_TRACKED whatever
    they reached.
    """
    (h_start, h_max, h_min, newton_max, newton_easy, newton_tol, newton_ulps, max_move,
     collision_tol) = rules
    zeros = np.ascontiguousarray(zeros, dtype=np.complex128)
    lam = complex(lam)
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
        z = np.array(base, dtype=np.complex128).reshape(L, zeros.size)
        der = _value_and_derivative(zeros, lam, z)[1]
        near = _nearest(z)
        curv = np.zeros_like(z)  # B''/B' of each point; 0 on a route's first step
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
            q = (w_new - w_prev[rows])[:, None] / der[rows]
            pred = z0 + q - 0.5 * curv[rows] * q * q
            pred = np.where(np.isfinite(pred), pred, z0)
            z1, d1, iters, ok = _newton(zeros, lam, pred, w_new, newton_max, newton_tol,
                                        newton_ulps)
            ok &= ~(np.abs(z1 - z0) > max_move * near[rows]).any(axis=1)

            rejected = rows[~ok]
            h[rejected] *= 0.5
            for row in rejected[h[rejected] < h_min]:
                status[row] = UNDERFLOW
                stop = min(stop, row)

            good = np.flatnonzero(ok)
            new_near = _nearest(z1[good])
            collided = new_near.min(axis=1) < collision_tol
            for row in rows[good[collided]]:
                status[row] = COLLISION
                stop = min(stop, row)
            keep = good[~collided]
            acc = rows[keep]
            ratio = (d1[keep] - der[acc]) / ((z1[keep] - z[acc]) * d1[keep])
            curv[acc] = np.where(np.isfinite(ratio), ratio, 0.0)
            z[acc] = z1[keep]
            der[acc] = d1[keep]
            near[acc] = new_near[~collided]
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
