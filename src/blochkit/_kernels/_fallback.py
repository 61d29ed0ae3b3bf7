"""Pure-numpy kernel backend.

Runs every simplex in the multistart *simultaneously*: the Nelder-Mead control
flow is expressed through boolean masks so each of the k simplices follows
exactly the branch logic of the scalar compiled kernel (``_ckernel.c``), while
every objective evaluation is a single vectorized sweep over all active
simplices.
"""

from __future__ import annotations

import numpy as np

from ..products import _value_and_derivative

_ALPHA, _GAMMA, _RHO, _SIGMA = 1.0, 2.0, 0.5, 0.5


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


def pointwise_batch(zeros, lam, pts, f_kind, barrier_radius):
    _check_kind(f_kind)
    zeros = np.ascontiguousarray(zeros, dtype=np.complex128)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _objective(zeros, complex(lam), np.asarray(pts, dtype=np.complex128),
                          int(f_kind), float(barrier_radius))


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
