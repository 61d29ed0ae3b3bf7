"""Hot-loop kernels with import-time backend selection.

The compiled C kernel ``_ckernel`` (built by ``setup.py``) is preferred; the
vectorized numpy fallback is the reference implementation of the same contract
(same objective, same simplex-descent branch logic).  The fallback takes B and
B' from ``blochkit.products._value_and_derivative``, the evaluator the rest of
the package uses; the C kernel is its compiled twin, one point at a time.  Set
``BLOCHKIT_PURE=1`` to force the fallback, e.g. for benchmarking.

Both backends expose:

* ``pointwise_batch(zeros, lam, pts, f_kind, barrier_radius)`` -> float array,
  the objective |f'(B(z))| * |B'(z)| * (1 - |z|^2), or -1.0 outside the barrier;
* ``refine_starts(zeros, lam, starts, scales, f_kind, max_iter, ftol,
  barrier_radius)`` -> (values, points, iterations), one Nelder-Mead pass per
  start.

``f_kind``: 0 = identity, 1 = w/(1-w), 2 = w + w^2/2 (the analytic catalog);
any other value raises ``ValueError("unknown catalog kind ...")`` before any
work.

Agreement bound.  Both backends write the same formulas, but numpy may round
a complex product or modulus differently in the last bit, and a simplex that
then meets a near-tie takes another branch.  ``pointwise_batch`` values agree
to 1e-12 (measured: relative 1.9e-15, on and near zeros included).
``seminorm`` values agree to 1e-10 on the 240 products of degrees 1-12 under
both radial laws (measured: 2 differ, by at most 5.9e-13, their iteration
totals by 1).  No bound holds for
``refine_starts`` with f_kind 1: its simplices climb the 1/|1 - w|^2 blow-up
against the barrier, where terminal values are path-dependent.
``tests/test_kernels.py`` checks these bounds against a freshly compiled
``_ckernel``.
"""

import os

import numpy as np

from . import _fallback


def _flat(values, dtype=np.complex128) -> np.ndarray:
    return np.asarray(values, dtype=dtype).ravel()  # contiguous, copied if need be


def compiled(module):
    """The kernel contract over the C module ``module``: the arrays it reads
    are made contiguous complex128/float64 and its outputs allocated here."""

    def pointwise_batch(zeros, lam, pts, f_kind, barrier_radius):
        pts = np.asarray(pts, dtype=np.complex128)
        out = np.empty(pts.shape)
        module.pointwise_batch(_flat(zeros), complex(lam), pts.ravel(), out.reshape(-1),
                               int(f_kind), float(barrier_radius))
        return out

    def refine_starts(zeros, lam, starts, scales, f_kind, max_iter, ftol,
                      barrier_radius):
        starts = _flat(starts)
        values = np.empty(starts.size)
        points = np.empty(starts.size, dtype=np.complex128)
        iterations = np.empty(starts.size, dtype=np.int64)
        module.refine_starts(_flat(zeros), complex(lam), starts, _flat(scales, np.float64),
                             int(f_kind), int(max_iter), float(ftol), float(barrier_radius),
                             values, points, iterations)
        return values, points, iterations

    return pointwise_batch, refine_starts


if os.environ.get("BLOCHKIT_PURE"):
    _ckernel = None
else:
    try:
        from . import _ckernel
    except ImportError:  # pragma: no cover - depends on build environment
        _ckernel = None

if _ckernel is None:
    BACKEND = "python"
    pointwise_batch = _fallback.pointwise_batch
    refine_starts = _fallback.refine_starts
else:
    BACKEND = "c"
    pointwise_batch, refine_starts = compiled(_ckernel)
