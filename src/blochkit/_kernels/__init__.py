"""Hot-loop kernels with import-time backend selection.

The compiled C kernel ``_ckernel`` (built by ``setup.py``) is preferred; the
vectorized numpy fallback is the reference implementation of the same contract
(same objective, simplex-descent branch logic, tracking and Aberth rules).  The
fallback takes B and B' from ``blochkit.products._value_and_derivative``, the
evaluator the rest of the package uses; the C kernel is its compiled twin, one
point at a time, with one (B, B') routine for all its entries.  Set
``BLOCHKIT_PURE=1`` to force the fallback, e.g. for benchmarking.

Both backends expose three entries:

* ``seminorm_search(zeros, lam, f_kind, max_iter, ftol, barrier_radius)`` ->
  (value, argmax, starts, iterations), the whole multistart search of
  ``seminorm`` on the objective |f'(B(z))| * |B'(z)| * (1 - |z|^2), which is
  -1.0 outside the barrier: the boundary scan and peak rule of
  ``products.boundary_peaks``, the starts (origin, zeros, and (1 - t/|B'|)
  zeta for t in ``_fallback.PEAK_OFFSETS`` toward each peak zeta) kept at
  their first occurrence, one Nelder-Mead pass per start at scale
  min(0.1, (1 - |z|)/2), one more from the best point at a tenth of its
  scale, and the best of all passes, exact ties going to the
  lexicographically smallest (Re, Im) point.  ``starts`` counts the
  restart.  The C kernel runs it in one call with the interpreter lock
  released; the scan constants reach it from ``products`` and ``_fallback``
  through ``compiled``, so the two backends cannot drift apart;
* ``track_routes(zeros, lam, base, pieces, counts, rules)`` -> (ends, status),
  the base fiber (n points) continued along each of L routes.  ``pieces`` is
  (start, delta, radius, angle, circle), five arrays over the pieces of all
  routes in order; piece g is start + t delta, or start + radius exp(i (angle
  + 2 pi t)) where circle is set, for t in [0, 1].  Route l is the next
  counts[l] pieces.  ``rules`` is (h_start, h_max, h_min, newton_max,
  newton_easy, newton_tol, newton_ulps, max_move, collision_tol); the caller,
  ``covering._track_routes``, documents them.  ``ends`` is L x n complex and
  ``status`` int64: TRACKED (0), UNDERFLOW (1, the step fell below h_min),
  COLLISION (2, two points of an accepted fiber came within collision_tol) or
  NOT_TRACKED (3, an earlier route failed).  A route that is not TRACKED has
  no defined end fiber.  The C kernel tracks one route at a time in O(n)
  scratch; the fallback moves all routes in lockstep.
* ``critical_roots(zeros, mult, start, freeze_tol, max_iter, step_tol)`` ->
  (roots, residuals), Ehrlich-Aberth from the m points ``start`` on the
  numerator of g = B'/B over the distinct ``zeros`` with int64
  multiplicities ``mult``; the mirror images 1/conj(z) of the iterates
  stand in for the roots outside the disk.  A root freezes, staying in the
  repulsion sums, once its relative residual |g| / sum |terms| is at most
  freeze_tol; every sweep steps the live roots from the same iterates, an
  iterate that leaves the disk is replaced by its image, and the iteration
  stops when no root is live, when every step is below step_tol (1 + |z|),
  or after max_iter sweeps.  The caller, ``covering.critical_points``,
  passes its constants and checks the residuals.  The C kernel iterates one
  root at a time in O(m) scratch; the fallback steps all live roots
  together in row blocks.  Its driver also solves ``covering.fiber_solve``,
  through ``covering.aberth_roots``, but without mirror images: mirroring
  belongs to this critical-point entry only.

``f_kind``: 0 = identity, 1 = w/(1-w), 2 = w + w^2/2 (the analytic catalog);
any other value raises ``ValueError("unknown catalog kind ...")`` before any
work.

``refine_starts`` is ``_fallback.refine_starts`` on both backends, the numpy
search's Nelder-Mead pass, kept under this name because the benchmark
harness (``perfbench/run.py``) traces it: its traced calls read 0 on the C
backend and the numpy search's two passes per ``seminorm`` on the fallback.

Agreement bound.  Both backends write the same formulas, but numpy may round
a complex product or modulus differently in the last bit, and a simplex that
then meets a near-tie takes another branch.  The value that
``seminorm_search`` returns with ``max_iter`` 0, the objective at its best
start or initial vertex, agrees with ``_fallback._objective`` at the compiled
argmax to 3e-12 for f_kind 0 and 2 and to 1.5e-11 relative for f_kind 1, on
the 240 products of degrees 1-12 under both radial laws (measured: 2.0e-12,
1.5e-12 and 9.3e-12, at argmaxes within 1.2e-4 of the circle), and on the
product rule's side, at a zero of a degree-400 product, to 5.6e-13.
``seminorm_search`` gives ``seminorm`` values that agree to 1e-10, from equal
start counts, on the 240 products of degrees 1-12 under both radial laws
(measured: at most 1.1e-12, one iteration total differs by 1), and on 2,074
``sweep`` and higher-degree products with f_kind 0 and 464 ``sweep`` products
with f_kind 2 (measured: at most 2.6e-11).  The two are not bitwise equal:
numpy's complex modulus can round apart from C's hypot in the last bit,
and the scales and boundary weights round with it.  No bound holds for the
descent with f_kind 1: its simplices climb the 1/|1 - w|^2 blow-up against
the barrier, where terminal values are path-dependent.
``track_routes`` statuses and the permutations they give are equal, and end
fibers agree to 1e-12, the corrector's residual floor, over the 148 routes
that monodromy tracks on 29 products of degrees 3-10 (measured: 147 routes
bit for bit, the other within 2.8e-15).
``critical_points`` agrees to 1e-12, and raises ``RootCountError`` on the
same inputs, over 496 products: the 220 of degree 2-12 in that parity set,
the 274 ``sweep`` products of degree 2-16 of seeds 1-3, and degree 256
under both laws.  With the sweeps capped at 8, 218 of them fail on both
backends, with the same message.  Measured: at most 5.8e-14, on a degree-2
product with a zero 1.4e-4 from the circle, and at most 3.1e-13 at degree
1024 (seeds 0 and 1, both laws).  numpy's complex products, quotients and
moduli round apart from plain C on SIMD hardware, so the roots are not
bitwise equal.
``tests/test_kernels.py`` checks these bounds against a freshly compiled
``_ckernel``.
"""

import os

import numpy as np

from . import _fallback
from ._fallback import COLLISION, NOT_TRACKED, TRACKED, UNDERFLOW  # noqa: F401
from ..products import _LOCAL_ANGLES, _LOCAL_SPAN, _SCAN_ANGLES


def _flat(values, dtype=np.complex128) -> np.ndarray:
    return np.asarray(values, dtype=dtype).ravel()  # contiguous, copied if need be


def compiled(module):
    """The kernel contract over the C module ``module``: the arrays it reads
    are made contiguous complex128/float64 and its outputs allocated here."""

    offsets = np.asarray(_fallback.PEAK_OFFSETS, dtype=np.float64)

    def seminorm_search(zeros, lam, f_kind, max_iter, ftol, barrier_radius):
        # the scan and start constants are the reference's, so no copy can drift
        return module.seminorm_search(_flat(zeros), complex(lam), int(f_kind), int(max_iter),
                                      float(ftol), float(barrier_radius), _SCAN_ANGLES,
                                      _LOCAL_ANGLES, _LOCAL_SPAN, offsets)

    def track_routes(zeros, lam, base, pieces, counts, rules):
        base = _flat(base)
        counts = _flat(counts, np.int64)
        start, delta, radius, angle, circle = pieces
        ends = np.empty((counts.size, base.size), dtype=np.complex128)
        status = np.empty(counts.size, dtype=np.int64)
        module.track_routes(_flat(zeros), complex(lam), base, _flat(start), _flat(delta),
                            _flat(radius, np.float64), _flat(angle, np.float64),
                            _flat(circle, np.bool_), counts, tuple(rules), ends.reshape(-1),
                            status)
        return ends, status

    def critical_roots(zeros, mult, start, freeze_tol, max_iter, step_tol):
        start = _flat(start)
        roots = np.empty_like(start)
        res = np.empty(start.size)
        module.critical_roots(_flat(zeros), _flat(mult, np.int64), start, float(freeze_tol),
                              int(max_iter), float(step_tol), roots, res)
        return roots, res

    return seminorm_search, track_routes, critical_roots


if os.environ.get("BLOCHKIT_PURE"):
    _ckernel = None
else:
    try:
        from . import _ckernel
    except ImportError:  # pragma: no cover - depends on build environment
        _ckernel = None

refine_starts = _fallback.refine_starts
if _ckernel is None:
    BACKEND = "python"
    seminorm_search = _fallback.seminorm_search
    track_routes = _fallback.track_routes
    critical_roots = _fallback.critical_roots
else:
    BACKEND = "c"
    seminorm_search, track_routes, critical_roots = compiled(_ckernel)
