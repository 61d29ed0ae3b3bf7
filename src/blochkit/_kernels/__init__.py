"""Hot-loop kernels with import-time backend selection.

The compiled C kernel ``_ckernel`` (built by ``setup.py``) is preferred; the
vectorized numpy fallback is the reference implementation of the same contract
(same objective, Newton ascent rules, tracking and Aberth rules).  The
fallback takes B and its derivatives from
``blochkit.products._value_and_derivative``, the evaluator the rest of the
package uses; the C kernel is its compiled twin, one point at a time, with
one routine for all its entries that gives B and B', and B'' and B''' on
request.  Set
``BLOCHKIT_PURE=1`` to force the fallback, e.g. for benchmarking.

Both backends expose three entries:

* ``seminorm_search(zeros, ends, lams, slope, max_iter, ftol)`` -> (values,
  argmaxes, starts, iterations), the whole multistart search of ``seminorm``
  for each product of a batch: product p has the zeros
  zeros[ends[p-1]:ends[p]] (from 0 for p = 0) and the rotation lams[p], and
  entry p of the four arrays (float64, complex128, int64, int64) holds its
  value, argmax, start count and Newton iterations.  ``ends`` must increase
  from above 0 to len(zeros), so that no product is empty, and ``lams`` must
  have one rotation per end; either backend raises ValueError, before any
  search, on anything else.  Each product's search runs on the objective
  |1 + slope B(z)| * |B'(z)| * (1 - |z|^2), that is
  |f'(B(z))| |B'(z)| (1 - |z|^2) for the catalog map f(w) = w + slope
  w^2/2: the boundary scan and peak rule of ``products.boundary_peaks``,
  the starts
  (origin, zeros, and (1 - t/|B'|) zeta for t in ``_fallback.PEAK_OFFSETS``
  toward each peak zeta) kept at their first occurrence, one safeguarded
  Newton ascent per start on log f = Re H + log(1 - |z|^2), H = log B' +
  log(1 + slope B), and the best of their ends, exact ties going to the
  lexicographically smallest (Re, Im) point.  Each iteration takes the
  Newton step where the Hessian of log f is negative definite and otherwise
  the step of the Hessian shifted by its larger eigenvalue plus
  |gradient|/scale, cuts it to the start's scale
  min(0.1, (1 - |z|)/2) and halves it until f rises by 1e-4 times its
  first-order gain (Armijo).  A start stops after the first step whose
  predicted gain in log f is at most ftol, taken only if f does not fall;
  when its step rounds to nothing; when halving brings the first-order gain
  to ftol; or after max_iter iterations, which ``iterations`` sums.  A start
  where f is 0, such as a zero of B', stays.  The unit circle alone keeps
  the ascent in the disk: f is 0 on it and negative or NaN beyond it, so
  the Armijo test f_trial - f >= need f, with f > 0 and need >= 0, rejects
  every step there.  The C kernel runs the whole batch in one call with the
  interpreter lock released.  It builds the (cos, sin) table of the scan's
  uniform angles once per call, in the call's own scratch, so a product's
  scan reads the same bits as if it were computed in place, and it keeps no
  global state, so concurrent searches share nothing.  The numpy fallback
  searches the products one after the other.  The scan constants reach the
  C kernel from ``products`` and ``_fallback`` through ``compiled``, so the
  two backends cannot drift apart;
* ``track_routes(zeros, lam, base, pieces, counts, rules)`` -> (ends, status),
  row l of the L x n start fibers ``base`` continued along route l, for each
  of L routes; n is the number of zeros.  ``pieces`` is
  (start, delta, radius, angle, circle), five arrays over the pieces of all
  routes in order; piece g is start + t delta, or start + radius exp(i (angle
  + 2 pi t)) where circle is set, for t in [0, 1].  Route l is the next
  counts[l] pieces.  ``rules`` is (h_start, h_max, h_min, newton_max,
  newton_easy, newton_tol, newton_ulps, max_move, collision_tol); the caller,
  ``covering._track_routes``, documents them.  ``ends`` is L x n complex and
  ``status`` int64: TRACKED (0), UNDERFLOW (1, the step fell below h_min),
  COLLISION (2, two points of an accepted fiber came within collision_tol) or
  NOT_TRACKED (3, an earlier route failed).  A route that is not TRACKED has
  no defined end fiber.  Each route starts from its own row's B' and each
  point's distance to its nearest other point, which bounds that point's
  move per step (times max_move), and takes an Euler step first; later
  steps predict z + q - (B''/B') q^2 / 2, q = dw / B', with B'' the
  divided difference of B' over the route's last two accepted fibers.  The
  C kernel tracks one route at a time in O(n) scratch; the fallback moves
  all routes in lockstep.
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

``refine_starts`` is ``_fallback.refine_starts`` on both backends, the numpy
search's Newton pass over all its starts, kept under this name because the
benchmark harness (``perfbench/run.py``) traces it: its traced calls read 0
on the C backend and the numpy search's one pass per product on the
fallback.

Agreement bound.  Both backends write the same formulas, but numpy may round
a complex product or modulus differently in the last bit, and an ascent that
then meets a near-tie in its line search or between two starts can end
elsewhere.  The value that ``seminorm_search`` returns with ``max_iter`` 0,
the objective at its best start, agrees with ``_fallback._objective`` at the
compiled argmax to 3e-12 for slope 0 and 1 and to 2e-12 for slope 1/2, on the
240 products of degrees 1-12 under both radial laws (measured: 9.9e-13,
1.5e-12 and 1.3e-12 for slopes 0, 1 and 1/2), and on the product rule's side, at a zero of a
degree-400 product, to 5.6e-13.
``seminorm`` reports the value that ``seminorm_search`` returns, capped at
1, so the objective bound above now covers the reported value: it is within
3e-12 of ``seminorm.pointwise_bloch`` at the argmax on the 2,000 ``sweep``
products of seeds 1-20 (measured: at most 2.3e-12 in C and 1.1e-12 in numpy).
Both round 1 - |z|^2 with a relative error of about 1e-16 / (1 - |z|), so
the gap grows toward the circle: 6.6e-12 in C on the degree-60 product below.
``seminorm_search`` gives ``seminorm`` values that agree to 1e-10, from equal
start counts, on the 240 products of degrees 1-12 under both radial laws
(measured: at most 1.7e-12, 1.9e-12 and 1.6e-12 for slopes 0, 1/2 and 1), on
the 2,000 ``sweep`` products of seeds 1-20 (measured: at most 2.0e-12 and
2.9e-12 for slopes 0 and 1) and on the 40 products ``random_product(d, d,
law)`` for even d from 24 to 62 under both laws (measured: at most 6.6e-12
and 7.9e-12, both on the uniform-law product of degree 60, whose argmax lies
2.5e-5 from the circle).  On the first two sets both backends take the same
number of Newton iterations, product by product; on the third, the
uniform-law products of degrees 40, 52 and 56 differ by one to three.  With
slope 1/2 the values also agree to 1e-10 on the scan's special cases that
``tests/test_kernels.py`` checks.  The two are not bitwise equal:
numpy's complex modulus can round apart from C's hypot in the last bit, and
the scales, boundary weights and Newton steps round with it.  For slope 0
the first factor evaluates to exactly 1.0 and the slope's terms in the
gradient and Hessian to exactly 0, and slope 1 multiplies B by exactly 1.0,
so neither rounds apart from the plain formulas.  Next to the circle both
searches stay inside the disk: on 200 degree-1 products with the zero 1e-6
to 1e-4 from the circle, whose seminorm is 1, every argmax lies inside and
every value within 1e-9 of 1 (measured on each backend: argmax at least
1.0e-6 from the circle, values at most 1 + 1.1e-10).
``track_routes`` statuses and the permutations they give are equal, and end
fibers agree to 1e-12, the corrector's residual floor, over the 296 routes
that monodromy tracks on 29 products of degrees 3-10, 148 legs out to a
loop's foot and 148 circles (measured: at most 1.2e-14, 17 routes bit for
bit).
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

    def seminorm_search(zeros, ends, lams, slope, max_iter, ftol):
        ends = _flat(ends, np.int64)
        values = np.empty(ends.size)
        argmaxes = np.empty(ends.size, dtype=np.complex128)
        starts = np.empty(ends.size, dtype=np.int64)
        iterations = np.empty(ends.size, dtype=np.int64)
        # the scan and start constants are the reference's, so no copy can drift
        module.seminorm_search(_flat(zeros), ends, _flat(lams), float(slope), int(max_iter),
                               float(ftol), _SCAN_ANGLES, _LOCAL_ANGLES, _LOCAL_SPAN, offsets,
                               values, argmaxes, starts, iterations)
        return values, argmaxes, starts, iterations

    def track_routes(zeros, lam, base, pieces, counts, rules):
        zeros = _flat(zeros)
        counts = _flat(counts, np.int64)
        start, delta, radius, angle, circle = pieces
        ends = np.empty((counts.size, zeros.size), dtype=np.complex128)
        status = np.empty(counts.size, dtype=np.int64)
        module.track_routes(zeros, complex(lam), _flat(base), _flat(start), _flat(delta),
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
