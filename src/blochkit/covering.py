"""Branched-covering structure of a finite Blaschke product.

A degree-n product covers the disk n-to-1 with exactly n-1 critical points
inside the open disk (counted with multiplicity); their images are the branch
points.  This module finds the critical points (the zeros of B'), classifies
the configuration against a radius threshold ``a`` (is some branch point
outside the small disk |w| < a, or do all of them crowd inside it?), and
computes the monodromy permutations by tracking the full fiber over a base
point out to a small circle about each distinct critical value and once
around it.  For a generic configuration every permutation is a transposition
and the sheet graph they span is a tree on n vertices.

Root finding uses Ehrlich-Aberth simultaneous iteration with the Newton
ratio p'/p taken from the partial-fraction form of B'/B (critical points) or
of B - w (fibers), so no polynomial is ever multiplied out in the monomial
basis (Bini, Numer. Algorithms 13, 1996; Bini & Robol, MPSolve, J. Comput.
Appl. Math. 272, 2014).  Each root freezes once its relative residual
reaches rounding level, and must pass a relative residual gate of 1e-10.
``_kernels.critical_roots`` solves the critical points: the compiled kernel
one root at a time with the interpreter lock released, and the numpy
fallback, its reference, all live roots at once.  A fiber other than the
zeros is solved by the fallback's driver, through ``aberth_roots``.
Fiber tracking uses a second-order predictor, the inverse function's Taylor
step with B'' taken from the last two accepted fibers, a Newton corrector and
adaptive step control in which each point may move only a fraction of its
own distance to its nearest neighbour.  ``_kernels.track_routes`` does the
work, each route from its own start fiber: the compiled kernel tracks one
route at a time, and the numpy fallback, its reference, advances the fibers
of all routes together in one lockstep batch.  Each loop permutation must
have an index that the critical points inside the loop allow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from ._kernels import _fallback
from .errors import (
    CollisionError,
    ContinuationError,
    DegenerateError,
    DomainError,
    RootCountError,
    StructureError,
)
from .products import BlaschkeProduct, _row_blocks, _value_and_derivative, evaluate

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

#: a root freezes once its relative residual is at most this times the number
#: of terms summed
_FREEZE_ULPS = 4.0 * np.finfo(np.float64).eps


#: 2 pi times the first draw of numpy.random.default_rng(0), written out: the
#: draw would import numpy.random, about 6 MB of resident memory, for one number
_RING_PHASE = 2.0 * math.pi * 0.6369616873214543


def _ring(count: int) -> np.ndarray:
    """Aberth start points: ``count`` points evenly spaced on the circle of
    radius 0.9, with the phase offset _RING_PHASE."""
    return 0.9 * np.exp(1j * (2.0 * math.pi * np.arange(count) / count + _RING_PHASE))


_ABERTH_MAX_ITER = 200  # sweeps
_ABERTH_STEP_TOL = 1e-13  # relative step below which the iteration has stalled


def aberth_roots(ratio, start, freeze_tol: float):
    """Roots of p by Ehrlich-Aberth iteration from the points ``start``, one
    root per start; ``fiber_solve`` calls it.

    ``ratio(z)`` returns p'/p at the points z together with the relative
    residual of p there.  A root freezes, keeping its place in the
    repulsion sums of the others, once its residual is at most
    ``freeze_tol``; the iteration stops when every root is frozen, when the
    live roots all step less than 1e-13 (1 + |z|), or after 200 sweeps.
    The driver is the numpy kernel's, run without mirroring: only the
    critical-point solve, ``_kernels.critical_roots``, lets mirror images
    stand in for roots outside the disk.

    Returns the roots and their relative residuals.
    """
    return _fallback._aberth(ratio, start, freeze_tol, False, _ABERTH_MAX_ITER,
                             _ABERTH_STEP_TOL)


def _lex_sort(points: np.ndarray) -> np.ndarray:
    order = np.lexsort((points.imag, points.real))
    return points[order]


def critical_points(B: BlaschkeProduct) -> tuple[complex, ...]:
    """The n-1 zeros of B' in the open disk, lexicographically sorted.

    A zero of multiplicity m contributes m - 1 critical points at itself; the
    others are the zeros of g = B'/B.  Over d distinct zeros the numerator of
    g has 2d - 2 roots, d - 1 in the disk and their mirror images outside, so
    Aberth iterates d - 1 of them with the images standing in for the rest,
    from the ring _ring(d - 1); ``_kernels.critical_roots`` does the work,
    with the stopping rules of ``aberth_roots``.  The checks below are the
    same on both backends.

    Raises RootCountError when the in-disk count is off or a root fails the
    relative residual check; both signal a numerically hostile configuration,
    not a math fact.
    """
    if B.degree < 2:
        raise DomainError("critical points need degree >= 2")
    zeros, mult = np.unique(B.zeros_array, return_counts=True)
    roots = np.empty(0, dtype=np.complex128)
    if zeros.size > 1:
        roots, res = _kernels.critical_roots(zeros, mult, _ring(zeros.size - 1),
                                             _FREEZE_ULPS * zeros.size, _ABERTH_MAX_ITER,
                                             _ABERTH_STEP_TOL)
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
# fibers
# ----------------------------------------------------------------------------

def _fiber_ratio(B: BlaschkeProduct, w: complex):
    """p'/p and the relative residual at points z for p = lam N - w D, with
    B = lam N / D:  p'/p = -sum_j conj(a_j)/(1 - conj(a_j) z) + B'/(B - w).

    The residual is |B - w| over |w| + |B| + |B'|, the last term being the
    rounding of a point of the closed disk pushed through B'.
    """
    zeros = B.zeros_array
    conj = np.conjugate(zeros)

    def ratio(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        value, der = _value_and_derivative(zeros, B.rotation, z)
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
# fiber tracking
# ----------------------------------------------------------------------------

_H_START = 1.0 / 16.0   # step in t at the start of every piece of a route
# A circle piece needs the cap: one step over the whole circle has dw = 0, so
# the foot fiber passes the corrector and the move limit unchanged and the
# loop gives no permutation.
_H_MAX = 0.125
_H_MIN = 1e-8           # a step below this aborts the continuation
_NEWTON_MAX = 4         # a corrector needing more iterations rejects the step
_NEWTON_EASY = 2        # a corrector needing at most this many doubles the step
_NEWTON_TOL = 1e-12     # residual floor of the corrector
_NEWTON_ULPS = 8.0 * np.finfo(np.float64).eps
_MAX_MOVE = 0.4         # per step, as a fraction of a point's distance to its nearest neighbour


def _track_routes(B: BlaschkeProduct, starts: np.ndarray, routes: list[list[tuple]]):
    """Continue row l of the L x n start fibers ``starts`` along route l, for
    every route.

    A route is a list of pieces w(t), t in [0, 1], made by _segment and
    _circle.  Per route: the predictor is the inverse function's
    second-order Taylor step z + q - (B''/B') q^2 / 2, q = dw / B'(z), with
    B'' the divided difference of B' over the last two accepted fibers of
    the route (Euler, z + q, on its first step); a Newton corrector follows.
    The corrector freezes each point at its first iterate within the
    residual tolerance, keeping that iterate and its B', and counts the
    updates of the slowest point.  The step halves when the corrector fails
    or needs more than 4 iterations, or a point moves more than 0.4 of its
    own distance to its nearest other fiber point, and doubles (up to
    0.125) after at most 2 iterations; every piece starts at h = 1/16.
    The B' of the accepted corrector iterate serves the next predictor.
    The move limit keeps Newton from silently converging to a neighbouring
    sheet near a critical fiber, which would scramble the permutation
    without tripping the collision check: the closest pair gets the limit
    that the fiber's minimal separation would set, and any pair keeps at
    least 0.2 of its distance per step.  The work is
    ``_kernels.track_routes``.

    Returns the end fibers and, per route, the error that stopped it or
    None.  A failure drops the later routes as well: a caller going through
    the routes in order raises before it reaches them.
    """
    pieces = tuple(map(np.array, zip(*[piece for route in routes for piece in route])))
    rules = (_H_START, _H_MAX, _H_MIN, _NEWTON_MAX, _NEWTON_EASY, _NEWTON_TOL, _NEWTON_ULPS,
             _MAX_MOVE, COLLISION_TOL)
    ends, status = _kernels.track_routes(B.zeros_array, B.rotation, starts, pieces,
                                         [len(route) for route in routes], rules)
    errors = {
        _kernels.UNDERFLOW: ContinuationError("fiber tracking step size underflow"),
        _kernels.COLLISION: CollisionError("two fiber paths collided during tracking"),
    }
    return ends, [errors.get(int(code)) for code in status]


def _segment_waypoints(w0: complex, w1: complex,
                       obstacles: list[tuple[complex, float]]) -> list[complex]:
    """Waypoints for w0 -> w1 detouring around (center, clearance) obstacles.

    Each detour point sits on the ray from the obstacle center through the
    closest point of the chord, i.e. on the same side of the obstacle as the
    straight segment.  That keeps the homotopy class of the route and gives
    the replacement legs real clearance.  A chord through a center has no
    such side; the detour then takes one fixed by the chord's direction, so
    the polyline is a function of the chord alone.
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
                    # by the chord's direction alone
                    canon = u if (u.real, u.imag) > (-u.real, -u.imag) else -u
                    out_dir = 1j * canon
                else:
                    out_dir = (foot - center) / gap
                detours.append((s, center + 1.5 * clear * out_dir))
    detours.sort(key=lambda item: item[0])
    return [w0, *[pick for _, pick in detours], w1]


def _cluster_values(values: np.ndarray) -> list[np.ndarray]:
    """Group near-equal critical values: the connected components of the graph
    joining two values within 1e-9 (single link), each in input order, the
    groups in the order of their first value."""
    n = values.size
    adj = _adjacency([(i, i + 1 + j) for i in range(n) for j in np.flatnonzero(
        np.abs(values[i + 1:] - values[i]) <= _VALUE_CLUSTER_TOL).tolist()], n)
    groups, seen = [], set()
    for i in range(n):
        if i not in seen:
            members = sorted(_bfs(adj, i)[0])
            seen.update(members)
            groups.append(values[members])
    return groups


#: each loop circles its critical value at this fraction of the distance to
#: the nearest other critical value or to the unit circle
_LOOP_RADIUS_FACTOR = 0.25


def monodromy(B: BlaschkeProduct, values=None):
    """Loop permutations of the base fiber around each distinct critical value.

    Returns a list of (critical value, permutation) pairs, permutation[i] being
    the index of the base fiber point that the path starting at base index i
    lands on after the loop.  Deterministic: clusters are visited in
    lexicographic order and the base fiber is lexicographically indexed.  The
    base point is 0, or a nearby point when 0 is within 1e-6 of a critical
    value.  ``values``, when given, are the critical values of B from a caller
    that already has them.

    The loop around v leaves the base point for its foot q on the circle of
    radius rho about v, goes once around that circle and returns the way it
    came.  Two ``_kernels.track_routes`` calls track it one way: the first
    carries the base fiber to every foot fiber F_q, whose point j is the
    continuation of base point j; the second takes each F_q once around its
    circle.  The way back carries F_q[j] to base point j, so permutation[i]
    is the j whose F_q[j] is nearest to where point i of F_q ends, within
    0.45 of F_q's minimal separation.

    The loop about a cluster of m critical points (with multiplicity) gives
    a product of m transpositions, so its permutation's index, n minus its
    number of cycles, is at most m and of m's parity; a loop that breaks
    this raises ContinuationError naming the loop.
    """
    if values is None:
        values = _values_of(B, critical_points(B))
    clusters = _cluster_values(np.asarray(values, dtype=np.complex128))
    centers = np.array([g.mean() for g in clusters])
    order = np.lexsort((centers.imag, centers.real))
    centers = centers[order]
    sizes = [clusters[k].size for k in order]

    w_star = _default_base_point(centers)

    # over w = 0, clear of every critical value, the fiber is the zeros, and
    # they are distinct
    base = _lex_sort(B.zeros_array) if w_star == 0 else fiber_solve(B, w_star)

    radii = np.empty(centers.size)
    for i, v in enumerate(centers):
        others = np.delete(np.abs(centers - v), i)
        gap = others.min() if others.size else np.inf
        radii[i] = _LOOP_RADIUS_FACTOR * min(gap, 1.0 - abs(v))

    legs, circles = [], []
    for i, v in enumerate(centers):
        rho = radii[i]
        direction = (w_star - v) / abs(w_star - v)
        obstacles = [(complex(centers[j]), 0.5 * radii[j])
                     for j in range(centers.size) if j != i]
        waypoints = _segment_waypoints(w_star, v + rho * direction, obstacles)
        legs.append([_segment(w0, w1) for w0, w1 in _pairs(waypoints)])
        circles.append([_circle(v, rho, math.atan2(direction.imag, direction.real))])
    feet = _tracked(B, np.broadcast_to(base, (len(legs), base.size)), legs)
    ends = _tracked(B, feet, circles)
    tols = 0.45 * _fallback._nearest(feet).min(axis=1)
    loops = []
    for k, (v, m, foot, end, tol) in enumerate(zip(centers, sizes, feet, ends, tols)):
        perm = _match_permutation(foot, end, tol)
        index = _index(perm)
        if index > m or (m - index) % 2:
            raise ContinuationError(
                f"loop {k} about {complex(v):.6g} gave {cycle_string(perm)}, of index "
                f"{index}, around {m} critical point(s)")
        loops.append((complex(v), perm))
    return loops


def _tracked(B: BlaschkeProduct, starts: np.ndarray, routes: list[list[tuple]]):
    """The end fibers of _track_routes, or the error of the first route that
    failed raised."""
    ends, errors = _track_routes(B, starts, routes)
    for error in errors:
        if error is not None:
            raise error
    return ends


def _values_of(B, pts):
    vals = evaluate(B, np.asarray(pts, dtype=np.complex128))
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


def _match_permutation(fiber: np.ndarray, final: np.ndarray, tol: float) -> tuple[int, ...]:
    """perm[i] = the index of the point of ``fiber`` nearest to final[i], the
    first one on a tie; ContinuationError when a nearest point lies beyond
    ``tol`` or two points of ``final`` pick the same one."""
    d = np.abs(final[:, None] - fiber[None, :])
    perm = d.argmin(axis=1)
    if (d[np.arange(perm.size), perm] > tol).any() or np.unique(perm).size < perm.size:
        raise ContinuationError("fiber endpoints did not match the base fiber")
    return tuple(perm.tolist())


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


def _cycles(perm: tuple[int, ...]):
    """The cycles of perm, fixed points included, each from its least
    element, in the order of those elements."""
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if not seen[i]:
            cycle = []
            j = i
            while not seen[j]:
                seen[j] = True
                cycle.append(j)
                j = perm[j]
            yield cycle


def cycle_string(perm: tuple[int, ...]) -> str:
    """One-line cycle notation on 1-based sheet labels; identity is '()'."""
    parts = ["(" + " ".join(str(k + 1) for k in cycle) + ")"
             for cycle in _cycles(perm) if len(cycle) > 1]
    return "".join(parts) if parts else "()"


def _index(perm: tuple[int, ...]) -> int:
    """n minus the number of cycles of perm, fixed points included: the
    fewest transpositions whose product is perm."""
    return len(perm) - sum(1 for _ in _cycles(perm))


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
        # the closest pair of angles is a pair of neighbours in sorted order,
        # the last and the first across -pi included
        args = np.sort(np.angle(vals[mods > 1e-12]))
        if np.any(np.diff(args, append=args[:1] + 2.0 * math.pi) <= GENERICITY_TOL):
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
        if not _is_transposition(perm):
            raise StructureError(
                "monodromy permutation is not a transposition; configuration "
                "is not generic"
            )
        moved = [i for i in range(n) if perm[i] != i]
        edges.append((min(moved), max(moved), k))
    if len(edges) != n - 1:
        raise StructureError(f"expected {n - 1} edges, got {len(edges)}")
    if len(_bfs(_adjacency(edges, n), 0)[0]) != n:
        raise StructureError("sheet graph is not connected")
    return tuple(edges)


def _adjacency(edges, n: int) -> dict[int, list[int]]:
    """Neighbour lists of the undirected graph on 0..n-1 with edges (i, j, ...)."""
    adj = {i: [] for i in range(n)}
    for i, j, *_ in edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _bfs(adj, src: int) -> tuple[dict, dict]:
    """(dist, parent) of a breadth-first search from src; both dicts hold the
    reached vertices in visiting order, and parent[src] is None."""
    dist = {src: 0}
    parent = {src: None}
    queue = [src]
    for u in queue:
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def distinguished_sheet(edges, n: int) -> int:
    """Second vertex of a maximal path of the tree (double-BFS diameter)."""
    adj = _adjacency(edges, n)

    def farthest(src):
        dist, parent = _bfs(adj, src)
        return max(dist, key=lambda v: (dist[v], v)), parent

    u, _ = farthest(0)
    v, parent = farthest(u)
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()  # runs from u to v
    return path[1] if len(path) > 1 else path[0]


def _transitive(perms, n: int) -> bool:
    """Whether the permutations move sheet 0 to every sheet; for a finite
    permutation group that orbit is the component of 0 in the graph with the
    edges u - p[u]."""
    moves = ((u, p[u]) for p in perms for u in range(n) if p[u] != u)
    return len(_bfs(_adjacency(moves, n), 0)[0]) == n


def analyze(B: BlaschkeProduct, a: float | None = None, perturb: bool = False,
            seed: int = 0) -> CoveringReport:
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
    loops = tuple(monodromy(B, report.critical_values))
    if not _transitive([p for _v, p in loops], B.degree):
        raise StructureError("monodromy group does not act transitively")
    report = replace(report, monodromy=loops)
    if not all(_is_transposition(p) for _v, p in loops):
        return report
    edges = sheet_tree(report)
    return replace(report, sheet_edges=edges,
                   distinguished_sheet=distinguished_sheet(edges, B.degree))


def _is_transposition(perm) -> bool:
    moved = [i for i in range(len(perm)) if perm[i] != i]
    return (len(moved) == 2 and perm[moved[0]] == moved[1]
            and perm[moved[1]] == moved[0])
