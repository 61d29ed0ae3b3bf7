"""Critical points, fibers, monodromy and the sheet tree of a product."""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest

from blochkit.covering import (
    DEGENERATE,
    SLIT_DISK,
    SURFACE_CASE,
    aberth_roots,
    analyze,
    classify,
    critical_points,
    cycle_string,
    distinguished_sheet,
    fiber_solve,
    monodromy,
    sheet_tree,
)
from blochkit import _kernels, covering
from blochkit._kernels import _fallback
from blochkit.cli import _sweep_product
from blochkit.errors import CollisionError, ContinuationError, DomainError, StructureError
from blochkit.products import (
    BlaschkeProduct,
    _value_and_derivative,
    derivative,
    evaluate,
    random_product,
)
from blochkit.slitdisk import default_threshold

from conftest import power_product


def _is_transposition(perm) -> bool:
    return sum(1 for i, j in enumerate(perm) if i != j) == 2


def _is_transitive(perms, n) -> bool:
    reach = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for p in perms:
            for j in (p[i], p.index(i)):
                if j not in reach:
                    reach.add(j)
                    frontier.append(j)
    return len(reach) == n


def _known_ratio(roots):
    """p'/p and the relative residual |p| / prod(|z| + |r_k|) of the monic p
    with the given roots."""
    roots = np.asarray(roots, dtype=np.complex128)

    def ratio(z):
        diff = z[:, None] - roots
        scale = np.prod(np.abs(z)[:, None] + np.abs(roots), axis=1)
        return (1.0 / diff).sum(axis=1), np.abs(np.prod(diff, axis=1)) / scale

    return ratio


def test_ring_phase_is_the_seeded_draw():
    assert covering._RING_PHASE == 2.0 * math.pi * np.random.default_rng(0).random()


def test_aberth_known_cubic():
    roots, res = aberth_roots(_known_ratio([1.0, 2.0, 3.0]), covering._ring(3), 1e-15)
    assert np.max(np.abs(np.sort_complex(roots) - np.array([1.0, 2.0, 3.0]))) < 1e-12
    assert np.all(res <= 1e-15)


def test_aberth_pure_power():
    # a triple root: no residual reaches the freeze level, and the iteration
    # stops on the step tolerance
    roots, res = aberth_roots(_known_ratio([0.0, 0.0, 0.0]), covering._ring(3), 0.0)
    assert roots.shape == (3,)
    assert np.max(np.abs(roots)) < 1e-10


def test_aberth_mirrored_pairs():
    # roots c_k in the disk and 1/conj(c_k) outside: only the inner three are
    # iterated, the images stand in for the outer ones
    inner = np.array([0.5 + 0.1j, -0.3 - 0.6j, 0.05j])
    ratio = _known_ratio(np.concatenate([inner, 1.0 / np.conjugate(inner)]))
    roots, res = _fallback._aberth(ratio, covering._ring(3), 1e-15, True,
                                   covering._ABERTH_MAX_ITER, covering._ABERTH_STEP_TOL)
    assert np.all(np.abs(roots) < 1.0)
    assert np.max(np.abs(covering._lex_sort(roots) - covering._lex_sort(inner))) < 1e-12


def test_critical_points_of_power_product():
    # the fourfold zero gives three critical points exactly at itself
    assert critical_points(power_product(4)) == (0j, 0j, 0j)


def _newton_step_ok(B, p, h=1e-6) -> bool:
    # |B'| alone is scale-dependent near the boundary; the Newton step
    # |B'/B''| measures the actual root accuracy
    curvature = abs(derivative(B, p + h) - derivative(B, p - h)) / (2.0 * h)
    return abs(derivative(B, p)) <= 1e-7 * max(1.0, curvature)


def _relative_g_residual(B, p) -> float:
    """|g(p)| over the sum of the moduli of its terms, g = B'/B."""
    zeros = B.zeros_array
    terms = (1.0 - np.abs(zeros) ** 2) / ((p - zeros) * (1.0 - np.conjugate(zeros) * p))
    return float(abs(terms.sum()) / np.abs(terms).sum())


def test_critical_point_count_and_residual(random_products):
    for B in random_products:
        if B.degree < 2:
            continue
        pts = critical_points(B)
        assert len(pts) == B.degree - 1
        for p in pts:
            assert abs(p) < 1.0
            assert _newton_step_ok(B, p)


@pytest.mark.parametrize("index", [3, 35])
def test_critical_points_of_boundary_heavy_sweep_products(index):
    # degree 15 and 10: the roots of the multiplied-out derivative numerator
    # missed the Newton-step criterion on 5 and 2 of these points
    _degree, _law, B = _sweep_product(12345, index, 16)
    pts = critical_points(B)
    assert len(pts) == B.degree - 1
    assert all(_newton_step_ok(B, p) for p in pts)


def test_critical_points_relative_g_residual_on_a_sweep():
    for index in range(100):
        _degree, _law, B = _sweep_product(7, index, 16)
        if B.degree < 2:
            continue
        worst = max(_relative_g_residual(B, p) for p in critical_points(B))
        assert worst <= 1e-12, index


@pytest.mark.parametrize("law", ["uniform_disk", "boundary_concentrated"])
@pytest.mark.parametrize("degree", [64, 256])
def test_high_degree_critical_points_and_fibers(degree, law):
    for seed in range(5):
        B = random_product(degree, seed=seed, law=law)
        assert len(critical_points(B)) == degree - 1
        assert fiber_solve(B, 0.3 + 0.2j).shape == (degree,)


def test_double_zero():
    a = 0.3 + 0.1j
    B = BlaschkeProduct((a, -0.5j, a, 0.7))
    pts = critical_points(B)
    assert len(pts) == 3
    assert pts.count(a) == 1  # the double zero is a simple critical point
    for p in pts:
        assert _newton_step_ok(B, p)
    fiber = fiber_solve(B, 0.2 - 0.1j)
    assert max(abs(evaluate(B, z) - (0.2 - 0.1j)) for z in fiber) < 1e-12


def test_fiber_counts_and_residuals():
    rng = np.random.default_rng(16)
    B = random_product(8, seed=111)
    for _ in range(100):
        w = complex(0.95 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random()))
        fiber = fiber_solve(B, w)
        assert fiber.shape == (8,)
        assert np.max(np.abs(fiber)) < 1.0
        assert max(abs(evaluate(B, z) - w) for z in fiber) < 1e-8


def test_power_monodromy_is_full_cycle():
    for n in (2, 3, 5):
        loops = monodromy(power_product(n))
        assert len(loops) == 1
        perm = loops[0][1]
        seen = set()
        i = 0
        for _ in range(n):
            seen.add(i)
            i = perm[i]
        assert len(seen) == n  # one n-cycle


def test_cluster_values_is_single_link_in_any_order():
    """Values chained within 1e-9 of each other form one cluster whether or
    not the middle one comes first; one further off stays apart."""
    chain = np.array([0.5, 0.5 + 1.8e-9j, 0.5 + 0.9e-9j, 0.5 + 3e-9j])
    for values in (chain, np.sort(chain)):
        clusters = covering._cluster_values(values)
        assert len(clusters) == 2
        np.testing.assert_array_equal(clusters[0], values[np.abs(values - 0.5) < 2e-9])
        np.testing.assert_array_equal(clusters[1], [0.5 + 3e-9j])


def test_cycle_string_format():
    assert cycle_string((0, 1, 2)) == "()"
    assert cycle_string((1, 0, 2)) == "(1 2)"
    assert cycle_string((1, 2, 0)) == "(1 2 3)"


def test_generic_structure(random_products):
    for B in random_products:
        if B.degree < 3:
            continue
        rep = analyze(B)
        if rep.case_label == DEGENERATE:
            continue
        n = B.degree
        perms = [m[1] for m in rep.monodromy]
        assert all(_is_transposition(p) for p in perms)
        assert _is_transitive(perms, n)
        assert len(rep.sheet_edges) == n - 1
        assert 0 <= rep.distinguished_sheet < n


def test_analyze_degree_one_is_trivial():
    rep = analyze(power_product(1))
    assert rep.critical_points == ()
    assert rep.monodromy == ()
    assert rep.case_label == SURFACE_CASE


def test_classify_rotation_invariance():
    a = default_threshold()
    rng = np.random.default_rng(17)
    for seed in (121, 122, 123, 124, 125):
        B = random_product(4, seed=seed)
        theta = float(2.0 * math.pi * rng.random())
        rotated = BlaschkeProduct(B.zeros, rotation=complex(np.exp(1j * theta)))
        assert classify(B, a).case_label == classify(rotated, a).case_label


def test_classify_cases():
    a = default_threshold()
    # all critical values of z^n sit at the origin, inside modulus a
    assert classify(power_product(3), a).case_label == SURFACE_CASE
    B = random_product(4, seed=131)
    v = max(classify(B, 0.5).critical_values, key=abs)
    # some critical value escaping modulus a puts us in the slit-disk case
    assert abs(v) > 1e-3
    assert classify(B, 1e-3).case_label == SLIT_DISK
    # a critical value exactly on the threshold modulus is degenerate
    assert classify(B, abs(v)).case_label == DEGENERATE
    with pytest.raises(DomainError):
        classify(B, 1.5)


def test_symmetric_product_is_degenerate_and_perturbable():
    # zeros at +-x and +-iy give coincident critical values on one ray
    B = BlaschkeProduct((0.5, -0.5, 0.4j, -0.4j))
    assert classify(B, default_threshold()).case_label == DEGENERATE
    rep = analyze(B, perturb=True, seed=3)
    assert rep.case_label != DEGENERATE
    assert len(rep.sheet_edges) == 3
    assert all(_is_transposition(m[1]) for m in rep.monodromy)


def test_sheet_tree_requires_transpositions():
    rep = analyze(power_product(3))
    assert rep.monodromy != ()
    with pytest.raises(StructureError):
        sheet_tree(rep)


def test_distinguished_sheet_on_path_graph():
    # path 0-1-2-3: the diameter endpoints are 0 and 3, second vertex is 1
    edges = ((0, 1, 0), (1, 2, 1), (2, 3, 2))
    assert distinguished_sheet(edges, 4) in (1, 2)
    star = ((0, 1, 0), (0, 2, 1), (0, 3, 2))
    assert distinguished_sheet(star, 4) == 0


def test_report_serialization_is_one_based():
    rep = analyze(random_product(3, seed=141))
    data = rep.to_json()
    for entry in data["monodromy"]:
        assert entry["permutation"].startswith("(")
    for i, j, k in data["sheet_edges"]:
        assert i >= 1 and j >= 1
    assert data["case_label"] in (SLIT_DISK, SURFACE_CASE, DEGENERATE)


# cycle strings of analyze() recorded with the loop-by-loop tracker; product k
# is random_product(2 + k % 7, seed=50_000 + k) with the laws alternating, the
# first 30 products of acceptance criterion 08
PINNED_CYCLES = (
    ("(1 2)",),
    ("(1 2)", "(1 3)"),
    ("(3 4)", "(2 3)", "(1 3)"),
    ("(4 5)", "(2 4)", "(1 2)", "(3 4)"),
    ("(4 5)", "(4 6)", "(3 4)", "(2 4)", "(1 2)"),
    ("(6 7)", "(4 6)", "(5 6)", "(3 6)", "(2 6)", "(1 6)"),
    ("(7 8)", "(6 7)", "(3 6)", "(2 6)", "(3 4)", "(3 5)", "(1 6)"),
    ("(1 2)",),
    ("(1 2)", "(2 3)"),
    ("(2 3)", "(3 4)", "(1 3)"),
    ("(3 4)", "(4 5)", "(2 3)", "(1 2)"),
    ("(2 5)", "(4 5)", "(3 4)", "(1 4)", "(5 6)"),
    ("(2 4)", "(1 4)", "(3 4)", "(4 7)", "(5 7)", "(6 7)"),
    ("(2 3)", "(5 6)", "(4 5)", "(5 8)", "(3 4)", "(6 7)", "(1 4)"),
    ("(1 2)",),
    ("(1 3)", "(2 3)"),
    ("(1 3)", "(2 3)", "(1 4)"),
    ("(1 2)", "(2 4)", "(2 5)", "(1 3)"),
    ("(1 3)", "(4 6)", "(3 5)", "(2 4)", "(2 3)"),
    ("(2 5)", "(1 3)", "(4 5)", "(3 4)", "(5 7)", "(6 7)"),
    ("(1 3)", "(5 6)", "(2 3)", "(4 5)", "(7 8)", "(3 7)", "(4 7)"),
    ("(1 2)",),
    ("(1 2)", "(1 3)"),
    ("(2 3)", "(2 4)", "(1 2)"),
    ("(1 2)", "(2 5)", "(3 4)", "(2 3)"),
    ("(2 5)", "(2 6)", "(2 4)", "(2 3)", "(1 2)"),
    ("(5 7)", "(2 4)", "(1 5)", "(2 5)", "(1 3)", "(5 6)"),
    ("(2 3)", "(4 5)", "(3 5)", "(5 6)", "(1 3)", "(5 8)", "(5 7)"),
    ("(1 2)",),
    ("(1 2)", "(1 3)"),
)


def test_pinned_monodromy_permutations():
    for k, expected in enumerate(PINNED_CYCLES):
        law = "uniform_disk" if k % 2 == 0 else "boundary_concentrated"
        rep = analyze(random_product(2 + k % 7, seed=50_000 + k, law=law))
        assert tuple(cycle_string(p) for _v, p in rep.monodromy) == expected, k
    rep = analyze(power_product(4))
    assert tuple(cycle_string(p) for _v, p in rep.monodromy) == ("(1 2 4 3)",)


def test_boundary_zero_tracks_to_a_sheet_tree():
    # a zero at |z| = 0.99990: |B'| ~ 2e4 on the nearby fiber points puts an
    # absolute residual of 1e-12 below rounding, which stalled the corrector
    # until the step size underflowed
    B = BlaschkeProduct((
        0.6385316214155944 + 0.4940605785011878j,
        -0.9315963358597775 - 0.2490955409606802j,
        -0.9506051120937279 + 0.3088840253112892j,
        -0.8347639468235567 + 0.5450992383976428j,
        0.6645589681924827 - 0.7471002099192727j,
        -0.004698520152866266 + 0.11771565721740035j,
        0.4115606947966828 + 0.9111923659412771j,
        0.1778082461188081 + 0.9837227945023751j,
        0.05448376856333964 + 0.7046503175405964j,
        -0.8602465728445697 + 0.36390195314941304j,
    ))
    rep = analyze(B)
    assert rep.case_label != DEGENERATE
    assert all(_is_transposition(p) for _v, p in rep.monodromy)
    assert len(rep.sheet_edges) == 9
    assert rep.distinguished_sheet is not None


def test_critical_value_near_the_origin_moves_the_default_base_point():
    # a critical value at |v| = 7.07e-7 lies within the 1e-6 clearance that
    # monodromy demands of the base point, so the default must leave w = 0
    B = random_product(16, seed=804)
    assert np.min(np.abs(covering._values_of(B, critical_points(B)))) < 1e-6
    rep = analyze(B)
    assert rep.case_label != DEGENERATE
    assert all(_is_transposition(p) for _v, p in rep.monodromy)
    assert len(rep.sheet_edges) == 15
    assert rep.distinguished_sheet is not None


def _track_piece_reference(evaluate, z, piece):
    """One fiber along one route piece, step by step: the per-route rules of
    the lockstep tracker written as a plain loop, sharing its evaluator."""
    start, delta, rho, theta0, circle = piece

    def w_of_t(t):
        if circle:
            return start + rho * complex(math.cos(theta0 + 2.0 * math.pi * t),
                                         math.sin(theta0 + 2.0 * math.pi * t))
        return start + t * delta

    def fiber_eval(x):
        value, der = evaluate(x[None, :])
        return value[0], der[0]

    t, h, w_prev = 0.0, 1.0 / 16.0, w_of_t(0.0)
    dp = fiber_eval(z)[1]
    while t < 1.0 - 1e-15:
        h = min(h, 1.0 - t)
        w_new = w_of_t(t + h)
        pred = z + (w_new - w_prev) / dp
        x = np.where(np.isfinite(pred), pred, z)
        for iters in range(9):
            value, dx = fiber_eval(x)
            tol = np.fmax(1e-12, 8.0 * np.finfo(float).eps * np.abs(x) * np.abs(dx))
            if np.all(np.abs(value - w_new) <= tol):
                break
            if np.any(np.abs(dx) < 1e-300) or not np.all(np.isfinite(dx)):
                iters = 9
                break
            x = x - (value - w_new) / dx
            if np.any(np.abs(x) > 1.2) or not np.all(np.isfinite(x)):
                iters = 9
                break
        else:
            iters = 9
        sep = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(sep, np.inf)
        if iters > 4 or np.max(np.abs(x - z)) > 0.4 * sep.min():
            h *= 0.5
            assert h >= 1e-8
            continue
        z, dp, w_prev, t = x, dx, w_new, t + h
        if iters <= 2:
            h = min(2.0 * h, 0.125)
    return z


def test_lockstep_tracking_matches_route_by_route_reference(monkeypatch):
    # the numpy lockstep tracker, the reference twin of the compiled one,
    # whatever backend was imported; test_kernels holds the two together
    monkeypatch.setattr(_kernels, "track_routes", _fallback.track_routes)
    seen = []

    def record(B, base, routes):
        ends, errors = track(B, base, routes)
        seen.append((B, base, routes, ends, errors))
        return ends, errors

    track = covering._track_routes
    monkeypatch.setattr(covering, "_track_routes", record)
    for k in range(12):
        law = "uniform_disk" if k % 2 == 0 else "boundary_concentrated"
        monodromy(random_product(3 + k % 6, seed=60_000 + k, law=law))
    for B, base, routes, ends, errors in seen:
        assert errors == [None] * len(routes)
        evaluate = partial(_value_and_derivative, B.zeros_array, B.rotation)
        with np.errstate(all="ignore"):
            for route, end in zip(routes, ends):
                z = base.copy()
                for piece in route:
                    z = _track_piece_reference(evaluate, z, piece)
                np.testing.assert_array_equal(z, end)


def test_tracking_failures_keep_their_errors(monkeypatch, request):
    backends = [_fallback.track_routes]
    try:  # and the C kernel, wherever it compiles
        backends.append(_kernels.compiled(request.getfixturevalue("ckernel"))[1])
    except pytest.skip.Exception:
        pass
    B = random_product(5, seed=181)
    # a route whose first piece starts at w = 0.9, away from the base fiber
    # over 0: no step is ever accepted, and the step size underflows
    stray = [covering._segment(0.9 + 0j, 0.95 + 0j)]
    track = covering._track_routes

    def with_stray(at):
        return lambda B, base, routes: track(B, base, [*routes[:at], stray, *routes[at:]])

    for backend in backends:
        with monkeypatch.context() as m:
            m.setattr(_kernels, "track_routes", backend)
            m.setattr(covering, "COLLISION_TOL", 2.0)
            with pytest.raises(CollisionError, match="two fiber paths collided during tracking"):
                monodromy(B)
            # two routes fail, each in its own way: the earlier one's error is raised
            m.setattr(covering, "_track_routes", with_stray(0))
            with pytest.raises(ContinuationError, match="fiber tracking step size underflow"):
                monodromy(B)
            m.setattr(covering, "_track_routes", with_stray(1))
            with pytest.raises(CollisionError, match="two fiber paths collided during tracking"):
                monodromy(B)
        with monkeypatch.context() as m:
            m.setattr(_kernels, "track_routes", backend)
            m.setattr(covering, "_MAX_MOVE", 0.0)
            with pytest.raises(ContinuationError, match="fiber tracking step size underflow"):
                monodromy(B)
