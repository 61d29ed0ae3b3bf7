"""Two-sheeted surface: parameter solve, mapping integral, conformal radius."""

from __future__ import annotations

import cmath
import math
import re

import numpy as np
import pytest

from blochkit import surface
from blochkit.errors import ConvergenceError, DomainError, PathError, SingularityError
from blochkit.quadrature import integrate_fixed
from blochkit.slitdisk import default_threshold
from blochkit.surface import (
    RADIUS_PROBE,
    SurfaceSolution,
    _default_starts,
    _F,
    _log_radius_derivatives,
    _segment_clearance,
    conformal_radius_at,
    edge_integrals,
    map_f,
    maximize_radius,
    parameter_integrals,
    parameter_integrals_fixed,
    parameter_jacobian,
    solve_parameters,
    solve_surface,
)

CHECKPOINT_RADIUS = 0.6953559267642164


@pytest.fixture(scope="module")
def solution() -> SurfaceSolution:
    return solve_surface(starts=8)


def test_parameter_residuals(solution):
    a = solution.a
    first, second = parameter_integrals(solution.c, solution.d)
    assert abs(first - 1.5 * math.pi) < 1e-11
    assert abs(second + 0.5 * math.log(a)) < 1e-11


def test_reference_window(solution):
    assert abs(solution.a - default_threshold()) < 1e-15
    assert abs(solution.c - 1.098259) < 1e-4
    assert abs(solution.d - 1.766556) < 1e-4


def test_node_doubling_convergence(solution):
    c, d = solution.c, solution.d
    f256 = parameter_integrals_fixed(c, d, 256)
    f512 = parameter_integrals_fixed(c, d, 512)
    assert abs(f256[0] - f512[0]) < 1e-10
    assert abs(f256[1] - f512[1]) < 1e-10


def test_map_at_left_prevertex_is_zero(solution):
    assert map_f(-1.0 + 0j, solution) == 0j


def test_path_independence_between_contours(solution):
    for z in (0.4 + 0.7j, -0.3 + 0.2j, 2.4 + 1.1j, 0.03 + 0.36j):
        default = map_f(z, solution, contour="default")
        offset = map_f(z, solution, contour="offset")
        assert abs(default - offset) < 1e-8


def test_edge_integrals_match_rectangle(solution):
    edges = edge_integrals(solution)
    assert abs(edges["rectangle_height"] - 3.0 * math.pi) < 1e-6
    assert abs(edges["rectangle_width"] + math.log(solution.a)) < 1e-6
    assert abs(edges["edge_drop"] - math.pi) < 1e-6
    assert abs(edges["strip_width"] - 2.0 * math.pi) < 1e-6


def test_image_lies_in_horizontal_strip(solution):
    rng = np.random.default_rng(7)
    for _ in range(12):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 2.0))
        w = map_f(z, solution)
        assert -1e-9 <= w.imag <= 3.0 * math.pi + 1e-9


def test_logarithmic_growth_at_infinity(solution):
    g1 = map_f(200j, solution) + 2.0 * cmath.log(200j)
    g2 = map_f(400j, solution) + 2.0 * cmath.log(400j)
    assert abs(g1 - g2) < 1e-2


def test_branch_point_rejected(solution):
    with pytest.raises(SingularityError):
        map_f(complex(solution.c, 0.0), solution)
    with pytest.raises(DomainError):
        map_f(0.2 - 0.3j, solution)


def test_clearance_enforced_near_branch(solution):
    with pytest.raises(PathError):
        map_f(1.0 + 5e-4 + 0j, solution)


def test_checkpoint_radius(solution):
    value = conformal_radius_at(RADIUS_PROBE, solution)
    assert abs(value - CHECKPOINT_RADIUS) < 1e-10


def test_radius_vanishes_toward_real_axis(solution):
    assert conformal_radius_at(0.5 + 1e-5j, solution) < 1e-3


def test_solution_maximum_consistency(solution):
    recomputed = conformal_radius_at(solution.argmax_z, solution)
    assert abs(recomputed - solution.r0) < 1e-12
    assert solution.r0 > CHECKPOINT_RADIUS
    assert abs(solution.r0 - 0.6954003928454122) < 1e-6


def test_maximize_probe_only_agrees(solution):
    argmax, value = maximize_radius(solution, starts=1)
    assert abs(value - solution.r0) < 1e-6
    assert abs(argmax - solution.argmax_z) < 1e-3


def test_jacobian_invertible(solution):
    residuals, jac = parameter_jacobian(solution.c, solution.d, solution.a)
    assert np.max(np.abs(residuals)) < 1e-11
    assert np.all(np.isfinite(jac))
    assert abs(np.linalg.det(jac)) > 1e-12
    assert np.linalg.cond(jac) < 1e4


@pytest.mark.parametrize("c", (1.5, 1.001))
def test_log_shifts_keep_jacobian_points_inside_the_domain(c):
    # the Jacobian's shifts in u = log(c - 1) and v = log(d - c) scale with
    # c - 1 and d - c, so both shifted points stay inside 1 < c < d for any
    # d - c, here one far smaller than c - 1: the residuals are the plain ones
    # and the Jacobian is finite
    d = c + 5e-7
    residuals, jac = parameter_jacobian(c, d, 0.1)
    first, second = parameter_integrals(c, d)
    assert residuals.tolist() == [first - 1.5 * math.pi, second + 0.5 * math.log(0.1)]
    assert np.all(np.isfinite(jac))


def test_alternate_slit_parameter():
    c, d = solve_parameters(0.05)
    assert 1.0 < c < d
    first, second = parameter_integrals(c, d)
    assert abs(first - 1.5 * math.pi) < 1e-9
    assert abs(second + 0.5 * math.log(0.05)) < 1e-9


def test_solution_validation():
    with pytest.raises(DomainError):
        SurfaceSolution(0.3, 2.0, 1.5, 1.0, 0.5j, 256)
    with pytest.raises(DomainError):
        SurfaceSolution(1.3, 1.1, 1.5, 1.0, 0.5j, 256)


def test_node_counts_without_a_doubling_are_rejected(solution):
    """Below 16 nodes, or above the largest count whose adaptive start
    nodes // 4 still leaves a doubling under quadrature.MAX_NODES."""
    for nodes in (8, 15, 4100, 20000):
        with pytest.raises(DomainError, match="node count"):
            parameter_integrals(solution.c, solution.d, nodes)
    assert surface.NODE_RANGE == (16, 4099)


def test_solve_survives_a_failed_trial_quadrature():
    # here a line-search trial point lies so close to c = 1 that the adaptive
    # quadrature gives up; the solve must reject that step, not fail
    a = 0.36258993349925034
    c, d = solve_parameters(a)
    first, second = parameter_integrals(c, d)
    assert 1.0 < c < d
    assert abs(first - 1.5 * math.pi) < 1e-9
    assert abs(second + 0.5 * math.log(a)) < 1e-9


def test_default_starts_are_pinned():
    starts = _default_starts(40)
    grid = [complex(x, y) for x in np.linspace(-1.2, 1.2, 7) for y in (0.15, 0.36, 0.7, 1.2)]
    assert starts[:29] == [RADIUS_PROBE] + grid
    assert starts[29:] == [
        0.75j, -0.6 + 0.42500000000000004j, 0.6 + 1.0750000000000002j,
        -0.8999999999999999 + 0.2625j, 0.3 + 0.9125j, -0.3 + 0.5875j,
        0.8999999999999999 + 1.2375j, -1.05 + 0.18125000000000002j,
        0.15 + 0.83125j, -0.44999999999999996 + 0.50625j,
        0.75 + 1.1562500000000002j,
    ]
    assert _default_starts(8) == starts[:8]
    assert _default_starts(0) == starts[:1]


# ----------------------------------------------------------------------------
# the radius search against an independent Nelder-Mead search
# ----------------------------------------------------------------------------

def _seg_min_dist_reference(p0, p1, points):
    d = p1 - p0
    L = abs(d)
    best = math.inf
    for q in points:
        if L == 0.0:
            best = min(best, abs(q - p0))
            continue
        s = ((q - p0) / d).real * L
        s = min(max(s, 0.0), L)
        best = min(best, abs(q - (p0 + (s / L) * d)))
    return best


def _radius_reference(x, y, c, d, n):
    """r(x + iy) one point at a time, three n-node legs on the default contour."""
    if y <= 1e-6:
        return -1.0
    z = complex(x, y)
    if min(abs(z + 1.0), abs(z - 1.0), abs(z - c), abs(z - d)) < 2e-3:
        return -1.0
    branch = (-1.0, 1.0, c, d)
    height = max(1.0, y)
    total = 0.0 + 0.0j
    total += integrate_fixed(lambda u: _F(-1.0 + 1j * u * u, c, d) * 2j * u,
                             0.0, math.sqrt(height), n)
    if _seg_min_dist_reference(-1.0 + 1j * height, x + 1j * height,
                               branch) < surface.PATH_CLEARANCE:
        raise PathError("horizontal leg violates the branch-point clearance")
    if x != -1.0:
        total += integrate_fixed(lambda s: _F(-1.0 + s * (x + 1.0) + 1j * height, c, d)
                                 * (x + 1.0), 0.0, 1.0, n)
    if height != y:
        if _seg_min_dist_reference(x + 1j * height, z, branch) < surface.PATH_CLEARANCE:
            raise PathError("vertical leg violates the branch-point clearance")
        total += integrate_fixed(lambda s: _F(x + 1j * (height + s * (y - height)), c, d)
                                 * 1j * (y - height), 0.0, 1.0, n)
    pref = math.sqrt(abs(z - d)) / math.sqrt(abs(z - c) * abs(z * z - 1.0))
    return 4.0 * y * abs(np.exp(-2.0 * total)) * pref


def _nm_max_reference(fun, x0, y0, h, ftol, max_iter):
    """Nelder-Mead maximization of fun from one start: reflection 1,
    expansion 2, contractions 1/2, shrink toward the best vertex, until the
    three values span at most ftol."""
    pts = [(x0, y0), (x0 + h, y0), (x0, y0 + h)]
    vals = [fun(*p) for p in pts]
    for _ in range(max_iter):
        order = sorted(range(3), key=lambda i: -vals[i])
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        if vals[0] - vals[2] <= ftol:
            break
        cx = 0.5 * (pts[0][0] + pts[1][0])
        cy = 0.5 * (pts[0][1] + pts[1][1])
        rx, ry = 2.0 * cx - pts[2][0], 2.0 * cy - pts[2][1]
        fr = fun(rx, ry)
        if fr > vals[0]:
            ex, ey = cx + 2.0 * (rx - cx), cy + 2.0 * (ry - cy)
            fe = fun(ex, ey)
            if fe > fr:
                pts[2], vals[2] = (ex, ey), fe
            else:
                pts[2], vals[2] = (rx, ry), fr
        elif fr > vals[1]:
            pts[2], vals[2] = (rx, ry), fr
        else:
            if fr > vals[2]:
                qx, qy = cx + 0.5 * (rx - cx), cy + 0.5 * (ry - cy)
            else:
                qx, qy = cx + 0.5 * (pts[2][0] - cx), cy + 0.5 * (pts[2][1] - cy)
            fq = fun(qx, qy)
            if fq > min(fr, vals[2]):
                pts[2], vals[2] = (qx, qy), fq
            else:
                for k in (1, 2):
                    pts[k] = (0.5 * (pts[k][0] + pts[0][0]),
                              0.5 * (pts[k][1] + pts[0][1]))
                    vals[k] = fun(*pts[k])
    order = sorted(range(3), key=lambda i: -vals[i])
    return vals[order[0]], pts[order[0]]


@pytest.fixture(scope="module", params=(None, 0.005, 0.1, 0.4),
                ids=("default", "0.005", "0.1", "0.4"))
def scalar_search(request):
    """(a, c, d, per-start results of the scalar search over 40 starts)."""
    a = default_threshold() if request.param is None else request.param
    c, d = solve_parameters(a)
    results = [_nm_max_reference(lambda x, y: _radius_reference(x, y, c, d, 64),
                                 s.real, s.imag, 0.1, 1e-11, 300)
               for s in _default_starts(40)]
    return a, c, d, results


def _scalar_best(scalar_search):
    """(solution, reference argmax, adaptive radius there).

    The reference is the best of all 40 reference starts: the maximum is flat
    in x, and with ftol 1e-11 one start alone stops up to 1.3e-5 away."""
    a, c, d, results = scalar_search
    _value, (x, y) = min(results, key=lambda r: (-r[0], r[1][0], r[1][1]))
    sol = SurfaceSolution(a, c, d, 1.0, RADIUS_PROBE, 256)
    return sol, complex(x, y), conformal_radius_at(complex(x, y), sol)


# the name is kept from the lockstep Nelder-Mead that the Newton search replaced
@pytest.mark.parametrize("count", (1, 2, 8, 29, 40))
def test_lockstep_search_matches_the_scalar_search(scalar_search, count):
    sol, point, reference = _scalar_best(scalar_search)
    argmax, r0 = maximize_radius(sol, starts=count)
    assert r0 >= reference - 1e-14
    assert abs(argmax - point) <= 1e-5


def test_maximize_radius_picks_the_scalar_best(scalar_search):
    sol, point, reference = _scalar_best(scalar_search)
    argmax, r0 = maximize_radius(sol)
    assert r0 >= reference - 1e-14
    assert abs(argmax - point) <= 1e-5


def _log_radius_differences(z, sol, h):
    """Central differences of log r through the adaptive map: the gradient
    with step h and the Hessian (xx, xy, yy) with step 10 h."""
    def phi(w):
        return math.log(conformal_radius_at(w, sol))

    grad = ((phi(z + h) - phi(z - h)) / (2.0 * h),
            (phi(z + 1j * h) - phi(z - 1j * h)) / (2.0 * h))
    k = 10.0 * h
    mid = 2.0 * phi(z)
    hess = ((phi(z + k) - mid + phi(z - k)) / k**2,
            (phi(z + k + 1j * k) - phi(z + k - 1j * k)
             - phi(z - k + 1j * k) + phi(z - k - 1j * k)) / (4.0 * k**2),
            (phi(z + 1j * k) - mid + phi(z - 1j * k)) / k**2)
    return grad, hess


def test_closed_form_derivatives_match_the_adaptive_radius(solution):
    for z in (0.4 + 0.7j, -0.3 + 0.2j, 0.03 + 0.36j, 1.5 + 0.3j, -1.2 + 0.5j,
              1.05 + 0.25j, 2.4 + 1.1j):
        grad, hess = _log_radius_derivatives(z, solution.c, solution.d)
        fd_grad, fd_hess = _log_radius_differences(z, solution, 1e-4)
        np.testing.assert_allclose(grad, fd_grad, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(hess, fd_hess, rtol=1e-4, atol=1e-4)


def test_search_returns_a_nondegenerate_maximum(solution):
    grad, (hxx, hxy, hyy) = _log_radius_derivatives(solution.argmax_z, solution.c,
                                                    solution.d)
    assert math.hypot(*grad) <= 1e-10
    assert hxx < 0.0 and hxx * hyy - hxy * hxy > 0.0


def test_failed_radius_search_raises(solution, monkeypatch):
    # this start walks out toward the box edge and never reaches a maximum
    monkeypatch.setattr(surface, "_default_starts", lambda count: [1.2 + 1.2j])
    with pytest.raises(ConvergenceError):
        maximize_radius(solution)


def _unfiltered_stationary_maximum(z, c, d):
    """The Newton iteration of the radius search without the ascent test:
    every start runs until it converges, its step underflows or its
    iterations run out."""
    g, h = _log_radius_derivatives(z, c, d)
    for _ in range(100):
        norm = math.hypot(*g)
        det = h[0] * h[2] - h[1] * h[1]
        if norm <= 1e-10:
            return z if h[0] < 0.0 and det > 0.0 else None
        if det == 0.0:
            return None
        step = complex((h[1] * g[1] - h[2] * g[0]) / det, (h[1] * g[0] - h[0] * g[1]) / det)
        alpha = 1.0
        while alpha >= 1e-10:
            trial = z + alpha * step
            if (0.0 < trial.imag < 4.0 and abs(trial.real) < 4.0
                    and min(abs(trial - b) for b in (-1.0, 1.0, c, d)) >= 1e-6):
                gt, ht = _log_radius_derivatives(trial, c, d)
                if math.hypot(*gt) <= norm * (1.0 - 1e-4 * alpha):
                    break
            alpha *= 0.5
        else:
            return None
        z, g, h = trial, gt, ht
    return None


def _unfiltered_maximize_radius(sol, starts=29):
    found = []
    for start in _default_starts(starts):
        z = _unfiltered_stationary_maximum(start, sol.c, sol.d)
        if z is not None and all(abs(z - w) > 1e-8 for w in found):
            found.append(z)
    value, x, y = min((-conformal_radius_at(z, sol), z.real, z.imag) for z in found)
    return complex(x, y), -value


_ORACLE_A = ([float(a) for a in np.geomspace(1e-4, 0.4, 26)]
             + [None, 0.43, 0.46, 0.484])


@pytest.mark.parametrize("a", _ORACLE_A, ids=lambda a: "default" if a is None else f"{a:.4g}")
def test_ascent_test_drops_no_maximum(a):
    # the downhill starts dropped early were the ones that never reached a
    # maximum, so the result is the unfiltered search's to the last bit
    a = default_threshold() if a is None else a
    c, d = solve_parameters(a)
    sol = SurfaceSolution(a, c, d, 1.0, RADIUS_PROBE, 256)
    assert maximize_radius(sol) == _unfiltered_maximize_radius(sol)


def test_ascent_test_halves_the_derivative_evaluations(solution, monkeypatch):
    # the unfiltered search makes 439 evaluations here, 313 of them for the
    # 17 starts that walk to the edge of the search box
    calls = []
    derivatives = surface._log_radius_derivatives
    monkeypatch.setattr(surface, "_log_radius_derivatives",
                        lambda *args: calls.append(args) or derivatives(*args))
    maximize_radius(solution)
    assert len(calls) <= 439 // 2


def _count_residual_points(monkeypatch) -> list:
    """Record every (c, d) point at which ``surface._residual`` is evaluated,
    in order; one call may evaluate several points."""
    points = []
    residual = surface._residual

    def counting(c, d, *args):
        points.extend(zip(np.atleast_1d(c).tolist(), np.atleast_1d(d).tolist()))
        return residual(c, d, *args)

    monkeypatch.setattr(surface, "_residual", counting)
    return points


@pytest.mark.parametrize("a", (None, 0.005, 0.05, 0.4, 0.47))
def test_parameter_solve_never_repeats_a_residual(a, monkeypatch):
    # each trial point is evaluated once, in one batch with its two shifted
    # points, and the Jacobian of an accepted point is taken from that batch:
    # no (c, d) point is evaluated twice in the whole solve
    a = default_threshold() if a is None else a
    points = _count_residual_points(monkeypatch)
    solve_parameters(a)
    assert len(set(points)) == len(points)


@pytest.mark.parametrize("a", (0.438, 0.44, 0.462))
def test_parameter_solve_with_c_next_to_one(a):
    c, d = solve_parameters(a)
    assert 1.0 < c < 1.0 + 5e-7 < d
    first, second = parameter_integrals(c, d)
    assert abs(first - 1.5 * math.pi) < 1e-9
    assert abs(second + 0.5 * math.log(a)) < 1e-9


def test_parameter_solve_at_a_0_47():
    # c - 1 = 1.3e-7; with numpy's leggauss rules the I1 quadrature stalled
    # at a delta of 5.1e-11 after 2048 nodes here, and the solve failed
    c, d = solve_parameters(0.47)
    assert 1.0 < c < 1.0 + 2e-7 < d
    first, second = parameter_integrals(c, d)
    assert abs(first - 1.5 * math.pi) <= 1e-10
    assert abs(second + 0.5 * math.log(0.47)) <= 1e-10


def test_failed_parameter_solve_reports_its_best_point(monkeypatch):
    # beyond the checked range the first start reaches c - 1 = 1.2e-10 with
    # I1 stalled near 1e-7; the message once gave the residuals at the
    # second start, [0.033, 2.52], from one more quadrature
    points = _count_residual_points(monkeypatch)
    with pytest.raises(ConvergenceError, match="best point") as exc:
        solve_parameters(0.6)
    c, d, norm = (float(x) for x in
                  re.search(r"\(c, d\) = \((\S+), (\S+)\) with residual (\S+)$",
                            str(exc.value)).groups())
    # a point the solve reached, and no quadrature beyond its Jacobian batches
    assert (c, d) in points[::3] and len(points) % 3 == 0
    first, second = parameter_integrals(c, d)
    assert norm == float(f"{max(abs(first - 1.5 * math.pi), abs(second + 0.5 * math.log(0.6))):.3g}")
    assert 1e-9 <= norm < 1e-6


@pytest.mark.parametrize("a", (0.412, 0.432, 0.434))
def test_parameter_solve_stops_on_its_quadrature_floor(a, monkeypatch):
    # at these a the residuals stall near 1e-11, above the 1e-12 goal; the
    # Newton loop once kept taking steps that did not lower them for all its
    # 100 iterations, 488 residual points against 51-54 when it stops
    points = _count_residual_points(monkeypatch)
    c, d = solve_parameters(a)
    assert 1.0 < c < d
    assert len(points) < 150


def test_parameter_solve_work_on_the_surface_grid(monkeypatch):
    # the 24 values of a that the surface benchmark solves; the Newton loop
    # in (c, d) took 190 Jacobian batches of 3 points here, the one in
    # log(c - 1) and log(d - c) takes 133
    points = _count_residual_points(monkeypatch)
    for a in [float(a) for a in np.geomspace(0.005, 0.4, 23)] + [default_threshold()]:
        solve_parameters(a)
    assert len(points) <= 3 * 140


def _readme_scan() -> list[float]:
    """The README's 226 values of a: 160 log-spaced from 1e-4 to 0.4, then
    steps of 0.002 up to 0.532."""
    return ([float(a) for a in np.geomspace(1e-4, 0.4, 160)]
            + [round(0.4 + 0.002 * k, 3) for k in range(1, 67)])


def test_parameter_scan_converges_on_rules_of_at_most_128_nodes(monkeypatch):
    # with t = 1 - u^2 alone the I1 piece next to t = 1 doubled to 256-1024
    # nodes from a = 0.22 up and did not converge by 2048 at a = 0.532;
    # measured residuals 9.7e-11 up to 0.484 and 8.5e-10 beyond
    accepted = []
    adaptive = surface.integrate_adaptive

    def recording(*args, **kwargs):
        value, nodes = adaptive(*args, **kwargs)
        accepted.append(int(np.max(nodes)))
        return value, nodes

    monkeypatch.setattr(surface, "integrate_adaptive", recording)
    values = _readme_scan()
    assert len(values) == 226 and values[-1] == 0.532
    for a in values:
        c, d = solve_parameters(a)
        first, second = parameter_integrals(c, d)
        residual = max(abs(first - 1.5 * math.pi), abs(second + 0.5 * math.log(a)))
        assert residual <= (1e-10 if a <= 0.484 else 1e-9), a
    assert max(accepted) <= 128


def test_convergence_table_agrees_from_128_nodes():
    # the rows of `blochkit surface --csv`; before the sinh substitution the
    # 128-node row was off by 6e-7 at this a
    c, d = solve_parameters(0.4)
    rows = [parameter_integrals_fixed(c, d, n) for n in (128, 256, 512, 1024)]
    for row in rows[1:]:
        assert abs(row[0] - rows[0][0]) <= 1e-10
        assert abs(row[1] - rows[0][1]) <= 1e-10


def test_parameter_integrals_batch_matches_single_points(monkeypatch):
    accepted = []
    adaptive = surface.integrate_adaptive

    def recording(*args, **kwargs):
        value, nodes = adaptive(*args, **kwargs)
        accepted.append(nodes)
        return value, nodes

    monkeypatch.setattr(surface, "integrate_adaptive", recording)
    points = [solve_parameters(a) for a in (0.001, 0.0243, 0.3, 0.5)]
    points += [(c + 1e-7, d) for c, d in points] + [(1.5, 3.0), (1.0 + 1e-12, 1.2)]
    cs, ds = (np.array(v) for v in zip(*points))
    for nodes in (16, 256, 1024):
        first, second = parameter_integrals(cs, ds, nodes)
        batch = accepted.pop()
        assert first.shape == second.shape == (len(points),)
        for k, (c, d) in enumerate(points):
            one = parameter_integrals(c, d, nodes)
            assert type(one[0]) is float and type(one[1]) is float
            assert np.array_equal(accepted.pop()[:, 0], batch[:, k])
            assert abs(first[k] - one[0]) <= 1e-14
            assert abs(second[k] - one[1]) <= 1e-14


def test_parameter_points_are_checked():
    for c, d in (([1.1, 0.9], [1.8, 1.8]), ([1.1, 1.9], [1.8, 1.8]),
                 ([1.1], [math.inf]), ([1.1, 1.2], [1.8, 1.9, 2.0]),
                 ([[1.1]], [[1.8]])):
        with pytest.raises(DomainError, match="1 < c < d"):
            parameter_integrals(np.array(c), np.array(d))


def test_radius_is_a_python_float(solution):
    assert type(solution.r0) is float
    assert type(maximize_radius(solution, starts=1)[1]) is float
    assert type(conformal_radius_at(RADIUS_PROBE, solution)) is float


def test_segment_clearance_matches_the_scalar_distance():
    rng = np.random.default_rng(11)
    points = (-1.0, 1.0, 1.1, 1.8)
    p0 = rng.uniform(-2.0, 2.0, 50) + 1j * rng.uniform(0.0, 1.5, 50)
    p1 = rng.uniform(-2.0, 2.0, 50) + 1j * rng.uniform(0.0, 1.5, 50)
    p1[:5] = p0[:5]   # degenerate segments
    got = _segment_clearance(p0, p1, points)
    for a, b, dist in zip(p0, p1, got):
        assert abs(dist - _seg_min_dist_reference(a, b, points)) <= 1e-15
