"""Acceptance gate: one test (and one printed verdict line) per criterion.

Tolerances are pinned here on purpose; loosening them is a contract change,
not a test fix.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from blochkit.cli import _sweep_product
from blochkit.constants import computed_constants
from blochkit.covering import DEGENERATE, analyze
from blochkit.errors import BlochkitError
from blochkit.pointbound import compute_delta, construct, select_zeta, verify_construction
from blochkit.products import (
    BlaschkeProduct,
    MoebiusAutomorphism,
    derivative,
    evaluate,
    precompose,
    random_product,
)
from blochkit.seminorm import catalog_entry, composed_seminorm, pointwise_bloch, seminorm, znorm_closed_form
from blochkit.slitdisk import solve_a_by_radius_bisection, solve_a_for_target
from blochkit.surface import map_f, parameter_integrals_fixed, solve_surface

from conftest import mixed_products, power_product


def _derivative_numerator(B: BlaschkeProduct) -> np.ndarray:
    """Coefficients of N'D - ND' for B = rotation * N / D, multiplied out in the
    monomial basis with leading coefficients below 1e-12 of the largest
    stripped: the polynomial route that acceptance 10 checks B' against."""
    num = np.array([1.0 + 0.0j])
    den = np.array([1.0 + 0.0j])
    for zj in B.zeros:
        num = np.convolve(num, np.array([1.0, -zj]))
        den = np.convolve(den, np.array([-zj.conjugate(), 1.0]))
    p = np.convolve(np.polyder(num), den) - np.convolve(num, np.polyder(den))
    keep = np.nonzero(np.abs(p) > 1e-12 * np.abs(p).max())[0]
    return p[keep[0]:]


def _report(capsys, num: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)


def test_acceptance_01_constants_reproduction(capsys):
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "blochkit.cli", "constants"],
                         capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    ok = out.returncode == 0 and elapsed < 10.0
    if ok:
        rows = {r["name"]: r for r in json.loads(out.stdout)["constants"]}
        ok = (abs(rows["s0"]["value"] - 2.379796) < 1e-5
              and abs(rows["a"]["value"] - 0.024286) < 1e-5
              and abs(rows["log_a"]["value"] + 3.7178547) < 1e-5
              and abs(rows["c"]["value"] - 1.098259) < 1e-4
              and abs(rows["d"]["value"] - 1.766556) < 1e-4
              and abs(rows["r0"]["value"] - 0.695356) < 1e-4)
    _report(capsys, 1, "constants reproduction", ok)
    assert ok, f"exit={out.returncode} elapsed={elapsed:.2f}s"


def test_acceptance_02_dual_slit_parameter_routes(capsys):
    diff = abs(solve_a_for_target(0.175) - solve_a_by_radius_bisection(0.7))
    ok = diff < 1e-8
    _report(capsys, 2, "dual slit-parameter routes", ok)
    assert ok, f"route difference {diff:.3e}"


def test_acceptance_03_power_family(capsys):
    worst = max(abs(seminorm(power_product(n)).value - znorm_closed_form(n))
                for n in range(1, 51))
    limit_err = abs(znorm_closed_form(10**6) - 2.0 / math.e)
    ok = worst < 1e-8 and limit_err < 1e-5
    _report(capsys, 3, "power family closed form", ok)
    assert ok, f"worst optimizer gap {worst:.3e}, limit gap {limit_err:.3e}"


def test_acceptance_04_seminorm_sweep(capsys):
    floor = computed_constants()["r0"] - 1e-3
    t0 = time.perf_counter()
    low = 2.0
    violations = 0
    for i in range(1000):
        _, _, product = _sweep_product(0, i, 8)
        value = seminorm(product).value
        low = min(low, value)
        if not (floor <= value <= 1.0 + 1e-9):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 300.0
    _report(capsys, 4, "randomized seminorm sweep", ok)
    assert ok, f"violations={violations} min={low:.6f} elapsed={elapsed:.1f}s"


def test_acceptance_05_pointwise_certificates(capsys):
    worst_ratio = math.inf
    worst_margin = math.inf
    ok = True
    for B in mixed_products(500, 12, base_seed=500_000):
        zeta = select_zeta(B)
        delta = compute_delta(B, zeta)
        result = construct(B, zeta, delta)
        worst_ratio = min(worst_ratio, result.actual_value - 0.07 * delta)
        margins = verify_construction(B, result, samples=20)
        worst_margin = min(worst_margin, min(margins.values()))
        ok = ok and result.actual_value >= 0.07 * delta - 1e-12
        ok = ok and all(m >= -1e-12 for m in margins.values())
    _report(capsys, 5, "pointwise certificates", ok)
    assert ok, f"worst excess {worst_ratio:.3e}, worst chain margin {worst_margin:.3e}"


def test_acceptance_06_exact_rational_bounds(capsys):
    seventh = Fraction(1, 7)
    eighth = Fraction(1, 8)
    one = Fraction(1)

    def bound(d: Fraction, delta: Fraction) -> Fraction:
        from blochkit.pointbound import guaranteed_bound_exact
        return guaranteed_bound_exact(d, delta)

    ok = (bound(seventh, one) == Fraction(319, 4536)
          and bound(eighth, one) == Fraction(1353, 19208)
          and bound(seventh, one) > Fraction(7, 100)
          and bound(eighth, one) > Fraction(7, 100))
    _report(capsys, 6, "exact rational bounds", ok)
    assert ok


def test_acceptance_07_quadrature_and_path_independence(capsys):
    sol = solve_surface()
    f256 = parameter_integrals_fixed(sol.c, sol.d, 256)
    f512 = parameter_integrals_fixed(sol.c, sol.d, 512)
    doubling = max(abs(f256[0] - f512[0]), abs(f256[1] - f512[1]))
    drift = max(abs(map_f(z, sol, contour="default") - map_f(z, sol, contour="offset"))
                for z in (0.4 + 0.7j, -0.3 + 0.2j, 2.4 + 1.1j))
    ok = doubling < 1e-10 and drift < 1e-8
    _report(capsys, 7, "quadrature convergence and path independence", ok)
    assert ok, f"doubling {doubling:.3e}, contour drift {drift:.3e}"


def test_acceptance_08_covering_structure(capsys):
    checked = 0
    attempt = 0
    ok = True
    detail = ""
    while checked < 100 and attempt < 200:
        degree = 2 + attempt % 7
        law = "uniform_disk" if attempt % 2 == 0 else "boundary_concentrated"
        B = random_product(degree, seed=50_000 + attempt, law=law)
        attempt += 1
        try:
            rep = analyze(B)
        except BlochkitError as exc:
            ok = False
            detail = f"attempt {attempt - 1}: {type(exc).__name__}"
            break
        if rep.case_label == DEGENERATE:
            continue
        n = B.degree
        perms = [m[1] for m in rep.monodromy]
        transpositions = all(sum(1 for i, j in enumerate(p) if i != j) == 2
                             for p in perms)
        if not (len(rep.critical_points) == n - 1 and transpositions
                and len(rep.sheet_edges) == n - 1
                and rep.distinguished_sheet is not None):
            ok = False
            detail = f"attempt {attempt - 1}: structural check failed"
            break
        checked += 1
    ok = ok and checked == 100
    _report(capsys, 8, "covering structure", ok)
    assert ok, detail or f"only {checked} generic products verified"


def test_acceptance_09_composition_thresholds(capsys):
    convex = catalog_entry("convex")
    bumpy = catalog_entry("quadratic")
    low_convex = math.inf
    low_bumpy = math.inf
    for B in mixed_products(20, 8, base_seed=900_000):
        low_convex = min(low_convex, composed_seminorm(convex, B).value)
        low_bumpy = min(low_bumpy, composed_seminorm(bumpy, B).value)
    ok = low_convex > 0.545131 and low_bumpy > 0.300098
    _report(capsys, 9, "composition thresholds", ok)
    assert ok, f"convex min {low_convex:.6f}, non-convex min {low_bumpy:.6f}"


def test_acceptance_10_property_suite(capsys):
    rng = np.random.default_rng(0)
    trials = 0
    ok = True

    def interior(count: int) -> np.ndarray:
        return (0.95 * np.sqrt(rng.random(count))
                * np.exp(2j * math.pi * rng.random(count)))

    # Schwarz-Pick pointwise bound: 200 products x 20 points
    for k in range(200):
        B = random_product(1 + k % 6, seed=int(rng.integers(1 << 31)),
                           law="uniform_disk" if k % 2 == 0 else "boundary_concentrated")
        for z in interior(20):
            trials += 1
            ok = ok and pointwise_bloch(B, complex(z)) <= 1.0 + 1e-9

    # boundary unimodularity: 150 products x 20 points
    for k in range(150):
        B = random_product(1 + k % 8, seed=int(rng.integers(1 << 31)))
        zeta = np.exp(2j * math.pi * rng.random(20))
        vals = np.abs(evaluate(B, zeta))
        trials += 20
        ok = ok and bool(np.max(np.abs(vals - 1.0)) < 1e-10)

    # derivative cross-check (log-derivative route vs polynomial route):
    # 145 products x 20 points
    for k in range(145):
        B = random_product(2 + k % 5, seed=int(rng.integers(1 << 31)))
        coeffs = _derivative_numerator(B)
        for z in interior(20):
            z = complex(z)
            trials += 1
            den = np.prod([1.0 - np.conjugate(zj) * z for zj in B.zeros])
            alt = B.rotation * np.polyval(coeffs, z) / den**2
            direct = derivative(B, z)
            ok = ok and abs(alt - direct) < 1e-9 * max(1.0, abs(alt))

    # Moebius invariance of the seminorm estimate: 100 pairs
    for k in range(100):
        B = random_product(1 + k % 6, seed=int(rng.integers(1 << 31)))
        phi = MoebiusAutomorphism(
            complex(0.8 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())),
            theta=float(2.0 * math.pi * rng.random()),
        )
        trials += 1
        gap = abs(seminorm(B).value - seminorm(precompose(B, phi)).value)
        ok = ok and gap <= 2e-6

    ok = ok and trials == 10_000
    _report(capsys, 10, "randomized property suite", ok)
    assert ok, f"trials={trials}"
