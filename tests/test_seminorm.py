"""Multistart Bloch-seminorm estimation and composition with catalog maps."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from blochkit import covering
from blochkit._kernels._fallback import _start_points
from blochkit.errors import ConvergenceError, DomainError
from blochkit.products import (
    BlaschkeProduct,
    MoebiusAutomorphism,
    boundary_peaks,
    precompose,
    random_product,
)
from blochkit.seminorm import (
    CATALOG,
    _golden_section,
    catalog_entry,
    composed_pointwise,
    composed_seminorm,
    degree2_axis_oracle,
    pointwise_bloch,
    seminorm,
    znorm_closed_form,
)

from conftest import mixed_products, power_product


def test_degree_one_is_exactly_one():
    rng = np.random.default_rng(8)
    for _ in range(5):
        w = 0.8 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
        est = seminorm(BlaschkeProduct((complex(w),)))
        assert abs(est.value - 1.0) < 1e-12
        assert abs(est.argmax - w) < 1e-6


def test_power_family_matches_closed_form():
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 50):
        est = seminorm(power_product(n))
        assert abs(est.value - znorm_closed_form(n)) < 1e-8


def test_closed_form_limit_and_monotonicity():
    assert znorm_closed_form(1) == 1.0
    values = [znorm_closed_form(n) for n in range(1, 200)]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    assert all(v > 2.0 / math.e for v in values)
    assert abs(znorm_closed_form(10**6) - 2.0 / math.e) < 1e-5
    with pytest.raises(DomainError):
        znorm_closed_form(0)


def test_degree_two_axis_oracle():
    for b in (0.1, 0.3, 0.5, 0.7, 0.9):
        oracle_value, oracle_x = degree2_axis_oracle(b)
        est = seminorm(BlaschkeProduct((0j, complex(b))))
        assert abs(est.value - oracle_value) < 1e-9
        assert -1.0 < oracle_x < 1.0


def test_golden_section_brackets_the_maximum_to_the_tolerance():
    for peak, tol in ((0.3, 1e-12), (-0.71, 1e-10), (0.999, 1e-12)):
        x = _golden_section(lambda t: -abs(t - peak), -1.0, 1.0, tol)
        assert abs(x - peak) <= tol
    # a maximum at an end of the bracket is approached from inside
    x = _golden_section(lambda t: t, 0.0, 1.0, 1e-12)
    assert 1.0 - 1e-12 <= x < 1.0


def test_pointwise_definition():
    B = random_product(4, seed=21)
    rng = np.random.default_rng(9)
    for _ in range(10):
        z = complex(0.9 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random()))
        est = pointwise_bloch(B, z)
        assert est >= 0.0
        assert est <= 1.0 + 1e-12
    with pytest.raises(DomainError):
        pointwise_bloch(B, 1.0 + 0j)


def test_estimate_dominates_pointwise_samples():
    B = random_product(6, seed=22)
    value = seminorm(B).value
    rng = np.random.default_rng(10)
    pts = 0.99 * np.sqrt(rng.random(200)) * np.exp(2j * math.pi * rng.random(200))
    samples = max(pointwise_bloch(B, complex(z)) for z in pts)
    assert value >= samples - 1e-9


def test_moebius_invariance_sample():
    rng = np.random.default_rng(11)
    for i in range(5):
        B = random_product(2 + i, seed=300 + i)
        phi = MoebiusAutomorphism(0.6 * math.sqrt(rng.random())
                                  * np.exp(2j * math.pi * rng.random()),
                                  theta=float(rng.random()))
        direct = seminorm(B).value
        pulled = seminorm(precompose(B, phi)).value
        assert abs(direct - pulled) < 2e-6


def _peak_points(B: BlaschkeProduct) -> np.ndarray:
    theta, modulus, _ = boundary_peaks(B)
    return np.array([(1.0 - t / m) * complex(np.exp(1j * th))
                     for th, m in zip(theta, modulus) for t in (0.25, 0.5, 1.0)])


def test_starts_hold_three_peak_starts_per_boundary_peak():
    for B in mixed_products(24, 12, base_seed=31):
        starts = _start_points(B.zeros_array)
        peaks = _peak_points(B)
        assert peaks.size == 3 * boundary_peaks(B)[0].size > 0
        assert np.all(np.abs(peaks) < 1.0) and np.all(np.abs(peaks) > 0.0)
        assert np.isin(peaks, starts).all()


def test_power_product_peak_starts_lie_at_angle_zero():
    for n in (2, 5, 9):
        starts = _start_points(power_product(n).zeros_array)
        expected = [0.0, 1.0 - 0.25 / n, 1.0 - 0.5 / n, 1.0 - 1.0 / n]
        np.testing.assert_allclose(starts, expected, rtol=0.0, atol=1e-15)


def test_starts_stay_below_the_polar_grid_count():
    """Degrees 1-12 under both laws: the peak starts never outnumber the 384
    points of the 24 x 16 polar grid that they replaced."""
    for law in ("uniform_disk", "boundary_concentrated"):
        for degree in range(1, 13):
            for seed in range(10):
                B = random_product(degree, seed=100 * degree + seed, law=law)
                base = np.unique(np.array([0j, *B.zeros])).size
                assert _start_points(B.zeros_array).size <= base + 384


def test_hole_product_reaches_its_maximum():
    """A degree-5 product whose maximum at -0.51829 + 0.84390i the polar
    start grid missed by 7.5e-3 (it gave 0.7595620)."""
    data = json.loads((Path(__file__).parent / "data" / "seminorm_hole.json").read_text())
    est = seminorm(BlaschkeProduct.from_json(data))
    assert est.value >= 0.76710545 - 1e-8
    assert abs(est.argmax - (-0.51829 + 0.84390j)) < 1e-4


def test_little_bloch_boundary_decay():
    rng = np.random.default_rng(12)
    for seed in (51, 52, 53, 54, 55):
        B = random_product(6, seed=seed, law="uniform_disk")
        for _ in range(20):
            z = (1.0 - 1e-6) * complex(np.exp(2j * math.pi * rng.random()))
            assert pointwise_bloch(B, z) < 0.05


def test_catalog_derivatives_are_consistent():
    rng = np.random.default_rng(13)
    h = 1e-6
    for entry in CATALOG:
        assert abs(entry.f_derivative(0j) - 1.0) < 1e-14
        for _ in range(100):
            w = complex(0.8 * math.sqrt(rng.random())
                        * np.exp(2j * math.pi * rng.random()))
            fd = (entry.f_value(w + h) - entry.f_value(w - h)) / (2.0 * h)
            assert abs(entry.f_derivative(w) - fd) < 1e-6


def test_catalog_lookup():
    assert catalog_entry("identity").is_convex_univalent
    assert catalog_entry("halfplane").is_convex_univalent
    assert not catalog_entry("quadratic").is_convex_univalent
    with pytest.raises(DomainError):
        catalog_entry("unknown")


def test_identity_composition_matches_plain_seminorm():
    B = random_product(4, seed=61)
    entry = catalog_entry("identity")
    z = 0.3 + 0.4j
    assert abs(composed_pointwise(entry, B, z) - pointwise_bloch(B, z)) < 1e-13
    assert abs(composed_seminorm(entry, B).value - seminorm(B).value) < 1e-12


def test_composition_thresholds_sample():
    convex = catalog_entry("halfplane")
    bumpy = catalog_entry("quadratic")
    for seed in (71, 72, 73):
        B = random_product(3 + seed % 3, seed=seed)
        assert composed_seminorm(convex, B).value > 0.545131
        assert composed_seminorm(bumpy, B).value > 0.300098


def test_estimate_serialization():
    est = seminorm(power_product(3))
    data = est.to_json()
    assert set(data) == {"value", "argmax", "starts_used", "refinement_iterations"}
    assert abs(data["value"] - est.value) < 1e-15


def test_the_estimates_do_not_solve_the_critical_points(monkeypatch):
    """The critical points are zeros of the quantity, not starts: a failing
    critical-point solve cannot reach either estimate."""
    B = random_product(5, seed=21)
    entry = catalog_entry("quadratic")
    expected = (seminorm(B), composed_seminorm(entry, B))

    def unavailable(_B):
        raise ConvergenceError("critical points unavailable")

    monkeypatch.setattr(covering, "critical_points", unavailable)
    assert (seminorm(B), composed_seminorm(entry, B)) == expected
