"""Multistart Bloch-seminorm estimation and composition with catalog maps."""

from __future__ import annotations

import math

import numpy as np
import pytest

from blochkit import covering
from blochkit.errors import ConvergenceError, DomainError, RangeError, RootCountError
from blochkit.products import BlaschkeProduct, MoebiusAutomorphism, precompose, random_product
from blochkit.seminorm import (
    CATALOG,
    OptimizerConfig,
    catalog_entry,
    composed_pointwise,
    composed_seminorm,
    degree2_axis_oracle,
    pointwise_bloch,
    seminorm,
    znorm_closed_form,
)

from conftest import power_product


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


def test_refinement_is_monotone_under_grid_doubling():
    coarse = OptimizerConfig(grid_angles=24, grid_radii=16)
    fine = OptimizerConfig(grid_angles=48, grid_radii=32)
    for seed in (31, 32, 33):
        B = random_product(5, seed=seed)
        v_coarse = seminorm(B, coarse).value
        v_fine = seminorm(B, fine).value
        assert v_fine >= v_coarse - 1e-12


def test_stochastic_starts_are_reproducible():
    B = random_product(6, seed=44)
    cfg = OptimizerConfig(stochastic_starts=32, seed=5)
    assert seminorm(B, cfg).value == seminorm(B, cfg).value
    other = seminorm(B, OptimizerConfig(stochastic_starts=32, seed=6)).value
    assert other <= 1.0 + 1e-9


def test_config_validation():
    with pytest.raises(RangeError):
        OptimizerConfig(grid_angles=0)
    with pytest.raises(RangeError):
        OptimizerConfig(max_iterations=-1)
    with pytest.raises(RangeError):
        OptimizerConfig(stochastic_starts=-3)


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


def test_only_a_root_count_failure_drops_the_critical_starts(monkeypatch):
    B = random_product(5, seed=21)
    full = seminorm(B)

    def fail(error):
        def critical_points(_B):
            raise error("critical points unavailable")
        return critical_points

    monkeypatch.setattr(covering, "critical_points", fail(RootCountError))
    dropped = seminorm(B)
    assert dropped.starts_used == full.starts_used - (B.degree - 1)
    monkeypatch.setattr(covering, "critical_points", fail(ConvergenceError))
    with pytest.raises(ConvergenceError, match="critical points unavailable"):
        seminorm(B)
