"""Constructive pointwise lower bound: boundary maximum, certificate, rationals."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from blochkit.errors import DegenerateError, DomainError
from blochkit.pointbound import (
    DEFAULT_D,
    compute_delta,
    construct,
    guaranteed_bound,
    guaranteed_bound_exact,
    select_zeta,
    verify_construction,
)
from blochkit.products import BlaschkeProduct, boundary_derivative_modulus, random_product
from blochkit.seminorm import pointwise_bloch

from conftest import mixed_products, power_product


def test_exact_rational_values():
    assert guaranteed_bound_exact(Fraction(1, 7), Fraction(1)) == Fraction(319, 4536)
    assert guaranteed_bound_exact(Fraction(1, 8), Fraction(1)) == Fraction(1353, 19208)
    assert Fraction(319, 4536) > Fraction(7, 100)
    assert Fraction(1353, 19208) > Fraction(7, 100)


def test_float_matches_exact():
    for d, delta in ((1 / 7, 1.0), (1 / 8, 1.0), (0.1332, 0.8)):
        exact = guaranteed_bound_exact(Fraction(d).limit_denominator(10**12),
                                       Fraction(delta).limit_denominator(10**12))
        assert abs(guaranteed_bound(d, delta) - float(exact)) < 1e-14


def test_identity_product_construction():
    B = power_product(1)
    zeta = select_zeta(B)
    assert zeta == 1.0 + 0j
    delta = compute_delta(B, zeta)
    assert delta == 1.0
    result = construct(B, zeta, delta)
    assert abs(result.z0 - 6.0 / 7.0) < 1e-15
    assert abs(result.actual_value - 13.0 / 49.0) < 1e-14
    assert result.actual_value >= result.guaranteed_bound


def test_power_products_select_the_real_axis():
    for n in (2, 5, 9):
        assert select_zeta(power_product(n)) == 1.0 + 0j
        assert compute_delta(power_product(n), 1.0 + 0j) == 1.0


def test_select_zeta_beats_dense_scan(random_products):
    rng = np.random.default_rng(14)
    for B in random_products[:8]:
        zeta = select_zeta(B)
        assert abs(abs(zeta) - 1.0) < 1e-12
        best = boundary_derivative_modulus(B, zeta)
        thetas = 2.0 * math.pi * rng.random(2000)
        dense = max(boundary_derivative_modulus(B, complex(np.exp(1j * t)))
                    for t in thetas)
        assert best >= dense - 1e-6


def test_select_zeta_finds_a_narrow_peak():
    """A zero 1.3e-4 from the circle: its peak of |B'| is narrower than a
    4096-angle scan's step, which found 1129.388 at another peak."""
    B = random_product(3, seed=81724177, law="boundary_concentrated")
    zeta = select_zeta(B)
    best = boundary_derivative_modulus(B, zeta)
    scan = boundary_derivative_modulus(B, np.exp(2j * math.pi * np.arange(4096) / 4096))
    assert best >= 1129.388 and best > 10.0 * scan.max()
    theta = math.atan2(zeta.imag, zeta.real)
    for width in (1e-4, 1e-6, 1e-8):
        dense = boundary_derivative_modulus(
            B, np.exp(1j * (theta + np.linspace(-width, width, 20_001)))).max()
        assert best >= dense * (1.0 - 1e-9)


def test_certification_sample():
    for B in mixed_products(50, 12, base_seed=70_000):
        zeta = select_zeta(B)
        delta = compute_delta(B, zeta)
        result = construct(B, zeta, delta)
        assert result.actual_value >= 0.07 * delta - 1e-12
        margins = verify_construction(B, result)
        assert all(m >= -1e-12 for m in margins.values())


def test_verify_margins_keys():
    B = random_product(4, seed=81)
    result = construct(B, select_zeta(B), compute_delta(B, select_zeta(B)))
    margins = verify_construction(B, result, samples=20)
    assert set(margins) == {"separation_margin", "cofactor_margin", "base_modulus_margin"}


def test_bound_monotone_in_delta():
    deltas = np.linspace(0.05, 1.0, 40)
    vals = [guaranteed_bound(DEFAULT_D, float(t)) for t in deltas]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_construct_rejects_infeasible_certificate():
    B = BlaschkeProduct((0.999 + 0j,))
    # at the antipode the derivative modulus is far below d*delta
    with pytest.raises(DomainError):
        construct(B, -1.0 + 0j, 1.0)
    with pytest.raises(DomainError):
        construct(B, 1.0 + 0j, 1.5)
    with pytest.raises(DomainError):
        construct(B, 1.0 + 0j, 1.0, d_param=0.75)


def test_delta_degenerate_when_zero_touches_circle():
    B = BlaschkeProduct((1.0 - 5e-15 + 0j,), margin=0.0)
    with pytest.raises(DegenerateError):
        compute_delta(B, 1.0 + 0j)


def test_result_serialization_and_actual_value():
    B = random_product(3, seed=91)
    zeta = select_zeta(B)
    result = construct(B, zeta, compute_delta(B, zeta))
    data = result.to_json()
    assert set(data) == {"zeta", "delta", "d_param", "z0", "guaranteed_bound",
                         "actual_value"}
    assert abs(result.actual_value - pointwise_bloch(B, result.z0)) < 1e-15
