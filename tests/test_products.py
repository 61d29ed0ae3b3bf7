"""Evaluation, derivative and serialization of finite Blaschke products."""

from __future__ import annotations

import math

import numpy as np
import pytest

from blochkit.errors import DomainError, RangeError
from blochkit.products import (
    BOUNDARY_MARGIN,
    ZERO_SWITCH,
    _derivative_product_rule,
    BlaschkeProduct,
    MoebiusAutomorphism,
    boundary_derivative_modulus,
    derivative,
    evaluate,
    precompose,
    random_product,
)

from conftest import mixed_products, power_product


def test_degree_and_round_trip():
    B = BlaschkeProduct((0.3 + 0.2j, -0.5j), rotation=1j)
    again = BlaschkeProduct.from_json(B.to_json())
    assert again.zeros == B.zeros
    assert again.rotation == B.rotation
    assert B.degree == 2


def test_zero_validation():
    with pytest.raises(DomainError):
        BlaschkeProduct((1.0 + 0j,))
    with pytest.raises(DomainError):
        BlaschkeProduct((0.3 + 0j,), rotation=0.0)
    with pytest.raises(RangeError):
        random_product(5000, seed=0)


def test_vanishes_at_zeros_and_bounded(random_products):
    rng = np.random.default_rng(1)
    for B in random_products:
        for zj in B.zeros:
            assert abs(evaluate(B, zj)) < 1e-12
        pts = 0.95 * np.sqrt(rng.random(50)) * np.exp(2j * math.pi * rng.random(50))
        assert np.all(np.abs(evaluate(B, pts)) <= 1.0 + 1e-12)


def test_boundary_unimodularity(random_products):
    rng = np.random.default_rng(2)
    for B in random_products:
        zeta = np.exp(2j * math.pi * rng.random(40))
        assert np.max(np.abs(np.abs(evaluate(B, zeta)) - 1.0)) < 1e-11


def test_derivative_matches_finite_difference(random_products):
    rng = np.random.default_rng(3)
    h = 1e-6
    for B in random_products[:12]:
        z = 0.8 * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())
        fd = (evaluate(B, z + h) - evaluate(B, z - h)) / (2.0 * h)
        assert abs(derivative(B, z) - fd) < 5e-6 * max(1.0, abs(fd))


def test_derivative_at_exact_zero():
    B = BlaschkeProduct((0.4 + 0.1j, -0.2 + 0.3j, 0.1 - 0.5j))
    h = 1e-6
    for zj in B.zeros:
        fd = (evaluate(B, zj + h) - evaluate(B, zj - h)) / (2.0 * h)
        assert abs(derivative(B, zj) - fd) < 5e-6 * max(1.0, abs(fd))


def test_boundary_derivative_sum_formula(random_products):
    rng = np.random.default_rng(4)
    for B in random_products:
        zeta = complex(np.exp(2j * math.pi * rng.random()))
        direct = abs(derivative(B, zeta))
        via_sum = boundary_derivative_modulus(B, zeta)
        assert abs(direct - via_sum) < 1e-9 * max(1.0, direct)


def test_boundary_derivative_positive_lower_bound(random_products):
    # |B'(zeta)| = sum (1-|z_j|^2)/|zeta-z_j|^2 >= (1/4) sum (1-|z_j|^2) > 0
    for B in random_products:
        floor = 0.25 * sum(1.0 - abs(z) ** 2 for z in B.zeros)
        assert boundary_derivative_modulus(B, 1.0 + 0j) >= floor - 1e-12


def test_precompose_is_composition():
    rng = np.random.default_rng(5)
    for _ in range(8):
        B = random_product(4, seed=int(rng.integers(1 << 30)))
        phi = MoebiusAutomorphism(0.4 * np.exp(2j * math.pi * rng.random()),
                                  theta=float(rng.random()))
        C = precompose(B, phi)
        z = 0.7 * np.exp(2j * math.pi * rng.random())
        assert abs(evaluate(C, z) - evaluate(B, phi.apply(z))) < 1e-11


def test_moebius_apply_invert_round_trip():
    phi = MoebiusAutomorphism(0.3 - 0.4j, theta=1.1)
    z = 0.5 + 0.2j
    assert abs(phi.invert(phi.apply(z)) - z) < 1e-14


def test_random_product_laws_and_determinism():
    for law in ("uniform_disk", "boundary_concentrated"):
        B1 = random_product(6, seed=77, law=law)
        B2 = random_product(6, seed=77, law=law)
        assert B1.zeros == B2.zeros
        assert all(abs(z) <= 1.0 - BOUNDARY_MARGIN + 1e-15 for z in B1.zeros)
    near = random_product(40, seed=3, law="boundary_concentrated")
    assert max(abs(z) for z in near.zeros) > 0.9


def test_evaluate_domain_check():
    B = power_product(2)
    with pytest.raises(DomainError):
        evaluate(B, 1.5 + 0j)
    with pytest.raises(DomainError):
        derivative(B, complex(float("nan"), 0.0))


def test_power_product_closed_forms():
    B = power_product(7)
    z = 0.3 + 0.4j
    assert abs(evaluate(B, z) - z**7) < 1e-14
    assert abs(derivative(B, z) - 7 * z**6) < 1e-13


def test_mixed_products_helper_is_deterministic():
    a = mixed_products(4, 8, base_seed=123)
    b = mixed_products(4, 8, base_seed=123)
    assert [p.zeros for p in a] == [p.zeros for p in b]


def _product_rule_loop(B, z):
    """B'(z) = lam * sum_j f_j'(z) prod_{k != j} f_k(z), one point at a time,
    and the sum of the moduli of its terms."""
    total = 0.0 + 0.0j
    scale = 0.0
    for j, zj in enumerate(B.zeros):
        den = 1.0 - zj.conjugate() * z
        term = (1.0 - abs(zj) ** 2) / (den * den)
        for k, zk in enumerate(B.zeros):
            if k != j:
                term *= (z - zk) / (1.0 - zk.conjugate() * z)
        total += term
        scale += abs(term)
    return B.rotation * total, scale


def test_vectorized_product_rule_matches_the_loop():
    rng = np.random.default_rng(19)
    eps = np.finfo(np.float64).eps
    for B in mixed_products(12, 9, base_seed=9100):
        pts = 0.95 * np.sqrt(rng.random(6)) * np.exp(2j * math.pi * rng.random(6))
        pts = np.concatenate([pts, B.zeros_array, B.zeros_array + 0.5 * ZERO_SWITCH])
        want, scale = np.array([_product_rule_loop(B, complex(z)) for z in pts]).T
        # numpy and Python round the complex products apart by an ulp, which
        # 1 - conj(z_k) z amplifies by up to 1/(1 - |z_k|^2) near a zero, and
        # the factors are multiplied in another order
        kappa = np.max(1.0 / (1.0 - np.abs(B.zeros_array) ** 2))
        tol = 4.0 * B.degree * eps * kappa * scale.real
        assert np.all(np.abs(_derivative_product_rule(B, pts) - want) <= tol)
        # within ZERO_SWITCH of a zero, derivative() takes this branch
        assert np.all(np.abs(derivative(B, pts[6:]) - want[6:]) <= tol[6:])
