"""Evaluation, derivative and serialization of finite Blaschke products."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from blochkit import products
from blochkit.errors import DomainError, RangeError
from blochkit.products import (
    BOUNDARY_MARGIN,
    ZERO_SWITCH,
    _derivative_product_rule,
    _row_blocks,
    _value_and_derivative,
    BlaschkeProduct,
    MoebiusAutomorphism,
    boundary_derivative_modulus,
    boundary_peaks,
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


def test_malformed_pairs_are_rejected():
    """A zero or rotation must be a pair [re, im]; a third number is not
    dropped."""
    for data in ({"zeros": [[0.1, 0.2, 9.0]]},
                 {"zeros": [[0.1, 0.2]], "rotation": [1.0, 0.0, 0.5]},
                 {"zeros": [[0.1]]}, {"zeros": [0.1]}, {"zeros": ["ab"]},
                 {"zeros": [[0.1, 0.2]], "rotation": "10"}):
        with pytest.raises(DomainError, match="malformed product JSON"):
            BlaschkeProduct.from_json(data)


def test_zero_validation():
    with pytest.raises(DomainError):
        BlaschkeProduct((1.0 + 0j,))
    with pytest.raises(DomainError):
        BlaschkeProduct((0.3 + 0j,), rotation=0.0)
    with pytest.raises(RangeError):
        random_product(5000, seed=0)


def test_product_checks_and_their_messages():
    """Each bad zero or rotation gets its own message, checked in the order
    zeros not finite, rotation not finite, rotation not unimodular, modulus
    bound: a bad zero together with a bad rotation names the zeros."""
    nan, inf = math.nan, math.inf
    zeros_msg = "zeros must have finite real and imaginary parts"
    rotation_msg = "rotation must have finite real and imaginary parts"
    unimodular_msg = "rotation must be unimodular within 1e-12"

    def bound_msg(limit):
        return re.escape(f"zeros must satisfy |z| <= {limit!r} (and |z| < 1 strictly)")

    cases = [
        (dict(zeros=(0.1, complex(nan, 0.0))), zeros_msg),
        (dict(zeros=(complex(inf, 0.2),)), zeros_msg),
        (dict(zeros=(complex(0.2, -inf), 0.3j)), zeros_msg),
        (dict(zeros=(complex(inf, nan),)), zeros_msg),
        (dict(zeros=(0.2, 1.0 - 0.5 * BOUNDARY_MARGIN)), bound_msg(1.0 - BOUNDARY_MARGIN)),
        (dict(zeros=(1j,), margin=0.0), bound_msg(1.0)),
        (dict(zeros=(0.5,), rotation=complex(nan, 0.0)), rotation_msg),
        (dict(zeros=(0.5,), rotation=complex(0.0, inf)), rotation_msg),
        (dict(zeros=(0.5,), rotation=1.0 + 2e-12), unimodular_msg),
        (dict(zeros=(0.5,), rotation=-1j * (1.0 - 2e-12)), unimodular_msg),
        (dict(zeros=(complex(nan, 0.0),), rotation=complex(inf, 0.0)), zeros_msg),
        (dict(zeros=(inf,), rotation=2.0), zeros_msg),
        (dict(zeros=(1.5,), rotation=complex(nan, nan)), rotation_msg),
        (dict(zeros=(1.5,), rotation=1.0 + 2e-12), unimodular_msg),
    ]
    for kwargs, message in cases:
        with pytest.raises(DomainError, match=f"^{message}$"):
            BlaschkeProduct(**kwargs)
    # the rotation may be off the circle by less than 1e-12, and margin 0
    # admits any zero strictly inside
    assert BlaschkeProduct((0.5,), 1.0 + 5e-13).rotation == 1.0 + 5e-13
    assert BlaschkeProduct((1.0 - 1e-15,), margin=0.0).degree == 1


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


def test_boundary_peaks_are_the_local_maxima_of_a_dense_scan(random_products):
    """Every local maximum of |B'| on 2^16 angles lies within a bracket's
    width of a peak whose sample is within 10 % of it (the samples are not
    polished), and each peak tops its bracket's ends."""
    dense_theta = 2.0 * math.pi * np.arange(1 << 16) / (1 << 16)
    for B in random_products:
        theta, modulus, bracket = boundary_peaks(B)
        assert np.all(np.diff(theta) > 0.0)
        assert np.all((bracket[:, 0] < theta) & (theta < bracket[:, 1]))
        ends = boundary_derivative_modulus(B, np.exp(1j * bracket))
        assert np.all(modulus[:, None] >= ends)
        np.testing.assert_allclose(modulus, boundary_derivative_modulus(B, np.exp(1j * theta)),
                                   rtol=1e-12)
        dense = boundary_derivative_modulus(B, np.exp(1j * dense_theta))
        top = (dense >= np.roll(dense, 1)) & (dense > np.roll(dense, -1))
        for th, m in zip(dense_theta[top], dense[top]):
            gap = np.abs(np.angle(np.exp(1j * (theta - th))))
            k = int(np.argmin(gap))
            assert gap[k] <= bracket[k, 1] - bracket[k, 0]
            assert modulus[k] >= 0.9 * m


def test_boundary_peaks_of_a_flat_modulus_is_angle_zero():
    for n in (1, 4, 7):
        for rotation in (1.0, 1j, complex(math.cos(2.0), math.sin(2.0))):
            theta, modulus, _ = boundary_peaks(BlaschkeProduct((0j,) * n, rotation))
            assert theta.tolist() == [0.0]
            assert abs(modulus[0] - n) < 1e-12


def test_boundary_peaks_narrow_peak_and_high_degree():
    """A zero 2e-6 from the circle gets a peak near its argument; at degree
    1024 the scan runs in several row blocks."""
    B = BlaschkeProduct((0.3 + 0.1j, (1.0 - 2e-6) * complex(math.cos(1.0), math.sin(1.0))))
    theta, modulus, _ = boundary_peaks(B)
    k = int(np.argmax(modulus))
    assert abs(theta[k] - 1.0) < 2e-6 and modulus[k] > 5e5
    B = random_product(1024, seed=3, law="boundary_concentrated")
    theta, modulus, _ = boundary_peaks(B)
    assert theta.size > 0 and np.all(np.isfinite(modulus))


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
        assert np.all(np.abs(_derivative_product_rule(B.zeros_array, B.rotation, pts) - want)
                      <= tol)
        # within ZERO_SWITCH of a zero, derivative() takes this branch
        assert np.all(np.abs(derivative(B, pts[6:]) - want[6:]) <= tol[6:])


def test_fused_evaluation_matches_products(monkeypatch):
    B = random_product(7, seed=171, law="boundary_concentrated")
    rng = np.random.default_rng(18)
    grid = 0.9 * np.sqrt(rng.random((3, 7))) * np.exp(2j * math.pi * rng.random((3, 7)))
    grid[1] = B.zeros_array  # on the zeros the product rule takes over
    near = B.zeros_array + 0.5 * ZERO_SWITCH  # near the zeros but off them: the same switch
    eps = np.finfo(np.float64).eps
    kappa = np.max(1.0 / (1.0 - np.abs(B.zeros_array) ** 2))
    for z in (grid, near):
        with np.errstate(all="ignore"):
            value, der = _value_and_derivative(B.zeros_array, B.rotation, z)
            # blocks of two entries, the last one of three, give the same bits
            monkeypatch.setattr(products, "_EVAL_BLOCK", 20)
            blocked = _value_and_derivative(B.zeros_array, B.rotation, z)
            monkeypatch.undo()
        want, scale = np.array([_product_rule_loop(B, complex(x)) for x in z.ravel()]).T
        assert np.allclose(value, evaluate(B, z), rtol=1e-13, atol=1e-15)
        assert np.all(np.abs(der.ravel() - want) <= 4.0 * B.degree * eps * kappa * scale.real)
        np.testing.assert_array_equal(blocked[0], value)
        np.testing.assert_array_equal(blocked[1], der)


def test_row_blocks_cover_the_range_without_a_lone_row(monkeypatch):
    monkeypatch.setattr(products, "_EVAL_BLOCK", 12)
    for rows in range(0, 30):
        for width in (1, 3, 5, 7, 40):
            blocks = _row_blocks(rows, width)
            assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rows))
            sizes = [b.stop - b.start for b in blocks]
            assert all(size >= 2 for size in sizes) or sizes == [1]
            # only the last block may take one row over the budget
            step = max(2, 12 // width)
            assert all(size == step for size in sizes[:-1])
            assert not sizes or sizes[-1] <= step + 1


def test_evaluator_skips_the_domain_check():
    B = random_product(5, seed=191)
    z = np.array([1.01, -1.02j, 0.3 + 0.2j])  # the first two lie outside the disk
    with pytest.raises(DomainError):
        derivative(B, z)
    value, der = _value_and_derivative(B.zeros_array, B.rotation, z)
    want = np.array([_product_rule_loop(B, complex(x))[0] for x in z])
    factors = (z[:, None] - B.zeros_array) / (1.0 - np.conjugate(B.zeros_array) * z[:, None])
    assert np.allclose(value, B.rotation * factors.prod(axis=1), rtol=1e-13, atol=0.0)
    assert np.allclose(der, want, rtol=1e-12, atol=0.0)


def test_derivative_keeps_the_input_shape():
    B = random_product(6, seed=193, law="boundary_concentrated")
    rng = np.random.default_rng(20)
    z = 0.9 * np.sqrt(rng.random((2, 3, 4))) * np.exp(2j * math.pi * rng.random((2, 3, 4)))
    der = derivative(B, z)
    assert der.shape == z.shape
    want = np.array([_product_rule_loop(B, complex(x))[0] for x in z.ravel()])
    assert np.allclose(der.ravel(), want, rtol=1e-12, atol=0.0)
    scalar = derivative(B, complex(z[1, 2, 3]))
    assert isinstance(scalar, complex)
    assert abs(scalar - want[-1]) <= 1e-12 * abs(want[-1])
