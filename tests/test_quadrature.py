"""Gauss-Legendre quadrature: fixed rules and node doubling."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.integrate

from blochkit.errors import ConvergenceError, DomainError
from blochkit.quadrature import integrate_adaptive, integrate_fixed


def test_fixed_smooth_exponential():
    value = integrate_fixed(np.exp, 0.0, 1.0, 16)
    assert abs(value - (math.e - 1.0)) < 1e-14


def test_fixed_polynomial_exactness():
    # n-point Gauss-Legendre integrates degree 2n-1 exactly
    value = integrate_fixed(lambda t: t**9 - 3.0 * t**4 + t, -1.0, 2.0, 5)
    exact = (2.0**10 - 1.0) / 10.0 - 3.0 * (2.0**5 + 1.0) / 5.0 + (4.0 - 1.0) / 2.0
    assert abs(value - exact) < 1e-11 * abs(exact)


def test_adaptive_reports_node_count():
    value, nodes = integrate_adaptive(lambda t: np.cos(40.0 * t), 0.0, 1.0)
    assert abs(value - math.sin(40.0) / 40.0) < 1e-12
    assert nodes >= 32


def test_adaptive_matches_scipy_oscillatory():
    f = lambda t: np.sin(17.0 * t) * np.exp(-t)
    value, _ = integrate_adaptive(f, 0.0, 3.0)
    ref, _ = scipy.integrate.quad(lambda t: math.sin(17.0 * t) * math.exp(-t), 0.0, 3.0,
                                  limit=200)
    assert abs(value - ref) < 1e-11


def test_adaptive_raises_on_nonintegrable():
    with pytest.raises(ConvergenceError):
        integrate_adaptive(lambda t: np.abs(t - 0.31) ** -0.95, 0.0, 1.0, tol=1e-12)


def test_bad_bounds_rejected():
    # a rule without nodes is rejected; an empty interval integrates to zero
    with pytest.raises(DomainError):
        integrate_fixed(np.exp, 0.0, 1.0, 0)
    assert integrate_fixed(np.exp, 1.0, 1.0, 8) == 0.0
