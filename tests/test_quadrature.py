"""Gauss-Legendre quadrature: the rules, fixed rules and node doubling."""

from __future__ import annotations

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from blochkit import quadrature
from blochkit.errors import ConvergenceError, DomainError
from blochkit.quadrature import MAX_NODES, gauss_nodes, integrate_adaptive, integrate_fixed

RULE_SIZES = (1, 2, 3, 5, 16, 32, 64, 128, 256, 1024, 2048)

long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="the reference rule needs a long double with a 64-bit mantissa")


@functools.lru_cache(maxsize=None)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent oracle: Newton in theta, x = cos theta, on the three-term
    recurrence, in np.longdouble (eps 1.1e-19 on x86-64).

    The recurrence runs in Reinsch's form, on s = 1 - x = 2 sin^2(theta/2)
    and the differences D_k = P_k - P_(k-1):

        D_(k+1) = (k D_k - (2k+1) s P_k) / (k+1),   P_(k+1) = P_k + D_(k+1),

    so nothing depends on x through a rounded 1 - x; then
    dP_n/dtheta = n (D_n - s P_n) / sin theta and w = 2 / (dP_n/dtheta)^2.
    Against 40-digit mpmath at nine nodes of the 2048-point rule, ends and
    middle included, it was within 1e-19 in the nodes and 5e-18 relative in
    the weights.  It starts from pi (4j - 1) / (4n + 2),
    without the Tricomi term, and shares no code with the rule it checks."""
    ld = np.longdouble
    half = (n + 1) // 2
    theta = np.arccos(ld(-1)) * (4 * np.arange(1, half + 1, dtype=ld) - 1) / (4 * n + 2)

    def recurrence(theta):
        s = 2 * np.sin(theta / 2) ** 2
        p, d = 1 - s, -s
        for k in range(1, n):
            d = (k * d - (2 * k + 1) * s * p) / (k + 1)
            p = p + d
        return p, n * (d - s * p) / np.sin(theta)

    for _ in range(50):
        p, dp = recurrence(theta)
        step = p / dp
        theta = theta - step
        if np.max(np.abs(step) / theta) < 1e-18:
            break
    else:
        raise AssertionError(f"reference rule did not converge at n = {n}")
    _, dp = recurrence(theta)
    x = np.empty(n, dtype=ld)
    w = np.empty(n, dtype=ld)
    x[:half] = -np.cos(theta)
    x[n - half:] = np.cos(theta[::-1])
    if n % 2:
        x[half - 1] = 0
    w[:half] = 2 / dp**2
    w[n - half:] = w[half - 1::-1]
    return x, w


@long_double
@pytest.mark.parametrize("n", RULE_SIZES)
def test_rule_matches_the_long_double_reference(n):
    """Nodes within 4.4e-16; weights within 1e-15 absolute and
    1e-15 * sqrt(n) relative, 5e-15 relative at the four end nodes of each
    side.  Measured on x86-64: nodes 1.4e-16, weights 2.2e-16 absolute (at
    n = 2, one ulp of 1.0), and relative 2.6e-14 at n = 2048 (the middle
    nodes, where the cosine series sums terms of alternating sign), 1.7e-14
    at 1024, 6.6e-15 at 256, 2.4e-15 at 64, at the end nodes 4.0e-15."""
    x, w = gauss_nodes(n)
    xr, wr = _reference_rule(n)
    assert np.max(np.abs(x - xr)) <= 4.4e-16
    assert np.max(np.abs(w - wr)) <= 1e-15
    rel = np.abs((w - wr) / wr)
    assert np.max(rel) <= 1e-15 * math.sqrt(n)
    assert max(rel[:4].max(), rel[-4:].max()) <= 5e-15


@pytest.mark.parametrize("n", RULE_SIZES[1:])
def test_rule_integrates_even_powers(n):
    """sum w x^(2k) = 2 / (2k + 1) for 2k <= 2n - 2 within 1e-13 relative;
    measured 4.2e-14 at n = 2048 (2k = 4092), 6.0e-15 at 128."""
    x, w = gauss_nodes(n)
    k = np.arange(n)
    exact = 2.0 / (2 * k + 1)
    assert np.max(np.abs(w @ np.power.outer(x, 2 * k) - exact) / exact) <= 1e-13


@pytest.mark.parametrize("n", RULE_SIZES)
def test_rule_is_symmetric_positive_and_read_only(n):
    x, w = gauss_nodes(n)
    assert x.shape == w.shape == (n,)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0
    assert np.all(np.diff(x) > 0) and -1.0 < x[0]
    assert np.all(w > 0)
    assert not x.flags.writeable and not w.flags.writeable


def test_each_rule_takes_one_pass_and_a_short_second(monkeypatch):
    """One Halley pass over the ceil(n/2) nodes, then at most one more over at
    most 2 end nodes; measured 2 end nodes from n = 4 to 31 and 1 above.  The
    Newton iteration before it took a second pass over 30 of the 32 nodes
    at n = 64."""
    passes = []
    series = quadrature._legendre_series
    monkeypatch.setattr(quadrature, "_legendre_series",
                        lambda theta, *args: passes.append(theta.size) or series(theta, *args))
    for n in sorted(set(range(1, 130)) | set(RULE_SIZES)):
        gauss_nodes.cache_clear()
        passes.clear()
        gauss_nodes(n)
        assert passes[0] == (n + 1) // 2, n
        assert len(passes) <= 2 and max(passes[1:], default=0) <= 2, (n, passes)


def test_building_the_largest_rule_stays_bounded():
    # measured peak 4.3 MB; built without row blocks, the angle matrix and
    # its cosines and sines alone would take 3 x 8.4 MB
    gauss_nodes.cache_clear()
    tracemalloc.start()
    try:
        gauss_nodes(2048)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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


def test_adaptive_rejects_a_start_with_no_doubling_left():
    value, nodes = integrate_adaptive(np.exp, 0.0, 1.0, n0=MAX_NODES // 2)
    assert nodes == MAX_NODES and abs(value - (math.e - 1.0)) < 1e-13
    with pytest.raises(DomainError, match="no doubling"):
        integrate_adaptive(np.exp, 0.0, 1.0, n0=MAX_NODES // 2 + 1)


def test_scalar_calls_return_scalars():
    value, nodes = integrate_adaptive(np.exp, 0.0, 1.0)
    assert type(value) is np.float64 and type(nodes) is int
    value, _ = integrate_adaptive(lambda t: np.exp(1j * t), 0.0, 1.0)
    assert type(value) is np.complex128
    assert type(integrate_fixed(np.exp, 0.0, 1.0, 8)) is np.float64


def test_adaptive_rows_match_one_at_a_time():
    """Each row of a batch is accepted at its own first passing doubling, as
    if it were integrated alone; the rows here stop at 32 and at 256 nodes."""
    freq = np.array([[1.0, 7.0], [40.0, 90.0]])
    lo = np.array([[0.0, -1.0], [0.5, 0.0]])
    hi = np.array([[1.0, 2.0], [0.75, 3.0]])
    values, nodes = integrate_adaptive(lambda t: np.cos(freq[..., None] * t), lo, hi)
    assert values.shape == nodes.shape == (2, 2)
    assert len(set(nodes.ravel().tolist())) > 1
    for k in np.ndindex(2, 2):
        value, count = integrate_adaptive(lambda t: np.cos(freq[k] * t), lo[k], hi[k])
        assert nodes[k] == count
        assert abs(values[k] - value) <= 1e-14
        fixed = integrate_fixed(lambda t: np.cos(freq[k] * t), lo[k], hi[k], 64)
        assert abs(integrate_fixed(lambda t: np.cos(freq[..., None] * t), lo, hi, 64)[k]
                   - fixed) <= 1e-14


def test_one_failing_row_fails_the_batch():
    exponent = np.array([0.0, -0.95])
    with pytest.raises(ConvergenceError, match="did not converge"):
        integrate_adaptive(lambda t: np.abs(t - 0.31) ** exponent[:, None],
                           0.0, np.ones(2), tol=1e-12)


def test_bad_bounds_rejected():
    # a rule without nodes is rejected; an empty interval integrates to zero
    with pytest.raises(DomainError):
        integrate_fixed(np.exp, 0.0, 1.0, 0)
    assert integrate_fixed(np.exp, 1.0, 1.0, 8) == 0.0
