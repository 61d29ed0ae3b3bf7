"""Backend parity: the compiled C kernel and the numpy fallback agree.

The C kernel is compiled from this tree into a temporary directory (the
``ckernel`` fixture of conftest.py), so these tests run wherever a C compiler
exists, whether or not the package was built.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from blochkit import _kernels, covering, products, seminorm
from blochkit._kernels import _fallback
from blochkit.cli import _sweep_product
from blochkit.errors import RootCountError
from blochkit.products import BlaschkeProduct, random_product

LAWS = ("uniform_disk", "boundary_concentrated")

@pytest.fixture(params=["c", "python"])
def kernels(request):
    """(seminorm_search, track_routes, critical_roots) of each backend."""
    if request.param == "c":
        return _kernels.compiled(request.getfixturevalue("ckernel"))
    return _fallback.seminorm_search, _fallback.track_routes, _fallback.critical_roots


def _search_one(search, zeros, lam, slope, max_iter, ftol):
    """(value, argmax, starts, iterations) of ``search`` on the one product
    with these zeros and rotation, a batch of one, as Python scalars."""
    zeros = np.asarray(zeros, dtype=np.complex128)
    found = search(zeros, [zeros.size], [lam], slope, max_iter, ftol)
    return tuple(a[0].item() for a in found)


def test_backend_reports_name():
    assert _kernels.BACKEND in ("c", "python")


def test_kernel_contract_has_three_entries(ckernel):
    """The C kernel exposes seminorm_search, track_routes and critical_roots,
    and nothing else.  The fallback has those three and refine_starts, the
    numpy search's Newton pass.  Both seminorm_search entries take the same
    parameters, a batch of products, and refine_starts keeps its leading positional order, whose
    sixth argument the benchmark harness reads as max_iter."""
    contract = {"seminorm_search", "track_routes", "critical_roots"}
    compiled = {name for name in dir(ckernel)
                if not name.startswith("_") and callable(getattr(ckernel, name))}
    fallback = {name for name, obj in vars(_fallback).items()
                if inspect.isfunction(obj) and obj.__module__ == _fallback.__name__
                and not name.startswith("_")}
    assert compiled == contract
    assert fallback == contract | {"refine_starts"}
    assert not hasattr(_kernels, "pointwise_batch")
    search = ["zeros", "ends", "lams", "slope", "max_iter", "ftol"]
    for entry in (_fallback.seminorm_search, _kernels.compiled(ckernel)[0]):
        assert list(inspect.signature(entry).parameters) == search
    assert list(inspect.signature(_fallback.refine_starts).parameters) == [
        "zeros", "lam", "starts", "scales", "slope", "max_iter", "ftol"]


def _run_on_each_backend(ckernel, code: str) -> dict:
    """{backend: completed process} of ``code`` run in a fresh interpreter,
    once under BLOCHKIT_PURE=1 and once with ``ckernel`` preloaded as the
    package's compiled kernel, so the C leg runs whether or not the package
    was built."""
    preload = ("import importlib.util, sys\n"
               f"spec = importlib.util.spec_from_file_location("
               f"'blochkit._kernels._ckernel', {ckernel.__file__!r})\n"
               "sys.modules[spec.name] = importlib.util.module_from_spec(spec)\n")
    legs = {"python": (dict(os.environ, BLOCHKIT_PURE="1"), ""),
            "c": ({k: v for k, v in os.environ.items() if k != "BLOCHKIT_PURE"}, preload)}
    return {backend: subprocess.run([sys.executable, "-c", prefix + code], env=env,
                                    capture_output=True, text=True)
            for backend, (env, prefix) in legs.items()}


def test_traced_refine_starts_is_the_numpy_pass(ckernel, monkeypatch):
    """The benchmark harness traces ``blochkit._kernels.refine_starts`` by
    name and counts the calls of every module attribute bound to that
    object.  On both backends the name is the fallback's pass, which the
    numpy search calls once per product, over all its starts, through its
    module global, and which the compiled search never calls."""
    code = ("import blochkit._kernels as k\n"
            "print(k.BACKEND, k.refine_starts is k._fallback.refine_starts)\n")
    for backend, out in _run_on_each_backend(ckernel, code).items():
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == f"{backend} True"
    assert _kernels.refine_starts is _fallback.refine_starts

    passes, refine = [], _fallback.refine_starts

    def counted(*args):
        passes.append(args[2].size)
        return refine(*args)

    monkeypatch.setattr(_fallback, "refine_starts", counted)
    B = random_product(7, seed=31, law="boundary_concentrated")
    C = random_product(3, seed=32)
    zeros = np.concatenate([B.zeros_array, C.zeros_array])
    batch = (zeros, [7, 10], [B.rotation, C.rotation], 0, 500, 1e-10)
    _, _, starts, _ = _fallback.seminorm_search(*batch)
    assert passes == starts.tolist()  # one pass over all the starts of each product
    _, _, starts, _ = _kernels.compiled(ckernel)[0](*batch)
    assert passes == starts.tolist()


def _objective_at(zeros, lam, z, slope) -> float:
    """numpy's objective at the one point z; on a zero the product rule
    replaces the log-derivative sum, whose division by zero carries no news."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _fallback._objective(zeros, complex(lam), np.array([z]), slope)[0][0]


def test_objective_backends_agree_at_the_compiled_argmax(ckernel):
    """With max_iter 0 the compiled search returns the objective at its best
    start; numpy's objective at that argmax agrees to the bound stated in
    blochkit._kernels, for each catalog slope, on the 240 products of the
    parity set.  Near-ties can make the two searches pick different starts,
    so the numpy search's own value is no reference."""
    fast = _kernels.compiled(ckernel)[0]
    bound = {0.0: 3e-12, 0.5: 2e-12, 1.0: 3e-12}
    for law in LAWS:
        for degree in range(1, 13):
            for seed in range(10):
                B = random_product(degree, seed=100 * degree + seed, law=law)
                for slope in bound:
                    value, argmax, _, iterations = _search_one(fast, B.zeros_array,
                                                               B.rotation, slope, 0, 1e-10)
                    ref = _objective_at(B.zeros_array, B.rotation, argmax, slope)
                    assert iterations == 0
                    assert abs(value - ref) <= bound[slope], (law, degree, seed, slope)


def test_product_rule_backends_agree_at_high_degree(ckernel):
    """One zero at 0 and 399 evenly spaced at 1 - 1e-4: with max_iter 0 the
    compiled search's best start is a zero, where both backends take the
    product rule, and the objective there agrees to 1e-12."""
    fast = _kernels.compiled(ckernel)[0]
    ring = (1 - 1e-4) * np.exp(1j * (0.1 + 2 * math.pi * np.arange(399) / 399))
    zeros = np.concatenate([[0j], ring])
    value, argmax, _, _ = _search_one(fast, zeros, 1.0 + 0j, 0, 0, 1e-10)
    assert np.any(zeros == argmax)
    assert value > 0.0
    assert abs(value - _objective_at(zeros, 1.0, argmax, 0)) <= 1e-12


def _numpy_derivatives(zeros, z, order):
    """[B, B', ...] of products._value_and_derivative at the one point z."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = products._value_and_derivative(zeros, 1.0, np.array([z]), higher=order == 3)
    return [complex(a[0]) for a in terms]


def test_blaschke_derivatives_match_product_rule_and_differences(ckernel_probe):
    """B'' and B''' of both evaluators, numpy's _value_and_derivative and the
    compiled blaschke(), at points 1e-3 to 1e-12 from a simple and from a
    repeated zero and on each.  They agree with the Leibniz product rule to
    1e-14 relative (measured: 1.5e-15 in C and 5.8e-16 in numpy, over the
    log-derivative sums above ZERO_SWITCH and the product rule below it),
    and with four-point central
    differences of the next lower derivative, h = 1e-3, to 1e-9 (measured:
    1.1e-10, the differences' own truncation error).  Asking for B'' and B'''
    leaves (B, B') bit for bit as the trackers get them."""
    h, turn = 1e-3, complex(math.cos(1.1), math.sin(1.1))
    for zeros in (np.array([0.3 + 0.2j, -0.5j, 0.6, -0.4 + 0.4j]),
                  np.array([0.5, 0.5, 0.3j, -0.7, 0.3j], dtype=np.complex128)):
        for evaluate in (functools.partial(_numpy_derivatives, zeros),
                         functools.partial(ckernel_probe.derivatives, zeros)):
            for distance in (1e-3, 1e-5, 1e-8, 5e-9, 1e-10, 1e-12, 0.0):
                z = zeros[0] + distance * turn
                d = evaluate(z, 3)
                assert tuple(d[:2]) == tuple(evaluate(z, 1))
                exact = products._derivative_product_rule(zeros, 1.0, np.array([z]), 3)
                for k in (1, 2, 3):
                    assert abs(d[k] - exact[k - 1][0]) <= 1e-14 * abs(exact[k - 1][0])
                for k in (2, 3):
                    lower = [evaluate(z + m * h, 3)[k - 1] for m in (2, 1, -1, -2)]
                    central = (-lower[0] + 8.0 * lower[1] - 8.0 * lower[2] + lower[3]) / (12 * h)
                    assert abs(d[k] - central) <= 1e-9 * abs(d[k]), (distance, k)


def _bits(values):
    """The float64 bit patterns of complex values, so -0.0 differs from 0.0."""
    return np.asarray(values, dtype=np.complex128).reshape(-1).view(np.int64).tolist()


def test_lane_evaluator_matches_the_scalar_evaluator(ckernel_probe):
    """blaschke_lanes(), which steps four points through the factor loop at
    once, gives blaschke()'s (P, P', P'', P''') bit for bit at every point of
    batches of 1 to 11 points, so the last call of a batch leaves one to
    three lanes padded: points spread over the disk, points 1e-3 to 1e-12
    from a simple and from a double zero, inside ZERO_SWITCH where the
    product rule takes over, and points exactly on both zeros."""
    turn = complex(math.cos(1.1), math.sin(1.1))
    rng = np.random.default_rng(7)
    for zeros in (np.array([0.3 + 0.2j, -0.5j, 0.6, -0.4 + 0.4j]),
                  np.array([0.5, 0.5, 0.3j, -0.7, 0.3j], dtype=np.complex128)):
        spread = 0.95 * np.sqrt(rng.random(5)) * np.exp(2j * np.pi * rng.random(5))
        near = [a + d * turn for a in (zeros[0], zeros[2]) for d in (1e-3, 5e-9, 1e-12, 0.0)]
        points = np.concatenate([near[:3], spread[:2], near[3:], spread[2:], [0j]])
        assert points.size == 14
        scalar = [ckernel_probe.derivatives(zeros, complex(z), 3) for z in points]
        for size in range(1, 12):
            for first in (0, 14 - size):
                batch = points[first:first + size]
                assert _bits(ckernel_probe.lanes(zeros, batch)) == \
                    _bits(scalar[first:first + size]), (size, first)


def test_lockstep_ascent_matches_single_start_ascents(ckernel_probe):
    """climb() runs all starts of a product in lockstep, and each start ends
    at the point, f and iteration count of its ascent alone, bit for bit:
    for z^5 and for a product with a double zero, slopes 0 and 1, and
    max_iter 3 and 500.  The starts hold the origin of z^5, where f = 0 and
    the start stays with no iteration; the argmax of z^5 on the positive
    axis, whose first step rounds to nothing; the zeros; and points whose
    ascents max_iter 3 cuts short."""
    peak = math.sqrt(4.0 / 6.0)  # argmax of n x^(n-1) (1 - x^2) for n = 5
    for zeros in (np.zeros(5, dtype=np.complex128),
                  np.array([0.5, 0.5, -0.3j, 0.8 * np.exp(2j)])):
        starts = np.concatenate([[0j, peak], zeros,
                                 [0.3 + 0.1j, -0.5j, 0.7 * np.exp(1j), 0.2j, -0.4 - 0.4j]])
        caps = np.minimum(0.1, 0.5 * (1.0 - np.abs(starts)))
        for slope in (0.0, 1.0):
            for max_iter in (3, 500):
                values, points, iters = ckernel_probe.climb(zeros, 1.0, slope, starts, caps,
                                                            max_iter, 1e-10)
                for i, start in enumerate(starts):
                    alone = ckernel_probe.climb(zeros, 1.0, slope, starts[i:i + 1],
                                                caps[i:i + 1], max_iter, 1e-10)
                    assert _bits(points[i]) == _bits(alone[1][0])
                    assert (values[i], iters[i]) == (alone[0][0], alone[2][0]), (i, start)
                if max_iter == 3:
                    assert max(iters) == 3  # an ascent the cap cuts short
                if zeros[0] == 0:
                    assert (values[0], points[0], iters[0]) == (0.0, 0j, 0)
                if zeros[0] == 0 and slope == 0.0:
                    assert (points[1], iters[1]) == (peak, 1)


def test_product_rule_switch_is_the_same_in_both_kernels():
    """The C kernel's ZERO_SWITCH2, read from its source, is the squared
    distance at which the numpy evaluator switches to the product rule."""
    source = (Path(_kernels.__file__).parent / "_ckernel.c").read_text()
    expression = re.search(r"^#define ZERO_SWITCH2 (.+?) /\*", source, re.M).group(1)
    value = math.prod(float(f) for f in expression.strip("()").split("*"))
    assert value == products.ZERO_SWITCH ** 2


def test_power_products_reach_the_closed_form(kernels):
    """z^n and two rotations of it, n = 2..12: the search ends within 1e-14
    of znorm_closed_form(n), and so does the value recomputed at its argmax
    (measured: at most 3.3e-16 on either backend)."""
    search = kernels[0]
    for n in range(2, 13):
        for lam in (1.0, complex(math.cos(0.3), math.sin(0.3)), -1j):
            B = BlaschkeProduct((0j,) * n, lam)
            value, argmax, _, _ = _search_one(search, B.zeros_array, B.rotation, 0.0,
                                              seminorm.MAX_ITERATIONS,
                                              seminorm.OBJECTIVE_TOLERANCE)
            expected = seminorm.znorm_closed_form(n)
            assert abs(value - expected) <= 1e-14, (n, lam)
            assert abs(seminorm.pointwise_bloch(B, argmax) - expected) <= 1e-14, (n, lam)


def test_search_with_starts_where_b_prime_vanishes(kernels):
    """B' = 0 at the origin of z^3 and at a repeated zero, both starts: such a
    start keeps the value 0 and takes no step, and the search still returns
    a finite positive value inside the disk, for slopes 0 and 1."""
    search = kernels[0]
    for zeros in (np.zeros(3, dtype=np.complex128), np.array([0.5, 0.5, -0.3j]),
                  np.array([0.9j, 0.9j, 0.9j, 0.2])):
        for slope in (0.0, 1.0):
            value, argmax, _, _ = _search_one(search, zeros, 1.0, slope, 500, 1e-10)
            assert math.isfinite(value) and value > 0.0
            assert abs(argmax) < 1.0
    values, points, iterations = _fallback.refine_starts(
        np.array([0.5, 0.5, -0.3j]), 1.0, np.array([0.5, 0.0]), np.array([0.1, 0.1]), 0.0, 500,
        1e-10)
    assert values[0] == 0.0 and points[0] == 0.5 and iterations[0] == 0
    assert values[1] > 0.0 and iterations[1] > 0


def test_objective_is_zero_on_the_circle_and_not_positive_beyond(ckernel_probe):
    """The circle is the search's only barrier, on both backends: for each
    catalog slope the objective is 0 where |z|^2 rounds to 1, and 0,
    negative or NaN at |z| = 1 + 1e-12 and 1.5, so the Armijo test rejects
    every step there."""
    turns = np.exp(2j * math.pi * np.arange(64) / 64)
    circle = [z for z in np.concatenate([[1, 1j, -1, -1j], turns])
              if z.real ** 2 + z.imag ** 2 == 1.0]
    products = [random_product(5, seed=3, law=law) for law in LAWS]
    products.append(BlaschkeProduct(((1 - 1e-5) * turns[3],), turns[7]))

    def numpy_objective(B, slope, points):
        with np.errstate(all="ignore"):
            return _fallback._objective(B.zeros_array, B.rotation, np.array(points), slope)[0]

    def compiled_objective(B, slope, points):
        return np.array([ckernel_probe.objective(B.zeros_array, B.rotation, complex(z), slope)
                         for z in points])

    for B in products:
        for entry in seminorm.CATALOG:
            for objective in (numpy_objective, compiled_objective):
                name = (entry.name, objective.__name__)
                assert np.all(objective(B, entry.slope, circle) == 0.0), name
                for radius in (1 + 1e-12, 1.5):
                    assert not np.any(objective(B, entry.slope, radius * turns) > 0.0), name


def test_degree_one_searches_next_to_the_circle_stay_inside(kernels):
    """200 degree-1 products, each zero 1e-6 to 1e-4 from the circle: a disk
    automorphism's seminorm is exactly 1, attained at its zero.  With no
    barrier but the circle, each search returns an argmax inside the disk and
    a value within 1e-9 of 1 (measured: argmax at least 1.0e-6 from the
    circle; values at most 1 + 1.1e-10)."""
    search = kernels[0]
    rng = np.random.default_rng(2027)
    for _ in range(200):
        a = (1 - 10 ** rng.uniform(-6, -4)) * np.exp(2j * math.pi * rng.random())
        lam = np.exp(2j * math.pi * rng.random())
        value, argmax, _, _ = _search_one(search, [a], lam, 0.0, seminorm.MAX_ITERATIONS,
                                          seminorm.OBJECTIVE_TOLERANCE)
        assert abs(argmax) < 1.0, a
        assert abs(value - 1.0) <= 1e-9, a


def test_seminorm_backends_agree_on_degrees_1_to_12(ckernel, monkeypatch):
    """The bound stated in blochkit._kernels, over 240 products, from the
    same number of starts."""
    fast = _kernels.compiled(ckernel)[0]
    for law in ("uniform_disk", "boundary_concentrated"):
        for degree in range(1, 13):
            for seed in range(10):
                B = random_product(degree, seed=100 * degree + seed, law=law)
                monkeypatch.setattr(_kernels, "seminorm_search", fast)
                compiled = seminorm.seminorm(B)
                monkeypatch.setattr(_kernels, "seminorm_search", _fallback.seminorm_search)
                reference = seminorm.seminorm(B)
                assert abs(compiled.value - reference.value) <= 1e-10, (law, degree, seed)
                assert compiled.starts_used == reference.starts_used, (law, degree, seed)


def test_sweep_backends_agree(ckernel):
    """``sweep --count 100 --max-degree 16 --seed 1`` on each backend: the
    same violations and minimizer trial, and min, mean and max within 1e-10
    (measured: at most 4.3e-14 on seeds 1-3)."""
    code = ("import blochkit._kernels as k\n"
            "from blochkit.cli import main\n"
            "print(k.BACKEND)\n"
            "main(['sweep', '--count', '100', '--max-degree', '16', '--seed', '1'])\n")
    reports = {}
    for backend, out in _run_on_each_backend(ckernel, code).items():
        assert out.returncode == 0, out.stderr
        name, report = out.stdout.split("\n", 1)
        assert name == backend
        reports[backend] = json.loads(report)
    c, python = reports["c"], reports["python"]
    assert c["violation_trials"] == python["violation_trials"]
    assert c["minimizer"]["trial"] == python["minimizer"]["trial"]
    for key in ("min", "mean", "max"):
        assert abs(c[key] - python[key]) <= 1e-10, key


def test_seminorm_search_backends_agree_on_flat_narrow_and_repeated_zeros(ckernel):
    """The scan's special cases: z^n and its rotations, whose flat modulus
    gives one peak at angle zero; zeros within 1e-5 of the circle, which add
    local angles; and repeated zeros, which the starts hold once.  The
    start counts are equal and the values agree to 1e-10, for the slopes 0,
    1/2 and 1."""
    fast = _kernels.compiled(ckernel)[0]
    turn = complex(math.cos(0.3), math.sin(0.3))
    cases = [(np.zeros(n, dtype=np.complex128), lam) for n in (1, 2, 5, 9)
             for lam in (1.0, turn)]
    cases.append((np.array([(1 - 1e-5) * turn, -0.2j, (1 - 2e-4) * -1j]), 1.0))
    cases.append((np.array([0.5, 0.5, 0.3j, -0.7, 0.3j]), turn))
    for zeros, lam in cases:
        for slope in (0.0, 0.5, 1.0):
            args = (zeros, lam, slope, 500, 1e-10)
            value, argmax, starts, _ = _search_one(fast, *args)
            ref_value, ref_argmax, ref_starts, _ = _search_one(_fallback.seminorm_search, *args)
            assert starts == ref_starts == _fallback._start_points(zeros).size
            assert abs(value - ref_value) <= 1e-10


def _search_outputs(count: int) -> tuple[np.ndarray, ...]:
    """The four output arrays of the compiled seminorm_search for ``count``
    products, each filled with a value that no search writes."""
    return (np.full(count, -7.0), np.full(count, -7.0 + 0j), np.full(count, -7),
            np.full(count, -7))


def test_bad_batches_fail_before_any_search(ckernel, monkeypatch):
    """Malformed ends or rotations raise ValueError on both backends, and no
    search runs: the fallback makes no Newton pass, and the compiled entry
    writes none of its outputs.  An empty batch gives four empty arrays."""
    zeros = np.array([0.5, -0.3j, 0.2 + 0.1j])
    two = np.array([1.0, 1j])
    ends_message = "ends: expected increasing ends, the first above 0 and the last 3"
    cases = [
        ([2, 1, 3], np.ones(3, dtype=np.complex128), ends_message),   # decreasing
        ([1, 1, 3], np.ones(3, dtype=np.complex128), ends_message),   # an empty product
        ([0, 3], two, ends_message),                                  # an empty first product
        ([-1, 3], two, ends_message),
        ([1, 2], two, ends_message),                                  # a zero left over
        ([1, 4], two, ends_message),                                  # past the zeros
        ([], [], ends_message),
        ([1, 3], np.ones(3, dtype=np.complex128), "lams: expected 2 items, got 3"),
        ([1, 3], [1.0], "lams: expected 2 items, got 1"),
    ]
    passes = []
    monkeypatch.setattr(_fallback, "refine_starts", lambda *args: passes.append(args))
    scan = (1024, 32, 8.0, np.array([0.25, 0.5, 1.0]))
    for ends, lams, message in cases:
        for search in (_fallback.seminorm_search, _kernels.compiled(ckernel)[0]):
            with pytest.raises(ValueError, match=re.escape(message)):
                search(zeros, ends, lams, 0.0, 500, 1e-10)
        outs = _search_outputs(len(ends))
        with pytest.raises(ValueError, match=re.escape(message)):
            ckernel.seminorm_search(zeros, np.array(ends, dtype=np.int64),
                                    np.array(lams, dtype=np.complex128), 0.0, 500, 1e-10,
                                    *scan, *outs)
        for got, unwritten in zip(outs, _search_outputs(len(ends))):
            np.testing.assert_array_equal(got, unwritten)
    assert passes == []
    for search in (_fallback.seminorm_search, _kernels.compiled(ckernel)[0]):
        found = search(np.zeros(0, dtype=np.complex128), [], [], 0.0, 500, 1e-10)
        assert [a.size for a in found] == [0, 0, 0, 0]


#: a zero 3e-4 from the circle, one of whose local scan angles is exactly the
#: uniform angle 100 (2 pi / 1024)
_MERGING_ZERO = 0.8159556600196584 + 0.5775954041384711j


def _batch_products() -> list[BlaschkeProduct]:
    """The sweep products of seed 1 at --max-degree 16 (degrees 1-16, both
    radial laws), z^5 turned by 0.3, whose flat modulus gives one peak, a
    product whose local scan angles meet a uniform one, and one with
    repeated zeros."""
    batch = [_sweep_product(1, index, 16)[2] for index in range(100)]
    turn = complex(math.cos(0.3), math.sin(0.3))
    batch.append(BlaschkeProduct((0j,) * 5, turn))
    batch.append(BlaschkeProduct((_MERGING_ZERO, -0.2j, 0.4), turn))
    batch.append(BlaschkeProduct((0.5, 0.5, 0.3j, -0.7, 0.3j), turn))
    return batch


def test_a_batch_gives_the_single_results_bit_for_bit(kernels, monkeypatch):
    """``seminorms`` of one mixed batch equals ``seminorm`` product by
    product, bit for bit, on each backend; so do two batches run from two
    threads at once."""
    step = 2.0 * math.pi / products._SCAN_ANGLES
    depth = 1.0 - np.abs(_MERGING_ZERO)
    offsets = np.linspace(-products._LOCAL_SPAN, products._LOCAL_SPAN, products._LOCAL_ANGLES)
    local = np.mod(np.angle(_MERGING_ZERO) + depth * offsets, 2.0 * math.pi)
    assert depth < 4.0 * step and local[0] == step * 100  # the angles meet
    batch = _batch_products()
    assert {B.degree for B in batch[:100]} == set(range(1, 17))
    monkeypatch.setattr(_kernels, "seminorm_search", kernels[0])
    single = [repr(seminorm.seminorm(B)) for B in batch]
    assert [repr(e) for e in seminorm.seminorms(batch)] == single
    halves = (batch[::2], batch[1::2])
    start = threading.Barrier(2)

    def run(share):
        start.wait(timeout=60)
        return [repr(e) for e in seminorm.seminorms(share)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(run, halves))
    assert concurrent == [single[::2], single[1::2]]


def test_compiled_kernel_rejects_bad_arrays(ckernel):
    zeros = np.zeros(2, dtype=np.complex128)
    starts = np.zeros(3, dtype=np.complex128)
    # one product of two zeros
    batch = (np.array([2]), np.ones(1, dtype=np.complex128), 0, 10, 1e-10)
    scan = (1024, 32, 8.0, np.array([0.25, 0.5, 1.0]))
    outs = _search_outputs(1)
    with pytest.raises(TypeError, match="zeros: expected format 'Zd', got 'd'"):
        ckernel.seminorm_search(np.zeros(2), *batch, *scan, *outs)
    with pytest.raises(ValueError, match="not C-contiguous"):
        ckernel.seminorm_search(np.zeros(4, dtype=np.complex128)[::2], *batch, *scan, *outs)
    with pytest.raises(TypeError, match="offsets: expected format 'd', got 'l'"):
        ckernel.seminorm_search(zeros, *batch, *scan[:3], np.ones(3, dtype=int), *outs)
    with pytest.raises(ValueError, match="local_angles >= 2"):
        ckernel.seminorm_search(zeros, *batch, 1024, 1, *scan[2:], *outs)
    with pytest.raises(TypeError, match="ends: expected format 'q', got 'd'"):
        ckernel.seminorm_search(zeros, np.array([2.0]), *batch[1:], *scan, *outs)
    with pytest.raises(ValueError, match="iterations: expected 1 items, got 2"):
        ckernel.seminorm_search(zeros, *batch, *scan, *outs[:3], np.empty(2, dtype=np.int64))
    frozen = np.empty(1)
    frozen.setflags(write=False)
    with pytest.raises(ValueError, match="read-only"):
        ckernel.seminorm_search(zeros, *batch, *scan, frozen, *outs[1:])
    # two routes of one piece each, each from its own start fiber of two points
    base = np.zeros(4, dtype=np.complex128)
    pieces = (np.zeros(2, dtype=np.complex128),) * 4
    rules = (1 / 16, 0.125, 1e-8, 4, 2, 1e-12, 1e-15, 0.4, 1e-10)
    ends, status = np.empty(4, dtype=np.complex128), np.empty(2, dtype=np.int64)
    for counts in ([1, 2], [3, -1]):
        with pytest.raises(ValueError, match="counts: expected nonnegative counts summing to 2"):
            ckernel.track_routes(zeros, 0j, base, *pieces, np.array(counts), rules, ends,
                                 status)
    # one start fiber for the two routes
    with pytest.raises(ValueError, match="base: expected 4 items, got 2"):
        ckernel.track_routes(zeros, 0j, base[:2], *pieces, np.array([1, 1]), rules, ends,
                             status)
    with pytest.raises(ValueError, match="ends: expected 4 items, got 3"):
        ckernel.track_routes(zeros, 0j, base, *pieces, np.array([1, 1]), rules, ends[:3],
                             status)
    with pytest.raises(TypeError, match="kappa: expected format 'Zd', got 'd'"):
        ckernel.track_routes(zeros, 0j, base, *pieces[:2], np.zeros(2), pieces[3],
                             np.array([1, 1]), rules, ends, status)
    with pytest.raises(ValueError, match="delta: expected 2 items, got 1"):
        ckernel.track_routes(zeros, 0j, base, *pieces[:3], pieces[3][:1], np.array([1, 1]),
                             rules, ends, status)
    # three roots over two distinct zeros
    mult = np.ones(2, dtype=np.int64)
    roots, res = np.empty(3, dtype=np.complex128), np.empty(3)
    caps = (1e-15, 200, 1e-13)
    with pytest.raises(ValueError, match="res: expected 3 items, got 2"):
        ckernel.critical_roots(zeros, mult, starts, *caps, roots, res[:2])
    with pytest.raises(TypeError, match="mult: expected format 'q', got 'd'"):
        ckernel.critical_roots(zeros, np.ones(2), starts, *caps, roots, res)
    with pytest.raises(ValueError, match="not C-contiguous"):
        ckernel.critical_roots(zeros, mult, np.zeros(6, dtype=np.complex128)[::2], *caps,
                               roots, res)


def _tracking_products() -> list[BlaschkeProduct]:
    """The 12 products of test_covering's lockstep reference test, the 16 of
    the benchmark's covering corpus (perfbench/workloads.py, unturned) and
    the last of those with a rotation, which B and B' carry."""
    out = [random_product(3 + k % 6, seed=60_000 + k, law=LAWS[k % 2]) for k in range(12)]
    classes = [(degree, law) for degree in (3, 10, 4, 9, 5, 8, 6, 7) for law in LAWS]
    for i, (degree, law) in enumerate(classes):
        seed = int(np.random.SeedSequence([20220330, i]).generate_state(1)[0])
        out.append(random_product(degree, seed, law))
    out.append(BlaschkeProduct(out[-1].zeros, complex(math.cos(0.7), math.sin(0.7))))
    return out


def _tracking_calls(monkeypatch, products):
    """The arguments of every ``track_routes`` call that monodromy makes on
    ``products``: (zeros, lam, base, pieces, counts, rules)."""
    calls = []

    def record(*args):
        calls.append(args)
        return _fallback.track_routes(*args)

    with monkeypatch.context() as m:
        m.setattr(_kernels, "track_routes", record)
        for B in products:
            covering.monodromy(B)
    return calls


def _critical_calls(monkeypatch, products):
    """The arguments of the ``critical_roots`` call that critical_points makes
    on each of ``products``: (zeros, mult, start, freeze_tol, max_iter,
    step_tol)."""
    calls = []

    def record(*args):
        calls.append(args)
        return _fallback.critical_roots(*args)

    with monkeypatch.context() as m:
        m.setattr(_kernels, "critical_roots", record)
        for B in products:
            covering.critical_points(B)
    return calls


def _critical_outcome(B):
    """critical_points(B) as an array, or the RootCountError it raised."""
    try:
        return np.array(covering.critical_points(B))
    except RootCountError as exc:
        return str(exc)


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """The largest distance from a point of either set to the other set."""
    d = np.abs(a[:, None] - b[None, :])
    return max(d.min(axis=0).max(), d.min(axis=1).max())


def test_critical_roots_backends_agree(ckernel, monkeypatch):
    """The critical-point bound stated in blochkit._kernels, and a
    RootCountError on the same inputs, over the parity set's products of
    degree 2-12, the sweep products of seeds 1-3 and degree 256 under both
    laws; also with the sweeps capped at 8, where 218 of these 496 fail."""
    fast = _kernels.compiled(ckernel)[2]
    products = [random_product(degree, seed=100 * degree + seed, law=law)
                for law in LAWS for degree in range(2, 13) for seed in range(10)]
    products += [B for seed in (1, 2, 3) for index in range(100)
                 for B in [_sweep_product(seed, index, 16)[2]] if B.degree >= 2]
    products += [random_product(256, seed=0, law=law) for law in LAWS]
    full = covering._ABERTH_MAX_ITER
    for cap in (full, 8):
        monkeypatch.setattr(covering, "_ABERTH_MAX_ITER", cap)
        failures = 0
        for k, B in enumerate(products):
            outcomes = []
            for solve in (fast, _fallback.critical_roots):
                monkeypatch.setattr(_kernels, "critical_roots", solve)
                outcomes.append(_critical_outcome(B))
            got, ref = outcomes
            if isinstance(ref, str):
                failures += 1
                assert got == ref, (cap, k)
            else:
                assert not isinstance(got, str), (cap, k, got)
                assert _distance(got, ref) <= 1e-12, (cap, k)
        # the full cap solves every product; eight sweeps leave some unsolved
        assert failures == 0 if cap == full else 0 < failures < len(products)


def test_track_routes_backends_agree(ckernel, monkeypatch):
    """The end-fibre bound stated in blochkit._kernels, and equal statuses
    and permutations."""
    fast = _kernels.compiled(ckernel)[1]
    products = _tracking_products()
    for args in _tracking_calls(monkeypatch, products):
        ends, status = fast(*args)
        ref_ends, ref_status = _fallback.track_routes(*args)
        assert status.dtype == ref_status.dtype == np.int64
        assert ends.shape == ref_ends.shape == np.shape(args[2]) == (len(args[4]), args[0].size)
        np.testing.assert_array_equal(status, ref_status)
        assert np.all(status == _kernels.TRACKED)
        assert np.max(np.abs(ends - ref_ends)) <= 1e-12
    for B in products:
        perms = []
        for track in (fast, _fallback.track_routes):
            monkeypatch.setattr(_kernels, "track_routes", track)
            perms.append([p for _v, p in covering.monodromy(B)])
        assert perms[0] == perms[1]


def test_track_routes_follows_a_geometric_piece(ckernel, monkeypatch):
    """A piece with real kappa < 0, w(t) = c + (w0 - c) e^{kappa t}, whose
    distance to c shrinks geometrically in t, 0.12 or more from every
    critical value: both trackers carry the fiber over w0 to within 1e-12 of
    the fiber over w(1), and agree within the 1e-12 bound of
    blochkit._kernels."""
    B = random_product(6, seed=181)
    c, w0, kappa = 0.1 + 0.05j, 0.5 - 0.2j, math.log(1e-3)
    w1 = c + (w0 - c) * math.exp(kappa)
    values = covering._values_of(B, covering.critical_points(B))
    along = np.clip(((values - w0) / (w1 - w0)).real, 0.0, 1.0)
    assert np.min(np.abs(values - (w0 + along * (w1 - w0)))) >= 0.12
    target = covering.fiber_solve(B, w1)
    ends = []
    for track in (_kernels.compiled(ckernel)[1], _fallback.track_routes):
        monkeypatch.setattr(_kernels, "track_routes", track)
        (end,), errors = covering._track_routes(
            B, covering.fiber_solve(B, w0)[None, :], [[(c, w0 - c, complex(kappa), 0j)]])
        assert errors == [None]
        gap = np.abs(end[:, None] - target[None, :])
        assert np.unique(gap.argmin(axis=1)).size == B.degree
        assert np.max(gap.min(axis=1)) <= 1e-12
        ends.append(end)
    assert np.max(np.abs(ends[0] - ends[1])) <= 1e-12


def test_track_routes_statuses(kernels, monkeypatch):
    """The first failed route stops the later ones, on either backend."""
    track = kernels[1]
    zeros, lam, base, pieces, counts, rules = _tracking_calls(
        monkeypatch, [random_product(5, seed=181)])[0]
    # one piece starting at w = 0.9, away from the base fiber over 0: no step
    # is accepted and the step size underflows
    stray = covering._segment(0.9 + 0j, 0.95 + 0j)
    later = len(counts)

    def statuses(at, collision_tol=rules[-1]):
        stretched = tuple(np.insert(a, sum(counts[:at]), x)
                          for a, x in zip(pieces, stray, strict=True))
        return list(track(zeros, lam, np.insert(base, at, base[0], axis=0), stretched,
                          np.insert(counts, at, 1), (*rules[:-1], collision_tol))[1])

    ok, skip = _kernels.TRACKED, _kernels.NOT_TRACKED
    assert statuses(0) == [_kernels.UNDERFLOW] + [skip] * later
    assert statuses(later) == [ok] * later + [_kernels.UNDERFLOW]
    assert statuses(1, collision_tol=2.0) == [_kernels.COLLISION] + [skip] * later


def test_concurrent_calls_match_serial_calls(kernels, monkeypatch):
    """Twelve threads at once, four whole seminorm searches, four trackings and
    four critical-point solves of one product each, give the serial results
    bit for bit."""
    search, track, critical = kernels
    products = [random_product(4 + 4 * i, seed=75 + i, law=LAWS[i % 2]) for i in range(4)]
    jobs = [(search, (B.zeros_array, [B.degree], [B.rotation], (0.0, 0.5, 1.0)[i % 3], 500,
                      1e-10))
            for i, B in enumerate(products)]
    products = [random_product(5 + i, seed=80 + i, law=LAWS[i % 2]) for i in range(4)]
    jobs += [(track, args) for args in _tracking_calls(monkeypatch, products)]
    products = [random_product(8 + 8 * i, seed=90 + i, law=LAWS[i % 2]) for i in range(4)]
    jobs += [(critical, args) for args in _critical_calls(monkeypatch, products)]
    serial = [fn(*args) for fn, args in jobs]
    start = threading.Barrier(len(jobs))

    def run(fn, args):
        start.wait(timeout=60)
        return fn(*args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(run, fn, args) for fn, args in jobs]
            concurrent = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for expected, got in zip(serial, concurrent):
        for a, b in zip(expected, got):
            np.testing.assert_array_equal(a, b)


def test_pure_python_env_switch():
    code = "import blochkit._kernels as k; print(k.BACKEND)"
    env = dict(os.environ, BLOCHKIT_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "python"


def test_pure_python_seminorm_matches_in_process():
    code = (
        "from blochkit.products import random_product\n"
        "from blochkit.seminorm import seminorm\n"
        "B = random_product(5, seed=11)\n"
        "print(repr(seminorm(B).value))\n"
    )
    env = dict(os.environ, BLOCHKIT_PURE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    pure_value = float(out.stdout.strip())

    from blochkit.products import random_product
    from blochkit.seminorm import seminorm
    here = seminorm(random_product(5, seed=11)).value
    assert abs(here - pure_value) < 1e-9
