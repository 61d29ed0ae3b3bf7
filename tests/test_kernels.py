"""Backend parity: the compiled C kernel and the numpy fallback agree.

The C kernel is compiled from this tree into a temporary directory (the
``ckernel`` fixture of conftest.py), so these tests run wherever a C compiler
exists, whether or not the package was built.
"""

from __future__ import annotations

import inspect
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
import numpy as np
import pytest

from blochkit import _kernels, covering, seminorm
from blochkit._kernels import _fallback
from blochkit.cli import _sweep_product
from blochkit.errors import RootCountError
from blochkit.products import ZERO_SWITCH, BlaschkeProduct, random_product

LAWS = ("uniform_disk", "boundary_concentrated")

@pytest.fixture(params=["c", "python"])
def kernels(request):
    """(refine_starts, track_routes, critical_roots) of each backend."""
    if request.param == "c":
        return _kernels.compiled(request.getfixturevalue("ckernel"))
    return _fallback.refine_starts, _fallback.track_routes, _fallback.critical_roots


def _random_case(seed: int, degree: int):
    rng = np.random.default_rng(seed)
    zeros = (0.9 * np.sqrt(rng.random(degree))
             * np.exp(2j * math.pi * rng.random(degree)))
    pts = (0.97 * np.sqrt(rng.random(64))
           * np.exp(2j * math.pi * rng.random(64)))
    return zeros, pts


def _multistart_case(degree: int, seed: int):
    """The zeros, rotation, starts and scales of seminorm's first pass."""
    B = random_product(degree, seed=seed)
    starts = np.asarray(seminorm._start_points(B))
    return B.zeros_array, complex(B.rotation), starts, seminorm._scales(starts)


def test_backend_reports_name():
    assert _kernels.BACKEND in ("c", "python")


def test_kernel_contract_has_three_entries(ckernel):
    """Both backends expose refine_starts, track_routes and critical_roots,
    and nothing else."""
    contract = {"refine_starts", "track_routes", "critical_roots"}
    compiled = {name for name in dir(ckernel)
                if not name.startswith("_") and callable(getattr(ckernel, name))}
    fallback = {name for name, obj in vars(_fallback).items()
                if inspect.isfunction(obj) and obj.__module__ == _fallback.__name__
                and not name.startswith("_")}
    assert compiled == contract
    assert fallback == contract
    assert not hasattr(_kernels, "pointwise_batch")


def test_pointwise_batch_backends_agree(ckernel):
    """The objective at each point, read from refine_starts with no iterations
    and a degenerate simplex, agrees to the stated 1e-12 for every kind."""
    fast = _kernels.compiled(ckernel)[0]
    for f_kind in (0, 1, 2):
        zeros, pts = _random_case(10 + f_kind, 6)
        pts[:3] = zeros[:3]  # on a zero the product rule takes over
        pts[3:6] = zeros[3:6] + 0.5 * ZERO_SWITCH  # and near one, off it
        pts[6] = 2.0  # outside the barrier
        args = (zeros, 1.0 + 0j, pts, np.zeros(pts.size), f_kind, 0, 1e-10, 1.0 - 1e-9)
        got, got_pts, got_iters = fast(*args)
        ref, ref_pts, ref_iters = _fallback.refine_starts(*args)
        np.testing.assert_array_equal(got_pts, pts)
        np.testing.assert_array_equal(ref_pts, pts)
        assert not got_iters.any() and not ref_iters.any()
        assert got[6] == ref[6] == -1.0
        assert np.max(np.abs(got - ref)) < 1e-12


def test_product_rule_backends_agree_at_high_degree(ckernel):
    """On the zeros of a degree-400 product, where both backends take the
    product rule, the objective agrees to 1e-12; at a double zero B' is 0."""
    fast = _kernels.compiled(ckernel)[0]
    zeros, _ = _random_case(77, 400)
    for pts, kind in ((zeros.copy(), 0), (zeros[:50].copy(), 2)):
        args = (zeros, 1.0 + 0j, pts, np.zeros(pts.size), kind, 0, 1e-10, 1.0 - 1e-9)
        got = fast(*args)[0]
        ref = _fallback.refine_starts(*args)[0]
        assert np.all(got > 0.0)
        assert np.max(np.abs(got - ref)) < 1e-12
    double = np.array([0.3 + 0.1j, 0.3 + 0.1j, -0.5j])
    args = (double, 1.0 + 0j, double[:1].copy(), np.zeros(1), 0, 0, 1e-10, 1.0 - 1e-9)
    assert fast(*args)[0][0] == 0.0


def test_refine_starts_backends_agree(ckernel):
    fast = _kernels.compiled(ckernel)[0]
    zeros, pts = _random_case(42, 5)
    starts = pts[:16]
    scales = 0.05 * np.ones(16)
    args = (zeros, 1.0 + 0j, starts, scales, 0, 500, 1e-10, 1.0 - 1e-9)
    vf, zf, itf = fast(*args)
    vs, zs, its = _fallback.refine_starts(*args)
    assert itf.dtype == its.dtype == np.int64
    assert abs(np.max(vf) - np.max(vs)) < 1e-10
    assert np.max(np.abs(vf - vs)) < 1e-8
    # the same branch logic: a last-bit rounding difference may flip a near-tie
    # on some start, but most simplices take the same path
    assert np.mean(itf == its) >= 0.75


def test_seminorm_backends_agree_on_degrees_1_to_12(ckernel, monkeypatch):
    """The bound stated in blochkit._kernels, over 240 products."""
    fast = _kernels.compiled(ckernel)[0]
    for law in ("uniform_disk", "boundary_concentrated"):
        for degree in range(1, 13):
            for seed in range(10):
                B = random_product(degree, seed=100 * degree + seed, law=law)
                monkeypatch.setattr(_kernels, "refine_starts", fast)
                compiled_value = seminorm.seminorm(B).value
                monkeypatch.setattr(_kernels, "refine_starts", _fallback.refine_starts)
                reference = seminorm.seminorm(B).value
                assert abs(compiled_value - reference) <= 1e-10, (law, degree, seed)


@pytest.mark.parametrize("f_kind", [3, -1])
def test_unknown_kind_is_rejected_before_any_work(kernels, f_kind):
    refine = kernels[0]
    zeros, _ = _random_case(5, 3)
    outside = np.array([2.0 + 0j])  # nothing to evaluate: still rejected
    with pytest.raises(ValueError, match=f"unknown catalog kind {f_kind}"):
        refine(zeros, 1.0 + 0j, outside, np.ones(1), f_kind, 10, 1e-10, 1.0 - 1e-9)


def test_compiled_kernel_rejects_bad_arrays(ckernel):
    zeros = np.zeros(2, dtype=np.complex128)
    starts = np.zeros(3, dtype=np.complex128)
    outputs = (np.empty(3), np.empty(3, dtype=np.complex128),
               np.empty(3, dtype=np.int64))
    with pytest.raises(ValueError, match="scales: expected 3 items, got 2"):
        ckernel.refine_starts(zeros, 0j, starts, np.ones(2), 0, 10, 1e-10, 0.5, *outputs)
    with pytest.raises(TypeError, match="scales: expected format 'd'"):
        ckernel.refine_starts(zeros, 0j, starts, np.ones(3, dtype=np.float32), 0, 10,
                              1e-10, 0.5, *outputs)
    with pytest.raises(ValueError, match="not C-contiguous"):
        ckernel.refine_starts(zeros, 0j, starts, np.ones(3), 0, 10, 1e-10, 0.5,
                              np.empty(6)[::2], *outputs[1:])
    # two routes of one piece each from a base fiber of three points
    pieces = (np.zeros(2, dtype=np.complex128), np.zeros(2, dtype=np.complex128),
              np.zeros(2), np.zeros(2), np.zeros(2, dtype=bool))
    rules = (1 / 16, 0.125, 1e-8, 4, 2, 1e-12, 1e-15, 0.4, 1e-10)
    ends, status = np.empty(6, dtype=np.complex128), np.empty(2, dtype=np.int64)
    for counts in ([1, 2], [3, -1]):
        with pytest.raises(ValueError, match="counts: expected nonnegative counts summing to 2"):
            ckernel.track_routes(zeros, 0j, starts, *pieces, np.array(counts), rules, ends,
                                 status)
    with pytest.raises(ValueError, match="ends: expected 6 items, got 5"):
        ckernel.track_routes(zeros, 0j, starts, *pieces, np.array([1, 1]), rules, ends[:5],
                             status)
    with pytest.raises(TypeError, match="circle: expected format '\\?'"):
        ckernel.track_routes(zeros, 0j, starts, *pieces[:4], np.zeros(2), np.array([1, 1]),
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
        assert ends.shape == ref_ends.shape == (len(args[4]), args[2].size)
        np.testing.assert_array_equal(status, ref_status)
        assert np.all(status == _kernels.TRACKED)
        assert np.max(np.abs(ends - ref_ends)) <= 1e-12
    for B in products:
        perms = []
        for track in (fast, _fallback.track_routes):
            monkeypatch.setattr(_kernels, "track_routes", track)
            perms.append([p for _v, p in covering.monodromy(B)])
        assert perms[0] == perms[1]


def test_track_routes_statuses(kernels, monkeypatch):
    """The first failed route stops the later ones, on either backend."""
    track = kernels[1]
    zeros, lam, base, pieces, counts, rules = _tracking_calls(
        monkeypatch, [random_product(5, seed=181)])[0]
    # one piece starting at w = 0.9, away from the base fiber over 0: no step
    # is accepted and the step size underflows
    stray = (0.9 + 0j, 0.05 + 0j, 0.0, 0.0, False)
    later = len(counts)

    def statuses(at, collision_tol=rules[-1]):
        stretched = tuple(np.insert(a, sum(counts[:at]), x) for a, x in zip(pieces, stray))
        return list(track(zeros, lam, base, stretched, np.insert(counts, at, 1),
                          (*rules[:-1], collision_tol))[1])

    ok, skip = _kernels.TRACKED, _kernels.NOT_TRACKED
    assert statuses(0) == [_kernels.UNDERFLOW] + [skip] * later
    assert statuses(later) == [ok] * later + [_kernels.UNDERFLOW]
    assert statuses(1, collision_tol=2.0) == [_kernels.COLLISION] + [skip] * later


def test_concurrent_calls_match_serial_calls(kernels, monkeypatch):
    """Twelve threads at once, four Nelder-Mead passes, four trackings and
    four critical-point solves of one product each, give the serial results
    bit for bit."""
    refine, track, critical = kernels
    jobs = [(refine, (*_multistart_case(6 + 3 * i, seed=70 + i), i % 3, 500, 1e-10,
                      seminorm.BARRIER_RADIUS)) for i in range(4)]
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
