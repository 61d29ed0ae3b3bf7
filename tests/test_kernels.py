"""Backend parity: the compiled C kernel and the numpy fallback agree.

The C kernel is compiled from this tree into a temporary directory, so these
tests run wherever a C compiler exists, whether or not the package was built.
"""

from __future__ import annotations

import importlib.util
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from blochkit import _kernels, seminorm
from blochkit._kernels import _fallback
from blochkit.products import ZERO_SWITCH, random_product

SOURCE = Path(_kernels.__file__).with_name("_ckernel.c")


@pytest.fixture(scope="session")
def ckernel(tmp_path_factory):
    """The ``_ckernel`` module built from SOURCE with setup.py's flags."""
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(compiler.split()[0]) is None:
        pytest.skip("no C compiler")
    from setuptools import Distribution, Extension

    out = tmp_path_factory.mktemp("ckernel")
    ext = Extension("_ckernel", [str(SOURCE)],
                    extra_compile_args=["-O3", "-ffp-contract=off"])
    build = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    build.build_lib = str(out)
    build.build_temp = str(out / "tmp")
    build.ensure_finalized()
    build.run()
    spec = importlib.util.spec_from_file_location(
        "_ckernel", build.get_ext_fullpath("_ckernel"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["c", "python"])
def kernels(request):
    """(pointwise_batch, refine_starts) of each backend."""
    if request.param == "c":
        return _kernels.compiled(request.getfixturevalue("ckernel"))
    return _fallback.pointwise_batch, _fallback.refine_starts


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
    starts = np.asarray(seminorm._start_points(B, seminorm.OptimizerConfig()))
    return B.zeros_array, complex(B.rotation), starts, seminorm._scales(starts)


def test_backend_reports_name():
    assert _kernels.BACKEND in ("c", "python")


def test_pointwise_batch_backends_agree(ckernel):
    fast, _ = _kernels.compiled(ckernel)
    for f_kind in (0, 1, 2):
        zeros, pts = _random_case(10 + f_kind, 6)
        pts[:3] = zeros[:3]  # on a zero the product rule takes over
        pts[3:6] = zeros[3:6] + 0.5 * ZERO_SWITCH  # and near one, off it
        got = fast(zeros, 1.0 + 0j, pts, f_kind, 1.0 - 1e-9)
        ref = _fallback.pointwise_batch(zeros, 1.0 + 0j, pts, f_kind, 1.0 - 1e-9)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) < 1e-12


def test_pointwise_batch_keeps_the_shape(kernels):
    pointwise, _ = kernels
    zeros, pts = _random_case(13, 4)
    grid = pts[:60].reshape(3, 4, 5)
    grid[0, 0, :3] = [zeros[0], 2.0, zeros[1] + 1e-9]  # on a zero, outside, near one
    got = pointwise(zeros, 1.0 + 0j, grid, 0, 1.0 - 1e-9)
    assert got.shape == grid.shape
    np.testing.assert_array_equal(got.ravel(), pointwise(zeros, 1.0 + 0j, grid.ravel(), 0,
                                                         1.0 - 1e-9))
    assert got[0, 0, 1] == -1.0


def test_refine_starts_backends_agree(ckernel):
    _, fast = _kernels.compiled(ckernel)
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
    _, fast = _kernels.compiled(ckernel)
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
    pointwise, refine = kernels
    zeros, _ = _random_case(5, 3)
    outside = np.array([2.0 + 0j])  # nothing to evaluate: still rejected
    with pytest.raises(ValueError, match=f"unknown catalog kind {f_kind}"):
        pointwise(zeros, 1.0 + 0j, outside, f_kind, 1.0 - 1e-9)
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
        ckernel.pointwise_batch(zeros, 0j, starts, np.empty(6)[::2], 0, 0.5)


def test_concurrent_calls_match_serial_calls(kernels):
    """Four threads at once, one product each, give the serial results bit for bit."""
    _, refine = kernels
    cases = [(*_multistart_case(6 + 3 * i, seed=70 + i), i % 3, 500, 1e-10,
              seminorm.BARRIER_RADIUS) for i in range(4)]
    serial = [refine(*case) for case in cases]
    start = threading.Barrier(len(cases))

    def run(case):
        start.wait(timeout=60)
        return refine(*case)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(cases)) as pool:
            futures = [pool.submit(run, case) for case in cases]
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
