"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib.util
import os
import shutil
import sysconfig
from pathlib import Path

import pytest

from blochkit import _kernels
from blochkit.products import BlaschkeProduct, random_product

# the CLI and backend-switch tests start fresh interpreters; they import the
# package from this tree, as the test process does (pyproject's pythonpath)
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def ckernel(tmp_path_factory):
    """The ``_ckernel`` module built from this tree's source with setup.py's flags."""
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(compiler.split()[0]) is None:
        pytest.skip("no C compiler")
    from setuptools import Distribution, Extension

    source = Path(_kernels.__file__).with_name("_ckernel.c")
    out = tmp_path_factory.mktemp("ckernel")
    ext = Extension("_ckernel", [str(source)],
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


def power_product(n: int) -> BlaschkeProduct:
    """The n-fold product z^n (all zeros at the origin)."""
    return BlaschkeProduct((0j,) * n)


def mixed_products(count: int, max_degree: int, base_seed: int):
    """Deterministic list of products alternating both radial laws."""
    out = []
    for i in range(count):
        degree = 1 + i % max_degree
        law = "uniform_disk" if i % 2 == 0 else "boundary_concentrated"
        out.append(random_product(degree, seed=base_seed + i, law=law))
    return out


@pytest.fixture(scope="session")
def random_products():
    return mixed_products(30, 8, base_seed=9000)
