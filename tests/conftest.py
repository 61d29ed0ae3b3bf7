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


def _build_extension(name: str, source: Path, out: Path, include_dirs=()):
    """Compile the one-file extension ``name`` from ``source`` into ``out``
    with setup.py's flags and import it."""
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(compiler.split()[0]) is None:
        pytest.skip("no C compiler")
    from setuptools import Distribution, Extension

    ext = Extension(name, [str(source)], include_dirs=[str(d) for d in include_dirs],
                    extra_compile_args=["-O3", "-ffp-contract=off"])
    build = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    build.build_lib = str(out)
    build.build_temp = str(out / "tmp")
    build.ensure_finalized()
    build.run()
    spec = importlib.util.spec_from_file_location(name, build.get_ext_fullpath(name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ckernel(tmp_path_factory):
    """The ``_ckernel`` module built from this tree's source with setup.py's flags."""
    source = Path(_kernels.__file__).with_name("_ckernel.c")
    return _build_extension("_ckernel", source, tmp_path_factory.mktemp("ckernel"))


@pytest.fixture(scope="session")
def ckernel_probe(tmp_path_factory):
    """``ckernel_probe.c`` built the same way: the compiled kernel's source
    with its B evaluator, blaschke(), exposed as ``derivatives``."""
    return _build_extension("_ckernel_probe", Path(__file__).with_name("ckernel_probe.c"),
                            tmp_path_factory.mktemp("ckernel_probe"),
                            [Path(_kernels.__file__).parent])


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
