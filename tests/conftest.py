"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from blochkit.products import BlaschkeProduct, random_product

# the CLI and backend-switch tests start fresh interpreters; they import the
# package from this tree, as the test process does (pyproject's pythonpath)
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


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
