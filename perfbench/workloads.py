"""The benchmark's workloads: inputs made from the seed, CLI calls, output checks.

A workload is one *pass* of CLI calls that holds each input class of the
workload (degree and radial law, or slit parameter) once, in an order that
alternates cheap and costly classes.  A run repeats the pass, so every run of
a workload has the same mix of classes whatever the seed and however fast the
program is, and every input is timed several times.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from blochkit.constants import REFERENCE_TABLE
from blochkit.covering import DEGENERATE
from blochkit.products import BlaschkeProduct, random_product
from blochkit.slitdisk import default_threshold
from blochkit.surface import TARGET_HEIGHT, parameter_integrals


def _interleave(items):
    """0, n-1, 1, n-2, ...: neighbours alternate between the two ends."""
    items = list(items)
    out = []
    while items:
        out.append(items.pop(0))
        if items:
            out.append(items.pop())
    return tuple(out)


REFERENCE = {entry.name: entry for entry in REFERENCE_TABLE}
LAWS = ("uniform_disk", "boundary_concentrated")

SWEEP_COUNT = 100        # products per `blochkit sweep` call: the CLI's default
SWEEP_WORKERS = min(8, os.cpu_count() or 1)  # the CLI's thread pool size
SWEEP_MAX_DEGREE = 16
COVERING_DEGREES = _interleave(range(3, 11))
SURFACE_A_RANGE = (0.005, 0.4)
SURFACE_POINTS = 23      # log-spaced values of a, plus the package default
CORPUS_SEED = 20220330


@dataclass(frozen=True)
class Op:
    """One in-process CLI call; ``check`` maps its stdout to a problem or None."""

    argv: tuple[str, ...]
    check: Callable[[str], str | None]
    products: int = 1
    threads: int = 1  # threads the call computes in


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Path], list[Op]]  # (seed, input directory) -> one pass
    warmup: Op | None = None  # the untimed first op; None runs the first input


def _derive(seed: int, *index: int) -> int:
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0])


def _corpus_product(seed: int, i: int, degree: int, law: str) -> BlaschkeProduct:
    """Product i of the fixed corpus, rotated by an angle drawn from ``seed``.

    The corpus is drawn once by random_product; the seed turns each product
    about the origin.  A rotation keeps the covering geometry, so every seed
    gives the same mix of easy and hard products while the zeros, the start
    grid alignment and every floating-point path change.
    """
    B = random_product(degree, _derive(CORPUS_SEED, i), law)
    turn = np.exp(2j * np.pi * np.random.default_rng([seed, i]).random())
    return BlaschkeProduct(tuple(z * turn for z in B.zeros))


def _write_product(directory: Path, tag: str, B: BlaschkeProduct) -> str:
    path = directory / f"{tag}.json"
    path.write_text(json.dumps(B.to_json()), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# sweep


def _check_sweep(out: str) -> str | None:
    data = json.loads(out)
    if data["count"] != SWEEP_COUNT:
        return f"sweep reported {data['count']} trials, expected {SWEEP_COUNT}"
    if data["violations"]:
        return f"{data['violations']} lower-bound violation(s)"
    return None


def build_sweep(seed: int, directory: Path) -> list[Op]:
    return [Op(("sweep", "--count", str(SWEEP_COUNT), "--max-degree", str(SWEEP_MAX_DEGREE),
                "--seed", str(_derive(seed, 0))), _check_sweep, SWEEP_COUNT, SWEEP_WORKERS)]


# A full call takes about 10 s; two products warm up the same code paths.
SWEEP_WARMUP = Op(("sweep", "--count", "2", "--max-degree", str(SWEEP_MAX_DEGREE),
                   "--seed", "0"), lambda out: None, 2, SWEEP_WORKERS)


# ---------------------------------------------------------------------------
# covering

_TRANSPOSITION = re.compile(r"\(\d+ \d+\)")


def _check_analyze(degree: int, out: str) -> str | None:
    report = json.loads(out)["report"]
    if report["case_label"] == DEGENERATE:
        return None
    if len(report["critical_points"]) != degree - 1:
        return f"degree {degree}: {len(report['critical_points'])} critical points"
    if not all(_TRANSPOSITION.fullmatch(m["permutation"]) for m in report["monodromy"]):
        return f"degree {degree}: a monodromy permutation is not a transposition"
    if len(report["sheet_edges"]) != degree - 1:
        return f"degree {degree}: {len(report['sheet_edges'])} sheet edges"
    if report["distinguished_sheet"] is None:
        return f"degree {degree}: no distinguished sheet"
    return None


def build_covering(seed: int, directory: Path) -> list[Op]:
    ops = []
    for degree in COVERING_DEGREES:
        for law in LAWS:
            i = len(ops)
            B = _corpus_product(seed, i, degree, law)
            path = _write_product(directory, f"covering-{i}", B)
            ops.append(Op(("analyze", "--input", path), partial(_check_analyze, degree)))
    return ops


# ---------------------------------------------------------------------------
# surface


def _check_surface(a: float, default: bool, out: str) -> str | None:
    sol = json.loads(out)
    c, d = sol["c"], sol["d"]
    if sol["a"] != a or not 1.0 < c < d:
        return f"a={a!r}: bad parameters a={sol['a']!r} c={c!r} d={d!r}"
    i1, i2 = parameter_integrals(c, d)
    if abs(i1 - TARGET_HEIGHT) > 1e-9 or abs(i2 + 0.5 * math.log(a)) > 1e-9:
        return f"a={a!r}: side-length residuals {i1 - TARGET_HEIGHT:.3e}, " \
               f"{i2 + 0.5 * math.log(a):.3e}"
    if default:
        for name in ("c", "d", "r0"):
            ref = REFERENCE[name]
            if abs(sol[name] - ref.reference) > ref.tolerance:
                return f"default a: {name}={sol[name]!r} misses {ref.reference}"
    return None


def build_surface(seed: int, directory: Path) -> list[Op]:
    """The fixed grid: the seed does not move the slit parameter."""
    a_default = default_threshold()
    values = [float(a) for a in _interleave(np.geomspace(*SURFACE_A_RANGE, SURFACE_POINTS))]
    values.insert(len(values) // 2, a_default)
    return [Op(("surface", "--a", repr(a)), partial(_check_surface, a, a == a_default))
            for a in values]


WORKLOADS = {
    "sweep": Workload("sweep", build_sweep, SWEEP_WARMUP),
    "covering": Workload("covering", build_covering),
    "surface": Workload("surface", build_surface),
}
