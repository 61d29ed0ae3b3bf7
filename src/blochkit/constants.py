"""Reference-constant pipeline and pass/fail table.

Every number here is recomputed from scratch by the solvers in this package
and then compared against frozen reference digits (with per-name tolerances):

    a                slit parameter with maximal slit-disk radius 0.7
    s0, x0           cubic root and profile maximizer for that a
    slit_max_radius  the 0.7 itself, from the closed form
    c, d             side-length parameters of the two-sheeted surface
    r0               conformal radius of the surface at the checkpoint point
    two_over_e       limit of the z^n seminorm family
    sqrt3_r0_over_4, pi_r0_over_4
                     composition thresholds scaled from r0

The checkpoint is the fixed upper-half-plane point -0.0205 + 0.3659i.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .slitdisk import default_threshold, max_conformal_radius
from .surface import RADIUS_PROBE, SurfaceSolution, conformal_radius_at, solve_parameters

RADIUS_CHECKPOINT = RADIUS_PROBE


@dataclass(frozen=True)
class ReferenceConstant:
    name: str
    reference: float
    tolerance: float


REFERENCE_TABLE: tuple[ReferenceConstant, ...] = (
    ReferenceConstant("s0", 2.379796, 1e-5),
    ReferenceConstant("a", 0.024286, 1e-5),
    ReferenceConstant("log_a", -3.7178547, 1e-5),
    ReferenceConstant("x0", 0.447213, 1e-5),
    ReferenceConstant("slit_max_radius", 0.7, 1e-4),
    ReferenceConstant("c", 1.098259, 1e-4),
    ReferenceConstant("d", 1.766556, 1e-4),
    ReferenceConstant("r0", 0.695356, 1e-4),
    ReferenceConstant("two_over_e", 0.73575, 1e-5),
    ReferenceConstant("sqrt3_r0_over_4", 0.301098, 1e-5),
    ReferenceConstant("pi_r0_over_4", 0.546131, 1e-5),
)


@functools.lru_cache(maxsize=1)
def computed_constants() -> dict:
    """Run the full pipeline once and return every named value."""
    a = default_threshold()
    slit = max_conformal_radius(a)
    c, d = solve_parameters(a)
    sol = SurfaceSolution(a, c, d, 1.0, RADIUS_CHECKPOINT)
    r0 = float(conformal_radius_at(RADIUS_CHECKPOINT, sol))
    return {
        "s0": slit.s0,
        "a": a,
        "log_a": math.log(a),
        "x0": slit.x0,
        "slit_max_radius": slit.max_radius,
        "c": c,
        "d": d,
        "r0": r0,
        "two_over_e": 2.0 / math.e,
        "sqrt3_r0_over_4": math.sqrt(3.0) * r0 / 4.0,
        "pi_r0_over_4": math.pi * r0 / 4.0,
    }


def check_constants(tolerance_overrides: dict | None = None) -> tuple[list, bool]:
    """Rows of (name, value, reference, abs_err, status) plus the verdict."""
    overrides = tolerance_overrides or {}
    values = computed_constants()
    rows = []
    all_pass = True
    for ref in REFERENCE_TABLE:
        tol = float(overrides.get(ref.name, ref.tolerance))
        value = values[ref.name]
        err = abs(value - ref.reference)
        ok = err <= tol
        all_pass = all_pass and ok
        rows.append({
            "name": ref.name,
            "value": value,
            "reference": ref.reference,
            "abs_err": err,
            "tolerance": tol,
            "status": "PASS" if ok else "FAIL",
        })
    return rows, all_pass
