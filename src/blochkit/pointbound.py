"""Constructive pointwise lower bound near the boundary-maximum of |B'|.

Pick the boundary point zeta maximizing |B'| (on |z| = 1 the modulus is the
positive sum (1-|z_j|^2)/|zeta-z_j|^2, so the maximum is well defined), set

    delta = min(1, |B'(zeta)| * min_j |zeta - z_j|)      (always 1 at the max),
    z0    = (1 - d*delta/|B'(zeta)|) * zeta              (0 < d < 1),

then |B'(z0)|(1-|z0|^2) is at least

    bound(d, delta) = d*delta * (1 - d*delta/(1-d)^2) * (1 - 2d/(1-d)^2),

which exceeds 0.07*delta at d = 1/7 (319/4536) and d = 1/8 (1353/19208).
The derivation chain uses, for every z on the radial segment [z0, zeta],

    |z - z_j| >= (1-d) |zeta - z_j|,
    |1 - conj(z_j) z| >= (1-d) |zeta - z_j|,
    |B(z0)| >= 1 - d*delta/(1-d)^2,

and ``verify_construction`` re-checks those numerically at sampled points.
``select_zeta`` takes zeta from the top sampled peak of ``boundary_peaks``,
polished; delta is computed at the zeta it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateError, DomainError
from .products import BlaschkeProduct, boundary_derivative_modulus, boundary_peaks, evaluate
from .seminorm import _golden_section, pointwise_bloch

DEFAULT_D = 1.0 / 7.0


@dataclass(frozen=True)
class ConstructiveResult:
    zeta: complex
    delta: float
    d_param: float
    z0: complex
    guaranteed_bound: float
    actual_value: float

    def __post_init__(self) -> None:
        if abs(abs(self.zeta) - 1.0) > 1e-10:
            raise DomainError("zeta must sit on the unit circle")
        if not (0.0 < self.delta <= 1.0):
            raise DomainError("delta must lie in (0, 1]")
        if not (0.0 < self.d_param < 1.0):
            raise DomainError("d parameter must lie in (0, 1)")

    def to_json(self) -> dict:
        return {
            "zeta": [self.zeta.real, self.zeta.imag],
            "delta": self.delta,
            "d_param": self.d_param,
            "z0": [self.z0.real, self.z0.imag],
            "guaranteed_bound": self.guaranteed_bound,
            "actual_value": self.actual_value,
        }


def select_zeta(B: BlaschkeProduct) -> complex:
    """The top sampled peak of |B'| on the circle (``boundary_peaks``),
    golden-section polished between its neighbouring samples.

    The scan samples a narrow peak next to a zero close to the circle on a
    local grid, so it does not step over it.  Deterministic: the first
    sampled angle attaining the maximum wins (for the rotationally symmetric
    z^n this returns exactly 1), and the polished angle replaces it only
    when it strictly improves the modulus.
    """
    theta, modulus, bracket = boundary_peaks(B)
    k = int(np.argmax(modulus))
    best_theta, best_val = float(theta[k]), float(modulus[k])

    def m(theta: float) -> float:
        return boundary_derivative_modulus(B, complex(math.cos(theta),
                                                      math.sin(theta)))

    theta_ref = _golden_section(m, float(bracket[k, 0]), float(bracket[k, 1]), 1e-10)
    if m(theta_ref) > best_val + 1e-13 * max(1.0, best_val):
        best_theta = theta_ref
    return complex(math.cos(best_theta), math.sin(best_theta))


def compute_delta(B: BlaschkeProduct, zeta: complex) -> float:
    """min(1, |B'(zeta)| * dist(zeta, zeros)); 1 whenever zeta is the maximizer."""
    zeta = complex(zeta)
    gaps = np.abs(zeta - B.zeros_array)
    if gaps.min() < 1e-14:
        raise DegenerateError("a zero collides with the boundary point")
    return min(1.0, float(boundary_derivative_modulus(B, zeta) * gaps.min()))


def guaranteed_bound(d_param: float, delta: float) -> float:
    """The certified product d*delta*(1 - d*delta/(1-d)^2)*(1 - 2d/(1-d)^2)."""
    q = (1.0 - d_param) ** 2
    return d_param * delta * (1.0 - d_param * delta / q) * (1.0 - 2.0 * d_param / q)


def guaranteed_bound_exact(d_param: Fraction, delta: Fraction) -> Fraction:
    """Same product in exact rational arithmetic: an independent reference
    that the tests check ``guaranteed_bound`` and the paper's rationals
    against; nothing in the package calls it."""
    q = (1 - d_param) ** 2
    return d_param * delta * (1 - d_param * delta / q) * (1 - 2 * d_param / q)


def construct(B: BlaschkeProduct, zeta: complex, delta: float,
              d_param: float = DEFAULT_D) -> ConstructiveResult:
    """Place z0 on the radius toward zeta and certify the pointwise bound."""
    if not (0.0 < d_param < 1.0):
        raise DomainError("d parameter must lie in (0, 1)")
    if not (0.0 < delta <= 1.0):
        raise DomainError("delta must lie in (0, 1]")
    q = (1.0 - d_param) ** 2
    if not (1.0 - d_param * delta / q > 0.0 and 1.0 - 2.0 * d_param / q > 0.0):
        # beyond d = 2 - sqrt(3) both certificate factors are negative and
        # their product is a vacuous positive number, not a guarantee
        raise DomainError("d parameter lies outside the admissible certificate "
                          "range (both bound factors must stay positive)")
    zeta = complex(zeta)
    slope = boundary_derivative_modulus(B, zeta)
    if not d_param * delta < slope:
        raise DomainError("radial offset d*delta/|B'(zeta)| must stay below 1")
    z0 = (1.0 - d_param * delta / slope) * zeta
    return ConstructiveResult(
        zeta=zeta,
        delta=delta,
        d_param=d_param,
        z0=z0,
        guaranteed_bound=guaranteed_bound(d_param, delta),
        actual_value=pointwise_bloch(B, z0),
    )


def verify_construction(B: BlaschkeProduct, result: ConstructiveResult,
                        samples: int = 20) -> dict:
    """Margins of the derivation-chain inequalities at sampled segment points.

    Returns the minimum slack of each inequality over ``samples`` points of
    [z0, zeta] and all zeros; every margin should be >= -1e-12 whenever the
    hypotheses hold.
    """
    if samples < 2:
        raise DomainError("need at least two sample points")
    d = result.d_param
    zeta, z0 = result.zeta, result.z0
    zs = B.zeros_array
    ref = (1.0 - d) * np.abs(zeta - zs)
    sep = math.inf
    cof = math.inf
    for t in np.linspace(0.0, 1.0, samples):
        z = z0 + t * (zeta - z0)
        sep = min(sep, float((np.abs(z - zs) - ref).min()))
        cof = min(cof, float((np.abs(1.0 - np.conjugate(zs) * z) - ref).min()))
    base = abs(evaluate(B, z0)) - (1.0 - d * result.delta / (1.0 - d) ** 2)
    return {
        "separation_margin": sep,
        "cofactor_margin": cof,
        "base_modulus_margin": float(base),
    }
