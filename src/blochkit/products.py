"""Finite Blaschke products on the unit disk.

A finite Blaschke product of degree n is

    B(z) = lam * prod_j (z - z_j) / (1 - conj(z_j) z),      |z_j| < 1, |lam| = 1.

It is holomorphic on a neighborhood of the closed disk, unimodular on the unit
circle, and maps the disk onto itself as an n-to-1 branched cover.  Two
identities carry most of the numerical weight here:

* logarithmic derivative:  B'(z) = B(z) * sum_j (1-|z_j|^2) / ((z-z_j)(1-conj(z_j)z)),
* boundary modulus:        |B'(zeta)| = sum_j (1-|z_j|^2) / |zeta-z_j|^2   for |zeta|=1.

The log-derivative form collapses at (and numerically near) a zero of B, where
the product-rule form  B' = sum_j f_j' prod_{k!=j} f_k  stays stable; evaluation
switches between the two based on the distance to the nearest zero.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, RangeError, SingularityError

#: zeros closer than this to the unit circle are rejected at construction
BOUNDARY_MARGIN = 1e-6
#: hard cap on the degree
MAX_DEGREE = 4096
#: evaluation is allowed up to this far outside the closed disk
EVAL_SLACK = 1e-9
#: below this distance to a zero the derivative switches to the product rule
ZERO_SWITCH = 1e-8

_BOUNDARY_TOL = 1e-10   # |zeta| must be unimodular to this tolerance
_POLE_TOL = 1e-14       # boundary modulus rejects zeta this close to a zero


def _require_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise DomainError(f"{what} must have finite real and imaginary parts")


def _as_points(z) -> tuple[np.ndarray, bool]:
    """Normalize scalar-or-array input to a complex ndarray plus a scalar flag."""
    arr = np.asarray(z, dtype=np.complex128)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class BlaschkeProduct:
    """Immutable finite Blaschke product: zeros inside the disk plus a rotation.

    ``margin`` is consumed at construction only: zeros with ``|z| > 1 - margin``
    are rejected.  Internal derivations (Mobius pullbacks) pass ``margin=0`` and
    are then only held to the strict ``|z| < 1``.
    """

    zeros: tuple[complex, ...]
    rotation: complex = 1.0 + 0.0j
    margin: InitVar[float] = BOUNDARY_MARGIN

    def __post_init__(self, margin: float) -> None:
        zeros = tuple(complex(z) for z in self.zeros)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "rotation", complex(self.rotation))
        if len(zeros) < 1:
            raise DomainError("a Blaschke product needs at least one zero")
        if len(zeros) > MAX_DEGREE:
            raise RangeError(f"degree {len(zeros)} exceeds the cap {MAX_DEGREE}")
        arr = np.asarray(zeros, dtype=np.complex128)
        _require_finite(arr, "zeros")
        _require_finite(np.asarray([self.rotation]), "rotation")
        if abs(abs(self.rotation) - 1.0) > 1e-12:
            raise DomainError("rotation must be unimodular within 1e-12")
        mod = np.abs(arr)
        limit = 1.0 - max(float(margin), 0.0)
        if np.any(mod > limit) or np.any(mod >= 1.0):
            raise DomainError(
                f"zeros must satisfy |z| <= {limit!r} (and |z| < 1 strictly)"
            )

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @cached_property
    def zeros_array(self) -> np.ndarray:
        arr = np.asarray(self.zeros, dtype=np.complex128)
        arr.setflags(write=False)
        return arr

    def to_json(self) -> dict:
        return {
            "rotation": [self.rotation.real, self.rotation.imag],
            "zeros": [[z.real, z.imag] for z in self.zeros],
        }

    @staticmethod
    def from_json(data: dict, margin: float = BOUNDARY_MARGIN) -> "BlaschkeProduct":
        if not isinstance(data, dict) or "zeros" not in data:
            raise DomainError("product JSON must be an object with a 'zeros' list")
        rot = data.get("rotation", [1.0, 0.0])
        try:
            rotation = complex(float(rot[0]), float(rot[1]))
            zeros = tuple(complex(float(p[0]), float(p[1])) for p in data["zeros"])
        except (TypeError, ValueError, IndexError) as exc:
            raise DomainError(f"malformed product JSON: {exc}") from None
        return BlaschkeProduct(zeros, rotation, margin=margin)


@dataclass(frozen=True)
class MoebiusAutomorphism:
    """Disk automorphism  phi(z) = (w + a) / (1 + conj(a) w)  with  w = e^{i theta} z."""

    a: complex
    theta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        _require_finite(np.asarray([self.a]), "a")
        if not math.isfinite(self.theta):
            raise DomainError("theta must be finite")
        if abs(self.a) >= 1.0:
            raise DomainError("automorphism parameter must satisfy |a| < 1")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * math.pi))

    def apply(self, z):
        w = np.exp(1j * self.theta) * np.asarray(z, dtype=np.complex128)
        out = (w + self.a) / (1.0 + np.conjugate(self.a) * w)
        return complex(out[()]) if out.ndim == 0 else out

    def invert(self, z):
        w = np.asarray(z, dtype=np.complex128)
        out = np.exp(-1j * self.theta) * (w - self.a) / (1.0 - np.conjugate(self.a) * w)
        return complex(out[()]) if out.ndim == 0 else out


def _check_eval_domain(arr: np.ndarray) -> None:
    _require_finite(arr, "evaluation points")
    if np.any(np.abs(arr) > 1.0 + EVAL_SLACK):
        raise DomainError(f"evaluation points must satisfy |z| <= 1 + {EVAL_SLACK}")


def evaluate(B: BlaschkeProduct, z):
    """B(z) on the closed disk (a 1e-9 slack outside is tolerated).

    Factors are accumulated in a single left-to-right pass over the zeros; the
    poles 1/conj(z_j) all lie outside the allowed region, so no factor blows up.
    """
    arr, scalar = _as_points(z)
    _check_eval_domain(arr)
    out = np.full(arr.shape, complex(B.rotation), dtype=np.complex128)
    for zj in B.zeros:
        out = out * ((arr - zj) / (1.0 - zj.conjugate() * arr))
    return complex(out[()]) if scalar else out


def _derivative_product_rule(B: BlaschkeProduct, z: np.ndarray) -> np.ndarray:
    """B'(z) = lam * sum_j f_j'(z) prod_{k!=j} f_k(z) at each point of the 1-d
    array z; stable at zeros of B.  The products over k != j are a prefix
    times a suffix cumulative product, so no factor is divided out."""
    x = np.asarray(z, dtype=np.complex128)[:, None]
    zs = B.zeros_array
    den = 1.0 - np.conjugate(zs) * x
    f = (x - zs) / den
    ones = np.ones((x.shape[0], 1), dtype=np.complex128)
    before = np.cumprod(np.concatenate([ones, f[:, :-1]], axis=1), axis=1)
    after = np.cumprod(np.concatenate([ones, f[:, :0:-1]], axis=1), axis=1)[:, ::-1]
    return B.rotation * ((1.0 - np.abs(zs) ** 2) / (den * den) * before * after).sum(axis=1)


def derivative(B: BlaschkeProduct, z):
    """B'(z), switching formulas within ZERO_SWITCH of the nearest zero."""
    arr, scalar = _as_points(z)
    _check_eval_domain(arr)
    flat = np.atleast_1d(arr).ravel()
    zs = B.zeros_array
    diff = flat[:, None] - zs[None, :]
    dist2 = diff.real**2 + diff.imag**2
    near = dist2.min(axis=1) <= ZERO_SWITCH**2

    with np.errstate(divide="ignore", invalid="ignore"):
        logsum = ((1.0 - np.abs(zs) ** 2)[None, :] / (diff * (1.0 - np.conjugate(zs)[None, :] * flat[:, None]))).sum(axis=1)
        prod = np.full(flat.shape, complex(B.rotation), dtype=np.complex128)
        for zj in B.zeros:
            prod = prod * ((flat - zj) / (1.0 - zj.conjugate() * flat))
        out = prod * logsum
    if near.any():
        out[near] = _derivative_product_rule(B, flat[near])
    out = out.reshape(arr.shape)
    return complex(out[()]) if scalar else out


def boundary_derivative_modulus(B: BlaschkeProduct, zeta):
    """|B'(zeta)| for |zeta| = 1, via the positive-sum boundary identity."""
    arr, scalar = _as_points(zeta)
    _require_finite(arr, "boundary points")
    if np.any(np.abs(np.abs(arr) - 1.0) > _BOUNDARY_TOL):
        raise DomainError("boundary points must satisfy ||zeta| - 1| <= 1e-10")
    zs = B.zeros_array
    flat = np.atleast_1d(arr).ravel()
    diff2 = np.abs(flat[:, None] - zs[None, :]) ** 2
    if np.any(diff2.min(axis=1) < _POLE_TOL**2):
        raise SingularityError("zeta is within 1e-14 of a zero of the product")
    out = ((1.0 - np.abs(zs) ** 2)[None, :] / diff2).sum(axis=1).reshape(arr.shape)
    return float(out[()]) if scalar else out


# probe points for re-normalizing the rotation after a pullback; the first one
# farther than 1e-3 from every pulled-back zero is used
_PROBE_POINTS = tuple(
    r * complex(math.cos(2.0 * math.pi * k / 17.0), math.sin(2.0 * math.pi * k / 17.0))
    for r in (0.0, 0.5, 0.29, 0.83)
    for k in range(17)
)


def precompose(B: BlaschkeProduct, phi: MoebiusAutomorphism) -> BlaschkeProduct:
    """B o phi as a Blaschke product of the same degree.

    The zeros pull back through phi^{-1}; the unimodular rotation is fixed by
    matching values at a probe point away from every zero.
    """
    pulled = tuple(complex(phi.invert(zj)) for zj in B.zeros)
    probe = None
    for cand in _PROBE_POINTS:
        if min(abs(cand - zj) for zj in pulled) > 1e-3:
            probe = cand
            break
    if probe is None:  # 68 probes cannot all be blocked by < 4097 zeros in practice
        raise SingularityError("could not find a probe point away from the zeros")
    ref = evaluate(B, phi.apply(probe))
    base = 1.0 + 0.0j
    for zj in pulled:
        base *= (probe - zj) / (1.0 - zj.conjugate() * probe)
    lam = ref / base
    lam /= abs(lam)
    return BlaschkeProduct(pulled, lam, margin=0.0)


def random_product(
    degree: int,
    seed: int,
    law: str = "uniform_disk",
    concentration: float = 4.0,
) -> BlaschkeProduct:
    """Deterministic random product with rotation 1.

    ``uniform_disk`` draws zeros area-uniformly on the disk of radius
    1 - BOUNDARY_MARGIN.  ``boundary_concentrated`` draws |z| = 1 - 10^{-u}
    with u uniform on (0, concentration], capped at the construction margin,
    so the distance to the circle is log-uniform.
    """
    if not isinstance(degree, int) or degree < 1:
        raise DomainError("degree must be a positive integer")
    if degree > MAX_DEGREE:
        raise RangeError(f"degree {degree} exceeds the cap {MAX_DEGREE}")
    rng = np.random.default_rng(seed)
    if law == "uniform_disk":
        radii = (1.0 - BOUNDARY_MARGIN) * np.sqrt(rng.random(degree))
    elif law == "boundary_concentrated":
        if not (concentration > 0.0 and math.isfinite(concentration)):
            raise DomainError("concentration must be a positive finite real")
        u = concentration * (1.0 - rng.random(degree))  # uniform on (0, concentration]
        radii = np.minimum(1.0 - np.power(10.0, -u), 1.0 - BOUNDARY_MARGIN)
    else:
        raise DomainError(f"unknown radial law {law!r}")
    angles = 2.0 * math.pi * rng.random(degree)
    zeros = radii * np.exp(1j * angles)
    return BlaschkeProduct(tuple(map(complex, zeros)))
