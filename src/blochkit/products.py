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
switches between the two within ZERO_SWITCH of the nearest zero.

Every numpy evaluation of B' in the package (``derivative``, the covering
layer's root finding and fiber tracking, and the numpy kernel backend) goes
through the one block-wise evaluator ``_value_and_derivative``, which returns
B and B' together, and B'' and B''' too for the seminorm search's Newton
steps.  ``evaluate`` stays a plain loop over the factors: it is
the reference that tests hold the evaluator to.
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
#: ``boundary_concentrated`` draws the distance to the circle as 10^{-u}, with
#: u uniform on (0, CONCENTRATION]
CONCENTRATION = 4.0

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
    def from_json(data: dict) -> "BlaschkeProduct":
        if not isinstance(data, dict) or "zeros" not in data:
            raise DomainError("product JSON must be an object with a 'zeros' list")
        rot = data.get("rotation", [1.0, 0.0])
        try:
            rotation = complex(float(rot[0]), float(rot[1]))
            zeros = tuple(complex(float(p[0]), float(p[1])) for p in data["zeros"])
        except (TypeError, ValueError, IndexError) as exc:
            raise DomainError(f"malformed product JSON: {exc}") from None
        return BlaschkeProduct(zeros, rotation)


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


#: broadcast temporaries of the evaluator (and of covering's root finder) are
#: split into row blocks of at most this many entries, save for what _row_blocks says
_EVAL_BLOCK = 1 << 18


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices covering range(rows), each of at most _EVAL_BLOCK entries of
    width ``width`` but of two rows at least, so a lone last row joins the
    block before it.  numpy reduces a single row with other loops, and other
    roundings, than a wider block: this way the split never changes the bits."""
    step = max(2, _EVAL_BLOCK // max(width, 1))
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return [slice(i, j) for i, j in zip(starts, starts[1:] + [rows])]


def _derivative_product_rule(zeros: np.ndarray, lam: complex, z: np.ndarray,
                             order: int = 1) -> list[np.ndarray]:
    """[B'(z), ..., B^(order)(z)] at each point of the 1-d array z, for order
    1 or 3; stable at zeros of B, repeated ones included.  One pass over the
    factors f_j carries the partial product p = f_0 ... f_j and its
    derivatives by the Leibniz rule, dp <- dp f_j + p f_j' and its analogues
    up to ``order``, so no factor is divided out."""
    x = np.asarray(z, dtype=np.complex128)
    p = [np.ones_like(x)] + [np.zeros_like(x) for _ in range(order)]
    for a in zeros:
        den = 1.0 - np.conjugate(a) * x
        f = [(x - a) / den, (1.0 - abs(a) ** 2) / (den * den)]
        if order == 3:
            q = np.conjugate(a) / den
            f.append(2.0 * (q * f[1]))
            f.append(3.0 * (q * f[2]))
        for m in range(order, -1, -1):  # highest first, from the old lower terms
            p[m] = sum(math.comb(m, i) * (p[m - i] * f[i]) for i in range(m + 1))
    return [lam * d for d in p[1:]]


def _exclusive_cumsum(a: np.ndarray) -> np.ndarray:
    """Row j holds the sum of rows 0 .. j-1 of a: no row is added and then
    taken away again, which would round a large row into the others."""
    out = np.zeros_like(a)
    np.cumsum(a[:-1], axis=0, out=out[1:])
    return out


def _value_and_derivative(zeros: np.ndarray, lam: complex, z: np.ndarray,
                          higher: bool = False) -> tuple[np.ndarray, ...]:
    """(B(z), B'(z)) at every entry of z, for the product with these zeros and
    rotation lam, and with ``higher`` (B, B', B'', B'''); no domain checks, so
    points just outside the disk are fine.

    One broadcast pass over the Moebius factors f_j = (z - z_j) / (1 - conj(z_j) z),
    stacked along a leading axis of zeros, gives B and the log-derivative sum
    S1 = sum_j l_j, l_j = f_j'/f_j, together.  B'' = B S2 and B''' = B S3 follow
    from the Leibniz rule divided by the partial product, summed in order:

        S2 <- S2 + 2 S1 l_j + f_j''/f_j,
        S3 <- S3 + 3 S2 l_j + 3 S1 f_j''/f_j + f_j'''/f_j,   then S1 <- S1 + l_j.

    Each term holds each l_j at most once, so next to a zero, where l_j is a
    pole and B vanishes, nothing cancels as in B (S1^2 + S1').  Entries within
    ZERO_SWITCH of a zero, where B is 0 times a pole, take the product rule
    instead.  The entries go through in blocks of _row_blocks, and the split
    does not change the bits; a lone point may round apart from the same
    point inside a wider array, where numpy picks other loops.  Callers
    silence the floating-point warnings of points sitting on a zero, once
    around a whole batch of calls.
    """
    z = np.asarray(z, dtype=np.complex128)
    flat = z.reshape(-1)
    col = zeros[:, None]
    conj = np.conjugate(col)
    weight = 1.0 - np.abs(col) ** 2
    value = np.empty(flat.shape, dtype=np.complex128)
    der = np.empty(flat.shape, dtype=np.complex128)
    out = [value, der, np.empty_like(value), np.empty_like(value)] if higher else [value, der]
    for rows in _row_blocks(flat.size, zeros.size):
        x = flat[rows]
        num = x - col
        den = 1.0 - conj * x
        value[rows] = lam * np.multiply.reduce(num / den)
        ell = weight / (num * den)
        der[rows] = value[rows] * np.add.reduce(ell)
        if higher:
            q = conj / den  # f_j''/f_j = 2 q l_j and f_j'''/f_j = 3 q f_j''/f_j
            rho = 2.0 * (q * ell)
            s1 = _exclusive_cumsum(ell)
            t2 = rho + 2.0 * (s1 * ell)
            s2 = _exclusive_cumsum(t2)
            out[2][rows] = value[rows] * np.add.reduce(t2)
            out[3][rows] = value[rows] * np.add.reduce(3.0 * (q * rho) + 3.0 * (s2 * ell)
                                                       + 3.0 * (s1 * rho))
        near = np.minimum.reduce(num.real**2 + num.imag**2) <= ZERO_SWITCH**2
        if near.any():
            exact = _derivative_product_rule(zeros, lam, x[near], len(out) - 1)
            for d, e in zip(out[1:], exact):
                d[rows][near] = e
    return tuple([a.reshape(z.shape) for a in out])


def derivative(B: BlaschkeProduct, z):
    """B'(z), switching formulas within ZERO_SWITCH of the nearest zero."""
    arr, scalar = _as_points(z)
    _check_eval_domain(arr)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _value_and_derivative(B.zeros_array, B.rotation, arr)[1]
    return complex(out[()]) if scalar else out


def _boundary_sum(zeros: np.ndarray, zeta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_j (1-|z_j|^2)/|zeta-z_j|^2 and min_j |zeta-z_j|^2 at each entry of
    the 1-d array zeta: the zeros on a leading axis, as in
    _value_and_derivative, in row blocks of _row_blocks, with two real
    temporaries per block updated in place."""
    col = zeros[:, None]
    col_re, col_im = col.real.copy(), col.imag.copy()
    weight = 1.0 - np.abs(col) ** 2
    total = np.empty(zeta.shape)
    nearest = np.empty(zeta.shape)
    for rows in _row_blocks(zeta.size, zeros.size):
        dist2 = zeta.real[rows] - col_re
        dy = zeta.imag[rows] - col_im
        dist2 *= dist2
        dy *= dy
        dist2 += dy
        nearest[rows] = np.minimum.reduce(dist2)
        np.divide(weight, dist2, out=dist2)
        total[rows] = np.add.reduce(dist2)
    return total, nearest


def boundary_derivative_modulus(B: BlaschkeProduct, zeta):
    """|B'(zeta)| for |zeta| = 1, via the positive-sum boundary identity."""
    arr, scalar = _as_points(zeta)
    _require_finite(arr, "boundary points")
    if np.any(np.abs(np.abs(arr) - 1.0) > _BOUNDARY_TOL):
        raise DomainError("boundary points must satisfy ||zeta| - 1| <= 1e-10")
    with np.errstate(divide="ignore"):
        total, nearest = _boundary_sum(B.zeros_array, np.atleast_1d(arr).ravel())
    if np.any(nearest < _POLE_TOL**2):
        raise SingularityError("zeta is within 1e-14 of a zero of the product")
    out = total.reshape(arr.shape)
    return float(out[()]) if scalar else out


#: uniform angles of the boundary scan in boundary_peaks
_SCAN_ANGLES = 1024
#: angles of the local scan around a zero close to the circle ...
_LOCAL_ANGLES = 32
#: ... which spans arg a +- _LOCAL_SPAN * (1 - |a|)
_LOCAL_SPAN = 8.0


def boundary_peaks(B: BlaschkeProduct) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The local maxima of |B'| on the circle among sampled angles, as
    (theta, modulus, bracket): ascending angles in [0, 2 pi), |B'| there, and
    for each the angles of its two neighbouring samples, lo < theta < hi.

    |B'(e^{i theta})| is the positive sum of the boundary identity.  It is
    sampled on _SCAN_ANGLES uniform angles and, for each zero a whose
    peak, about 1 - |a| wide, is narrower than four uniform steps, on
    _LOCAL_ANGLES more angles over arg a +- _LOCAL_SPAN (1 - |a|).  A peak is
    a sample at least its left neighbour and above its right one; the
    samples are not polished.  A modulus flat to relative 1e-12 (z^n and its
    rotations) has no strict peak and gives one peak, at angle zero.  The
    samples go through in row blocks, so memory stays bounded at any degree.
    """
    return _boundary_peaks(B.zeros_array)


def _boundary_peaks(zeros: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """boundary_peaks for the product with these zeros."""
    step = 2.0 * math.pi / _SCAN_ANGLES
    parts = [step * np.arange(_SCAN_ANGLES)]
    depth = 1.0 - np.abs(zeros)
    narrow = depth < 4.0 * step
    if narrow.any():
        offsets = np.linspace(-_LOCAL_SPAN, _LOCAL_SPAN, _LOCAL_ANGLES)
        local = np.angle(zeros[narrow])[:, None] + depth[narrow][:, None] * offsets
        local = np.mod(local.ravel(), 2.0 * math.pi)
        parts.append(local[local < 2.0 * math.pi])
    # sorted and deduplicated by hand: np.unique here raised the peak memory
    # of a threaded sweep by about 1 MB
    theta = np.sort(np.concatenate(parts))
    theta = theta[np.concatenate([[True], theta[1:] > theta[:-1]])]
    modulus = _boundary_sum(zeros, np.exp(1j * theta))[0]
    if modulus.min() >= modulus.max() * (1.0 - 1e-12):
        peak = np.zeros(1, dtype=np.intp)
    else:
        peak = np.nonzero((modulus >= np.roll(modulus, 1))
                          & (modulus > np.roll(modulus, -1)))[0]
    wrapped = np.concatenate([[theta[-1] - 2.0 * math.pi], theta, [theta[0] + 2.0 * math.pi]])
    bracket = np.stack([wrapped[peak], wrapped[peak + 2]], axis=1)
    return theta[peak], modulus[peak], bracket


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


def random_product(degree: int, seed: int, law: str = "uniform_disk") -> BlaschkeProduct:
    """Deterministic random product with rotation 1.

    ``uniform_disk`` draws zeros area-uniformly on the disk of radius
    1 - BOUNDARY_MARGIN.  ``boundary_concentrated`` draws |z| = 1 - 10^{-u}
    with the decimal exponent u uniform on (0, CONCENTRATION] = (0, 4], so
    the distance to the circle is log-uniform on [1e-4, 1), well clear of
    BOUNDARY_MARGIN.
    """
    if not isinstance(degree, int) or degree < 1:
        raise DomainError("degree must be a positive integer")
    if degree > MAX_DEGREE:
        raise RangeError(f"degree {degree} exceeds the cap {MAX_DEGREE}")
    rng = np.random.default_rng(seed)
    if law == "uniform_disk":
        radii = (1.0 - BOUNDARY_MARGIN) * np.sqrt(rng.random(degree))
    elif law == "boundary_concentrated":
        u = CONCENTRATION * (1.0 - rng.random(degree))  # uniform on (0, CONCENTRATION]
        radii = 1.0 - np.power(10.0, -u)
    else:
        raise DomainError(f"unknown radial law {law!r}")
    angles = 2.0 * math.pi * rng.random(degree)
    zeros = radii * np.exp(1j * angles)
    return BlaschkeProduct(tuple(map(complex, zeros)))
