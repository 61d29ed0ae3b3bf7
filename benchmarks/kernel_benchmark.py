"""Timing harness for the hot-loop kernels.

Runs the compiled C kernel and the pure-numpy fallback on identical workloads
and reports wall time plus speedup.  Workloads mirror the optimizer's real
call pattern: dense pointwise objective sweeps and multistart simplex
refinement with the production barrier radius.  Build the C kernel first with
``python3 setup.py build_ext --inplace``.

Usage:
    python3 benchmarks/kernel_benchmark.py [--reps 5] [--points 20000]
                                           [--starts 64]
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from blochkit import _kernels
from blochkit._kernels import _fallback
from blochkit.products import random_product

compiled = _kernels if _kernels.BACKEND == "c" else None

BARRIER_RADIUS = 1.0 - 1e-9


def _disk_points(count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = (1.0 - 1e-6) * np.sqrt(rng.random(count))
    t = 2.0 * math.pi * rng.random(count)
    return r * np.exp(1j * t)


def _time(fn, reps: int) -> float:
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fmt(seconds: float) -> str:
    return f"{seconds * 1e3:9.3f} ms"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5,
                        help="repetitions per measurement; the minimum is kept")
    parser.add_argument("--points", type=int, default=20_000,
                        help="points per pointwise_batch sweep")
    parser.add_argument("--starts", type=int, default=64,
                        help="simplex starts per refine_starts call")
    args = parser.parse_args()

    if compiled is None:
        print("compiled kernel unavailable; timing the fallback only")

    workloads = []
    for degree in (4, 8, 20):
        B = random_product(degree, seed=1000 + degree, law="uniform_disk")
        workloads.append((degree, B.zeros_array, complex(B.rotation)))

    pts = _disk_points(args.points, seed=7)
    starts = _disk_points(args.starts, seed=11)
    scales = np.minimum(0.1, 0.5 * (1.0 - np.abs(starts)))

    header = (f"{'kernel':<16}{'workload':<22}{'python':>12}"
              f"{'c':>12}{'speedup':>9}")
    print(header)
    print("-" * len(header))

    for degree, zeros, lam in workloads:
        for f_kind, kind_name in ((0, "identity"), (1, "w/(1-w)")):
            label = f"deg {degree:2d}, {kind_name}"

            def run_pointwise(impl):
                return impl.pointwise_batch(zeros, lam, pts, f_kind,
                                            BARRIER_RADIUS)

            ref = run_pointwise(_fallback)
            t_py = _time(lambda: run_pointwise(_fallback), args.reps)
            if compiled is not None:
                got = run_pointwise(compiled)
                err = float(np.max(np.abs(got - ref)))
                if err > 1e-9:
                    raise AssertionError(
                        f"backend disagreement {err:.3e} on pointwise {label}")
                t_c = _time(lambda: run_pointwise(compiled), args.reps)
                ratio = f"{t_py / t_c:8.2f}x"
            else:
                t_c, ratio = math.nan, "     n/a"
            print(f"{'pointwise_batch':<16}{label:<22}{_fmt(t_py):>12}"
                  f"{_fmt(t_c) if compiled else '        n/a':>12}{ratio:>9}")

            def run_refine(impl):
                return impl.refine_starts(zeros, lam, starts, scales, f_kind,
                                          250, 1e-13, BARRIER_RADIUS)

            vref = run_refine(_fallback)[0]
            t_py = _time(lambda: run_refine(_fallback), args.reps)
            if compiled is not None:
                vgot = run_refine(compiled)[0]
                # the fractional-map objective climbs a 1/(1-|z|) blow-up
                # basin against the barrier, so terminal values from random
                # starts are path-dependent; agreement is only a well-posed
                # check for the identity objective's interior maximum
                if f_kind == 0:
                    err = abs(float(np.max(vgot)) - float(np.max(vref)))
                    if err > 1e-8:
                        raise AssertionError(
                            f"backend disagreement {err:.3e} on refine {label}")
                t_c = _time(lambda: run_refine(compiled), args.reps)
                ratio = f"{t_py / t_c:8.2f}x"
            else:
                t_c, ratio = math.nan, "     n/a"
            print(f"{'refine_starts':<16}{label:<22}{_fmt(t_py):>12}"
                  f"{_fmt(t_c) if compiled else '        n/a':>12}{ratio:>9}")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
