"""Command-line front end with reproducible, machine-readable output.

Subcommands:

    constants   recompute the reference constants and print a pass/fail table
    seminorm    multistart Bloch-seminorm estimate for a product JSON file
    sweep       randomized seminorm sweep with a lower-bound violation check
    theorem4    constructive pointwise lower bound with certification margins
    analyze     critical points, monodromy and sheet structure of a product
    surface     solve the two-sheeted surface parameters and conformal radius

Exit codes: 0 = all checks pass, 1 = a mathematical check failed,
2 = usage or input error.  All stochastic behaviour is keyed solely by
--seed, and identical invocations produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from .constants import REFERENCE_TABLE, check_constants, computed_constants
from .covering import analyze as analyze_covering
from .errors import BlochkitError, DomainError, RangeError
from .pointbound import DEFAULT_D, compute_delta, construct, select_zeta, verify_construction
from .products import MAX_DEGREE, BlaschkeProduct, random_product
from .seminorm import seminorm, seminorms
from .slitdisk import default_threshold, max_conformal_radius
from .surface import parameter_integrals_fixed, solve_surface

SWEEP_MARGIN = 1e-3
CONVERGENCE_NODE_COUNTS = (32, 64, 128, 256, 512, 1024)
_LAWS = ("uniform_disk", "boundary_concentrated")


class _InputError(Exception):
    """Unreadable or malformed input file (exit code 2)."""


def _print_json(obj: dict) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _tolerance_pair(text: str) -> tuple[str, float]:
    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance value {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"tolerance value {raw!r} is not finite")
    return name, value


def _unsigned(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _sample_count(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("must be an integer of at least 2")
    return value


def _degree_cap(text: str) -> int:
    value = _positive(text)
    if value > MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"must be at most the degree cap {MAX_DEGREE}")
    return value


def _threshold(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must be a finite value in (0, 1)")
    return value


def _delta(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError("must be a finite value in (0, 1]")
    return value


def _load_product(path: str) -> BlaschkeProduct:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"invalid JSON in {path}: {exc}") from None
    try:
        return BlaschkeProduct.from_json(data)
    except (DomainError, RangeError) as exc:
        raise _InputError(f"invalid product in {path}: {exc}") from None


# ---------------------------------------------------------------------------
# constants


def cmd_constants(args: argparse.Namespace) -> int:
    overrides = dict(args.tolerance or [])
    known = {entry.name for entry in REFERENCE_TABLE}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise _InputError(f"unknown tolerance name(s): {', '.join(unknown)}")
    rows, all_pass = check_constants(overrides)
    if args.output_format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["name", "value", "reference", "abs_err", "status"])
        for row in rows:
            writer.writerow([row["name"], repr(row["value"]), repr(row["reference"]),
                             repr(row["abs_err"]), row["status"]])
    else:
        slit = max_conformal_radius(default_threshold())
        slit_json = {key: _sig12(val) for key, val in slit.to_json().items()}
        _print_json({"all_pass": all_pass, "constants": rows, "slit_disk": slit_json})
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# seminorm


def cmd_seminorm(args: argparse.Namespace) -> int:
    product = _load_product(args.input)
    estimate = seminorm(product)
    _print_json({"estimate": estimate.to_json(), "product": product.to_json()})
    return 0 if 0.0 <= estimate.value <= 1.0 + 1e-9 else 1


# ---------------------------------------------------------------------------
# sweep


def _sweep_product(seed: int, index: int, max_degree: int) -> tuple[int, str, BlaschkeProduct]:
    state = np.random.SeedSequence([seed, index]).generate_state(2)
    degree = 1 + int(state[0]) % max_degree
    law = _LAWS[index % 2]
    return degree, law, random_product(degree, int(state[1]), law)


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the system says; else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(args: argparse.Namespace) -> int:
    overrides = dict(args.tolerance or [])
    unknown = sorted(set(overrides) - {"violation_margin"})
    if unknown:
        raise _InputError(f"unknown tolerance name(s): {', '.join(unknown)}")
    margin = float(overrides.get("violation_margin", SWEEP_MARGIN))
    floor = computed_constants()["r0"] - margin

    # worker k takes trials k, k + workers, ... and estimates them in one
    # kernel call; each trial depends only on (seed, index), so the output is
    # the same for any split
    workers = min(8, _usable_cpus(), args.count)

    def run_share(first: int) -> list[tuple[int, str, BlaschkeProduct, float]]:
        share = [_sweep_product(args.seed, index, args.max_degree)
                 for index in range(first, args.count, workers)]
        estimates = seminorms([product for _, _, product in share])
        return [(degree, law, product, estimate.value)
                for (degree, law, product), estimate in zip(share, estimates)]

    trials = [None] * args.count
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        for first, share in enumerate(pool.map(run_share, range(workers))):
            trials[first::workers] = share

    values = [t[3] for t in trials]
    winner = min(range(args.count), key=lambda i: (values[i], i))
    violations = [i for i, v in enumerate(values) if v < floor]
    if args.output_format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["trial", "degree", "law", "value", "status"])
        for i, (degree, law, _, value) in enumerate(trials):
            writer.writerow([i, degree, law, repr(value),
                             "PASS" if value >= floor else "FAIL"])
    else:
        degree, law, product, value = trials[winner]
        _print_json({
            "count": args.count,
            "max_degree": args.max_degree,
            "seed": args.seed,
            "violation_floor": floor,
            "min": min(values),
            "mean": sum(values) / len(values),
            "max": max(values),
            "violations": len(violations),
            "violation_trials": violations,
            "minimizer": {"trial": winner, "degree": degree, "law": law,
                          "value": value, "product": product.to_json()},
        })
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# theorem4


def cmd_theorem4(args: argparse.Namespace) -> int:
    product = _load_product(args.input)
    zeta = select_zeta(product)
    delta = args.delta_override if args.delta_override is not None else compute_delta(product, zeta)
    result = construct(product, zeta, delta, d_param=args.d)
    margins = verify_construction(product, result, samples=args.samples)
    certified = (result.actual_value >= result.guaranteed_bound - 1e-9
                 and all(m >= -1e-12 for m in margins.values()))
    _print_json({
        "result": result.to_json(),
        "margins": margins,
        "meets_007_delta": result.actual_value >= 0.07 * delta - 1e-12,
        "certified": certified,
    })
    return 0 if certified else 1


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args: argparse.Namespace) -> int:
    product = _load_product(args.input)
    report = analyze_covering(product, a=args.a, perturb=args.perturb, seed=args.seed)
    estimate = seminorm(product)
    _print_json({"report": report.to_json(), "seminorm_estimate": estimate.to_json()})
    return 0


# ---------------------------------------------------------------------------
# surface


def cmd_surface(args: argparse.Namespace) -> int:
    solution = solve_surface(a=args.a)
    _print_json(solution.to_json())
    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["nodes", "height_integral", "width_integral"])
        for n in CONVERGENCE_NODE_COUNTS:
            first, second = parameter_integrals_fixed(solution.c, solution.d, n)
            writer.writerow([n, repr(first), repr(second)])
    return 0


# ---------------------------------------------------------------------------
# plumbing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``main`` call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="blochkit",
        description="Bloch seminorms, conformal radii and covering structure "
                    "of finite Blaschke products.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constants", help="recompute and check the reference constants")
    p.add_argument("--output-format", choices=("json", "csv"), default="json")
    p.add_argument("--tolerance", action="append", type=_tolerance_pair, metavar="NAME=VALUE")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("seminorm", help="estimate the Bloch seminorm of a product",
                       description="The estimate is deterministic: its starts are fixed "
                                   "by the product.")
    p.add_argument("--input", required=True, metavar="FILE")
    p.set_defaults(func=cmd_seminorm)

    p = sub.add_parser("sweep", help="randomized seminorm sweep with violation check")
    p.add_argument("--count", type=_positive, default=100)
    p.add_argument("--max-degree", type=_degree_cap, default=8)
    p.add_argument("--seed", type=_unsigned, default=0)
    p.add_argument("--output-format", choices=("json", "csv"), default="json")
    p.add_argument("--tolerance", action="append", type=_tolerance_pair, metavar="NAME=VALUE")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("theorem4", help="constructive pointwise lower bound")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--d", type=_threshold, default=DEFAULT_D)
    p.add_argument("--delta-override", type=_delta, default=None)
    p.add_argument("--samples", type=_sample_count, default=20)
    p.set_defaults(func=cmd_theorem4)

    p = sub.add_parser("analyze", help="critical points, monodromy and sheet tree")
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--a", type=_threshold, default=None)
    p.add_argument("--perturb", action="store_true")
    p.add_argument("--seed", type=_unsigned, default=0,
                   help="seed of the --perturb rotation; the seminorm estimate is "
                        "deterministic and does not depend on it")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("surface", help="solve the two-sheeted surface parameters")
    p.add_argument("--a", type=_threshold, default=None)
    p.add_argument("--csv", action="store_true",
                   help="also print a node-count convergence table")
    p.set_defaults(func=cmd_surface)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlochkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
