"""End-to-end and per-layer benchmark for blochkit.

    python3 perfbench/run.py --workload {sweep,covering,surface} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The package is built in place on every run
(``setup.py build_ext``; a no-op without a compiled core) and imported
from ``src``.  Inputs are made from ``--seed``; every op is one in-process call
of ``blochkit.cli.main`` with stdout captured, and every output is checked.

``--trace 0`` repeats the workload's pass of ops for about ``--seconds``
seconds and prints the end-to-end metrics, each op's latency corrected for
the machine's speed by a reference kernel timed around it.  ``--trace 1``
repeats the pass untraced for about half of ``--seconds``, runs the same ops
again with spans recorded around the package's public functions, and prints
the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  See
README.md in this directory for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

# BLAS runs single-threaded in this process and in the import probes, so that
# the sweep's worker threads are the only concurrency measured.  Threaded BLAS
# made surface throughput follow how much of the second CPU the host left free
# (process CPU/wall 1.45-1.69 at fixed inputs), and was no faster.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
IMPORT_SAMPLES = 6  # before the timed phase, and as many again after it
REFERENCE_RUNS = 3  # timings of the reference kernel after every op and probe
# About the time of one reference kernel run while the machine is in its fast
# state (2 vCPUs of a 2.1 GHz Xeon VM, numpy 2.4, one BLAS thread).  It only
# sets the scale of the corrected times: see ``corrected``.
REFERENCE_S = 0.0028
IMPORT_PROBE = ("import time; t = time.perf_counter(); import blochkit.cli; "
                "print(time.perf_counter() - t)")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# ---------------------------------------------------------------------------
# set-up


def build_in_place() -> None:
    """Build compiled parts in place on every run; setuptools (and cythonize,
    when Cython is installed) skip targets that are already up to date."""
    if not (ROOT / "setup.py").is_file():
        return
    BUILD_DIR.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", str(BUILD_DIR / "tmp")],
        cwd=ROOT, capture_output=True, text=True, timeout=850)
    (BUILD_DIR / "build.log").write_text(proc.stdout + proc.stderr, encoding="utf-8")
    if proc.returncode != 0:
        fail(f"in-place build failed, see {BUILD_DIR / 'build.log'}")


def package_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_import_seconds() -> list[tuple[float, float]]:
    """Time ``import blochkit.cli`` in fresh interpreters (the CLI's start-up),
    each with the reference kernel's time around it.

    ``main`` calls this before and after the timed phase: the machine's speed
    drifts over tens of seconds, and samples that span the run give a median
    that one burst of samples does not."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = reference_times(REFERENCE_RUNS, 1)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=package_env(), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            fail(f"cannot import blochkit.cli:\n{proc.stderr}")
        after = reference_times(REFERENCE_RUNS, 1)
        samples.append((float(proc.stdout.strip()), statistics.median(before + after)))
    return samples


_REF_Z = np.exp(2j * np.pi * np.arange(16) / 16) * np.linspace(0.1, 0.9, 16)


def reference_kernel() -> float:
    """Fixed work that shares no code with blochkit: numpy on small complex
    arrays driven from a Python loop, the mix of the package's own hot loops.
    Its time follows the machine's speed, not the program's."""
    acc = 0.0
    for k in range(500):
        a = 0.05 * k / 500
        acc += float(np.abs(np.prod((_REF_Z - a) / (1.0 - a * _REF_Z))))
    return acc


def reference_times(runs: int, threads: int) -> list[float]:
    """Seconds per reference kernel run, ``runs`` times.  With more than one
    thread, each timing has ``threads`` threads run the kernel four times each
    at once, as an op's worker threads would, and is divided by the runs."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        if threads == 1:
            reference_kernel()
        else:
            with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
                list(pool.map(lambda _: [reference_kernel() for _ in range(4)],
                              range(threads)))
        times.append((time.perf_counter() - start) / (1 if threads == 1 else 4 * threads))
    return times


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".so":
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_ticks() -> list[int] | None:
    """The machine-wide CPU tick counters of /proc/stat, or None elsewhere."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of machine CPU time taken by the host (steal) between two reads.

    On a shared virtual machine this is the main source of run-to-run spread
    in the threaded workloads, so every result records it."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


# ---------------------------------------------------------------------------
# running ops


class CacheReset:
    """Clears the package's memo caches before each op, as a fresh CLI starts
    without them, and keeps the gauss_nodes hit/miss counts it discards."""

    def __init__(self) -> None:
        from blochkit import constants, quadrature, slitdisk

        self.gauss_nodes = quadrature.gauss_nodes
        self.caches = (constants.computed_constants, slitdisk.default_threshold,
                       quadrature.gauss_nodes)
        self.hits = self.misses = 0

    def __call__(self) -> None:
        info = self.gauss_nodes.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        for cache in self.caches:
            cache.cache_clear()


class Record(NamedTuple):
    """One op as run: its index, latency, the reference kernel's time around
    it, exit code, captured output and the traceback of an exception that
    escaped ``cli.main``."""

    op: int
    latency: float
    reference: float
    rc: int | None
    out: str
    err: str
    error: str | None


class Phase:
    """Outcome of running a sequence of ops: per-op records plus wall and CPU."""

    def __init__(self) -> None:
        self.records: list[Record] = []
        self.wall = self.cpu = 0.0


def run_phase(cli, ops, indices, reset: CacheReset, tracer=None) -> Phase:
    phase = Phase()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    before = None
    for i in indices:
        if before is None:
            before = reference_times(REFERENCE_RUNS, ops[i].threads)
        reset()
        if tracer is not None:
            tracer.op_id = i
        out, err = io.StringIO(), io.StringIO()
        error = None
        rc = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(ops[i].argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # one crashing op is a failed op, not a failed run
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        after = reference_times(REFERENCE_RUNS, ops[i].threads)
        phase.records.append(Record(i, latency, statistics.median(before + after), rc,
                                    out.getvalue(), err.getvalue(), error))
        before = after
    phase.wall = time.perf_counter() - t0
    phase.cpu = time.process_time() - cpu0
    reset()
    return phase


def run_passes(cli, ops, reset: CacheReset, budget: float) -> Phase:
    """Passes over all ops, one after another, while the next pass is
    expected to end within ``budget`` seconds (at least one pass).  Every
    pass runs the same inputs, so a faster program runs more passes of the
    same mix instead of reaching other inputs."""
    phase = Phase()
    passes = 0
    while True:
        part = run_phase(cli, ops, range(len(ops)), reset)
        phase.records += part.records
        phase.wall += part.wall
        phase.cpu += part.cpu
        passes += 1
        if phase.wall * (passes + 1) / passes > budget:
            return phase


class Problem(NamedTuple):
    """Why an op failed.  ``wrong`` is False only when the CLI itself reported
    that the computation failed: exit code 1, no output and an ``error:``
    line on stderr (a ``BlochkitError``).  Every other failure is a wrong
    output: a failed check, an exception that escaped ``cli.main``, or
    another exit code."""

    text: str
    wrong: bool


def check_phase(ops, phase: Phase) -> list[Problem | None]:
    """One entry per record: None when the op succeeded, else the problem."""
    problems = []
    for r in phase.records:
        reported = r.err.strip().splitlines()[-1] if r.err.strip() else ""
        wrong = True
        if r.error is not None:
            problem = r.error.strip().splitlines()[-1]
        elif r.rc == 1 and not r.out and reported.startswith("error: "):
            problem, wrong = f"exit code 1, {reported}", False
        elif r.rc != 0:
            problem = f"exit code {r.rc}"
        else:
            try:
                problem = ops[r.op].check(r.out)
            except Exception as exc:  # a check that cannot finish fails the op
                problem = f"check raised {type(exc).__name__}: {exc}"
        problems.append(None if problem is None else
                        Problem(f"op {r.op} ({ops[r.op].argv[0]}): {problem}", wrong))
    return problems


# ---------------------------------------------------------------------------
# metrics


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def op_counts(ops, phase: Phase, outcome: list[Problem | None]) -> tuple[int, int]:
    """Attempted and failed ops; a sweep call counts as its products."""
    products = [ops[r.op].products for r in phase.records]
    return sum(products), sum(n for n, problem in zip(products, outcome) if problem is not None)


def fastest(phase: Phase) -> dict[int, float]:
    """Each op's fastest latency over its repeats in ``phase``, as measured."""
    best: dict[int, float] = {}
    for r in phase.records:
        best[r.op] = min(r.latency, best.get(r.op, math.inf))
    return best


def corrected(phase: Phase) -> dict[int, float]:
    """Each op's latency corrected for the machine's speed: the median over
    its repeats of latency x REFERENCE_S / the reference kernel's time around
    that repeat.

    On a shared machine the same op's time swings by half from one second,
    and one minute, to the next while the program does the same work; the
    reference kernel, timed right before and after the op, swings with it."""
    scaled: dict[int, list[float]] = {}
    for r in phase.records:
        scaled.setdefault(r.op, []).append(r.latency * REFERENCE_S / r.reference)
    return {i: statistics.median(v) for i, v in scaled.items()}


def end_to_end(ops, phase: Phase, outcome: list[Problem | None],
               latency: dict[int, float], setup: float) -> dict:
    """The end-to-end metrics from each op's ``latency`` and the set-up time."""
    latencies = list(latency.values())
    attempted, failed = op_counts(ops, phase, outcome)
    ok_ratio = (attempted - failed) / attempted
    products = sum(ops[i].products for i in latency)
    return {
        "setup_s": metric(setup, "s"),
        "ops_per_s": metric(ok_ratio * products / sum(latencies), "ops/s"),
        "op_ms.p50": metric(1e3 * float(np.percentile(latencies, 50)), "ms"),
        "op_ms.p75": metric(1e3 * float(np.percentile(latencies, 75)), "ms"),
        "ok_ratio": metric(ok_ratio, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _refine_counts(args, kwargs, result):
    iterations = result[2]
    yield "iterations", int(iterations.sum())
    yield "starts", int(iterations.size)
    yield "capped", int((iterations >= args[5]).sum())


TRACE_TARGETS = {
    "blochkit.cli.main": None,
    "blochkit.seminorm.seminorm": lambda a, k, r: [("seminorm.starts", r.starts_used)],
    "blochkit._kernels.refine_starts": _refine_counts,
    "blochkit.covering.analyze": None,
    "blochkit.covering.monodromy": lambda a, k, r: [("covering.monodromy.loops", len(r))],
    "blochkit.covering.critical_points": None,
    "blochkit.covering.fiber_solve": None,
    "blochkit.covering.aberth_roots": None,
    "blochkit.surface.solve_parameters": None,
    "blochkit.surface.parameter_integrals": None,
    "blochkit.surface.maximize_radius": None,
    "blochkit.quadrature.integrate_adaptive": None,
    "blochkit.quadrature.integrate_fixed": None,
}
FAIL_RATIO_SPANS = ("covering.critical_points", "covering.fiber_solve")


def per_layer(tracer, traced: Phase, reference: Phase, reset: CacheReset) -> dict:
    spans, counters = tracer.summary()
    ops = len(traced.records)
    out = {}
    for name, s in spans.items():
        label = name.lstrip("_")  # metric names start with a letter
        out[f"{label}.calls"] = metric(s["calls"] / ops, "calls/op")
        out[f"{label}.busy_s"] = metric(s["busy_s"] / ops, "s/op")
        out[f"{label}.self_s"] = metric(s["self_s"] / ops, "s/op")
    for name in FAIL_RATIO_SPANS:
        calls = spans[name]["calls"]
        out[f"{name}.fail_ratio"] = metric(spans[name]["raised"] / calls if calls else 0.0,
                                           "ratio")
    kernel = spans["_kernels.refine_starts"]
    iterations = counters.get("iterations", 0)
    starts = counters.get("starts", 0)
    out["kernels.refine_starts.iterations"] = metric(iterations / ops, "count/op")
    out["kernels.refine_starts.ns_per_iteration"] = metric(
        1e9 * kernel["busy_s"] / iterations if iterations else 0.0, "ns")
    out["kernels.refine_starts.cap_ratio"] = metric(
        counters.get("capped", 0) / starts if starts else 0.0, "ratio")
    out["seminorm.starts"] = metric(counters.get("seminorm.starts", 0) / ops, "count/op")
    out["covering.monodromy.loops"] = metric(
        counters.get("covering.monodromy.loops", 0) / ops, "count/op")
    lookups = reset.hits + reset.misses
    out["quadrature.gauss_nodes.hit_ratio"] = metric(
        reset.hits / lookups if lookups else 0.0, "ratio")
    out["process.cpu_per_wall"] = metric(reference.cpu / reference.wall, "ratio")
    out["trace.overhead_ratio"] = metric(
        sum(corrected(traced).values()) / sum(corrected(reference).values()), "ratio")
    return out


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "covering", "surface"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "blochkit" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'blochkit'}")

    build_in_place()
    setup_times = cold_import_seconds()

    sys.path.insert(0, str(SRC))
    import blochkit
    import blochkit.cli as cli
    from tracing import Tracer
    from workloads import SWEEP_WORKERS, WORKLOADS

    workload = WORKLOADS[args.workload]
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "backend": blochkit.BACKEND,
        "baseline_backend": baseline["backend"],
        "cpu_count": os.cpu_count(),
        "sweep_workers": SWEEP_WORKERS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    problems: list[Problem | None] = []

    BUILD_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BUILD_DIR, prefix="inputs-") as tmp:
        ops = workload.build(args.seed, Path(tmp))
        reset = CacheReset()
        warmup = [workload.warmup] if workload.warmup else ops[:1]
        run_phase(cli, warmup, [0], reset)  # untimed and unchecked
        ticks = machine_ticks()
        if args.trace == 0:
            phase = run_passes(cli, ops, reset, args.seconds)
        else:
            reference = run_passes(cli, ops, reset, 0.5 * args.seconds)
            problems += check_phase(ops, reference)
            tracer = Tracer(TRACE_TARGETS)
            reset.hits = reset.misses = 0
            tracer.install()
            try:
                phase = run_phase(cli, ops, [r.op for r in reference.records], reset, tracer)
            finally:
                tracer.uninstall()
            tracer.save(BUILD_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        meta["steal_share"] = steal_share(ticks, machine_ticks())
    setup_times += cold_import_seconds()
    meta["import_s"] = [t for t, _ in setup_times]

    outcome = check_phase(ops, phase)
    problems = [p for p in problems + outcome if p is not None]
    attempted, failed = op_counts(ops, phase, outcome)
    if args.trace == 0:
        setup = statistics.median(t * REFERENCE_S / ref for t, ref in setup_times)
        metrics = end_to_end(ops, phase, outcome, corrected(phase), setup)
        meta["measured"] = end_to_end(ops, phase, outcome, fastest(phase),
                                      statistics.median(meta["import_s"]))
        meta["process.cpu_per_wall"] = phase.cpu / phase.wall
    else:
        metrics = per_layer(tracer, phase, reference, reset)
    meta["passes"] = len(phase.records) // len(ops)
    meta["fail_ratio"] = failed / attempted

    meta["backend_differs_from_baseline"] = meta["backend"] != meta["baseline_backend"]
    for problem in problems:
        kind = "WRONG OUTPUT" if problem.wrong else "OP FAILED"
        print(f"{kind}: {problem.text}", file=sys.stderr)
    if meta["backend_differs_from_baseline"]:
        print(f"WARNING: backend {meta['backend']!r} differs from the baseline's "
              f"{meta['baseline_backend']!r}; compare against a baseline of the same "
              f"backend", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"meta": meta}, sort_keys=True))
    correct = not any(problem.wrong for problem in problems)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
