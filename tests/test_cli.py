"""End-to-end CLI contract: exit codes, formats, determinism."""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest


def run_cli(*args: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "blochkit.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture()
def product_file(tmp_path: Path) -> str:
    path = tmp_path / "product.json"
    payload = {"rotation": [1.0, 0.0],
               "zeros": [[0.3, 0.2], [-0.1, 0.4], [0.0, 0.0]]}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_constants_json_all_pass():
    out = run_cli("constants")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["all_pass"] is True
    assert len(data["constants"]) == 11
    assert {"a", "s0", "x0", "max_radius"} <= set(data["slit_disk"])


def test_constants_output_is_byte_identical():
    first = run_cli("constants")
    second = run_cli("constants")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_constants_csv_format():
    out = run_cli("constants", "--output-format", "csv")
    assert out.returncode == 0
    rows = list(csv.reader(io.StringIO(out.stdout)))
    assert rows[0] == ["name", "value", "reference", "abs_err", "status"]
    assert len(rows) == 12
    assert all(row[4] == "PASS" for row in rows[1:])


def test_constants_tight_tolerance_fails():
    out = run_cli("constants", "--tolerance", "r0=1e-12")
    assert out.returncode == 1
    data = json.loads(out.stdout)
    statuses = {row["name"]: row["status"] for row in data["constants"]}
    assert statuses["r0"] == "FAIL"
    assert data["all_pass"] is False


def test_surface_beyond_the_solvable_range_fails_to_converge():
    out = run_cli("surface", "--a", "0.8")
    assert out.returncode == 1 and out.stdout == ""
    assert out.stderr.startswith("error: ConvergenceError: parameter solve cannot start from")


def test_unknown_tolerance_is_usage_error():
    out = run_cli("constants", "--tolerance", "bogus=1")
    assert out.returncode == 2
    out = run_cli("constants", "--tolerance", "r0")
    assert out.returncode == 2


def _usage_error(capsys, *args: str) -> None:
    """The arguments are rejected at parse time: exit 2, nothing on stdout."""
    from blochkit.cli import main

    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_non_finite_tolerance_is_usage_error(capsys):
    for value in ("nan", "inf", "-inf"):
        _usage_error(capsys, "sweep", "--count", "3", "--max-degree", "3",
                     "--tolerance", f"violation_margin={value}")
        _usage_error(capsys, "constants", "--tolerance", f"r0={value}")


def test_out_of_range_arguments_are_usage_errors(capsys, product_file):
    from blochkit.cli import _build_parser
    from blochkit.products import MAX_DEGREE

    for degree in (MAX_DEGREE + 1, 100000):
        _usage_error(capsys, "sweep", "--count", "1", "--max-degree", str(degree))
    for a in ("1.5", "1", "0", "-0.1", "nan", "inf"):
        _usage_error(capsys, "analyze", "--input", product_file, "--a", a)
        _usage_error(capsys, "surface", "--a", a)
        _usage_error(capsys, "theorem4", "--input", product_file, "--d", a)
    for samples in ("1", "0", "-3"):
        _usage_error(capsys, "theorem4", "--input", product_file, "--samples", samples)
    parser = _build_parser()
    assert parser.parse_args(["sweep", "--max-degree", str(MAX_DEGREE)]).max_degree == MAX_DEGREE
    assert parser.parse_args(["surface", "--a", "0.1"]).a == 0.1
    args = parser.parse_args(["theorem4", "--input", product_file, "--samples", "2"])
    assert args.samples == 2


def test_cached_parser_keeps_no_state_between_calls(capsys):
    from blochkit.cli import SWEEP_MARGIN, _build_parser, main
    from blochkit.constants import computed_constants

    assert _build_parser() is _build_parser()

    def sweep(*extra: str) -> dict:
        main(["sweep", "--count", "2", "--max-degree", "2", *extra])
        return json.loads(capsys.readouterr().out)

    r0 = computed_constants()["r0"]
    assert sweep("--tolerance", "violation_margin=0.5")["violation_floor"] == r0 - 0.5
    assert sweep()["violation_floor"] == r0 - SWEEP_MARGIN
    # an argparse exit leaves nothing behind for the next call
    _usage_error(capsys, "sweep", "--count", "0")
    assert sweep()["violation_floor"] == r0 - SWEEP_MARGIN


def test_missing_subcommand_is_usage_error():
    assert run_cli().returncode == 2
    assert run_cli("bogus").returncode == 2


def test_seminorm_subcommand(product_file):
    out = run_cli("seminorm", "--input", product_file)
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert 0.0 < data["estimate"]["value"] <= 1.0 + 1e-9
    assert len(data["product"]["zeros"]) == 3


def test_seminorm_bad_inputs(tmp_path):
    assert run_cli("seminorm", "--input", str(tmp_path / "missing.json")).returncode == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    assert run_cli("seminorm", "--input", str(broken)).returncode == 2
    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps({"zeros": [[1.5, 0.0]]}), encoding="utf-8")
    assert run_cli("seminorm", "--input", str(outside)).returncode == 2
    for payload in ({"zeros": [[0.1, 0.2, 9.0]]},
                    {"zeros": [[0.1, 0.2]], "rotation": [1.0, 0.0, 0.0]}):
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps(payload), encoding="utf-8")
        out = run_cli("seminorm", "--input", str(extra))
        assert out.returncode == 2 and out.stdout == ""
        assert "expected a pair [re, im]" in out.stderr


def test_sweep_json_and_determinism():
    first = run_cli("sweep", "--count", "12", "--max-degree", "6")
    second = run_cli("sweep", "--count", "12", "--max-degree", "6")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    data = json.loads(first.stdout)
    assert data["count"] == 12
    assert data["violations"] == 0
    assert data["min"] <= data["mean"] <= data["max"] <= 1.0 + 1e-9
    assert data["minimizer"]["value"] == data["min"]


def test_sweep_never_reports_a_value_above_one():
    # trials 62, 67 and 88 here are degree 1 with a zero close to the circle,
    # where (1 - |z|^2)|B'(z)| rounded to up to 1.000000000000055
    out = run_cli("sweep", "--count", "100", "--max-degree", "16", "--seed", "1926383459")
    assert out.returncode == 0
    assert json.loads(out.stdout)["max"] <= 1.0


def test_sweep_output_does_not_depend_on_the_worker_count(capsys, monkeypatch):
    """The trials are split among min(8, usable CPUs, count) workers, each
    taking every workers-th trial; the JSON and CSV output is the same for
    any split, including fewer trials than CPUs.  The usable CPUs are those
    the process may run on, not all the machine has."""
    import concurrent.futures

    from blochkit import cli

    pool_sizes = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cli.concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)

    def sweep(cpus: int, count: int, fmt: str) -> str:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert cli.main(["sweep", "--count", str(count), "--max-degree", "16",
                         "--seed", "5", "--output-format", fmt]) == 0
        return capsys.readouterr().out

    for count in (1, 2, 11):
        for fmt in ("json", "csv"):
            outputs = {sweep(cpus, count, fmt) for cpus in (1, 2, 3, 8)}
            assert len(outputs) == 1, (count, fmt)
    assert pool_sizes == [min(cpus, count) for count in (1, 2, 11)
                          for fmt in ("json", "csv") for cpus in (1, 2, 3, 8)]


def test_sweep_csv_rows():
    out = run_cli("sweep", "--count", "7", "--output-format", "csv")
    assert out.returncode == 0
    rows = list(csv.reader(io.StringIO(out.stdout)))
    assert rows[0] == ["trial", "degree", "law", "value", "status"]
    assert len(rows) == 8
    laws = {row[2] for row in rows[1:]}
    assert laws == {"uniform_disk", "boundary_concentrated"}


def test_sweep_violation_exit_code():
    # an impossible floor (above 1) forces every trial to count as a violation
    out = run_cli("sweep", "--count", "3", "--tolerance", "violation_margin=-0.5")
    assert out.returncode == 1
    data = json.loads(out.stdout)
    assert data["violations"] == 3


def test_theorem4_subcommand(product_file):
    out = run_cli("theorem4", "--input", product_file)
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["certified"] is True
    assert data["meets_007_delta"] is True
    result = data["result"]
    assert result["actual_value"] >= result["guaranteed_bound"] - 1e-9
    assert set(data["margins"]) == {"separation_margin", "cofactor_margin",
                                    "base_modulus_margin"}


def test_theorem4_d_variants(capsys, product_file):
    from blochkit.cli import _build_parser

    eighth = run_cli("theorem4", "--input", product_file, "--d", "0.125")
    assert eighth.returncode == 0
    for delta in ("nan", "inf", "-1", "0", "2.0"):
        _usage_error(capsys, "theorem4", "--input", product_file, "--delta-override", delta)
    args = _build_parser().parse_args(["theorem4", "--input", product_file,
                                       "--delta-override", "1"])
    assert args.delta_override == 1.0
    inadmissible = run_cli("theorem4", "--input", product_file, "--d", "0.75")
    assert inadmissible.returncode == 1


def test_seminorm_output_is_deterministic(product_file):
    first = run_cli("seminorm", "--input", product_file)
    second = run_cli("seminorm", "--input", product_file)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_options_that_changed_no_result_are_gone(capsys, product_file):
    _usage_error(capsys, "seminorm", "--input", product_file, "--seed", "0")
    _usage_error(capsys, "surface", "--starts", "2")


def test_analyze_subcommand(product_file):
    out = run_cli("analyze", "--input", product_file)
    assert out.returncode == 0
    data = json.loads(out.stdout)
    report = data["report"]
    assert len(report["critical_points"]) == 2
    assert report["case_label"] in ("SLIT_DISK", "SURFACE_CASE", "DEGENERATE")
    assert data["seminorm_estimate"]["value"] > 0.0


def test_analyze_solves_the_critical_points_once(product_file, monkeypatch, capsys):
    """Only the report solves the critical points, with or without
    --perturb, and the base fiber over w = 0 is the zeros."""
    from blochkit import cli, covering
    from blochkit.products import BlaschkeProduct
    from blochkit.seminorm import seminorm

    calls = []
    for name in ("critical_points", "fiber_solve"):
        solve = getattr(covering, name)
        monkeypatch.setattr(covering, name,
                            lambda *args, _solve=solve, _name=name:
                            calls.append(_name) or _solve(*args))
    assert cli.main(["analyze", "--input", product_file]) == 0
    assert calls == ["critical_points"]
    product = BlaschkeProduct.from_json(json.loads(Path(product_file).read_text()))
    monkeypatch.undo()
    estimate = seminorm(product)
    assert json.loads(capsys.readouterr().out)["seminorm_estimate"] == estimate.to_json()
    monkeypatch.setattr(covering, "critical_points",
                        lambda B, _solve=covering.critical_points:
                        calls.append("critical_points") or _solve(B))
    calls.clear()
    assert cli.main(["analyze", "--input", product_file, "--perturb"]) == 0
    assert calls == ["critical_points"]


def test_analyze_perturb_path(tmp_path):
    path = tmp_path / "sym.json"
    path.write_text(json.dumps({"zeros": [[0.5, 0.0], [-0.5, 0.0],
                                          [0.0, 0.4], [0.0, -0.4]]}),
                    encoding="utf-8")
    plain = run_cli("analyze", "--input", str(path))
    assert plain.returncode == 0
    assert json.loads(plain.stdout)["report"]["case_label"] == "DEGENERATE"
    perturbed = run_cli("analyze", "--input", str(path), "--perturb")
    assert perturbed.returncode == 0
    report = json.loads(perturbed.stdout)["report"]
    assert report["case_label"] != "DEGENERATE"
    assert len(report["sheet_edges"]) == 3


def test_surface_subcommand_with_csv():
    out = run_cli("surface", "--csv")
    assert out.returncode == 0
    json_part, csv_part = out.stdout.split("}\n", 1)
    data = json.loads(json_part + "}")
    assert abs(data["c"] - 1.098259) < 1e-4
    assert abs(data["d"] - 1.766556) < 1e-4
    rows = list(csv.reader(io.StringIO(csv_part)))
    assert rows[0] == ["nodes", "height_integral", "width_integral"]
    assert [int(r[0]) for r in rows[1:]] == [32, 64, 128, 256, 512, 1024]


def _readme_sections() -> dict[str, tuple[str, str]]:
    """Per subcommand, the README's first ```sh block of its section and the
    whole section text."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    sections = {}
    for match in re.finditer(r"^### `blochkit (\w+)`\n(.*?)(?=^##)", text, re.M | re.S):
        body = match.group(2)
        usage = re.search(r"^```sh\n(.*?)^```", body, re.M | re.S)
        sections[match.group(1)] = (usage.group(1) if usage else "", body)
    return sections


def test_readme_usage_matches_the_parser():
    from blochkit.cli import _build_parser

    parser = _build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    sections = _readme_sections()
    assert set(sections) == set(subparsers.choices)
    for name, sub in subparsers.choices.items():
        options = {option for action in sub._actions for option in action.option_strings
                   if option.startswith("--") and option != "--help"}
        usage, body = sections[name]
        # the usage block offers only real options, and the section names
        # every option and no removed one
        assert set(re.findall(r"--[\w-]+", usage)) <= options, name
        assert set(re.findall(r"--[\w-]+", body)) == options, name
