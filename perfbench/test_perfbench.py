"""Tests of the benchmark itself, on its smoke size (seconds in total).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from workloads import Checker, Command, command_set, strip_timestamps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_metric_and_no_failures(trace, section):
    names = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert [w["name"] for w in names] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        run = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, run.stdout
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared(section), workload
        for name in declared(section):
            assert f"  {name} = " in run.stdout
        assert "failed_frac = 0/" in run.stdout


def _cli_output(args: list[str], traced: bool, tmp_path: Path) -> tuple[int, bytes]:
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(tmp_path / "s.json"), *args]
    else:
        argv = [sys.executable, "-m", "towercert.cli", *args]
    run = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True, timeout=120)
    return run.returncode, run.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["search", "--m-max", "60", "--certify"],
        ["group", "perfect", "--n", "11"],
        ["hl", "count", "--x", "100000000"],
        ["certify", "cyclotomic", "--m", "2"],
    ],
)
def test_traced_records_equal_untraced_modulo_timestamp(args, tmp_path):
    code, plain = _cli_output(args, False, tmp_path)
    traced_code, traced = _cli_output(args, True, tmp_path)
    assert code == traced_code
    assert plain and strip_timestamps(plain) == strip_timestamps(traced)
    summary = json.loads((tmp_path / "s.json").read_text())
    main = summary["spans"]["cli.main"]
    assert main["calls"] == 1
    assert 0 <= main["self_s"] <= main["s"]


@pytest.fixture(scope="module")
def checker():
    sys.path.insert(0, str(ROOT / "src"))
    from towercert.records import parse_record

    return Checker(workloads.load_reference(), parse_record)


def test_checker_rejects_a_wrong_value_and_a_wrong_exit_code(checker, tmp_path):
    command = Command(("certify", "cyclotomic", "--m", "50"), "certify_cyclotomic", {"m": 50})
    code, output = _cli_output(list(command.argv), False, tmp_path)
    assert checker.check(command, code, output).ok
    assert not checker.check(command, code + 1, output).ok
    # Changing h alone breaks the content hash, so parse_record rejects the line.
    assert not checker.check(command, code, output.replace(b'"h":19', b'"h":18')).ok
    wrong = Command(command.argv, command.kind, {"m": 58})
    assert not checker.check(wrong, code, output).ok


def test_seed_picks_inputs_deterministically_from_the_bands():
    for workload in workloads.WORKLOADS:
        assert command_set(workload, 3) == command_set(workload, 3)
    picked = {command_set("sweep", seed)[0].params["m_max"] for seed in range(40)}
    assert len(picked) > 1 and picked <= set(workloads.SIZES["full"]["sweep"]["m_max"])
    reference = workloads.load_reference()
    for size in workloads.SIZES:
        inputs = workloads.band_inputs(size)
        assert max(inputs["m_max"]) <= reference["prime_ms_limit"]
        assert {str(m) for m in inputs["cyclotomic"]} <= set(reference["cyclotomic"])
        assert {str(n) for n in inputs["group"]} <= set(reference["group"])
        assert {str(x) for x in inputs["prime_count"]} <= set(reference["prime_count"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert run.returncode != 0
    assert "correct" not in run.stdout
