"""Tests of the benchmark itself (not of loopgr).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import batch  # noqa: E402
import golden  # noqa: E402
import run  # noqa: E402

EXACT_SUFFIXES = (".calls", ".ops", "coeff_products", "h0_per_splitting", "factors_per_loop")


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(EXACT_SUFFIXES)}


@pytest.fixture(scope="module", autouse=True)
def _out_dir():
    run.OUT.mkdir(exist_ok=True)


@pytest.mark.parametrize("name", run.IN_PROCESS)
def test_traced_counts_repeat_exactly(name):
    args = ("--workload", name, "--seed", "3", "--jobs", "3")
    first = run.worker("trace", *args)
    second = run.worker("trace", *args)
    assert first["failed"] == second["failed"] == 0
    counts = _counts(first["metrics"])
    assert counts == _counts(second["metrics"])
    assert sum(v for k, v in counts.items() if k.startswith("rings.")) > 0


@pytest.mark.parametrize("name", run.IN_PROCESS)
def test_tracing_overhead_reports_both_bases(name):
    m = run.worker("trace", "--workload", name, "--seed", "3", "--jobs", "2")["metrics"]
    assert m["trace.untraced_wall_s"] > 0 and m["trace.traced_wall_s"] > 0
    assert m["trace.overhead_ratio"] == m["trace.traced_wall_s"] / m["trace.untraced_wall_s"]
    shares = [v for k, v in m.items() if k.startswith("share.")]
    assert len(shares) == 8 and abs(sum(shares) - 1) < 1e-9


def test_cli_batch_traced_counts_repeat_exactly(monkeypatch):
    monkeypatch.setattr(run, "TRACE_ENTRIES", 60)
    first = run.trace_cli_batch(3)
    second = run.trace_cli_batch(3)
    assert first["failed"] == second["failed"] == 0
    assert _counts(first["metrics"]) == _counts(second["metrics"])
    assert first["metrics"]["cli.batch.entries"] == 60
    assert first["metrics"]["cli.batch.expected_errors"] == 6
    assert first["metrics"]["jsonio.bytes_in"] == second["metrics"]["jsonio.bytes_in"] > 0


def test_batch_input_depends_only_on_the_seed():
    assert batch.make_batch(5, 40)[0] == batch.make_batch(5, 40)[0]
    assert batch.make_batch(5, 40)[0] != batch.make_batch(6, 40)[0]


def test_batch_check_counts_wrong_error_class_and_missing_lines():
    lines, expected = batch.make_batch(1, 20)
    outputs = []
    for i, (outcome, want) in enumerate(expected):
        if outcome == "error":
            # report every invalid entry with the wrong class
            outputs.append(json.dumps({"index": i, "ok": False, "error": "PrecisionError"}))
    failed, expected_errors, _ = batch.check_output(outputs, expected, None)
    assert expected_errors == 0
    assert failed == len(expected)


def test_goldens_cover_both_seeds_of_every_workload():
    doc = json.loads(golden.PATH.read_text())
    for name in run.WORKLOADS:
        for seed in (golden.DEFAULT_SEED, golden.HELD_OUT_SEED):
            assert doc["digests"][name][str(seed)], (name, seed)


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "strata-qq", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
