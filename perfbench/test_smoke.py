"""Smoke test of the benchmark at a tiny size; no timing is checked.

    python3 -m pytest -q perfbench/test_smoke.py
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import capture_golden  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "mission-small": wl.MissionWorkload("mission-small", nodes=12, packages=3, pool=2),
    "compare-k9": wl.CompareWorkload("compare-k9", nodes=12, packages=4, pool=2),
    "ndf-metro": wl.MissionWorkload("ndf-metro", nodes=40, packages=5, pool=2,
                                    battery_capacity=250_000.0),
    "cli-cold": wl.CliWorkload("cli-cold"),
}


@pytest.fixture(scope="module")
def tiny_golden():
    golden = {name: capture_golden.capture_generated(w, 3, complete_only=False)
              for name, w in TINY.items() if not isinstance(w, wl.CliWorkload)}
    golden["cli-cold"] = capture_golden.capture_cli(TINY["cli-cold"])
    return golden


def bench(monkeypatch, tmp_path, capsys, golden, workload: str, trace: int):
    monkeypatch.setattr(wl, "WORKLOADS", TINY)
    monkeypatch.setattr(wl, "load_golden", lambda: golden)
    monkeypatch.setattr(wl, "OUT_DIR", tmp_path)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_prints_with_its_unit(monkeypatch, tmp_path, capsys, tiny_golden,
                                           workload, trace):
    lines, result = bench(monkeypatch, tmp_path, capsys, tiny_golden, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_MISSIONS
    if trace:
        bounded = {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}
        printed_only = {}
    else:
        bounded = run.END_TO_END
        printed_only = {"mission_ms_p50": "ms", "mission_ms_tail": "ms", "error_rate": "ratio"}
    printed = {line.split()[0]: line.split()[2] for line in lines[1:] if len(line.split()) > 2}
    for name, unit in {**bounded, **printed_only}.items():
        assert printed.get(name) == unit, name
    assert {name: m["unit"] for name, m in result["metrics"].items()} == bounded


def test_corrupted_golden_digest_counts_as_failure(monkeypatch, tmp_path, capsys,
                                                   tiny_golden):
    golden = json.loads(json.dumps(tiny_golden))
    for digests in golden["mission-small"].values():
        digests["report"] = "0" * 64
        break
    lines, result = bench(monkeypatch, tmp_path, capsys, golden, "mission-small", 0)
    error_rate = next(float(line.split()[1]) for line in lines
                      if line.startswith("error_rate"))
    assert error_rate > 0
    assert result["failed"] > 0 and not result["correct"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "mission-small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
