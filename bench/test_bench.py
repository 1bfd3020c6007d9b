"""Benchmark self-test: every workload at tiny size in seconds.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "3", "--seconds", "1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_carries_every_declared_metric(workload, trace, tmp_path):
    proc = _run("--workload", workload, "--trace", str(trace), "--spans", str(tmp_path / "spans.jsonl"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), name
        assert trace or v["value"] > 0, name
    if trace:
        spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert {"name", "start", "end", "parent"} <= set(spans[0])


def test_all_prints_every_workload():
    proc = _run("--workload", "all")
    assert proc.returncode == 0, proc.stderr
    for name in WORKLOADS:
        assert f"# {name}: correct=True" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_corrupted_decode_output_is_counted_as_a_failure(tmp_path, monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workload

    su = workload.set_up(workload.TINY["desk"], 0, tmp_path / "work")
    assert workload.run_round(su).failures == []

    real = workload.decode

    def corrupted(model, history, config):
        result = real(model, history, config)
        if config.strategy == "greedy" and history is su.histories[1]:
            ids = list(result.token_ids)
            ids[0] = 4 + (ids[0] - 3) % (model.config.vocab_size - 4)  # another content token
            result = dataclasses.replace(result, token_ids=ids)
        return result

    monkeypatch.setattr(workload, "decode", corrupted)
    failures = workload.run_round(su).failures
    assert [layer for layer, _ in failures] == ["decoding"]
    assert "greedy history 1" in failures[0][1]
