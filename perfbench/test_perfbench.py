"""Self-test of the benchmark, at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every declared metric prints with its unit for each workload
and mode, that a corrupted answer trips the correctness gate, that no
``/dev/shm/repro-shm-*`` segment and no server or worker process outlives
a run, and that the benchmark refuses to run without the program sources.
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
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import procs  # noqa: E402
import run as bench  # noqa: E402

TINY = ["--seed", "3", "--seconds", "2", "--records", "600", "--setups", "1"]


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _left_behind() -> list[int]:
    """Processes a run did not wait for. The test process is the child
    subreaper during runs, so anything the benchmark leaves is reparented
    here and listed, still running or exited but not reaped; it is then
    killed and reaped."""
    left = procs.descendants(os.getpid())[1:]
    procs._kill_all(left)
    procs._wait_gone(left, 10.0)
    procs._reap(left)
    return left


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_declared_metrics_match_the_driver():
    spec = _declared()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in layers.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == ["point", "serve", "mixed"]


@pytest.mark.parametrize("workload", ["point", "serve", "mixed"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_and_nothing_outlives_the_run(workload, trace):
    segments = set(procs.shm_segments())
    procs.adopt_orphans()
    out = _run("--workload", workload, "--trace", trace, *TINY)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    spec = _declared()
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name in result["metrics"]:
        assert name in out.stdout.split(out.stdout.strip().splitlines()[-1])[0]
    assert set(procs.shm_segments()) <= segments
    assert _left_behind() == []
    assert not (ROOT / ".perfbench_work").exists()


def test_a_corrupted_answer_fails_the_run():
    out = _run("--workload", "point", "--trace", "0", "--corrupt", *TINY)
    assert out.returncode == 1
    assert "wrong answer" in out.stderr
    assert '"metrics"' not in out.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run("--workload", "point", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
