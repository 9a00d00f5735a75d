"""Self-test of the benchmark runner on fast k=6 workloads.

Covers the untraced and traced paths, the correctness gate and the refusal
to run without the package source. Run from the repository root with

    python3 -m pytest perfbench/tests -q

It is outside the repository's `testpaths`, so the main test suite does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_every_gated_workload_has_reference_outputs():
    table = json.loads((BENCH / "workloads.json").read_text())
    for w in BENCHMARK["workloads"]:
        rows = table[w["name"]]["rows"]
        assert rows and all({"k", "options", "states", "trailer", "bound"} <= set(r) for r in rows)


@pytest.mark.parametrize("workload", ["k6-default", "k6-ablate"])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected_units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert detail["pairs"] >= 2 and len(detail["samples"]["build_s"]) == detail["pairs"]


@pytest.mark.parametrize("workload", ["k6-default", "k6-ablate"])
def test_traced_run_reports_every_per_layer_metric(workload):
    proc = run("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] is True and out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected_units("per_layer")
    assert metrics["state.canonical.calls"] > 0
    assert metrics["automaton.pass1_s"] > 0 and metrics["automaton.pass2_s"] > 0
    assert (BENCH / "results" / f"{workload}.spans.npz").is_file()
    if workload == "k6-default":
        # Every timed call is inside a root span, so self times add up to it.
        assert metrics["automaton.states"] == 163
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.bound_s"], rel=0.05)


def copy_of_the_benchmark(dest: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    return dest / "perfbench"


def test_tampered_reference_fails_exactly_one_operation(tmp_path):
    bench = copy_of_the_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    table = json.loads((bench / "workloads.json").read_text())
    table["k6-default"]["rows"][0]["bound"] = "2.721548088"
    (bench / "workloads.json").write_text(json.dumps(table))
    proc = run("--workload", "k6-default", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 1
    out = result(proc)
    assert out == {"correct": False, "attempted": 4, "failed": 1, "metrics": {}}
    assert "bound" in proc.stderr


def test_refuses_to_run_without_the_package_source(tmp_path):
    copy_of_the_benchmark(tmp_path)
    proc = run("--workload", "k6-default", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
