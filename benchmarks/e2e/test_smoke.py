"""Smoke test of the end-to-end benchmark. Not in tier-1's ``testpaths``;
run it as ``python -m pytest benchmarks/e2e -q`` (about 40 s).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*options: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *options],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )


def test_smoke_runs_every_workload(spec: dict, tmp_path: Path) -> None:
    out = tmp_path / "smoke.json"
    proc = _run("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = json.loads(out.read_text())["runs"]
    assert [run["workload"] for run in runs] == [w["name"] for w in spec["workloads"]]
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert set(run["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        for metric in spec["end_to_end"]:
            entry = run["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0
        assert {"commit", "nproc", "python", "platform", "load_1min", "reps", "noisy"} <= set(
            run["provenance"]
        )
    digests = {run["workload"]: run["exact"]["sim_digest"] for run in runs}
    assert digests["share_cxl_update_checked"] == digests["share_cxl_update"]


def test_traced_pass_attributes_the_wall_time(spec: dict) -> None:
    proc = _run("--workload", "pool_cxl_read", "--trace", "1", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    shares = [v["value"] for k, v in metrics.items() if k.endswith(".self_share")]
    assert len(shares) == 16 and sum(shares) >= 0.95
    assert metrics["hardware.memory.self_share"]["value"] > 0.2
    assert metrics["runner.trace_overhead_ratio"]["value"] > 1


def test_wrong_expected_count_fails_the_run(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    monkeypatch.setattr(workloads.WORKLOADS["pool_rdma_write"], "expected", 1921)
    assert run.main(["--workload", "pool_rdma_write", "--smoke"]) == 1


def test_missing_source_tree_is_refused(tmp_path: Path) -> None:
    """In a directory that holds only BENCHMARK.json and the benchmark,
    the runner exits non-zero without printing a result."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for name in ("run.py", "layers.py", "workloads.py"):
        (bare / name).write_text((HERE / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "crash_sweep"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=60,
    )
    assert proc.returncode != 0 and "{" not in proc.stdout
