"""Tests of the benchmark itself, on seconds-long versions of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int, seed: int = 5) -> dict:
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _assert_metrics(result: dict, spec: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = _result(workload, trace=0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] != 0 for m in result["metrics"].values())
    assert result["metrics"]["ops_ok"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_nested_spans(workload):
    result = _result(workload, trace=1)
    _assert_metrics(result, SPEC["per_layer"])
    lines = (ROOT / ".bench_out" / f"trace_{workload}_seed5.jsonl").read_text(encoding="utf-8").splitlines()
    header, recorded = json.loads(lines[0]), [json.loads(line) for line in lines[1:]]
    assert header["metadata"]["absent"] == [] and header["hook_errors"] == []
    assert recorded and spans.check_nesting(recorded) == []
    roots = {s[spans.NAME] for s in recorded if s[spans.PARENT] is None}
    assert roots == {"cli.main"}
    assert {s[spans.UNIT] for s in recorded} == set(header["units"]["setup"] + header["units"]["iteration"])


def test_inputs_depend_only_on_the_seed(tmp_path):
    from metrovec import cli, corpus, fileio

    def inputs(seed, name):
        run = workloads.Run("poi_city", seed, tmp_path / name, (cli, fileio, corpus), smoke=True)
        run.setup(0)
        return run.input_digest

    assert inputs(1, "a") == inputs(1, "b")
    assert inputs(1, "a") != inputs(2, "c")


def test_wrappers_sit_on_the_names_callers_use():
    from metrovec import cli, geo

    original = geo.build_index
    tracer = spans.Tracer()
    with tracer.traced("unit0"):
        assert cli.build_index is geo.build_index is not original
        cli.build_index([("a", geo.GeoPoint(0.0, 0.0)), ("b", geo.GeoPoint(0.0, 1.0))])
    assert cli.build_index is original and geo.build_index is original
    assert [s[spans.NAME] for s in tracer.spans][:2] == ["geo.build_index", "geo.SpatialIndex.__init__"]
    assert tracer.spans[1][spans.PARENT] == 0


def test_times_are_scaled_by_the_slices_around_them(monkeypatch):
    host = hostspeed.HostSpeed()
    host.prev = hostspeed.REF_S
    slices = iter([3 * hostspeed.REF_S, hostspeed.REF_S])
    monkeypatch.setattr(host, "slice", lambda: next(slices))
    assert host.mark() == pytest.approx(0.5)  # slices of 1x and 3x REF_S around the call
    assert host.mark() == pytest.approx(0.5)
    assert host.summary()["slices"] == 2


def test_missing_functions_are_reported_absent():
    metrics, absent = spans.layer_metrics([], [], [], known=set())
    assert "geo.index_build_s" in absent
    assert metrics["geo.index_build_s"] == {"value": 0.0, "unit": "s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
