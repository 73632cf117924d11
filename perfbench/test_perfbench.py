"""The benchmark's own tests, at the smoke size (about a minute in all).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def smoke(workload: str, trace: int, *extra: str) -> "tuple[dict, str]":
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke", *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == ["dense-n40", "paper-n10", "fault-campaign"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and NAME.fullmatch(w["name"]) and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["dense-n40", "paper-n10", "fault-campaign"])
def test_smoke_result_matches_schema(workload, trace):
    result, stdout = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), name
        assert f"\n{name} " in stdout  # printed by name beside the JSON line
        if not trace:
            assert v["value"] > 0, name
    if trace:
        m = {n: v["value"] for n, v in result["metrics"].items()}
        assert m["trace.checked_rounds"] > 0
        assert m["trace.uncovered_s"] == pytest.approx(m["trace.wall_s"] * (1 - m["trace.coverage"]))
        assert (m["sim.parallel.efficiency"] > 0) == (workload == "fault-campaign")
        assert (m["core.extended.attach_s"] > 0) == (workload == "dense-n40")


def test_failing_tracker_is_counted_not_fatal():
    result, stdout = smoke("paper-n10", 0, "--inject-failure", "pm")
    assert result["failed"] > 0 and result["failed"] < result["attempted"]
    assert "injected failure in tracker 'pm'" in stdout
    share = float(re.search(r"^info failed_share (\S+)", stdout, re.M).group(1))
    assert share == result["failed"] / result["attempted"] > 0


def test_same_seed_same_errors():
    a, _ = smoke("paper-n10", 0)
    b, _ = smoke("paper-n10", 0)
    for name in ("mean_error_m.fttt", "mean_error_m.trackers"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    t0 = time.monotonic()
    proc = bench("--workload", "paper-n10", "--seed", "1", "--seconds", "2", cwd=tmp_path)
    assert proc.returncode != 0
    assert time.monotonic() - t0 < 180
    assert '"correct"' not in proc.stdout


def test_tracer_self_times_add_up():
    sys.path.insert(0, str(HERE))
    from tracer import LayerTracer

    tr = LayerTracer(100.0)
    t0 = time.perf_counter()
    with tr.span("outer"):
        time.sleep(0.01)
        with tr.span("inner"):
            time.sleep(0.02)
    wall = time.perf_counter() - t0
    assert tr.total_s["inner"] == pytest.approx(tr.self_s["inner"])
    assert tr.self_s["outer"] == pytest.approx(tr.total_s["outer"] - tr.total_s["inner"])
    assert tr.covered_s() == pytest.approx(tr.total_s["outer"]) and tr.covered_s() <= wall
