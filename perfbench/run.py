"""End-to-end benchmark of the FTTT reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dense-n40 --seed 1 --seconds 30 --trace 0

Runs one workload in a fresh interpreter with a hermetic environment and
prints every metric as ``name value unit``, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see README.md beside this file).  ``--smoke`` shrinks
every workload to seconds; the benchmark's own tests use it.

Exits non-zero, without a result line, when the program's sources are
missing, the worker fails or the run overruns its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Wall-clock limit of one run, set-up included.
DEADLINE_S = 170.0
#: Interpreter start-ups timed per run, the measuring worker included.
SETUP_SAMPLES = 3

#: Variables that would leak state into a run: a warm disk cache turns
#: cold builds into hits, a worker override changes the pool, obs adds
#: recording to every round.
UNSET = (
    "REPRO_FACE_CACHE_DIR",
    "REPRO_FACE_CACHE",
    "REPRO_FACE_CACHE_SIZE",
    "REPRO_WORKERS",
    "REPRO_BUILD_WORKERS",
    "REPRO_OBS",
    "REPRO_OBS_TRACE",
)
#: One BLAS/OpenMP thread per process: the campaign's two pool workers
#: would otherwise oversubscribe two cores.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(spec: dict, kind: str) -> dict:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in spec[kind]}


class RunFailed(Exception):
    """The run cannot produce a result."""


def hermetic_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns children under one deadline and reaps every one of them."""

    def __init__(self, env: dict, deadline: float) -> None:
        self.env = env
        self.deadline = deadline

    def spawn(self, args: list[str], *, python_flags=()) -> "tuple[float, str, str]":
        """Run ``python3 <flags> worker.py <args>``; returns (spawn time, stdout, stderr)."""
        cmd = [sys.executable, *python_flags, str(HERE / "worker.py"), *args]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,  # one process group: pool workers included
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException as exc:
            _kill_group(proc.pid)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RunFailed(f"timed out: {' '.join(args)}") from None
            raise
        _kill_group(proc.pid)  # helpers the worker may have left in its group
        if proc.returncode != 0:
            raise RunFailed(f"worker exited with {proc.returncode}: {' '.join(args)}\n{err[-4000:]}")
        return t_spawn, out, err


def ready_time(t_spawn: float, out: str) -> float:
    """Seconds from spawning a worker until its entry points were imported."""
    first = out.splitlines()[0]
    if not first.startswith("ready "):
        raise RunFailed(f"worker did not report its import time: {first!r}")
    return float(first.split()[1]) - t_spawn


def import_times(err: str) -> dict:
    """Cumulative import seconds of ``repro.cli`` and ``scipy.stats`` from ``-X importtime``."""
    cumulative = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$", line)
        if m:
            cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
    if "repro.cli" not in cumulative:
        raise RunFailed("-X importtime output has no repro.cli line")
    # 0 when nothing imports scipy.stats at start-up any more
    return {
        "import.repro_cli_s": cumulative["repro.cli"],
        "import.scipy_stats_s": cumulative.get("scipy.stats", 0.0),
    }


def run(args, spec: dict) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise RunFailed(f"no program sources under {ROOT / 'src'}; run from a full checkout")
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    try:
        runner = Runner(hermetic_env(tmp), time.monotonic() + DEADLINE_S)
        common = ["--workload", args.workload] + (["--smoke"] if args.smoke else [])
        setups: list[float] = []
        imports: dict = {}
        if args.trace:
            _, _, err = runner.spawn(common + ["--import-only"], python_flags=("-X", "importtime"))
            imports = import_times(err)
        else:
            for _ in range(1 if args.smoke else SETUP_SAMPLES - 1):
                t_spawn, out, _ = runner.spawn(common + ["--import-only"])
                setups.append(ready_time(t_spawn, out))
        worker_args = common + [
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.inject_failure:
            worker_args += ["--inject-failure", args.inject_failure]
        t_spawn, out, _ = runner.spawn(worker_args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("result "):
        raise RunFailed("worker printed no result line")
    for line in lines[1:-1]:
        print(line)
    result = json.loads(lines[-1][len("result "):])
    metrics = result["metrics"]
    if args.trace:
        metrics.update(imports)
        units = metric_units(spec, "per_layer")
    else:
        setups.append(ready_time(t_spawn, out))
        metrics["setup_s"] = statistics.median(setups)
        result["info"]["setup_s.samples"] = setups
        units = metric_units(spec, "end_to_end")
    if set(units) != set(metrics):
        raise RunFailed(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    result["env"]["git_sha"] = git_sha()
    print("env " + json.dumps(result["env"], sort_keys=True))
    for key, value in result["info"].items():
        print(f"info {key} {value}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"info failed_share {failed / attempted if attempted else 1.0} ({failed}/{attempted} operations)")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    return {
        "correct": bool(result["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = load_spec()
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny workloads, for the benchmark's own tests")
    ap.add_argument("--inject-failure", metavar="TRACKER", help="make TRACKER raise in batch 1 (tests)")
    args = ap.parse_args(argv)
    try:
        result = run(args, spec)
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
