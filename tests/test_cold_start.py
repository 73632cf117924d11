"""Cold start: the CLI import and the tracking paths stay off ``scipy.stats``.

``scipy.stats`` and ``scipy.optimize`` together cost more than a second of
import time.  The package reaches the normal CDF and its inverse through
``scipy.special`` and imports the heavy modules only inside the functions
that need them (statistical tests, the range-MLE solver), so a fresh
interpreter must get through ``import repro.cli``, an extended-FTTT sweep
and a fault campaign without loading either.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = """
import sys

HEAVY = ("scipy.stats", "scipy.optimize")

def loaded():
    return [m for m in HEAVY if m in sys.modules]

import repro.cli
assert loaded() == [], ("import repro.cli", loaded())

from repro.config import GridConfig, SimulationConfig
from repro.faultlab import run_campaign
from repro.sim.experiments import sweep_n_sensors

tiny = SimulationConfig(
    n_sensors=6, duration_s=4.0, sensing_range_m=150.0, grid=GridConfig(cell_size_m=5.0)
)
records = sweep_n_sensors([6], ["fttt-extended"], base_config=tiny, n_reps=1, seed=3)
assert len(records) == 1
assert loaded() == [], ("sweep_n_sensors fttt-extended", loaded())
result = run_campaign(["byzantine"], (0.0, 0.3), config=tiny, n_reps=1, seed=3, n_workers=1)
assert result.records
assert loaded() == [], ("run_campaign", loaded())
print("ok")
"""


def test_cli_import_and_tracking_skip_heavy_scipy(tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
