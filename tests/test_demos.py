"""The demos run end to end through the public API."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_locking_dynamics_demo_locks():
    # walks initial_phases -> integrate -> compute_traces -> lock_time -> score_trajectory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "locking_dynamics.py")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("locked: True") for line in proc.stdout.splitlines())
