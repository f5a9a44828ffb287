"""The benchmark's modules import against the package in src/, so a name
they use that moves or goes fails here rather than in a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_modules_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", "import traced, corpora"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
