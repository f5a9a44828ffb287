"""The benchmark's modules import against the package in src/, and its
traced pass runs the package calls it times, so a name they use that moves
or goes fails here rather than in a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

from mfaudio import MfdfaConfig, gen_cascade_noise

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_modules_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", "import traced, corpora"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_traced_window_calls_run_on_one_window(monkeypatch):
    # `perfbench/run.py --trace 1` reads config, profile and surface names
    # on every window; one 4,000-sample window exercises them all
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import traced
    from spans import Tracer

    tracer = Tracer()
    window, config, where = gen_cascade_noise(4000, 0.7, 5, 4000.0), MfdfaConfig(), {"window": 1}
    traced._time_windows(tracer, [(where, window)], config)
    surface, profile = traced._staged_window(tracer, window, config, where)
    assert surface.segment_counts.sum() > 0  # traced_pass counts segments from it
    traced._time_q_moments(tracer, profile, config, where)
    names = {s["name"] for s in tracer.spans}
    assert {"mfdfa.window", "mfdfa.segment_fluctuation", "mfdfa.q_moments"} <= names
    assert {f"mfdfa.{stage}" for stage in traced.STAGES} <= names
