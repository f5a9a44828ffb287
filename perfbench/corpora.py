"""The benchmark's workloads and their seed-deterministic corpora.

Every corpus is made by ``mfaudio synth`` (called in-process through
``mfaudio.cli.main``); ``fine-q-short`` then silences one whole window
per part with ``decode_wav`` / ``write_wav``.  The program under test
receives only the WAVs and the manifest written here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from mfaudio.cli import main as mfaudio_main
from mfaudio.signal_io import Signal, decode_wav, write_wav


@dataclass(frozen=True)
class Workload:
    name: str
    synth_args: tuple[str, ...]
    # h(2) every rendition should show: H of fGn, 0.5 for cascade-noise
    # (Gaussian noise under a deterministic envelope has uncorrelated
    # increments).
    oracle_h2: float
    cascade: bool  # width checks for cascade-noise renditions apply
    q_step: float | None = None  # `mfaudio run --q-step`
    silence: bool = False  # one whole window per part set to exact zeros
    # windows per rendition whose q-moments are timed from
    # segment_fluctuation inputs (about 45 us per segment, so a subset)
    qm_windows: int = 1

    def run_flags(self) -> list[str]:
        return [] if self.q_step is None else ["--q-step", repr(self.q_step)]

    def cli_mfdfa(self) -> dict | None:
        """The `validate_manifest` override `run_flags()` gives the CLI."""
        return None if self.q_step is None else {"q_step": self.q_step}


_COMMON = ("--duration", "180", "--parts", "6")

WORKLOADS = {
    w.name: w
    for w in (
        # Detrending dominates each 48,000-sample window, and the 5
        # independent renditions give --jobs something to split.
        Workload(
            "corpus-8k",
            ("--kind", "cascade-noise", "--generations", "5", "--rate", "8000",
             *_COMMON, "--window-seconds", "6"),
            oracle_h2=0.5,
            cascade=True,
        ),
        # The paper's 132,300-sample windows and the largest WAV; fGn gives
        # the h(2) oracle, and one rendition leaves a rendition pool
        # nothing to split.
        Workload(
            "paper-22k",
            ("--kind", "fgn", "--generations", "1", "--rate", "22050",
             *_COMMON, "--window-seconds", "6"),
            oracle_h2=0.55,
            cascade=False,
            qm_windows=2,
        ),
        # 360 one-second windows on a 201-value q grid shift the weight to
        # q-moments, per-window costs and CSV rows; whole silenced windows
        # drive the flag path a known number of times.
        Workload(
            "fine-q-short",
            ("--kind", "cascade-noise", "--generations", "2", "--rate", "8000",
             *_COMMON, "--window-seconds", "1"),
            oracle_h2=0.5,
            cascade=True,
            q_step=0.05,
            silence=True,
            qm_windows=10,
        ),
    )
}


def build_corpus(workload: Workload, seed: int, corpus_dir: Path) -> list[tuple[int, int, int]]:
    """Write the workload's WAVs and manifest.json into a fresh corpus_dir.

    Returns the silenced windows as 1-based (generation, part, window).
    """
    if corpus_dir.exists():
        shutil.rmtree(corpus_dir)
    with contextlib.redirect_stdout(io.StringIO()):
        status = mfaudio_main(
            ["synth", "--out", str(corpus_dir), "--seed", str(seed), *workload.synth_args]
        )
    if status != 0:
        raise RuntimeError(f"mfaudio synth exited with status {status}")
    if not workload.silence:
        return []

    doc = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
    plan = doc["defaults"]["window_plan"]
    rng = random.Random(seed)
    silenced = []
    for entry in doc["entries"]:
        path = corpus_dir / entry["path"]
        signal = decode_wav(path)
        rate = signal.sample_rate
        part_n = round(plan["part_length"] * rate)
        window_n = round(plan["window_length"] * rate)
        samples = signal.samples.copy()
        for p in range(plan["part_count"]):
            w = rng.randrange(part_n // window_n)
            start = round(plan["clip_start"] * rate) + p * part_n + w * window_n
            samples[start : start + window_n] = 0.0
            silenced.append((entry["generation"], p + 1, w + 1))
        write_wav(path, Signal(samples, rate), "float32")
    return silenced


def _files(root: Path, pattern: str) -> list[Path]:
    return sorted(
        p for p in root.rglob(pattern) if p.is_file() and "__pycache__" not in p.parts
    )


def tree_digest(root: Path, pattern: str = "*") -> str:
    """SHA-256 over the relative path and bytes of every matching file."""
    digest = hashlib.sha256()
    for path in _files(root, pattern):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in _files(root, "*"))
