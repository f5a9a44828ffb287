"""Corpus study protocol: the run path of ``mfaudio run`` (per-window
MFDFA, per-part width averaging) and per-generation aggregation.

``run_corpus`` splits each recording by its :class:`WindowPlan` into
parts, each part into windows, as sample spans computed from the WAV
header alone.  Each window is one task of ``_analyze_window``, a pure
function of the window and its config, run by builtin ``map`` or, in a
fixed stride, by forked worker processes (``_workers``, imported only
for them), which inherit the tasks.  The process that runs a task decodes
the window's frames from the file into the array that becomes the
window's profile, the one array of the window's length it holds, and a
window's error is raised there with the window named.  The results are
reduced in window order, which keeps every mean bit-identical for any
number of workers.  Windows whose analysis degenerates
(digital silence, a non-concave spectrum) are flagged with the reason and
excluded from part means instead of poisoning them; a part whose every
window is flagged is reported as errored.  All means are plain arithmetic
means of their listed constituents.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .analysis import HurstCurve, MfdfaConfig, _mfdfa_in_place, spectrum_width
from .errors import (
    ConfigError,
    DegenerateSegmentError,
    InsufficientSpectrumError,
    MfaudioError,
    NonConcaveSpectrumError,
    SchemaError,
)
from .signal_io import (
    Signal,
    WindowPlan,
    _decode_frames,
    _require_finite,
    _wav_layout,
    _WavLayout,
    _window_spans,
)

# Window-level failures that flag the window instead of aborting the
# rendition.  Anything else (bad config, unreadable audio) is a real error.
_WINDOW_FLAG_ERRORS = (
    DegenerateSegmentError,
    NonConcaveSpectrumError,
    InsufficientSpectrumError,
)

def _slug(text: str) -> str:
    out = "".join(c.lower() if c.isalnum() else "-" for c in text)
    while "--" in out:
        out = out.replace("--", "-")
    return out.strip("-") or "x"


@dataclass(frozen=True)
class RenditionRecord:
    """One recording of one song by one artist."""

    song_id: str
    artist: str
    year: int
    generation_index: int
    audio_path: str | Path
    plan: WindowPlan = field(default_factory=WindowPlan)
    config: MfdfaConfig = field(default_factory=MfdfaConfig)

    def __post_init__(self):
        if self.generation_index < 1:
            raise ConfigError(f"generation must be >= 1, got {self.generation_index}")
        if not 1900 <= self.year <= 2100:
            raise ConfigError(f"year {self.year} is outside the plausible range 1900..2100")

    @property
    def rendition_id(self) -> str:
        return f"{_slug(self.song_id)}-{_slug(self.artist)}-{self.year}"


@dataclass(frozen=True)
class WindowResult:
    """Diagnostics of one analyzed window (indices are 1-based); a flagged
    window leaves every diagnostic NaN.  ``endpoint_width`` is
    max(alpha) - min(alpha), beside the quadratic ``width``."""

    window_index: int
    n_samples: int
    width: float = math.nan
    alpha0: float = math.nan
    asymmetry: float = math.nan
    h2: float = math.nan
    r2_q2: float = math.nan
    flagged: bool = False
    flag_reason: str | None = None
    endpoint_width: float = math.nan


@dataclass(frozen=True)
class PartResult:
    """All windows of one part plus their width statistics."""

    part_index: int
    windows: tuple[WindowResult, ...]

    @property
    def flagged_count(self) -> int:
        return sum(1 for w in self.windows if w.flagged)

    @property
    def errored(self) -> bool:
        return all(w.flagged for w in self.windows)

    @property
    def mean_width(self) -> float:
        return self._unflagged_mean("width")

    @property
    def mean_alpha0(self) -> float:
        return self._unflagged_mean("alpha0")

    @property
    def mean_h2(self) -> float:
        return self._unflagged_mean("h2")

    def _unflagged_mean(self, name: str) -> float:
        vals = [getattr(w, name) for w in self.windows if not w.flagged]
        return float(np.mean(vals)) if vals else math.nan


@dataclass(frozen=True)
class RenditionReport:
    """Per-part width statistics for one recording.

    ``mean_hurst`` holds the arithmetic means of h(q) and r^2 over every
    unflagged window (None if every window was flagged), suitable for
    plotting one representative spectrum per rendition.
    """

    record: RenditionRecord
    parts: tuple[PartResult, ...]
    mean_hurst: HurstCurve | None = None

    @property
    def errored(self) -> bool:
        return any(p.errored for p in self.parts)


@dataclass(frozen=True)
class GenerationAggregate:
    """Average widths of one generation's renditions of one song."""

    song_id: str
    generation_index: int
    rendition_count: int
    part_mean_widths: tuple[float, ...]
    overall_mean_width: float


def run_corpus(manifest, jobs: int = 1):
    """Analyze every record of a validated Manifest, in manifest order.

    Returns (outcomes, failures) where outcomes[i] is a RenditionReport or
    the MfaudioError that aborted entry i, and failures lists the errors.
    Every record is planned first (header, spans, one task per window),
    then the records are reduced in manifest order.  With
    ``min(jobs, _usable_cpus())`` above 1, that many forked workers run
    the corpus's windows in a fixed stride, worker w of k windows w,
    w + k, ..., each ahead of the reduction by at most a pipe buffer of
    replies; else builtin ``map`` runs each window in this process when
    its record is reduced, and ``_workers`` is never imported.  Either
    way the process that analyses a window builds a detrending basis the
    first time it needs one.  Outcomes do not depend on ``jobs``.  A
    window error cancels the windows of its record not yet started; an
    unexpected exception, a dead worker or an interrupt ends the run.
    Every worker is reaped before this returns or raises.
    """
    _check_jobs(jobs)
    workers = min(jobs, _usable_cpus())
    plans = [_kept(_plan_rendition, record) for record in manifest.records]
    pool = None
    if workers > 1:
        # threads serialise on the interpreter lock over a window's small
        # numpy calls.  Forked workers inherit the imported modules, the
        # pinned malloc thresholds and the tasks, which spawned ones
        # would not; each builds the detrending bases it needs on first use.
        from ._workers import Workers
        pool = Workers(_analyze_window, [[] if isinstance(tasks, MfaudioError) else tasks for tasks in plans], workers)
    try:
        streams = [tasks if isinstance(tasks, MfaudioError)
                   else map(_analyze_window, tasks) if pool is None
                   else pool.results(r) for r, tasks in enumerate(plans)]
        outcomes = [s if isinstance(s, MfaudioError) else _kept(_reduce_rendition, record, s)
                    for record, s in zip(manifest.records, streams)]
    finally:
        if pool is not None:
            pool.close()
    failures = [o for o in outcomes if isinstance(o, MfaudioError)]
    return outcomes, failures


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ConfigError(f"jobs must be 1 where the platform has no os.fork, got {jobs}")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one (a cpuset or ``taskset`` narrows it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kept(step, *args):
    """``step(*args)``, or the MfaudioError it raised."""
    try:
        return step(*args)
    except MfaudioError as err:
        return err


def analyze_rendition(record: RenditionRecord, signal: Signal | None = None) -> RenditionReport:
    """Run MFDFA over every window of every part of one recording in this process.

    It plans and reduces one record as ``run_corpus`` does, with builtin
    ``map`` over the windows.  Only the WAV header is read up front, and
    for float PCM the raw samples are scanned for NaN or infinity in
    bounded blocks; each window is decoded from the file when it is
    analysed.  ``signal`` skips the file: each window is then sliced from
    these samples.  Audio and plan errors propagate with the rendition
    identified, window errors with the rendition, part and window.
    """
    return _reduce_rendition(record, map(_analyze_window, _plan_rendition(record, signal)))


def _plan_rendition(record: RenditionRecord, signal: Signal | None = None) -> list[tuple]:
    """Header, float scan and window spans of one recording, as one
    ``_analyze_window`` task per window, in window order."""
    try:
        if signal is None:
            layout = _wav_layout(record.audio_path)
            _require_finite(layout)
            n_samples, rate = layout.n_frames, layout.sample_rate
        else:
            n_samples, rate = len(signal), signal.sample_rate
        spans = _window_spans(n_samples, rate, record.plan)
    except MfaudioError as err:
        raise err.add_context(f"rendition {record.rendition_id}")

    source = layout if signal is None else signal.samples
    rendition_id = record.rendition_id
    return [(source, span, record.config, (rendition_id, p_idx, w_idx))
            for p_idx, part in enumerate(spans, start=1)
            for w_idx, span in enumerate(part, start=1)]


def _reduce_rendition(
    record: RenditionRecord, analyzed: Iterator[tuple[WindowResult, HurstCurve | None]]
) -> RenditionReport:
    """The record's report from its windows' outcomes, in window order."""
    parts: list[PartResult] = []
    h_sum = r2_sum = None
    h_count = 0
    for p_idx in range(1, record.plan.part_count + 1):
        results: list[WindowResult] = []
        for _ in range(record.plan.windows_per_part):
            result, curve = next(analyzed)
            results.append(result)
            if curve is not None:
                h_sum = curve.h.copy() if h_sum is None else h_sum + curve.h
                r2_sum = curve.r_squared.copy() if r2_sum is None else r2_sum + curve.r_squared
                h_count += 1
        parts.append(PartResult(p_idx, tuple(results)))

    mean_hurst = None
    if h_count:
        mean_hurst = HurstCurve(record.config.q_grid, h_sum / h_count, r2_sum / h_count)
    return RenditionReport(record, tuple(parts), mean_hurst)


def _analyze_window(
    task: tuple[_WavLayout | np.ndarray, tuple[int, int], MfdfaConfig, tuple[str, int, int]]
) -> tuple[WindowResult, HurstCurve | None]:
    """One window's diagnostics and h(q) curve; a flagged window has no curve.

    ``task`` is (source, (start, stop), config, (rendition id, part,
    window)).  The window's samples are decoded from the WAV that
    ``source`` lays out, or copied from ``source`` itself, an array of
    the rendition's samples, and becomes the window's profile: the window
    holds that, the cached bases and blocks of fixed size.  An error other
    than a window flag is raised with the rendition, part and window named.
    """
    source, (a, b), config, (rendition_id, p_idx, w_idx) = task
    try:
        samples = source[a:b].copy() if isinstance(source, np.ndarray) else _decode_frames(source, a, b)
        res = _mfdfa_in_place(samples, config)
    except _WINDOW_FLAG_ERRORS as err:
        return WindowResult(w_idx, samples.size, flagged=True, flag_reason=str(err)), None
    except MfaudioError as err:
        raise err.add_context(f"rendition {rendition_id} part {p_idx} window {w_idx}")
    h2, r2 = res.hurst.at(2.0)
    result = WindowResult(
        w_idx, samples.size, res.width.width, res.width.alpha0,
        res.width.asymmetry, h2, r2,
        endpoint_width=spectrum_width(res.spectrum, "endpoints").width,
    )
    return result, res.hurst


def aggregate_generation(reports, song_id: str) -> list[GenerationAggregate]:
    """Group one song's reports by generation and average widths per part.

    Errored parts are excluded from the group mean; a part with no
    usable value in any rendition of the group aggregates to NaN.
    """
    chosen = [r for r in reports if r.record.song_id == song_id]
    if not chosen:
        return []
    part_counts = {len(r.parts) for r in chosen}
    if len(part_counts) != 1:
        raise SchemaError(
            f"mixed part counts {sorted(part_counts)} for song {song_id!r}"
        )
    n_parts = part_counts.pop()

    aggregates = []
    for gen in sorted({r.record.generation_index for r in chosen}):
        group = [r for r in chosen if r.record.generation_index == gen]
        per_part = []
        for p in range(n_parts):
            vals = [r.parts[p].mean_width for r in group if not r.parts[p].errored]
            per_part.append(float(np.mean(vals)) if vals else math.nan)
        aggregates.append(
            GenerationAggregate(
                song_id, gen, len(group), tuple(per_part), float(np.mean(per_part))
            )
        )
    return aggregates


def cross_generation_table(reports) -> list[GenerationAggregate]:
    """``aggregate_generation`` for the one song of ``reports``, which must
    hold at least one report and no second song."""
    reports = list(reports)
    if not reports:
        raise SchemaError("no reports to tabulate")
    songs = {r.record.song_id for r in reports}
    if len(songs) != 1:
        raise SchemaError(f"expected reports of one song, got {sorted(songs)}")
    return aggregate_generation(reports, songs.pop())

