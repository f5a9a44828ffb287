"""Corpus study protocol: per-window MFDFA, per-part width averaging, and
per-generation aggregation.

A recording is decoded and split by its :class:`WindowPlan` into parts,
each part into windows; every window gets a full MFDFA pass in
``_analyze_window``, a pure function of the window and its config, so
the windows of one recording can be mapped across a worker pool.  The
results are reduced in window order after the map, which keeps every
mean bit-identical for any pool size.  Windows whose analysis
degenerates (digital silence, a non-concave spectrum) are flagged with
the reason and excluded from part means instead of poisoning them; a
part whose every window is flagged is reported as errored.  All means
are plain arithmetic means of their listed constituents.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor, wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import HurstCurve, MfdfaConfig, mfdfa
from .errors import (
    ConfigError,
    DegenerateSegmentError,
    InsufficientSpectrumError,
    MfaudioError,
    NonConcaveSpectrumError,
    SchemaError,
)
from .signal_io import Signal, WindowPlan, decode_wav, partition_windows

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
    """One recording of one song by one artist; the unit of batch work."""

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
    """Diagnostics of one analyzed window (indices are 1-based)."""

    window_index: int
    n_samples: int
    width: float
    alpha0: float
    asymmetry: float
    h2: float
    r2_q2: float
    flagged: bool = False
    flag_reason: str | None = None


@dataclass(frozen=True)
class PartResult:
    """All windows of one part plus their width statistics."""

    part_index: int
    windows: tuple[WindowResult, ...]

    @property
    def window_widths(self) -> list[float]:
        return [w.width for w in self.windows if not w.flagged]

    @property
    def flagged_count(self) -> int:
        return sum(1 for w in self.windows if w.flagged)

    @property
    def errored(self) -> bool:
        return len(self.windows) == 0 or all(w.flagged for w in self.windows)

    @property
    def mean_width(self) -> float:
        widths = self.window_widths
        return float(np.mean(widths)) if widths else math.nan

    @property
    def mean_alpha0(self) -> float:
        vals = [w.alpha0 for w in self.windows if not w.flagged]
        return float(np.mean(vals)) if vals else math.nan

    @property
    def mean_h2(self) -> float:
        vals = [w.h2 for w in self.windows if not w.flagged]
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

    @property
    def flagged_count(self) -> int:
        return sum(p.flagged_count for p in self.parts)


@dataclass(frozen=True)
class GenerationAggregate:
    """Average widths of one generation's renditions of one song."""

    song_id: str
    generation_index: int
    rendition_count: int
    part_mean_widths: tuple[float, ...]
    overall_mean_width: float


@dataclass(frozen=True)
class CrossGenerationTable:
    """Generation-by-part matrix of mean widths for one song."""

    song_id: str
    generation_indices: tuple[int, ...]
    mean_widths: np.ndarray  # shape (len(generation_indices), part_count)


def analyze_rendition(
    record: RenditionRecord, signal: Signal | None = None, pool: Executor | None = None
) -> RenditionReport:
    """Run MFDFA over every window of every part of one recording.

    ``signal`` skips the decode step when the audio is already in memory.
    With ``pool`` the decode and partition run on one of its workers and
    every window is submitted to it; without it everything runs in order
    on the calling thread.  The report does not depend on ``pool``:
    results are taken back in window order and the mean h(q) and r^2 are
    summed in that order.  Audio and plan errors propagate with the rendition
    identified, window errors with the rendition, part and window.
    """
    try:
        # on a pool worker: decoding on the calling thread raised the peak
        # RSS of `mfaudio run` by 5-6 MiB
        part_signals = (_decode_and_partition(record, signal) if pool is None
                        else pool.submit(_decode_and_partition, record, signal).result())
    except MfaudioError as err:
        raise err.add_context(f"rendition {record.rendition_id}")

    windows = [(window, w_idx) for part in part_signals
               for w_idx, window in enumerate(part, start=1)]
    if pool is None:
        analyzed = (_analyze_window(window, record.config, w_idx) for window, w_idx in windows)
    else:
        futures = [pool.submit(_analyze_window, window, record.config, w_idx)
                   for window, w_idx in windows]
        # one wake-up per rendition: waking this thread for every window
        # cost 3-5% of the analysis time at --jobs 1 on many small windows
        wait(futures)
        analyzed = (future.result() for future in futures)

    parts: list[PartResult] = []
    h_sum = r2_sum = None
    h_count = 0
    for p_idx, part in enumerate(part_signals, start=1):
        results: list[WindowResult] = []
        for w_idx in range(1, len(part) + 1):
            try:
                result, curve = next(analyzed)
            except MfaudioError as err:
                raise err.add_context(
                    f"rendition {record.rendition_id} part {p_idx} window {w_idx}"
                )
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


def _decode_and_partition(record: RenditionRecord, signal: Signal | None) -> list[list[Signal]]:
    """The record's windows by part, decoding its audio unless ``signal`` is given."""
    if signal is None:
        signal = decode_wav(record.audio_path)
    return partition_windows(signal, record.plan)


def _analyze_window(
    window: Signal, config: MfdfaConfig, window_index: int
) -> tuple[WindowResult, HurstCurve | None]:
    """One window's diagnostics and h(q) curve; a flagged window has no curve."""
    try:
        res = mfdfa(window, config)
    except _WINDOW_FLAG_ERRORS as err:
        flagged = WindowResult(
            window_index, len(window), math.nan, math.nan, math.nan,
            math.nan, math.nan, flagged=True, flag_reason=str(err),
        )
        return flagged, None
    h2, r2 = res.hurst.at(2.0)
    result = WindowResult(
        window_index, len(window), res.width.width, res.width.alpha0,
        res.width.asymmetry, h2, r2,
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


def cross_generation_table(reports) -> CrossGenerationTable:
    """Matrix of mean widths: rows are generations (ascending), columns parts."""
    reports = list(reports)
    if not reports:
        raise SchemaError("no reports to tabulate")
    songs = {r.record.song_id for r in reports}
    if len(songs) != 1:
        raise SchemaError(f"expected reports of one song, got {sorted(songs)}")
    song_id = songs.pop()
    aggregates = aggregate_generation(reports, song_id)
    matrix = np.array([a.part_mean_widths for a in aggregates], dtype=float)
    return CrossGenerationTable(
        song_id, tuple(a.generation_index for a in aggregates), matrix
    )

