"""One traced in-process pass over a corpus, with spans around each
public call, and the per-layer figures derived from its spans.

The pass does what `mfaudio run` does (validate, ``run_corpus`` at
--jobs 1 and 2, ``write_outputs``), then drives the same corpus call by
call: decode, partition, ``analyze_rendition`` on the preloaded signal,
``mfdfa()`` on every window, the five stage functions of ``mfdfa()`` on
every window, and ``q_order_means`` on segment fluctuations of a fixed
subset of windows.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import numpy as np

from mfaudio import (
    DegenerateSegmentError,
    InsufficientSpectrumError,
    NonConcaveSpectrumError,
    RenditionReport,
    aggregate_generation,
    analyze_rendition,
    compute_profile,
    cross_generation_table,
    decode_wav,
    fit_hurst,
    fluctuation_function,
    legendre_spectrum,
    mfdfa,
    partition_windows,
    q_order_means,
    segment_fluctuation,
    spectrum_width,
    validate_manifest,
)
from mfaudio.cli import run_corpus, write_outputs

from corpora import Workload
from spans import Tracer

# Window failures the pipeline turns into flags rather than errors.
FLAG_ERRORS = (DegenerateSegmentError, NonConcaveSpectrumError, InsufficientSpectrumError)
STAGES = ("profile", "fluctuation", "fit", "spectrum", "width")


def warm_up(workload: Workload, manifest_path: Path) -> None:
    """Untimed mfdfa() calls, so BLAS threads and the allocator are ready
    before the first timed call (at most one window per part is silent)."""
    record = validate_manifest(manifest_path, None, workload.cli_mfdfa()).records[0]
    for window in partition_windows(decode_wav(record.audio_path), record.plan)[0][:2]:
        try:
            mfdfa(window, record.config)
        except FLAG_ERRORS:
            pass


def traced_pass(tracer: Tracer, workload: Workload, manifest_path: Path, out_root: Path) -> dict:
    """Run one pass under a root span ``run``.

    Returns the in-process runs [(label, outcomes, out_dir)] and the
    computed counts of the windows whose fluctuation function completed.
    """
    counts = {"mfdfa.segments": 0, "mfdfa.detrend_samples": 0, "mfdfa.q_moment_terms": 0}
    runs = []
    with tracer.span("run"):
        with tracer.span("manifest.validate"):
            manifest = validate_manifest(manifest_path, None, workload.cli_mfdfa())
        # ABBA order, so a drift in machine speed cancels between the two
        for i, jobs in enumerate((1, 2, 2, 1)):
            with tracer.span("cli.run_corpus", jobs=jobs):
                outcomes, _ = run_corpus(manifest, jobs=jobs)
            reports = [o for o in outcomes if isinstance(o, RenditionReport)]
            out_dir = out_root / f"inprocess-{i}-jobs{jobs}"
            with tracer.span("cli.write", jobs=jobs):
                write_outputs(reports, out_dir)
            runs.append((out_dir.name, outcomes, out_dir))

        with tracer.span("pipeline.aggregate"):
            for song in dict.fromkeys(r.record.song_id for r in reports):
                song_reports = [r for r in reports if r.record.song_id == song]
                aggregate_generation(song_reports, song)
                cross_generation_table(song_reports)

        for r_idx, record in enumerate(manifest.records, start=1):
            where = {"rendition": r_idx}
            with tracer.span("signal_io.decode", **where):
                signal = decode_wav(record.audio_path)
            with tracer.span("signal_io.partition", **where):
                parts = partition_windows(signal, record.plan)
            windows = [
                ({"rendition": r_idx, "part": p, "window": w}, window)
                for p, part in enumerate(parts, start=1)
                for w, window in enumerate(part, start=1)
            ]
            # analyze_rendition between the two halves of the mfdfa() calls,
            # so a drift in machine speed cancels in pipeline.overhead_ms
            half = len(windows) // 2
            _time_windows(tracer, windows[:half], record.config)
            with tracer.span("pipeline.rendition", **where):
                analyze_rendition(record, signal)
            _time_windows(tracer, windows[half:], record.config)
            profiles = []
            for where, window in windows:
                surface, profile = _staged_window(tracer, window, record.config, where)
                if surface is None:
                    continue
                if len(profiles) < workload.qm_windows:
                    profiles.append((where, profile))
                n_seg = surface.segment_counts
                counts["mfdfa.segments"] += int(n_seg.sum())
                counts["mfdfa.detrend_samples"] += int((n_seg * surface.scale_grid).sum())
                counts["mfdfa.q_moment_terms"] += int(n_seg.sum()) * surface.q_grid.size
            for where, profile in profiles:
                _time_q_moments(tracer, profile, record.config, where)
    return {"runs": runs, "counts": counts}


def _time_windows(tracer: Tracer, windows, config) -> None:
    for where, window in windows:
        with tracer.span("mfdfa.window", **where):
            try:
                mfdfa(window, config)
            except FLAG_ERRORS:
                pass


def _staged_window(tracer: Tracer, window, config, where):
    """The stages of ``mfdfa()`` one by one; (surface, profile) or (None, None)."""
    try:
        with tracer.span("mfdfa.profile", **where):
            profile = compute_profile(window)
        with tracer.span("mfdfa.fluctuation", **where):
            surface = fluctuation_function(profile, config)
    except FLAG_ERRORS:
        return None, None
    try:
        fit_range = config.fit_indices(surface.scale_grid.size)
        with tracer.span("mfdfa.fit", **where):
            hurst = fit_hurst(surface, fit_range)
        with tracer.span("mfdfa.spectrum", **where):
            spectrum = legendre_spectrum(hurst)
        with tracer.span("mfdfa.width", **where):
            spectrum_width(spectrum, config.width_method)
    except FLAG_ERRORS:
        pass
    return surface, profile


def _time_q_moments(tracer: Tracer, profile, config, where) -> None:
    """Time q_order_means per scale on F^2 gathered by segment_fluctuation.

    F^2 are ordered as the fluctuation function orders them: forward
    segments v = 1..n, then backward segments v = 1..n.
    """
    for s in config.scales_for(profile.values.size):
        s = int(s)
        n_seg = profile.values.size // s
        directions = ("forward", "backward") if config.bidirectional else ("forward",)
        with tracer.span("mfdfa.segment_fluctuation", scale=s, **where):
            msq = np.array(
                [
                    segment_fluctuation(profile, s, v, config.detrend_order, d)
                    for d in directions
                    for v in range(1, n_seg + 1)
                ]
            )
        with tracer.span("mfdfa.q_moments", scale=s, **where):
            q_order_means(msq, config.q_grid, config.q_zero_epsilon)


def pass_figures(tracer: Tracer) -> dict[str, float]:
    """Per-layer timings of one traced pass (ms, s or ratio, as named)."""
    d = tracer.durations
    ms = 1e3
    window_s = d("mfdfa.window")
    n_windows = len(window_s)
    renditions = sorted({s["rendition"] for s in tracer.spans if s["name"] == "pipeline.rendition"})
    qm_windows = {
        (s["rendition"], s["part"], s["window"]) for s in tracer.spans if s["name"] == "mfdfa.q_moments"
    }
    jobs1 = statistics.mean(d("cli.run_corpus", jobs=1))
    jobs2 = statistics.mean(d("cli.run_corpus", jobs=2))
    figures = {
        "manifest.validate_ms": d("manifest.validate")[0] * ms,
        "signal_io.decode_ms": statistics.median(d("signal_io.decode")) * ms,
        "signal_io.partition_ms": statistics.median(d("signal_io.partition")) * ms,
        "mfdfa.window_ms.p50": statistics.median(window_s) * ms,
        "mfdfa.window_ms.p90": statistics.quantiles(window_s, n=10)[8] * ms,
        "mfdfa.q_moments_ms": sum(d("mfdfa.q_moments")) / len(qm_windows) * ms,
        "pipeline.rendition_s": statistics.median(d("pipeline.rendition")),
        "pipeline.overhead_ms": statistics.median(
            (d("pipeline.rendition", rendition=r)[0] - sum(d("mfdfa.window", rendition=r))) * ms
            for r in renditions
        ),
        "pipeline.aggregate_ms": d("pipeline.aggregate")[0] * ms,
        "cli.run_corpus_s.jobs1": jobs1,
        "cli.run_corpus_s.jobs2": jobs2,
        "cli.parallel_eff.jobs2": jobs1 / (2.0 * jobs2),
        "cli.write_ms": statistics.median(d("cli.write")) * ms,
    }
    for stage in STAGES:
        # per window, over every window (a flagged window stops early)
        figures[f"mfdfa.{stage}_ms"] = sum(d(f"mfdfa.{stage}")) / n_windows * ms
    figures["mfdfa.detrend_ms"] = figures["mfdfa.fluctuation_ms"] - figures["mfdfa.q_moments_ms"]
    staged = sum(sum(d(f"mfdfa.{stage}")) for stage in STAGES)
    # the traced decode-partition-stages path against untraced run_corpus
    figures["trace.overhead_s"] = (
        sum(d("signal_io.decode")) + sum(d("signal_io.partition")) + staged - jobs1
    )
    return figures
