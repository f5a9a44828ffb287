import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mfaudio
from mfaudio import (
    ConfigError,
    InsufficientAudioError,
    MfdfaConfig,
    PartResult,
    RenditionRecord,
    RenditionReport,
    SchemaError,
    Signal,
    WindowPlan,
    WindowResult,
    aggregate_generation,
    analyze_rendition,
    cross_generation_table,
    decode_wav,
    gen_cascade_noise,
    gen_fgn_prefix,
    partition_windows,
    write_wav,
)
from mfaudio import pipeline
from mfaudio.errors import NonFiniteDataError
from mfaudio.manifest import Manifest


def make_record(tmp_path, signal, name="take.wav", **kwargs):
    path = tmp_path / name
    write_wav(path, signal, "float32")
    defaults = dict(
        song_id="song-a",
        artist="artist-a",
        year=1950,
        generation_index=1,
        audio_path=path,
        plan=WindowPlan(
            clip_length=24.0, part_count=2, part_length=12.0, window_length=6.0
        ),
    )
    defaults.update(kwargs)
    return RenditionRecord(**defaults)


def synthetic_report(part_means, song_id="song-a", artist="a", year=1986, generation=1):
    """Report whose part mean widths equal ``part_means`` exactly."""
    parts = tuple(
        PartResult(
            i + 1,
            (WindowResult(1, 1000, w, 0.5, 0.0, 0.5, 0.99),),
        )
        for i, w in enumerate(part_means)
    )
    record = RenditionRecord(song_id, artist, year, generation, "missing.wav")
    return RenditionReport(record, parts)


def test_analyze_rendition_structure(tmp_path):
    sig = gen_cascade_noise(24 * 4000, 0.7, 1, 4000.0)
    record = make_record(tmp_path, sig)
    report = analyze_rendition(record)
    assert len(report.parts) == 2
    assert all(len(p.windows) == 2 for p in report.parts)
    assert not report.errored
    assert report.mean_hurst is not None

    for part in report.parts:
        widths = [w.width for w in part.windows if not w.flagged]
        assert part.mean_width == pytest.approx(np.mean(widths), abs=1e-12)
        assert len(part.windows) == part.flagged_count + len(widths)
        for w in part.windows:
            assert math.isfinite(w.width) and w.width > 0
            assert 0 <= w.r2_q2 <= 1


def test_analyze_rendition_accepts_in_memory_signal(tmp_path):
    sig = gen_cascade_noise(24 * 4000, 0.7, 2, 4000.0)
    record = make_record(tmp_path, sig)
    from_disk = analyze_rendition(record)
    in_memory = analyze_rendition(record, signal=sig)
    # float32 WAV quantization differs from the float64 in-memory samples,
    # so compare shape-level structure only
    assert len(from_disk.parts) == len(in_memory.parts)


def test_analyze_rendition_is_deterministic(tmp_path):
    sig = gen_cascade_noise(24 * 4000, 0.68, 3, 4000.0)
    record = make_record(tmp_path, sig)
    assert_same_report(analyze_rendition(record), analyze_rendition(record))


def assert_same_report(a, b):
    assert [p.part_index for p in a.parts] == [p.part_index for p in b.parts]
    for pa, pb in zip(a.parts, b.parts):
        assert len(pa.windows) == len(pb.windows)
        for wa, wb in zip(pa.windows, pb.windows):
            for f in fields(WindowResult):
                x, y = getattr(wa, f.name), getattr(wb, f.name)
                # flagged windows carry NaN diagnostics
                assert x == y or (x != x and y != y), f.name
    assert np.array_equal(a.mean_hurst.q_grid, b.mean_hurst.q_grid)
    assert np.array_equal(a.mean_hurst.h, b.mean_hurst.h)
    assert np.array_equal(a.mean_hurst.r_squared, b.mean_hurst.r_squared)


def test_pool_changes_no_bits(tmp_path):
    samples = gen_cascade_noise(24 * 4000, 0.7, 4, 4000.0).samples.copy()
    samples[12 * 4000 : 18 * 4000] = 0.0  # part 2, window 1
    record = make_record(tmp_path, Signal(samples, 4000.0))
    serial = analyze_rendition(record)
    assert [w.flagged for p in serial.parts for w in p.windows] == [False, False, True, False]
    manifest = Manifest((record,), None, tmp_path / "manifest.json")
    (pooled,), failures = pipeline.run_corpus(manifest, jobs=2)
    assert failures == []
    assert_same_report(serial, pooled)


def test_window_error_names_rendition_part_and_window(tmp_path, monkeypatch):
    sig = gen_cascade_noise(36 * 4000, 0.7, 5, 4000.0)
    record = make_record(
        tmp_path, sig,
        plan=WindowPlan(clip_length=36.0, part_count=2, part_length=18.0, window_length=6.0),
    )
    target = partition_windows(decode_wav(record.audio_path), record.plan)[1][2]
    real_mfdfa = pipeline.mfdfa

    def failing_mfdfa(window, config):
        if np.array_equal(window, target.samples):
            raise NonFiniteDataError("injected")
        return real_mfdfa(window, config)

    monkeypatch.setattr(pipeline, "mfdfa", failing_mfdfa)
    with pytest.raises(NonFiniteDataError) as err:
        analyze_rendition(record)
    assert str(err.value) == "rendition song-a-artist-a-1950 part 2 window 3: injected"


def test_digital_silence_flags_every_window(tmp_path):
    sig = Signal(np.zeros(24 * 4000), 4000.0)
    record = make_record(tmp_path, sig, name="silent.wav")
    report = analyze_rendition(record)
    assert report.errored
    for part in report.parts:
        assert part.errored
        assert all(w.flagged for w in part.windows)
        assert all("zero fluctuation" in w.flag_reason for w in part.windows)
        assert math.isnan(part.mean_width)


def test_short_audio_propagates_with_record_identified(tmp_path):
    sig = Signal(np.ones(5 * 4000) * 0.1, 4000.0)
    record = make_record(
        tmp_path, sig, name="short.wav",
        plan=WindowPlan(clip_length=6.0, part_count=1, part_length=6.0, window_length=6.0),
    )
    with pytest.raises(InsufficientAudioError) as err:
        analyze_rendition(record)
    assert "song-a-artist-a-1950" in str(err.value)
    assert err.value.required_seconds == 6.0


def test_file_and_decoded_signal_give_the_same_report(tmp_path):
    # a window decoded from the file and the same window cut from the
    # decoded samples are the same bytes
    record = make_record(tmp_path, gen_cascade_noise(24 * 4000, 0.7, 6, 4000.0))
    assert_same_report(analyze_rendition(record),
                       analyze_rendition(record, signal=decode_wav(record.audio_path)))


def test_rendition_memory_follows_the_chunk_not_the_file(tmp_path):
    # 180 s at 8 kHz decode to 11.5 MB of float64; only the 12 s clip is
    # analysed, and no more than a window of it is decoded at a time
    n = 180 * 8000
    record = make_record(
        tmp_path, gen_cascade_noise(n, 0.7, 7, 8000.0), name="long.wav",
        plan=WindowPlan(clip_length=12.0, part_count=2, part_length=6.0, window_length=6.0),
    )
    tracemalloc.start()
    try:
        report = analyze_rendition(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(p.windows) for p in report.parts] == [1, 1]
    assert peak < 0.5 * n * 8, f"{peak / 1e6:.1f} MB"


def test_chunk_holds_one_window_at_a_time(tmp_path):
    # each window task decodes its window when it runs, so a batch of four
    # window tasks adds less than one window's samples to the peak of one
    window = 24_000
    record = make_record(tmp_path, gen_cascade_noise(4 * window, 0.7, 8, 4000.0))
    tasks = pipeline._plan_rendition(record)
    assert [span for _, span, _, _ in tasks] == [(i * window, (i + 1) * window) for i in range(4)]
    pipeline._analyze_window(tasks[0])  # caches the bases
    peaks = []
    for batch in (tasks[:1], tasks):
        tracemalloc.start()
        try:
            outcomes = list(map(pipeline._analyze_window, batch))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(outcomes) == len(batch)
    assert peaks[1] - peaks[0] < 8 * window, f"{peaks[0]} -> {peaks[1]} bytes"


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="needs glibc's mallopt and Linux's minor-fault count")
def test_pinned_malloc_thresholds_stop_the_window_page_faults(tmp_path):
    # A fresh process, as mfaudio run is: no large array has yet raised
    # glibc's dynamic mmap threshold.  Left dynamic, each 6 s window at
    # 8 kHz faults about 570 pages in afresh after the first, which
    # builds the bases; with the thresholds pinned the heap keeps them.
    path = tmp_path / "take.wav"
    write_wav(path, gen_cascade_noise(120 * 8000, 0.7, 3, 8000.0), "float32")
    script = (
        "import resource, statistics, sys\n"
        "from mfaudio import RenditionRecord, WindowPlan, cli, pipeline\n"
        "plan = WindowPlan(clip_length=120.0, part_count=1, part_length=120.0, window_length=6.0)\n"
        "record = RenditionRecord('song', 'artist', 1950, 1, sys.argv[1], plan=plan)\n"
        "tasks = pipeline._plan_rendition(record)\n"
        "cli._pin_malloc_thresholds()\n"
        "faults = []\n"
        "for task in tasks:\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    pipeline._analyze_window(task)\n"
        "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "print(len(faults), statistics.median(faults[1:]))\n"
    )
    src = str(Path(mfaudio.__file__).resolve().parents[1])
    env_path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    tasks, faults = subprocess.run(
        [sys.executable, "-c", script, str(path)], env={**os.environ, "PYTHONPATH": env_path},
        capture_output=True, check=True, text=True,
    ).stdout.split()
    assert int(tasks) == 20
    assert float(faults) < 100


def test_stationary_fgn_has_homogeneous_parts():
    # 180 s of H = 0.7 fGn at 22050 Hz under the six-part default plan:
    # stationarity keeps the part mean widths within +-0.1 of each other
    sig = gen_fgn_prefix(0.7, 180 * 22050, 42, 22050.0)
    record = RenditionRecord(
        "fgn-check", "synthetic", 2000, 1, "unused.wav", plan=WindowPlan()
    )
    report = analyze_rendition(record, signal=sig)
    means = [p.mean_width for p in report.parts if not p.errored]
    assert len(means) == 6
    assert max(means) - min(means) <= 0.1


def test_record_validation():
    with pytest.raises(ConfigError):
        RenditionRecord("s", "a", 1850, 1, "x.wav")
    with pytest.raises(ConfigError):
        RenditionRecord("s", "a", 1950, 0, "x.wav")


# --- part means -------------------------------------------------------------

def test_report_round_trip_table_style_fixture():
    # a Table-2-shaped row: four parts with means (0.46, 0.30, 0.39, 0.20)
    report = synthetic_report([0.46, 0.30, 0.39, 0.20], artist="fixture-artist", year=1986)
    means = [p.mean_width for p in report.parts]
    assert means == [0.46, 0.30, 0.39, 0.20]


# --- aggregation ------------------------------------------------------------

def test_aggregate_single_report_is_identity():
    report = synthetic_report([0.4, 0.5, 0.6])
    aggs = aggregate_generation([report], "song-a")
    assert len(aggs) == 1
    assert aggs[0].part_mean_widths == (0.4, 0.5, 0.6)
    assert aggs[0].overall_mean_width == pytest.approx(0.5, abs=1e-15)
    assert aggs[0].rendition_count == 1


def test_aggregate_averages_within_generation():
    r1 = synthetic_report([0.4, 0.8], artist="a1", generation=1)
    r2 = synthetic_report([0.6, 1.0], artist="a2", generation=1)
    aggs = aggregate_generation([r1, r2], "song-a")
    assert len(aggs) == 1
    assert aggs[0].part_mean_widths == (0.5, 0.9)
    assert aggs[0].overall_mean_width == pytest.approx(0.7, abs=1e-15)


def test_aggregate_empty_reports():
    assert aggregate_generation([], "song-a") == []


def test_aggregate_rejects_mixed_part_counts():
    r1 = synthetic_report([0.4, 0.8], artist="a1")
    r2 = synthetic_report([0.6, 1.0, 0.2], artist="a2", year=1990)
    with pytest.raises(SchemaError):
        aggregate_generation([r1, r2], "song-a")


def test_aggregate_filters_by_song():
    r1 = synthetic_report([0.4], song_id="song-a")
    r2 = synthetic_report([0.9], song_id="song-b")
    aggs = aggregate_generation([r1, r2], "song-a")
    assert len(aggs) == 1
    assert aggs[0].part_mean_widths == (0.4,)


def test_cross_generation_table_shape_and_order():
    reports = [
        synthetic_report([0.1 * g, 0.2 * g, 0.3 * g, 0.4 * g],
                         artist=f"a{g}", year=1900 + g, generation=g)
        for g in (3, 1, 5, 2, 4)  # deliberately out of order
    ]
    table = cross_generation_table(reports)
    assert table == aggregate_generation(reports, "song-a")
    assert [agg.generation_index for agg in table] == [1, 2, 3, 4, 5]
    assert all(len(agg.part_mean_widths) == 4 for agg in table)
    assert np.allclose(table[0].part_mean_widths, [0.1, 0.2, 0.3, 0.4])
    assert np.allclose(table[4].part_mean_widths, [0.5, 1.0, 1.5, 2.0])


def test_cross_generation_table_single_rendition():
    report = synthetic_report([0.46, 0.30, 0.39, 0.20])
    [agg] = cross_generation_table([report])
    assert agg.part_mean_widths == (0.46, 0.30, 0.39, 0.20)


def test_cross_generation_table_rejects_mixed_songs():
    with pytest.raises(SchemaError, match="no reports"):
        cross_generation_table([])
    with pytest.raises(SchemaError, match="one song"):
        cross_generation_table(
            [synthetic_report([0.4], song_id="a"), synthetic_report([0.5], song_id="b")]
        )
