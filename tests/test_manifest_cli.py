import argparse
import concurrent.futures
import csv
import ctypes
import json
import math
import multiprocessing
import os
import pickle
import re
import struct
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfaudio import (
    ManifestError,
    NonFiniteDataError,
    RenditionReport,
    Signal,
    WavFormatError,
    decode_wav,
    gen_cascade_noise,
    mfdfa,
    partition_windows,
    spectrum_width,
    validate_manifest,
    write_wav,
)
from mfaudio import analysis, cli, pipeline
from mfaudio.cli import main
from mfaudio.manifest import _SECTIONS, build_q_grid, parse_scale_rule


def write_corpus(tmp_path, n_entries=2, rate=4000.0, seconds=24.0, silent=()):
    """Tiny corpus: cascade-noise WAVs plus a manifest using a 2x12s plan."""
    entries = []
    for i in range(n_entries):
        rel = f"take{i}.wav"
        if i in silent:
            sig = Signal(np.zeros(int(seconds * rate)), rate)
        else:
            sig = gen_cascade_noise(int(seconds * rate), 0.7, 50 + i, rate)
        write_wav(tmp_path / rel, sig, "float32")
        entries.append(
            {
                "song_id": "song-x",
                "artist": f"artist-{i}",
                "year": 1950 + i,
                "generation": i + 1,
                "path": rel,
            }
        )
    doc = {
        "version": 1,
        "defaults": {
            "window_plan": {
                "clip_length": seconds,
                "part_count": 2,
                "part_length": seconds / 2,
                "window_length": 6.0,
            }
        },
        "entries": entries,
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path, doc


def rewrite(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


# --- manifest validation ------------------------------------------------------

def test_minimal_manifest_applies_defaults(tmp_path):
    path, _ = write_corpus(tmp_path, n_entries=1)
    manifest = validate_manifest(path)
    assert len(manifest.records) == 1
    record = manifest.records[0]
    assert record.plan.part_count == 2
    assert record.plan.window_length == 6.0
    assert record.config.detrend_order == 1
    assert record.config.width_method == "quadratic"
    assert np.allclose(record.config.q_grid, np.linspace(-5, 5, 41))


def test_duplicate_entries_name_both_positions(tmp_path):
    # outputs are named by slug, so the last two pairs of entries would
    # share spectrum_song-x-a-b-1950.csv and plot_a.csv
    for first, second in (
        (None, None),  # an exact copy
        ({"artist": "a b"}, {"artist": "a-b", "year": 1950}),
        ({"song_id": "A"}, {"song_id": "a"}),
    ):
        path, doc = write_corpus(tmp_path, n_entries=2)
        if first is None:
            doc["entries"][1] = dict(doc["entries"][0])
        else:
            doc["entries"][0].update(first)
            doc["entries"][1].update(second)
        rewrite(path, doc)
        with pytest.raises(ManifestError) as err:
            validate_manifest(path)
        message = str(err.value)
        assert "entries[1]" in message and "entries[0]" in message
        assert "duplicate" in message


def test_entry_override_is_local(tmp_path):
    path, doc = write_corpus(tmp_path, n_entries=2)
    doc["entries"][0]["mfdfa"] = {"q_min": -3.0, "q_max": 3.0}
    rewrite(path, doc)
    manifest = validate_manifest(path)
    assert np.allclose(manifest.records[0].config.q_grid, np.linspace(-3, 3, 25))
    assert np.allclose(manifest.records[1].config.q_grid, np.linspace(-5, 5, 41))


def test_missing_file_and_bad_year_collected_together(tmp_path):
    path, doc = write_corpus(tmp_path, n_entries=2)
    doc["entries"][0]["path"] = "nowhere.wav"
    doc["entries"][1]["year"] = 1776
    rewrite(path, doc)
    with pytest.raises(ManifestError) as err:
        validate_manifest(path)
    assert len(err.value.violations) == 2
    assert "missing file" in err.value.violations[0]
    assert "1776" in err.value.violations[1]


@pytest.mark.parametrize(
    "key, value",
    [
        ("song_id", ["a", "b"]),
        ("artist", {"name": "x"}),
        ("year", [1986]),
        ("year", "1986"),
        ("generation", {"g": 1}),
        ("generation", True),
        ("path", 7),
        ("output_dir", 5),
        ("generation", 0),
    ],
)
def test_mistyped_entry_field_exits_2(tmp_path, capsys, key, value):
    path, doc = write_corpus(tmp_path, n_entries=1)
    # output_dir is the one top-level field; its violation carries no entry label
    target, label = (doc, "") if key == "output_dir" else (doc["entries"][0], "entries[0]: ")
    target[key] = value
    rewrite(path, doc)
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "o"), "--dry-run"])
    assert code == 2
    assert f"manifest error: {label}{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value, flags",
    [
        ("mfdfa", "detrend_order", "1", []),
        ("mfdfa", "detrend_order", 1.7, []),
        ("mfdfa", "detrend_order", True, []),
        ("mfdfa", "fit_range", [1.9, 5.2], []),
        ("window_plan", "part_count", 2.9, []),
        ("window_plan", "part_count", True, []),
        ("window_plan", "window_length", "6", []),
        (None, "detrend_order", None, ["--detrend-order", "20"]),
        ("mfdfa", "q_grid", [[1.0], [1.0, 2.0]], []),
        ("mfdfa", "scales", [[16], [16, 32]], []),
        ("mfdfa", "scales", [16, 32, 64, 128, 1e300], []),
        ("mfdfa", "scales", [16, 32, 64, 128, 2**63], []),
        (None, "detrend_order", None, ["--detrend-order", "20000", "--scales", "20002:24000:4"]),
        ("mfdfa", "q_grid", [-2.0, -1.0, True, 2.0, 3.0], []),
        ("mfdfa", "q_grid", [-1.0, False, 2.0], []),
        pytest.param("mfdfa", "q_min", -(10**400), [], id="mfdfa-q_min--1e400"),
        pytest.param("mfdfa", "q_max", 10**400, [], id="mfdfa-q_max-1e400"),
        pytest.param("mfdfa", "q_step", 10**400, [], id="mfdfa-q_step-1e400"),
    ],
)
def test_mistyped_setting_exits_2(tmp_path, capsys, section, key, value, flags):
    # settings are not coerced: each of these used to run with a silently
    # converted value, or (--detrend-order 20) to fail every rendition;
    # a ragged grid is reported under the setting's name, and so is a grid
    # holding a boolean, which ran as q = 1 or 0.  A scale past
    # int64 wrapped in the cast and the run exited 3; order 20,000 passed,
    # and a run would have built 6.4 GB of detrending basis at one scale;
    # a 400-digit q bound overflowed the q range's float arithmetic (exit 3)
    path, doc = write_corpus(tmp_path, n_entries=1)
    if section is not None:
        doc["defaults"].setdefault(section, {})[key] = value
    rewrite(path, doc)
    code = main(["run", "--manifest", str(path), "--dry-run", *flags])
    assert code == 2
    assert f"manifest error: entries[0]: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
@pytest.mark.parametrize(
    "key, plan",
    [
        ("clip_length", {"clip_length": math.inf}),
        ("clip_start", {"clip_start": math.inf}),
        ("clip_length", {"clip_length": math.inf, "part_length": None}),
        ("part_count", {"part_count": 10**400}),
        ("part_count", {"part_count": 10**400, "part_length": None}),
        ("window_length", {"window_length": 1e-320}),
    ],
)
def test_an_infinite_setting_exits_2(tmp_path, capsys, key, plan, dry_run):
    # json reads Infinity: --dry-run said "manifest OK" and run exited 3
    # with an OverflowError, and a null part_length derived from an
    # infinite clip, or a part count past float64, exited 3 at --dry-run,
    # and so did a subnormal window, infinitely many to a part
    path, doc = write_corpus(tmp_path, n_entries=1)
    doc["defaults"]["window_plan"].update(plan)
    rewrite(path, doc)
    flags = ["--dry-run"] if dry_run else ["--out", str(tmp_path / "out")]
    assert main(["run", "--manifest", str(path), *flags]) == 2
    assert f"manifest error: entries[0]: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-(10**420), 10**420)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.text(max_size=6) | st.sampled_from(["16:64:4", "4:1024:20", "0:8:2", "16:16:3", "a:b:c"])
)
_JSON_LISTS = st.lists(_JSON_LEAVES, max_size=4)
_JSON_OBJECTS = st.dictionaries(st.sampled_from("akq"), _JSON_LEAVES | _JSON_LISTS)
_JSON_VALUES = _JSON_LEAVES | _JSON_LISTS | _JSON_OBJECTS | st.lists(_JSON_LISTS | _JSON_OBJECTS, max_size=3)
# every key of window_plan and mfdfa, the q triple included, in the
# manifest's defaults and in its entry
_SETTING_PLACES = [(where, section, key) for where in ("defaults", "entry")
                   for section, keys in _SECTIONS.items() for key in sorted(keys)]


@pytest.fixture(scope="module")
def one_entry_corpus(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("fuzz"), n_entries=1)


@settings(max_examples=300, deadline=None)
@given(placed=st.dictionaries(st.sampled_from(_SETTING_PLACES), _JSON_VALUES, max_size=6))
@example(placed={("defaults", "window_plan", "window_length"): 1e-320})
@example(placed={("entry", "mfdfa", "q_max"): 10**400})
def test_any_json_setting_validates_or_is_a_manifest_error(one_entry_corpus, placed):
    # validation catches only the package's own errors, so any other
    # exception a setting provokes would reach the CLI as an exit 3
    path, doc = one_entry_corpus
    doc = json.loads(json.dumps(doc))
    for (where, section, key), value in placed.items():
        target = doc["defaults"] if where == "defaults" else doc["entries"][0]
        target.setdefault(section, {})[key] = value
    try:
        validate_manifest(rewrite(path, doc))
    except ManifestError:
        pass


@pytest.mark.parametrize(
    "where, flags",
    [("defaults", ["--q-step", "0.5"]), ("entry", [])],
)
def test_q_grid_and_q_range_exclude_each_other(tmp_path, capsys, where, flags):
    # a q_grid used to win silently over any q_min/q_max/q_step
    path, doc = write_corpus(tmp_path, n_entries=1)
    doc["defaults"]["mfdfa"] = {"q_grid": [-4.0, -2.0, 0.0, 2.0, 4.0]}
    if where == "entry":
        doc["entries"][0]["mfdfa"] = {"q_min": -3.0}
    rewrite(path, doc)
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(path), "--out", str(out), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert "manifest error: entries[0]: q_grid excludes" in err
    assert ("q_step" if flags else "q_min") in err
    assert not out.exists()


def test_unreadable_manifest_exits_2(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_bytes(b'{"version": 1, "output_dir": "\xff"}')  # not UTF-8
    code = main(["run", "--manifest", str(path), "--dry-run"])
    assert code == 2
    assert "cannot read manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--q-min", "0"], ["--q-min", "1"], ["--q-min", "-1", "--q-max", "2", "--q-step", "3"]],
)
def test_q_grid_without_a_spectrum_exits_2(tmp_path, capsys, flags):
    path, _ = write_corpus(tmp_path, n_entries=1)
    code = main(["run", "--manifest", str(path), "--dry-run", *flags])
    assert code == 2
    assert "manifest error: entries[0]: spectrum needs" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("q_step", 1e-13), ("q_step", 5e-324), ("scales", "16:1000:100000000000000"),
])
@pytest.mark.parametrize("where", ["flag", "manifest"])
def test_oversized_grid_exits_2_before_it_is_built(tmp_path, capsys, key, value, where):
    # these asked numpy for 728 TiB, or divided the q range to infinity,
    # and exited 3 with an internal error
    path, doc = write_corpus(tmp_path, n_entries=1)
    flags = []
    if where == "flag":
        flags = ["--" + key.replace("_", "-"), str(value)]
    else:
        doc["defaults"]["mfdfa"] = {key: value}
        rewrite(path, doc)
    assert main(["run", "--manifest", str(path), "--dry-run", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("manifest error: entries[0]: ") and err.count("\n") == 1
    assert "over 10000" in err


def test_mixed_part_counts_exit_2_before_analysis(tmp_path, capsys):
    # generation means are taken part by part, so this is decided before
    # any rendition is analysed or any output written
    path, doc = write_corpus(tmp_path, n_entries=2)
    doc["entries"][1]["window_plan"] = {"part_count": 4, "part_length": 6.0}
    rewrite(path, doc)
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(path), "--out", str(out)])
    assert code == 2
    assert (
        "manifest error: song 'song-x': mixed part counts (2 in entries[0], 4 in entries[1])"
        in capsys.readouterr().err
    )
    assert not out.exists()


def test_parse_error_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "version": 1,\n  "entries": [},\n}', encoding="utf-8")
    with pytest.raises(ManifestError) as err:
        validate_manifest(path)
    assert "line 3" in str(err.value)


def test_unsupported_version_rejected(tmp_path):
    path, doc = write_corpus(tmp_path, n_entries=1)
    doc["version"] = 99
    rewrite(path, doc)
    with pytest.raises(ManifestError) as err:
        validate_manifest(path)
    assert "version" in str(err.value)


def test_cli_overrides_sit_between_defaults_and_entries(tmp_path):
    path, doc = write_corpus(tmp_path, n_entries=2)
    doc["entries"][1]["mfdfa"] = {"detrend_order": 3}
    rewrite(path, doc)
    manifest = validate_manifest(path, cli_mfdfa={"detrend_order": 2})
    assert manifest.records[0].config.detrend_order == 2  # CLI beats defaults
    assert manifest.records[1].config.detrend_order == 3  # entry beats CLI


def test_manifest_accepts_explicit_grids(tmp_path):
    path, doc = write_corpus(tmp_path, n_entries=1)
    doc["defaults"]["mfdfa"] = {
        "q_grid": [-2.0, 0.0, 2.0],
        "scales": [16, 32, 64, 128, 256],
        "fit_range": [1, 5],
    }
    rewrite(path, doc)
    record = validate_manifest(path).records[0]
    assert np.allclose(record.config.q_grid, [-2.0, 0.0, 2.0])
    assert list(record.config.scales) == [16, 32, 64, 128, 256]
    assert record.config.fit_range == (1, 5)


def test_manifest_rejects_unknown_settings(tmp_path):
    path, doc = write_corpus(tmp_path, n_entries=1)
    doc["entries"][0]["mfdfa"] = {"q_minimum": -3}
    rewrite(path, doc)
    with pytest.raises(ManifestError) as err:
        validate_manifest(path)
    assert "q_minimum" in str(err.value)


@pytest.mark.parametrize("where, key, value, violation", [
    (("defaults",), "mfdfa", [["q_min", -3.0]], "'defaults.mfdfa' must be an object"),
    (("defaults",), "window_plan", "ab", "'defaults.window_plan' must be an object"),
    (("defaults",), "window-plan", {}, "defaults: unknown key(s): window-plan"),
    (("defaults",), "mfdfa", {"q_minimum": -3}, "defaults.mfdfa: unknown key(s): q_minimum"),
    ((), "outptu_dir", "out", "manifest: unknown key(s): outptu_dir"),
    (("entries", 0), "mfdfa", [["q_min", -3.0]], "'entries[0].mfdfa' must be an object"),
    (("defaults",), "mfdfa", {"bidirectional": True}, "defaults.mfdfa: unknown key(s): bidirectional"),
    (("defaults",), "mfdfa", {"width_method": "quadratic"},
     "defaults.mfdfa: unknown key(s): width_method"),
], ids=["pairs", "string", "unknown-section", "unknown-setting", "unknown-top-key", "entry-pairs",
        "retired-setting", "retired-width-method"])
def test_a_section_that_is_not_an_object_or_an_unknown_key_exits_2(
        tmp_path, capsys, where, key, value, violation):
    # these were coerced, ignored, or reported once per entry
    path, doc = write_corpus(tmp_path, n_entries=2)
    section = doc
    for step in where:
        section = section[step]
    section[key] = value
    rewrite(path, doc)
    assert main(["run", "--manifest", str(path), "--dry-run"]) == 2
    assert capsys.readouterr().err == f"manifest error: {violation}\n"


def test_grid_helpers():
    assert np.allclose(build_q_grid(-5, 5, 0.25), np.linspace(-5, 5, 41))
    scales = parse_scale_rule("16:1024:7")
    assert scales[0] == 16 and scales[-1] == 1024
    assert np.all(np.diff(scales) > 0)
    from mfaudio import ConfigError

    with pytest.raises(ConfigError):
        parse_scale_rule("16:1024")
    with pytest.raises(ConfigError):
        build_q_grid(-5, 5, 0.3)  # step does not divide the range
    with pytest.raises(ConfigError):
        build_q_grid(-5, 5, math.inf)  # made the grid [nan]


# --- CLI ------------------------------------------------------------------------

def test_dry_run_validates_without_writing(tmp_path, capsys):
    path, _ = write_corpus(tmp_path, n_entries=1)
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(path), "--out", str(out), "--dry-run"])
    assert code == 0
    assert not out.exists()
    assert "manifest OK" in capsys.readouterr().out


def test_invalid_manifest_exits_2(tmp_path, capsys):
    path, doc = write_corpus(tmp_path, n_entries=1)
    doc["entries"][0]["path"] = "gone.wav"
    rewrite(path, doc)
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "missing file" in capsys.readouterr().err


def test_run_emits_all_tables(tmp_path, capsys):
    path, _ = write_corpus(tmp_path, n_entries=2)
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(path), "--out", str(out)])
    assert code == 0

    widths = read_csv(out / "widths.csv")
    assert widths[0] == [
        "song_id", "artist", "year", "generation", "part",
        "mean_width", "mean_alpha0", "mean_h2", "window_count", "flagged_count",
    ]
    assert len(widths) == 1 + 2 * 2  # 2 renditions x 2 parts

    windows = read_csv(out / "windows.csv")
    assert len(windows) == 1 + 2 * 2 * 2  # 2 renditions x 2 parts x 2 windows

    generations = read_csv(out / "generations.csv")
    assert len(generations) == 1 + 2 * 2  # 2 generations x 2 parts

    spectra = sorted(out.glob("spectrum_*.csv"))
    assert len(spectra) == 2
    spec_rows = read_csv(spectra[0])
    assert spec_rows[0] == ["q", "h", "tau", "alpha", "f_alpha"]
    assert len(spec_rows) == 1 + 41


def test_run_is_deterministic_across_jobs(tmp_path):
    path, _ = write_corpus(tmp_path, n_entries=2)
    outs = []
    for name, jobs in (("o1", 1), ("o2", 1), ("o3", 4)):
        out = tmp_path / name
        assert main(["run", "--manifest", str(path), "--out", str(out), "--jobs", str(jobs)]) == 0
        outs.append(out)
    files = sorted(p.name for p in outs[0].iterdir())
    for other in outs[1:]:
        assert sorted(p.name for p in other.iterdir()) == files
        for name in files:
            assert (outs[0] / name).read_bytes() == (other / name).read_bytes()


def test_dry_run_checks_jobs(tmp_path, capsys):
    path, _ = write_corpus(tmp_path, n_entries=1)
    code = main(["run", "--manifest", str(path), "--jobs", "0", "--dry-run"])
    assert code == 2
    assert "run error: jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_nonpositive_jobs_exits_2(tmp_path, capsys, jobs):
    # these used to run serially without a word
    path, _ = write_corpus(tmp_path, n_entries=1)
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(path), "--out", str(out), "--jobs", jobs])
    assert code == 2
    assert "run error: jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_jobs_is_capped_at_the_cpu_count(tmp_path, monkeypatch):
    requested = []

    def recording_pool(max_workers, mp_context):
        requested.append((max_workers, mp_context.get_start_method()))
        return ProcessPoolExecutor(max_workers=1, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    path, _ = write_corpus(tmp_path, n_entries=1)
    for jobs in (1, 100000):
        code = main(["run", "--manifest", str(path), "--out", str(tmp_path / f"out{jobs}"),
                     "--jobs", str(jobs)])
        assert code == 0
    cpus = pipeline._usable_cpus()
    # --jobs 1 runs in this process and builds no pool
    assert requested == ([(cpus, "fork")] if cpus > 1 else [])


def test_jobs_is_capped_at_the_cpus_this_process_may_use(tmp_path, monkeypatch):
    # a cpuset or taskset of one CPU leaves one worker, whatever the machine has
    requested = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: requested.append(kw))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    path, _ = write_corpus(tmp_path, n_entries=1)
    assert main(["run", "--manifest", str(path), "--out", str(tmp_path / "out"),
                 "--jobs", "2"]) == 0
    assert requested == []


def test_a_serial_run_imports_no_pool(tmp_path):
    # multiprocessing and the process pool cost a --jobs 1 run about 1.9 MiB
    # of peak RSS; run_corpus imports them only for a pool
    path, _ = write_corpus(tmp_path, n_entries=1)
    script = (
        "import sys\n"
        "from mfaudio.cli import main\n"
        f"code = main(['run', '--manifest', {str(path)!r}, '--out', {str(tmp_path / 'out')!r},"
        " '--jobs', '1'])\n"
        "print(code, *(name in sys.modules\n"
        "              for name in ('multiprocessing', 'concurrent.futures.process')))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env_path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": env_path},
        capture_output=True, check=True, text=True,
    ).stdout.splitlines()[-1].split()
    assert out == ["0", "False", "False"]
    assert (tmp_path / "out" / "windows.csv").exists()


def test_a_star_import_binds_no_module():
    namespace = {}
    exec("from mfaudio import *", namespace)
    modules = [name for name, value in namespace.items() if type(value) is type(sys)]
    assert modules == []
    assert namespace["mfdfa"] is analysis.mfdfa


def recording_pin(monkeypatch):
    """Calls to ``cli._pin_malloc_thresholds`` and ``run_corpus``, in order;
    both still run."""
    calls = []
    real_pin, real_run_corpus = cli._pin_malloc_thresholds, cli.run_corpus

    def pin():
        calls.append("pin")
        real_pin()

    def run_corpus(*args, **kwargs):
        calls.append("run_corpus")
        return real_run_corpus(*args, **kwargs)

    monkeypatch.setattr(cli, "_pin_malloc_thresholds", pin)
    monkeypatch.setattr(cli, "run_corpus", run_corpus)
    return calls


def test_run_pins_the_malloc_thresholds_once_before_the_corpus(tmp_path, monkeypatch):
    # before run_corpus, so that a forked worker inherits the thresholds
    calls = recording_pin(monkeypatch)
    path, _ = write_corpus(tmp_path, n_entries=1)
    assert main(["run", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 0
    assert calls == ["pin", "run_corpus"]


def test_only_the_run_command_touches_the_allocator(tmp_path, monkeypatch):
    # a dry run, synth and library callers leave the allocator as they found it
    calls = recording_pin(monkeypatch)
    libc = []
    real_cdll = ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: libc.append(args) or real_cdll(*args, **kwargs))
    path, _ = write_corpus(tmp_path, n_entries=1)
    assert main(["run", "--manifest", str(path), "--dry-run"]) == 0
    assert main(["synth", "--out", str(tmp_path / "corpus"), "--duration", "12",
                 "--rate", "4000", "--parts", "1", "--generations", "1"]) == 0
    manifest = validate_manifest(path)
    outcomes, failures = pipeline.run_corpus(manifest)
    assert failures == []
    pipeline.analyze_rendition(manifest.records[0])
    assert calls == [] and libc == []


def refusing_libc():
    """A libc whose ``mallopt`` refuses every setting: it returns 0."""
    settings = []
    return SimpleNamespace(settings=settings,
                           mallopt=lambda param, value: settings.append((param, value)) or 0)


@pytest.mark.parametrize("libc", [SimpleNamespace, refusing_libc])
def test_run_without_a_working_mallopt_writes_the_same_bytes(tmp_path, monkeypatch, libc):
    # SimpleNamespace() is a libc without mallopt
    path, _ = write_corpus(tmp_path, n_entries=1)
    reference = tmp_path / "reference"
    assert main(["run", "--manifest", str(path), "--out", str(reference)]) == 0
    loaded = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: loaded.append(libc()) or loaded[-1])
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == 0
    assert len(loaded) == 1
    if libc is refusing_libc:
        assert loaded[0].settings == [(cli._M_MMAP_THRESHOLD, 32 * 2**20)]  # no trim setting after it
    names = sorted(p.name for p in reference.iterdir())
    assert names == sorted(p.name for p in out.iterdir())
    for name in names:
        assert (reference / name).read_bytes() == (out / name).read_bytes()


needs_two_cpus = pytest.mark.skipif(pipeline._usable_cpus() < 2, reason="needs two workers")


@needs_two_cpus
def test_windows_of_one_rendition_run_at_once(tmp_path, monkeypatch):
    # the first window of each worker process waits for the other's: a pool
    # that runs one rendition's windows in turn breaks the barrier after its
    # timeout.  72 s at 4 kHz in one part is 12 windows of 24,000 samples,
    # more than one chunk.
    assert 72 * 4000 > pipeline._CHUNK_SAMPLES
    barrier = multiprocessing.get_context("fork").Barrier(2, timeout=10)
    waited = []  # each forked worker has its own copy
    real_mfdfa = pipeline._mfdfa_in_place

    def meeting_mfdfa(window, config):
        if not waited:
            waited.append(True)
            barrier.wait()
        return real_mfdfa(window, config)

    monkeypatch.setattr(pipeline, "_mfdfa_in_place", meeting_mfdfa)
    path, _ = write_corpus(tmp_path, n_entries=1, seconds=72.0)
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(path), "--out", str(out), "--parts", "1",
                 "--jobs", "2"])
    assert code == 0
    assert waited == []  # no window ran in this process
    rows = read_csv(out / "windows.csv")[1:]
    assert [(row[4], row[5]) for row in rows] == [("1", str(w)) for w in range(1, 13)]
    assert all(row[12] == "false" for row in rows)


@needs_two_cpus
def test_pool_tasks_carry_spans_not_samples(tmp_path, monkeypatch):
    # 60 s at 22.05 kHz is 10.6 MB of float64 in 10 windows of 132,300
    # samples, each longer than _CHUNK_SAMPLES and so sent alone; a task
    # pickles to its window's frame span and label, the WAV layout and the
    # config
    sizes = []

    class MeasuringPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            sizes.append(len(pickle.dumps((fn, args, kwargs))))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", MeasuringPool)
    path, _ = write_corpus(tmp_path, n_entries=1, rate=22050.0, seconds=60.0)
    outs = [tmp_path / f"out{jobs}" for jobs in (1, 2)]
    for jobs, out in zip((1, 2), outs):
        assert main(["run", "--manifest", str(path), "--out", str(out), "--jobs", str(jobs)]) == 0
    assert len(sizes) == 10
    assert max(sizes) < 64 * 1024, sizes
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@needs_two_cpus
def test_window_error_from_a_worker_names_its_window(tmp_path, capsys, monkeypatch):
    # 3 parts of 4 windows; the second chunk starts at window 3 of part 2
    path, _ = write_corpus(tmp_path, n_entries=1, seconds=72.0)
    record = validate_manifest(path, {"part_count": 3, "part_length": None}).records[0]
    target = partition_windows(decode_wav(record.audio_path), record.plan)[1][3]
    real_mfdfa = pipeline._mfdfa_in_place

    def failing_mfdfa(window, config):
        if np.array_equal(window, target.samples):
            raise NonFiniteDataError("injected")
        return real_mfdfa(window, config)

    monkeypatch.setattr(pipeline, "_mfdfa_in_place", failing_mfdfa)
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "out"),
                 "--parts", "3", "--jobs", "2"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: rendition song-x-artist-0-1950 part 2 window 4: injected\n"
    )


@needs_two_cpus
def test_window_error_in_a_worker_leaves_the_other_renditions_whole(tmp_path, capsys, monkeypatch):
    # one window per pool task: the error in the first rendition's first
    # window cancels that rendition's unstarted windows and no others
    path, _ = write_corpus(tmp_path, n_entries=2)
    clean = tmp_path / "clean"
    assert main(["run", "--manifest", str(path), "--out", str(clean), "--jobs", "1"]) == 0
    capsys.readouterr()
    record = validate_manifest(path).records[0]
    target = partition_windows(decode_wav(record.audio_path), record.plan)[0][0]
    real_mfdfa = pipeline._mfdfa_in_place

    def failing_mfdfa(window, config):
        if np.array_equal(window, target.samples):
            raise NonFiniteDataError("injected")
        return real_mfdfa(window, config)

    monkeypatch.setattr(pipeline, "_CHUNK_SAMPLES", 1)
    monkeypatch.setattr(pipeline, "_mfdfa_in_place", failing_mfdfa)
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(path), "--out", str(out), "--jobs", "2"]) == 1
    assert capsys.readouterr().err == (
        "error: rendition song-x-artist-0-1950 part 1 window 1: injected\n"
    )
    for name in ("widths.csv", "windows.csv"):
        rows = read_csv(out / name)
        assert rows[1:] == [row for row in read_csv(clean / name)[1:] if row[1] == "artist-1"]
    spectra = sorted(p.name for p in out.glob("spectrum_*.csv"))
    assert spectra == ["spectrum_song-x-artist-1-1951.csv"]
    assert (out / spectra[0]).read_bytes() == (clean / spectra[0]).read_bytes()


@needs_two_cpus
def test_each_worker_builds_the_bases_it_uses(tmp_path):
    # at --jobs 2 the main process builds no detrending basis ahead of the
    # fork: each worker builds its own on first use, and the outputs are
    # those of --jobs 1, where the main process builds them
    path, _ = write_corpus(tmp_path, n_entries=2)
    manifest = validate_manifest(path)
    for jobs in (2, 1):
        analysis._detrend_basis.cache_clear()
        outcomes, failures = pipeline.run_corpus(manifest, jobs=jobs)
        assert failures == []
        assert (analysis._detrend_basis.cache_info().misses > 0) == (jobs == 1)
        cli.write_outputs(outcomes, tmp_path / f"jobs{jobs}")
    files = sorted(p.name for p in (tmp_path / "jobs1").iterdir())
    assert sorted(p.name for p in (tmp_path / "jobs2").iterdir()) == files
    for name in files:
        assert (tmp_path / "jobs2" / name).read_bytes() == (tmp_path / "jobs1" / name).read_bytes()


def test_serial_run_builds_no_more_bases_than_window_order_needs(tmp_path):
    # five sample rates give five window lengths, more bases than the cache
    # holds; at --jobs 1 no basis may be built ahead of its window, where it
    # would be evicted before use and built again
    path, _ = write_corpus(tmp_path, n_entries=5)
    for i, rate in enumerate((4000.0, 4410.0, 4800.0, 5512.0, 6000.0)):
        write_wav(tmp_path / f"take{i}.wav", gen_cascade_noise(int(24 * rate), 0.7, 60 + i, rate),
                  "float32")
    manifest = validate_manifest(path)
    analysis._detrend_basis.cache_clear()
    for record in manifest.records:
        for part in partition_windows(decode_wav(record.audio_path), record.plan):
            for window in part:
                analysis.mfdfa(window, record.config)
    in_window_order = analysis._detrend_basis.cache_info().misses
    assert in_window_order > analysis._BASIS_CACHE_SIZE

    analysis._detrend_basis.cache_clear()
    outcomes, failures = pipeline.run_corpus(manifest, jobs=1)
    assert failures == []
    assert analysis._detrend_basis.cache_info().misses == in_window_order


@needs_two_cpus
def test_one_stream_keeps_every_outcome_at_any_jobs(tmp_path, capsys):
    # entry 2's truncated header fails while its record is planned; entries
    # 1 (4 kHz) and 3 (8 kHz) have windows of two lengths and still run, and
    # entry 1's silenced part 2 window 1 is flagged
    path, _ = write_corpus(tmp_path, n_entries=3)
    samples = gen_cascade_noise(24 * 4000, 0.7, 50, 4000.0).samples.copy()
    samples[12 * 4000 : 18 * 4000] = 0.0
    write_wav(tmp_path / "take0.wav", Signal(samples, 4000.0), "float32")
    broken = tmp_path / "take1.wav"
    broken.write_bytes(broken.read_bytes()[:20])
    write_wav(tmp_path / "take2.wav", gen_cascade_noise(24 * 8000, 0.7, 52, 8000.0), "float32")
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        code = main(["run", "--manifest", str(path), "--out", str(out), "--jobs", jobs])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((code, capsys.readouterr().err, files))
    assert runs[0] == runs[1]
    code, err, _ = runs[0]
    assert code == 1
    assert err == f"error: rendition song-x-artist-1-1951: {broken}: truncated 'fmt ' chunk\n"
    rows = read_csv(tmp_path / "out1" / "widths.csv")[1:]
    assert [(row[1], row[4]) for row in rows] == [
        ("artist-0", "1"), ("artist-0", "2"), ("artist-2", "1"), ("artist-2", "2"),
    ]
    rows = read_csv(tmp_path / "out1" / "windows.csv")[1:]
    assert [row[12] for row in rows] == ["false", "false", "true", "false"] + ["false"] * 4
    assert "zero fluctuation" in rows[2][13]


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_unreadable_wav_fails_its_rendition_only(tmp_path, jobs):
    # a WAV that becomes a directory after validation cannot be opened even
    # by a user who may read any file, as one without read permission
    # cannot by any other user
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--generations", "3", "--duration", "4",
                 "--rate", "4000", "--parts", "2", "--window-seconds", "1"]) == 0
    manifest = validate_manifest(corpus / "manifest.json")
    wav = corpus / "audio" / "gen02.wav"
    wav.unlink()
    wav.mkdir()
    outcomes, failures = pipeline.run_corpus(manifest, jobs=jobs)
    first, second, third = outcomes
    assert isinstance(first, RenditionReport) and isinstance(third, RenditionReport)
    assert isinstance(second, WavFormatError) and failures == [second]
    rendition_id = manifest.records[1].rendition_id
    assert str(second).startswith(f"rendition {rendition_id}: {wav}: cannot read: ")


@pytest.mark.parametrize("damage, reason", [
    ("deleted", "cannot read: No such file or directory"),
    ("truncated", "file ends before frame 4000"),
], ids=["deleted", "truncated"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_wav_damaged_after_planning_fails_its_rendition_only(
        tmp_path, capsys, monkeypatch, jobs, damage, reason):
    # each window opens its WAV again when it is decoded, in a worker at
    # --jobs 2, so the file can be gone or cut short by then
    corpus, out = tmp_path / "c", tmp_path / "out"
    assert main(["synth", "--out", str(corpus), "--generations", "3", "--duration", "4",
                 "--rate", "4000", "--parts", "2", "--window-seconds", "1"]) == 0
    ids = [r.rendition_id for r in validate_manifest(corpus / "manifest.json").records]
    wav = corpus / "audio" / "gen02.wav"
    plan = pipeline._plan_rendition

    def plan_then_damage(record, signal=None):
        tasks = plan(record, signal)
        if record.audio_path == wav:
            if damage == "deleted":
                wav.unlink()
            else:
                os.truncate(wav, 1000)  # inside the first window's samples
        return tasks

    monkeypatch.setattr(pipeline, "_plan_rendition", plan_then_damage)
    capsys.readouterr()
    code = main(["run", "--manifest", str(corpus / "manifest.json"), "--out", str(out),
                 "--jobs", str(jobs)])
    assert code == 1
    assert capsys.readouterr().err == f"error: rendition {ids[1]} part 1 window 1: {wav}: {reason}\n"
    assert sorted(p.name for p in out.iterdir() if p.name.startswith("spectrum_")) == [
        f"spectrum_{ids[0]}.csv", f"spectrum_{ids[2]}.csv"]
    with open(out / "windows.csv", newline="", encoding="utf-8") as handle:
        assert {row["generation"] for row in csv.DictReader(handle)} == {"1", "3"}


@needs_two_cpus
def test_internal_error_cancels_the_queued_chunks(tmp_path, capsys, monkeypatch):
    # 5 entries of 4 windows at one window per chunk queue 20 chunks at once.
    # After the first error only the chunks already running or in the
    # pool's call queue (2 + 3, and a race) may start; the rest are
    # cancelled, not waited for.
    started = tmp_path / "started.txt"

    def slow_broken_mfdfa(window, config):
        with open(started, "a", encoding="utf-8") as handle:
            handle.write("started\n")
        time.sleep(0.2)
        raise RuntimeError("boom")

    monkeypatch.setattr(pipeline, "_CHUNK_SAMPLES", 1)
    monkeypatch.setattr(pipeline, "_mfdfa_in_place", slow_broken_mfdfa)
    path, _ = write_corpus(tmp_path, n_entries=5)
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert code == 3
    assert capsys.readouterr().err == "run internal error: RuntimeError: boom\n"
    assert len(started.read_text(encoding="utf-8").splitlines()) <= 8


@needs_two_cpus
def test_dead_worker_exits_3_with_one_line(tmp_path, capfd, monkeypatch):
    def dying_mfdfa(window, config):
        os._exit(1)

    monkeypatch.setattr(pipeline, "_mfdfa_in_place", dying_mfdfa)
    path, _ = write_corpus(tmp_path, n_entries=2)
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert code == 3
    err = capfd.readouterr().err
    assert err.startswith("run internal error: BrokenProcessPool: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_unexpected_exception_exits_3_with_one_line(tmp_path, capsys, monkeypatch, jobs):
    def broken_mfdfa(window, config):
        raise RuntimeError("boom")

    monkeypatch.setattr(pipeline, "_mfdfa_in_place", broken_mfdfa)
    path, _ = write_corpus(tmp_path, n_entries=2)
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert code == 3
    assert capsys.readouterr().err == "run internal error: RuntimeError: boom\n"


def test_plot_data_matches_cross_generation_table(tmp_path):
    from mfaudio import cross_generation_table
    from mfaudio.cli import run_corpus
    from mfaudio.manifest import validate_manifest as vm

    path, _ = write_corpus(tmp_path, n_entries=2)
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == 0

    outcomes, _ = run_corpus(vm(path))
    table = cross_generation_table(outcomes)
    rows = read_csv(out / "plot_song-x.csv")[1:]
    assert len(rows) == sum(len(agg.part_mean_widths) for agg in table)
    for row in rows:
        g = int(row[1]) - 1
        p = int(row[2]) - 1
        assert float(row[3]) == table[g].part_mean_widths[p]  # 17 digits: exact

    combined = read_csv(out / "plot_all_songs.csv")[1:]
    assert combined == rows  # single song: identical content


def test_generation_tables_of_no_reports_are_headers_only(tmp_path):
    from mfaudio.cli import write_generation_tables

    write_generation_tables([], tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["generations.csv", "plot_all_songs.csv"]
    assert read_csv(tmp_path / "plot_all_songs.csv") == [
        ["song_id", "generation", "part", "mean_width"]
    ]
    assert read_csv(tmp_path / "generations.csv") == [
        ["song_id", "generation", "rendition_count", "part",
         "part_mean_width", "overall_mean_width"]
    ]


def test_silent_rendition_errors_with_identifier(tmp_path, capsys):
    path, _ = write_corpus(tmp_path, n_entries=2, silent=(1,))
    out = tmp_path / "out"
    code = main(["run", "--manifest", str(path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "song-x-artist-1-1951" in err
    assert "zero fluctuation" in err
    # the healthy rendition still produced rows
    widths = read_csv(out / "widths.csv")
    assert len(widths) == 1 + 4


def test_nan_in_a_wav_fails_its_rendition_with_one_line(tmp_path, capsys):
    path, _ = write_corpus(tmp_path, n_entries=1)
    wav = tmp_path / "take0.wav"
    image = bytearray(wav.read_bytes())
    struct.pack_into("<f", image, 44 + 4 * 1000, math.nan)  # past the 44-byte header
    wav.write_bytes(bytes(image))
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: rendition song-x-artist-0-1950: {wav}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_nan_after_the_clip_fails_its_rendition(tmp_path, capsys, jobs):
    # the 12 s clip ends at sample 48,000 of the 24 s file; no window reads
    # the NaN, and the rendition still fails as a whole
    path, doc = write_corpus(tmp_path, n_entries=1)
    doc["defaults"]["window_plan"].update(clip_length=12.0, part_length=6.0)
    rewrite(path, doc)
    wav = tmp_path / "take0.wav"
    image = bytearray(wav.read_bytes())
    struct.pack_into("<f", image, 44 + 4 * 20 * 4000, math.nan)
    wav.write_bytes(bytes(image))
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "out"), "--jobs", jobs])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: rendition song-x-artist-0-1950: {wav}: signal samples contain NaN or infinity\n"
    )


def test_short_audio_errors_with_identifier(tmp_path, capsys):
    path, doc = write_corpus(tmp_path, n_entries=1)
    short = Signal(np.ones(5 * 4000) * 0.25, 4000.0)
    write_wav(tmp_path / "short.wav", short, "float32")
    doc["entries"][0]["path"] = "short.wav"
    doc["entries"][0]["window_plan"] = {
        "clip_length": 6.0, "part_count": 1, "part_length": 6.0, "window_length": 6.0,
    }
    rewrite(path, doc)
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "song-x-artist-0-1950" in err
    assert "6 s" in err and "5 s" in err


def test_cli_plan_flags_reshape_parts(tmp_path):
    path, _ = write_corpus(tmp_path, n_entries=1)
    out = tmp_path / "out"
    code = main(
        ["run", "--manifest", str(path), "--out", str(out),
         "--parts", "4", "--window-seconds", "3"]
    )
    assert code == 0
    widths = read_csv(out / "widths.csv")
    assert len(widths) == 1 + 4  # 24 s clip -> 4 parts of 6 s
    windows = read_csv(out / "windows.csv")
    assert len(windows) == 1 + 4 * 2  # 6 s part / 3 s windows -> 2 per part


def test_cli_scales_flag_changes_grid(tmp_path):
    path, _ = write_corpus(tmp_path, n_entries=1)
    out = tmp_path / "out"
    code = main(
        ["run", "--manifest", str(path), "--out", str(out), "--scales", "16:512:6"]
    )
    assert code == 0
    # a different regression grid moves h2 relative to the default run
    out_default = tmp_path / "out-default"
    assert main(["run", "--manifest", str(path), "--out", str(out_default)]) == 0
    h2_custom = read_csv(out / "widths.csv")[1][7]
    h2_default = read_csv(out_default / "widths.csv")[1][7]
    assert h2_custom != h2_default


@pytest.mark.parametrize("rule", ["16:100000000000000000000:10", "16:1" + "0" * 400 + ":10"],
                         ids=["1e20", "1e400"])
@pytest.mark.parametrize("where", ["flag", "manifest"])
def test_a_scale_rule_past_2_to_the_53_exits_2(tmp_path, capsys, rule, where):
    # np.geomspace used to get these: a numpy TypeError message (exit 2)
    # for 1e20 and an OverflowError (exit 3) for 1e400
    path, doc = write_corpus(tmp_path, n_entries=1)
    flags = ["--scales", rule] if where == "flag" else []
    if where == "manifest":
        doc["defaults"]["mfdfa"] = {"scales": rule}
        rewrite(path, doc)
    assert main(["run", "--manifest", str(path), "--dry-run", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("manifest error: entries[0]: scales rule ")
    assert err.count("\n") == 1


def test_a_plan_with_no_window_per_part_exits_2(tmp_path, capsys):
    # a window 5% longer than its part used to pass validation, and the run
    # then reported its empty parts as "all windows flagged"
    path, doc = write_corpus(tmp_path, n_entries=1)
    doc["defaults"]["window_plan"] = {"clip_length": 1e-8, "part_count": 1,
                                      "part_length": 1e-8, "window_length": 1.05e-8}
    rewrite(path, doc)
    assert main(["run", "--manifest", str(path), "--dry-run"]) == 2
    assert "does not fit in a 1e-08 s part" in capsys.readouterr().err


def test_readme_example_manifest_validates(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Manifest format (version 1)"):]
    start = section.index("```json\n") + len("```json\n")
    example = section[start : section.index("```", start)]
    (tmp_path / "audio").mkdir()
    write_wav(tmp_path / "audio" / "take.wav", gen_cascade_noise(180 * 1000, 0.7, 1, 1000.0),
              "float32")
    path = rewrite(tmp_path / "manifest.json", json.loads(example))
    [record] = validate_manifest(path).records
    assert record.rendition_id == "amaro-porano-suchitra-mitra-1986"
    assert record.config.q_grid[0] == -3.0 and record.config.q_grid[-1] == 3.0


def test_flagged_windows_csv_parses_cleanly(tmp_path):
    path, _ = write_corpus(tmp_path, n_entries=1, silent=(0,))
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == 1
    rows = read_csv(out / "windows.csv")
    header, data = rows[0], rows[1:]
    assert all(len(r) == len(header) for r in data)  # reasons with commas stay quoted
    flag_col = header.index("flagged")
    reason_col = header.index("flag_reason")
    assert all(r[flag_col] == "true" for r in data)
    assert all("zero fluctuation" in r[reason_col] for r in data)


def test_output_dir_falls_back_to_environment(tmp_path, monkeypatch):
    path, _ = write_corpus(tmp_path, n_entries=1)
    env_out = tmp_path / "env-out"
    monkeypatch.setenv("MFAUDIO_OUT", str(env_out))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--manifest", str(path)]) == 0
    assert (env_out / "widths.csv").exists()


def test_an_unwritable_out_exits_2_with_one_run_error_line(tmp_path, capsys, monkeypatch):
    path, _ = write_corpus(tmp_path, n_entries=1)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    before = sorted(tmp_path.rglob("*"))

    def no_run(*args, **kwargs):
        raise AssertionError("the corpus was analysed before --out was created")

    monkeypatch.setattr(cli, "run_corpus", no_run)
    assert main(["run", "--manifest", str(path), "--out", str(blocker / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("run error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == ""


def test_a_relative_output_dir_lies_beside_the_manifest(tmp_path, capsys, monkeypatch):
    corpus, elsewhere = tmp_path / "corpus", tmp_path / "elsewhere"
    corpus.mkdir(), elsewhere.mkdir()
    path, doc = write_corpus(corpus, n_entries=1)
    doc["output_dir"] = "results"
    rewrite(path, doc)
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--manifest", "../corpus/manifest.json"]) == 0
    assert (corpus / "results" / "widths.csv").exists()
    assert list(elsewhere.iterdir()) == []
    assert capsys.readouterr().out.endswith(" -> ../corpus/results\n")


def test_an_empty_output_dir_falls_back_to_environment(tmp_path, monkeypatch):
    # "" names no directory: the manifest's own directory is not the default
    corpus, elsewhere = tmp_path / "corpus", tmp_path / "elsewhere"
    corpus.mkdir(), elsewhere.mkdir()
    path, doc = write_corpus(corpus, n_entries=1)
    doc["output_dir"] = ""
    rewrite(path, doc)
    monkeypatch.setenv("MFAUDIO_OUT", "env-out")
    monkeypatch.chdir(elsewhere)
    assert main(["run", "--manifest", str(path)]) == 0
    assert (elsewhere / "env-out" / "widths.csv").exists()
    assert sorted(p.name for p in corpus.iterdir()) == ["manifest.json", "take0.wav"]


def test_the_retired_width_method_flag_exits_2(tmp_path, capsys):
    # the endpoint width is a windows.csv column now, not a mode of the run
    path, _ = write_corpus(tmp_path, n_entries=1)
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--manifest", str(path), "--dry-run", "--width-method", "endpoints"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --width-method endpoints" in capsys.readouterr().err


def test_windows_csv_ends_in_the_endpoint_width(tmp_path):
    path, _ = write_corpus(tmp_path, n_entries=1)
    signal = decode_wav(tmp_path / "take0.wav")
    samples = signal.samples.copy()
    samples[:24_000] = 0.0  # the first 6 s window is digital silence
    write_wav(tmp_path / "take0.wav", Signal(samples, signal.sample_rate), "float32")
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == 0
    header, *rows = read_csv(out / "windows.csv")
    assert header[-1] == "endpoint_width" and header[12:14] == ["flagged", "flag_reason"]
    assert [row[12] for row in rows] == ["true", "false", "false", "false"]
    assert rows[0][-1] == "nan"
    written = decode_wav(tmp_path / "take0.wav").samples
    for k, row in enumerate(rows[1:], start=1):  # 2 windows per part, back to back
        spectrum = mfdfa(written[24_000 * k : 24_000 * (k + 1)]).spectrum
        assert row[-1] == cli._f17(spectrum_width(spectrum, "endpoints").width)
        assert float(row[-1]) > 0 and row[-1] != row[7]


def test_readme_lists_exactly_the_run_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("`run` flags:"):]
    listed = set(re.findall(r"--[a-z][a-z-]*", paragraph[: paragraph.index("\n\n")]))
    [subcommands] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {o for a in subcommands.choices["run"]._actions for o in a.option_strings}
    assert listed == options - {"-h", "--help"}



def test_readme_lists_exactly_the_columns_written(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme[readme.index("| file | rows | columns |"):].split("\n\n")[0]
    listed = {}
    for row in table.splitlines()[2:]:
        names, _, columns = (cell.strip() for cell in row.strip("|").split("|"))
        for name in re.findall(r"`([^`]+)`", names):
            listed[name] = columns.split(" (")[0].split(", ")  # a note follows in parentheses
    # every table from no reports, and a spectrum and a song's plot from a
    # report with no mean curve
    record = pipeline.RenditionRecord("song", "artist", 1970, 1, tmp_path / "take.wav")
    report = RenditionReport(record, (pipeline.PartResult(1, ()),))
    written = {}
    for reports in ([], [report]):
        out = tmp_path / f"out{len(reports)}"
        cli.write_outputs(reports, out)
        for path in out.iterdir():
            name = path.name.replace(record.rendition_id, "<id>").replace("plot_song.", "plot_<song>.")
            written[name] = read_csv(path)[0]
    assert listed == written


def test_synth_builds_runnable_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    code = main(
        ["synth", "--out", str(corpus), "--duration", "24", "--rate", "4000",
         "--parts", "2", "--generations", "3", "--seed", "9"]
    )
    assert code == 0
    assert sorted(p.name for p in (corpus / "audio").iterdir()) == [
        "gen01.wav", "gen02.wav", "gen03.wav",
    ]
    manifest = validate_manifest(corpus / "manifest.json")
    assert len(manifest.records) == 3
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(corpus / "manifest.json"), "--out", str(out)]) == 0
    # renditions x parts data rows plus one header
    assert len(read_csv(out / "widths.csv")) == 1 + 3 * 2


def test_synth_fgn_kind(tmp_path):
    corpus = tmp_path / "corpus"
    code = main(
        ["synth", "--out", str(corpus), "--duration", "12", "--rate", "4000",
         "--parts", "1", "--generations", "1", "--kind", "fgn"]
    )
    assert code == 0
    out = tmp_path / "out"
    assert main(["run", "--manifest", str(corpus / "manifest.json"), "--out", str(out)]) == 0


def test_synth_has_no_cascade_kind(tmp_path, capsys):
    # every generation of the flat cascade was the same WAV
    with pytest.raises(SystemExit) as err:
        main(["synth", "--out", str(tmp_path / "c"), "--kind", "cascade"])
    assert err.value.code == 2
    assert "invalid choice: 'cascade'" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("kind", ["cascade-noise", "fgn"])
def test_synth_zero_rate_exits_2(tmp_path, capsys, kind):
    code = main(["synth", "--out", str(tmp_path / "c"), "--rate", "0", "--kind", kind])
    assert code == 2
    assert capsys.readouterr().err.startswith("synth error: ")


def test_synth_fractional_rate_exits_2(tmp_path, capsys):
    corpus = tmp_path / "c"
    code = main(["synth", "--out", str(corpus), "--rate", "4000.5", "--duration", "24"])
    assert code == 2
    assert "synth error: rate" in capsys.readouterr().err
    assert not corpus.exists()


@pytest.mark.parametrize("rate", ["1073741824", "1100000000"])
def test_synth_rate_past_the_wav_byte_rate_exits_2_before_generating(tmp_path, capsys, monkeypatch, rate):
    # a float32 WAV stores rate * 4 bytes/s in 32 bits; this used to be found
    # by write_wav after every sample was generated, leaving audio/ behind
    def never(*args, **kwargs):
        raise AssertionError("a generator ran")

    for name in ("gen_cascade_noise", "gen_fgn_prefix"):
        monkeypatch.setattr(cli, name, never)
    corpus = tmp_path / "c"
    code = main(["synth", "--out", str(corpus), "--kind", "fgn", "--rate", rate,
                 "--duration", "0.00001", "--parts", "1", "--window-seconds", "0.000001"])
    assert code == 2
    assert "synth error: rate" in capsys.readouterr().err
    assert not corpus.exists()


def test_synth_accepts_the_highest_float32_wav_rate(tmp_path):
    corpus = tmp_path / "c"
    code = main(["synth", "--out", str(corpus), "--generations", "1", "--rate", str(2**30 - 1),
                 "--duration", "0.00001", "--parts", "1", "--window-seconds", "0.000001"])
    assert code == 0
    header = (corpus / "audio" / "gen01.wav").read_bytes()[:44]
    assert struct.unpack_from("<II", header, 24) == (2**30 - 1, (2**30 - 1) * 4)


def test_synth_checks_its_plan_through_window_plan(tmp_path, capsys):
    corpus = tmp_path / "c"
    code = main(["synth", "--out", str(corpus), "--duration", "12", "--parts", "2",
                 "--window-seconds", "7"])
    assert code == 2
    assert capsys.readouterr().err == "synth error: window of 7 s does not fit in a 6 s part\n"
    assert not corpus.exists()


def test_synth_accepts_a_plan_that_run_accepts(tmp_path, capsys):
    # a window 1e-10 s longer than its 30 s part is within WindowPlan's
    # 1e-9 s tolerance, for synth as for run
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--generations", "1", "--rate", "100",
                 "--duration", "180", "--parts", "6", "--window-seconds", "30.0000000001"]) == 0
    assert main(["run", "--manifest", str(corpus / "manifest.json"), "--dry-run"]) == 0
    assert capsys.readouterr().out.endswith("manifest OK: 1 entry\n")


def test_synth_zero_parts_exits_2_through_window_plan(tmp_path, capsys):
    corpus = tmp_path / "c"
    assert main(["synth", "--out", str(corpus), "--parts", "0"]) == 2
    assert capsys.readouterr().err == "synth error: part_count must be > 0 and at most 2**53, got 0\n"
    assert not corpus.exists()


def test_synth_negative_seed_exits_2(tmp_path, capsys):
    # PCG64 rejects a negative seed; this used to fail after audio/ was made
    corpus = tmp_path / "c"
    code = main(["synth", "--out", str(corpus), "--seed", "-3", "--generations", "2"])
    assert code == 2
    assert "synth error: seed" in capsys.readouterr().err
    assert not corpus.exists()


def test_synth_zero_generations_exits_2(tmp_path, capsys):
    corpus = tmp_path / "c"
    code = main(["synth", "--out", str(corpus), "--generations", "0"])
    assert code == 2
    assert "synth error: generations" in capsys.readouterr().err
    assert not (corpus / "manifest.json").exists()


def test_synth_unwritable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    code = main(["synth", "--out", str(blocker / "c"), "--generations", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("synth error: ")
