"""Batch front door: argument parsing, CSV writing and exit codes around
``pipeline.run_corpus``, which runs the study pipeline over a validated
corpus manifest.

Outputs of ``mfaudio run`` (all CSV: UTF-8, LF line endings, '.' decimal
separator, fixed column order):

- ``widths.csv``        one row per (song, artist, year, generation, part)
- ``windows.csv``       one row per window with full diagnostics
- ``generations.csv``   per-generation aggregates (long format)
- ``spectrum_<id>.csv`` per-rendition mean h(q), tau, alpha, f(alpha)
- ``plot_<song>.csv``   long-format plot data per song
- ``plot_all_songs.csv``  the same across every song

``mfaudio run --jobs N`` passes N to ``run_corpus``: above 1 it maps the
windows of every rendition, queued as one stream, over a pool of forked
worker processes (capped at ``pipeline._usable_cpus()``, the CPUs this
process may run on); at 1 it imports no pool.  The outputs are identical
for any N.  Before the run it pins glibc's malloc thresholds
(``_pin_malloc_thresholds``), and the forked workers inherit them.

``mfaudio synth`` builds a self-contained synthetic corpus (WAV files
plus a manifest) so the whole pipeline runs with zero external data.

Exit status: 0 on full success, 1 if any rendition errored, 2 for an
invalid manifest (a ``manifest error`` line per violation) or invalid
arguments or output path (one ``<command> error`` line, from ``main``), 3
for an internal error (an exception the program does not expect, a worker
process that died included, reported as one line).  Errors go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .analysis import legendre_spectrum
from .errors import ConfigError, ManifestError, MfaudioError
from .manifest import validate_manifest
from .pipeline import RenditionReport, _check_jobs, _slug, aggregate_generation, run_corpus
from .signal_io import WindowPlan, write_wav
from .synth import gen_cascade_noise, gen_fgn_prefix


def _f17(x) -> str:
    """Round-trip-exact float formatting."""
    return format(float(x), ".17g")


def _f4(x) -> str:
    return format(float(x), ".4g")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_widths_csv(reports: list[RenditionReport], path: Path) -> None:
    header = ["song_id", "artist", "year", "generation", "part",
              "mean_width", "mean_alpha0", "mean_h2", "window_count", "flagged_count"]
    _write_csv(path, header, (
        [r.record.song_id, r.record.artist, r.record.year, r.record.generation_index,
         part.part_index, _f4(part.mean_width), _f4(part.mean_alpha0),
         _f4(part.mean_h2), len(part.windows), part.flagged_count]
        for r in reports for part in r.parts
    ))


def write_windows_csv(reports: list[RenditionReport], path: Path) -> None:
    header = ["song_id", "artist", "year", "generation", "part", "window",
              "n_samples", "width", "alpha0", "asymmetry", "h2", "r2_q2",
              "flagged", "flag_reason", "endpoint_width"]
    _write_csv(path, header, (
        [r.record.song_id, r.record.artist, r.record.year, r.record.generation_index,
         part.part_index, w.window_index, w.n_samples,
         _f17(w.width), _f17(w.alpha0), _f17(w.asymmetry), _f17(w.h2), _f17(w.r2_q2),
         "true" if w.flagged else "false", w.flag_reason or "", _f17(w.endpoint_width)]
        for r in reports for part in r.parts for w in part.windows
    ))


def write_spectrum_csv(report: RenditionReport, path: Path) -> None:
    curve, columns = report.mean_hurst, []
    if curve is not None:
        spectrum = legendre_spectrum(curve)
        columns = [curve.q_grid, curve.h, spectrum.tau, spectrum.alpha, spectrum.f_alpha]
    rows = (map(_f17, row) for row in zip(*columns))
    _write_csv(path, ["q", "h", "tau", "alpha", "f_alpha"], rows)


_PLOT_HEADER = ["song_id", "generation", "part", "mean_width"]


def write_generation_tables(reports: list[RenditionReport], out_dir: Path) -> None:
    """``generations.csv`` plus the long-format (song, generation, part,
    mean_width) plot data: one ``plot_<song>.csv`` per song and
    ``plot_all_songs.csv``, all from one aggregation per song."""
    generation_rows: list[list] = []
    plot_rows: list[list] = []
    for song_id in dict.fromkeys(r.record.song_id for r in reports):  # first-seen order
        song_rows = []
        for agg in aggregate_generation(reports, song_id):
            for p, width in enumerate(agg.part_mean_widths, start=1):
                generation_rows.append([song_id, agg.generation_index, agg.rendition_count,
                                        p, _f17(width), _f17(agg.overall_mean_width)])
                song_rows.append([song_id, agg.generation_index, p, _f17(width)])
        _write_csv(out_dir / f"plot_{_slug(song_id)}.csv", _PLOT_HEADER, song_rows)
        plot_rows.extend(song_rows)
    header = ["song_id", "generation", "rendition_count", "part",
              "part_mean_width", "overall_mean_width"]
    _write_csv(out_dir / "generations.csv", header, generation_rows)
    _write_csv(out_dir / "plot_all_songs.csv", _PLOT_HEADER, plot_rows)


def write_outputs(reports: list[RenditionReport], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_widths_csv(reports, out_dir / "widths.csv")
    write_windows_csv(reports, out_dir / "windows.csv")
    for report in reports:
        write_spectrum_csv(report, out_dir / f"spectrum_{report.record.rendition_id}.csv")
    write_generation_tables(reports, out_dir)


# glibc's mallopt parameters, and its 64-bit DEFAULT_MMAP_THRESHOLD_MAX:
# the largest mmap threshold its own dynamic rule would ever reach
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 * 2**20


def _pin_malloc_thresholds() -> None:
    """Pin glibc's mmap threshold at 32 MiB and its trim threshold at twice
    that, for this process and the workers it forks.

    Left dynamic, glibc maps a window's large numpy temporaries afresh, or
    grows the heap for them and trims it again when the window ends, so
    each window faults its pages in again.  Pinned, blocks up to 32 MiB
    come from the heap and stay there for the next window; a lower pin
    would map afresh the temporaries of larger windows (a 6 s window at
    96 kHz is 4.4 MiB of float64).  Only ``mfaudio run`` calls this: a
    library caller's allocator is left alone.  Where libc has no
    ``mallopt``, or it refuses the setting (returns 0), nothing changes.
    """
    # CDLL(None) opens the process's own symbols on POSIX systems only
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX):
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _cmd_run(args) -> int:
    cli_plan: dict = {}
    if args.parts is not None:
        cli_plan["part_count"] = args.parts
        cli_plan["part_length"] = None  # derive clip_length / part_count
    if args.window_seconds is not None:
        cli_plan["window_length"] = args.window_seconds

    # these run flags share their names with the manifest's mfdfa settings
    names = ("q_min", "q_max", "q_step", "scales", "detrend_order")
    cli_mfdfa = {name: getattr(args, name) for name in names if getattr(args, name) is not None}

    try:
        manifest = validate_manifest(args.manifest, cli_plan or None, cli_mfdfa or None)
    except ManifestError as err:
        for violation in err.violations:
            print(f"manifest error: {violation}", file=sys.stderr)
        return 2

    _check_jobs(args.jobs)
    if args.dry_run:
        print(f"manifest OK: {len(manifest.records)} entr{'y' if len(manifest.records) == 1 else 'ies'}")
        return 0

    out_dir = Path(
        args.out
        or manifest.output_dir
        or os.environ.get("MFAUDIO_OUT")
        or "mfaudio-out"
    )
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before the analysis

    _pin_malloc_thresholds()
    outcomes, failures = run_corpus(manifest, jobs=args.jobs)
    reports = [o for o in outcomes if isinstance(o, RenditionReport)]

    write_outputs(reports, out_dir)
    for report in reports:
        if report.errored:
            bad = [p.part_index for p in report.parts if p.errored]
            reason = min(w.flag_reason for p in report.parts for w in p.windows if w.flagged)
            print(
                f"error: rendition {report.record.rendition_id}: "
                f"part(s) {bad} errored ({reason})",
                file=sys.stderr,
            )
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)

    n_errored = len(failures) + sum(1 for r in reports if r.errored)
    print(f"analyzed {len(reports)}/{len(outcomes)} renditions -> {out_dir}")
    return 1 if n_errored else 0


def _cmd_synth(args) -> int:
    if args.generations < 1:
        raise ConfigError("generations must be >= 1")
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    if not (0 < args.rate < 2**30 and args.rate.is_integer()  # float32 byte rate < 2^32
            and 2 <= args.duration * args.rate < math.inf):
        raise ConfigError("rate must be a whole number of Hz in (0, 2^30), and duration * rate at least 2 samples")
    plan = WindowPlan(clip_length=args.duration, part_count=args.parts,
                      part_length=None, window_length=args.window_seconds)

    out = Path(args.out)
    (out / "audio").mkdir(parents=True, exist_ok=True)
    n = int(round(args.duration * args.rate))
    entries = []
    for g in range(1, args.generations + 1):
        seed = args.seed + g
        if args.kind == "cascade-noise":
            weight = min(0.60 + 0.04 * (g - 1), 0.78)
            sig = gen_cascade_noise(n, weight, seed, args.rate)
        else:
            hurst = min(0.55 + 0.05 * (g - 1), 0.90)
            sig = gen_fgn_prefix(hurst, n, seed, args.rate)
        rel = f"audio/gen{g:02d}.wav"
        write_wav(out / rel, sig, "float32")
        entries.append(
            {
                "song_id": f"synth-{args.kind}",
                "artist": f"synthetic-generation-{g}",
                "year": 1900 + g,
                "generation": g,
                "path": rel,
            }
        )

    manifest = {
        "version": 1,
        "defaults": {"window_plan": dataclasses.asdict(plan), "mfdfa": {}},
        "entries": entries,
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} WAV(s) and {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfaudio",
        description="Multifractal spectral-width analysis of audio corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="analyze a corpus manifest and emit CSV tables")
    run_p.add_argument("--manifest", required=True, help="path to the corpus manifest (JSON)")
    run_p.add_argument("--out", default=None, help="output directory (default: manifest output_dir, $MFAUDIO_OUT, or ./mfaudio-out)")
    run_p.add_argument("--jobs", type=int, default=1, help="worker processes over windows, >= 1, capped at the CPUs this process may use (its affinity set); 1 runs in one process (outputs are identical for any value)")
    run_p.add_argument("--dry-run", action="store_true", help="validate the manifest and exit")
    run_p.add_argument("--q-min", type=float, default=None)
    run_p.add_argument("--q-max", type=float, default=None)
    run_p.add_argument("--q-step", type=float, default=None)
    run_p.add_argument("--scales", default=None, metavar="MIN:MAX:COUNT", help="log-spaced scale grid rule")
    run_p.add_argument("--detrend-order", type=int, default=None, metavar="M")
    run_p.add_argument("--parts", type=int, default=None, metavar="K", help="parts per clip (part length becomes clip_length/K)")
    run_p.add_argument("--window-seconds", type=float, default=None, metavar="S")
    run_p.set_defaults(func=_cmd_run)

    synth_p = sub.add_parser("synth", help="generate a synthetic oracle corpus (WAVs + manifest)")
    synth_p.add_argument("--out", required=True, help="corpus directory to create")
    synth_p.add_argument("--kind", choices=["cascade-noise", "fgn"], default="cascade-noise")
    synth_p.add_argument("--generations", type=int, default=5)
    synth_p.add_argument("--duration", type=float, default=180.0, help="seconds per rendition")
    synth_p.add_argument("--rate", type=float, default=22050.0, help="sample rate in Hz")
    synth_p.add_argument("--parts", type=int, default=6)
    synth_p.add_argument("--window-seconds", type=float, default=6.0)
    synth_p.add_argument("--seed", type=int, default=0, help="base seed, >= 0")
    synth_p.set_defaults(func=_cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MfaudioError, OSError) as err:  # e.g. an --out under a regular file
        print(f"{args.command} error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a defect, kept apart from a failed rendition (1)
        print(f"{args.command} internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
