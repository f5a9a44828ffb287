"""Corpus manifest: a versioned JSON document listing recordings plus
analysis defaults.

Schema (version 1): an object holding ``version`` (1), an optional
``output_dir`` string (``--out`` overrides it), ``defaults`` with
``window_plan`` and ``mfdfa`` settings, and a non-empty ``entries`` list.
Each entry names ``song_id``, ``artist``, ``year``, ``generation`` and
``path`` and may carry its own ``window_plan`` / ``mfdfa`` settings.
Every section is a JSON object holding only the keys named here.
README.md shows a full example.

Merge precedence, lowest to highest: WindowPlan / MfdfaConfig defaults,
manifest ``defaults``, command-line overrides, per-entry settings.  A
setting keeps its JSON type and the dataclass checks it; nothing is
coerced.  ``mfdfa`` accepts either an explicit ``q_grid`` list or the
(q_min, q_max, q_step) triple, never both once the layers are merged,
and either an explicit ``scales`` integer list or a "MIN:MAX:COUNT"
log-spacing rule.  A ``part_length`` of null makes WindowPlan derive
``clip_length / part_count``.  Entries must not share an output file
name: spectrum_<rendition_id>.csv and, across songs, plot_<song>.csv.

Audio paths and a non-empty ``output_dir`` are resolved relative to the
manifest file.  Validation reports every violation, not just the first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import _MAX_SCALE, MfdfaConfig, _log_scales, check_spectrum_grid, default_q_grid
from .errors import ConfigError, ManifestError, MfaudioError, check_type
from .pipeline import RenditionRecord, _slug
from .signal_io import WindowPlan

SUPPORTED_VERSION = 1

_PLAN_KEYS = {f.name for f in fields(WindowPlan)}
_Q_TRIPLE = ("q_min", "q_max", "q_step")
_MFDFA_KEYS = {f.name for f in fields(MfdfaConfig)} | set(_Q_TRIPLE)
_SECTIONS = {"window_plan": _PLAN_KEYS, "mfdfa": _MFDFA_KEYS}  # known keys of each
_ENTRY_KEYS = {"song_id", "artist", "year", "generation", "path", *_SECTIONS}
_REQUIRED_TYPES = {"song_id": str, "artist": str, "year": int, "generation": int, "path": str}
_MAX_GRID_VALUES = 10_000  # q values or scales; a q_step of 1e-13 asked for 728 TiB


@dataclass(frozen=True)
class Manifest:
    """Validated corpus: one RenditionRecord per entry, and output_dir resolved or None."""

    records: tuple[RenditionRecord, ...]
    output_dir: Path | None


def parse_scale_rule(text: str) -> np.ndarray:
    """Expand a "MIN:MAX:COUNT" rule into log-spaced integer scales."""
    try:
        lo, hi, count = (int(part) for part in text.split(":"))
    except ValueError:
        raise ConfigError(f"scales rule {text!r} is not MIN:MAX:COUNT") from None
    if not (0 < lo < hi <= _MAX_SCALE and count >= 2):
        raise ConfigError(f"scales rule {text!r} needs 0 < MIN < MAX <= 2**53 and COUNT >= 2")
    if count > _MAX_GRID_VALUES:
        raise ConfigError(f"scales rule {text!r} asks for over {_MAX_GRID_VALUES} scales")
    return _log_scales(lo, hi, count)


def build_q_grid(q_min: float, q_max: float, q_step: float) -> np.ndarray:
    for name, value in (("q_min", q_min), ("q_max", q_max), ("q_step", q_step)):
        check_type(name, value, float)
    if not (0 < q_step < np.inf and q_max > q_min):
        raise ConfigError(f"invalid q range {q_min}..{q_max} step {q_step}")
    if q_max - q_min >= _MAX_GRID_VALUES * q_step:  # before dividing: 10 / 5e-324 is inf
        raise ConfigError(f"q step {q_step:g} cuts {q_min:g}..{q_max:g} into over {_MAX_GRID_VALUES} values")
    count = int(round((q_max - q_min) / q_step))
    grid = q_min + q_step * np.arange(count + 1)
    if abs(grid[-1] - q_max) > 1e-9:
        raise ConfigError(f"q_step {q_step:g} does not divide the range {q_min:g}..{q_max:g}")
    return grid


def config_from_settings(settings: dict) -> MfdfaConfig:
    """Build an MfdfaConfig from merged manifest/CLI settings.

    The q triple becomes ``q_grid`` and a "MIN:MAX:COUNT" ``scales`` rule
    is expanded; every other setting is passed to MfdfaConfig as is.
    """
    kwargs = dict(settings)
    triple = {k: kwargs.pop(k) for k in _Q_TRIPLE if k in kwargs}
    if triple:
        if kwargs.get("q_grid") is not None:
            raise ConfigError(
                f"q_grid excludes {', '.join(triple)}: give the grid or the range, not both"
            )
        default = default_q_grid()
        kwargs["q_grid"] = build_q_grid(
            triple.get("q_min", default[0]),
            triple.get("q_max", default[-1]),
            triple.get("q_step", default[1] - default[0]),
        )
    if isinstance(kwargs.get("scales"), str):
        kwargs["scales"] = parse_scale_rule(kwargs["scales"])
    return MfdfaConfig(**kwargs)


def _object(value, path: str, known: set[str], violations: list[str]) -> dict:
    """The items of ``value`` whose keys are in ``known``, {} unless it is a
    JSON object; any other type, or another key, is a violation naming ``path``."""
    if not isinstance(value, dict):
        violations.append(f"'{path}' must be an object")
        return {}
    unknown = set(value) - known
    if unknown:
        violations.append(f"{path}: unknown key(s): {', '.join(sorted(unknown))}")
    return {key: item for key, item in value.items() if key in known}


def _merge(*layers: dict | None) -> dict:
    out: dict = {}
    for layer in layers:
        if layer:
            out.update(layer)
    return out


def validate_manifest(
    path: str | Path,
    cli_plan: dict | None = None,
    cli_mfdfa: dict | None = None,
) -> Manifest:
    """Parse and validate a manifest; one ManifestError reports every violation.

    ``cli_plan`` / ``cli_mfdfa`` are command-line overrides that sit
    between the manifest defaults and the per-entry settings.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ManifestError(f"{path}: cannot read manifest: {err}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ManifestError(
            f"{path}: parse error at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None

    violations: list[str] = []
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest root must be a JSON object")
    _object(doc, "manifest", {"version", "output_dir", "defaults", "entries"}, violations)

    version = doc.get("version")
    if version != SUPPORTED_VERSION:
        violations.append(f"unsupported manifest version {version!r} (expected {SUPPORTED_VERSION})")
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        violations.append(f"output_dir must be a string, got {type(output_dir).__name__}")

    defaults = _object(doc.get("defaults", {}), "defaults", set(_SECTIONS), violations)
    default_plan, default_mfdfa = (_object(defaults.get(key, {}), f"defaults.{key}", known, violations)
                                   for key, known in _SECTIONS.items())

    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        violations.append("'entries' must be a non-empty list")
        entries = []

    records: list[RenditionRecord] = []
    # output names already taken: rendition_id -> entry index, and
    # song slug -> (song_id, entry index)
    renditions: dict[str, int] = {}
    songs: dict[str, tuple[str, int]] = {}
    # song_id -> part_count -> labels of the entries using it
    part_counts: dict[str, dict[int, list[str]]] = {}
    for i, entry in enumerate(entries):
        label = f"entries[{i}]"
        if not isinstance(entry, dict):
            violations.append(f"{label}: entry must be an object")
            continue
        _object(entry, label, _ENTRY_KEYS, violations)

        missing = [k for k in _REQUIRED_TYPES if k not in entry]
        if missing:
            violations.append(f"{label}: missing required key(s): {', '.join(missing)}")
            continue
        mistyped = [
            f"{label}: {key} must be {'a string' if kind is str else 'an integer'}, "
            f"got {type(entry[key]).__name__}"
            for key, kind in _REQUIRED_TYPES.items()
            if not isinstance(entry[key], kind) or isinstance(entry[key], bool)
        ]
        if mistyped:
            violations.extend(mistyped)
            continue

        audio_path = (path.parent / entry["path"]).resolve()
        if not audio_path.is_file():
            violations.append(f"{label}: missing file {audio_path}")
            continue

        entry_plan, entry_mfdfa = (_object(entry.get(key, {}), f"{label}.{key}", known, violations)
                                   for key, known in _SECTIONS.items())
        try:
            plan = WindowPlan(**_merge(default_plan, cli_plan, entry_plan))
            config = config_from_settings(_merge(default_mfdfa, cli_mfdfa, entry_mfdfa))
            check_spectrum_grid(config.q_grid)
            record = RenditionRecord(
                song_id=entry["song_id"],
                artist=entry["artist"],
                year=entry["year"],
                generation_index=entry["generation"],
                audio_path=audio_path,
                plan=plan,
                config=config,
            )
        except MfaudioError as err:
            violations.append(f"{label}: {err}")
            continue

        rendition_id, slug = record.rendition_id, _slug(record.song_id)
        if rendition_id in renditions:
            violations.append(
                f"{label}: duplicate output name spectrum_{rendition_id}.csv, "
                f"already taken by entries[{renditions[rendition_id]}]"
            )
            continue
        song_id, first = songs.setdefault(slug, (record.song_id, i))
        if song_id != record.song_id:
            violations.append(
                f"{label}: duplicate output name plot_{slug}.csv, already taken by "
                f"song_id {song_id!r} at entries[{first}]"
            )
            continue
        renditions[rendition_id] = i
        records.append(record)
        part_counts.setdefault(record.song_id, {}).setdefault(plan.part_count, []).append(label)

    # generation means are taken part by part, so a song needs one part count
    for song_id, by_count in part_counts.items():
        if len(by_count) > 1:
            detail = ", ".join(
                f"{count} in {', '.join(labels)}" for count, labels in sorted(by_count.items())
            )
            violations.append(f"song {song_id!r}: mixed part counts ({detail})")

    if violations:
        raise ManifestError(violations)
    return Manifest(tuple(records), path.parent / output_dir if output_dir else None)
