"""Correctness checks on one `mfaudio run` output directory.

Across commits these use oracle tolerances only; byte identity is
compared only between outputs of the same source tree (see run.py).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from corpora import Workload

H2_TOLERANCE = 0.05  # largest mean |h(2) - H| accepted on fGn


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def check_outputs(
    out_dir: Path, workload: Workload, expected_windows: int, silenced
) -> tuple[list[str], dict]:
    """Return (problems, facts) for one output directory.

    ``facts`` holds ``h2_abs_err`` (mean |h(2) - oracle| over unflagged
    windows) and ``flagged_windows``.
    """
    problems: list[str] = []
    windows = _rows(out_dir / "windows.csv")
    if len(windows) != expected_windows:
        problems.append(f"windows.csv has {len(windows)} rows, expected {expected_windows}")
    unflagged = [r for r in windows if r["flagged"] == "false"]
    errors = [abs(float(r["h2"]) - workload.oracle_h2) for r in unflagged]
    h2_abs_err = sum(errors) / len(errors) if errors else math.nan
    facts = {"h2_abs_err": h2_abs_err, "flagged_windows": len(windows) - len(unflagged)}

    if workload.cascade:
        bad = [r for r in unflagged if not (math.isfinite(float(r["width"])) and float(r["width"]) > 0)]
        if bad:
            problems.append(f"{len(bad)} unflagged window width(s) not finite and positive")
        overall = {}
        for row in _rows(out_dir / "generations.csv"):
            overall[int(row["generation"])] = float(row["overall_mean_width"])
        widths = [overall[g] for g in sorted(overall)]
        if len(widths) < 2 or not all(a < b for a, b in zip(widths, widths[1:])):
            problems.append(f"overall_mean_width does not rise with generation: {widths}")
    elif not h2_abs_err <= H2_TOLERANCE:
        problems.append(f"h2_abs_err {h2_abs_err:.4g} exceeds {H2_TOLERANCE}")

    by_key = {(int(r["generation"]), int(r["part"]), int(r["window"])): r for r in windows}
    for key in silenced:
        row = by_key.get(key)
        reason = "" if row is None else row["flag_reason"]
        if row is None or row["flagged"] != "true" or not (
            "zero fluctuation" in reason or "degenerate" in reason
        ):
            problems.append(f"silenced window {key} not flagged as degenerate: {reason!r}")
    return problems, facts
