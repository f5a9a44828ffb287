"""Benchmark of `mfaudio run`, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-8k --seed 1 --seconds 30 --trace 0

The corpus is generated from --seed (see corpora.py) several times; the
median generation plus warm-up time is ``setup_s``.  ``--trace 0`` then
times ``python -m mfaudio.cli run`` child processes at --jobs 1 and
--jobs 2, alternating their order, for about --seconds, and reports the
end-to-end metrics of BENCHMARK.json.  ``--trace 1`` instead repeats
traced in-process passes (traced.py) for about --seconds, reporting the
per-layer metrics and writing every span to
``perfbench/.work/<run>/spans.json``.

Every output directory is checked (checks.py) and must be byte-identical
to every other output of the same source tree, seed and workload, also
across runs; the computed counts must repeat exactly in the same way.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  BLAS and OpenMP thread settings are recorded, never set.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 3
JOBS = (1, 2)
DEADLINE_S = 170.0  # a run must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Client of spawner.py, which forks every timed child (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list[str], log: Path, timeout: float) -> tuple[float, float, int]:
        """Run cmd to completion: (wall s, peak RSS MiB, exit status)."""
        request = {"cmd": cmd, "env": child_env(), "cwd": str(ROOT), "log": str(log),
                   "timeout": max(timeout, 1.0)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        return reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["status"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def environment(args, src_digest: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except TypeError:  # numpy < 1.26 only prints
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    revision = None  # a checkout without .git has none
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            revision = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version,
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": revision,
        "src_sha256": src_digest,
    }


class Bench:
    """One benchmark run: its corpus, its checks and its measurements."""

    def __init__(self, args, workload, env: dict, spawner: Spawner):
        self.args = args
        self.spawner = spawner
        self.workload = workload
        self.env = env
        self.t_start = time.perf_counter()
        self.deadline = self.t_start + DEADLINE_S
        self.run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if self.run_dir.exists():
            shutil.rmtree(self.run_dir)
        self.run_dir.mkdir(parents=True)
        self.corpus = self.run_dir / "corpus"
        self.manifest = self.corpus / "manifest.json"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict = {}  # per-pass figures, kept in result.json
        # values that must repeat exactly for this source tree and seed
        key = f"{args.workload}-seed{args.seed}-{env['src_sha256'][:16]}-numpy{env['numpy']}"
        self.ref_path = WORK / "reference" / f"{key}.json"
        self.ref = json.loads(self.ref_path.read_text()) if self.ref_path.is_file() else {}

    def same_as_reference(self, key: str, value) -> list[str]:
        """Compare with the value stored under key, storing it if new."""
        if key not in self.ref:
            self.ref[key] = value
            return []
        if self.ref[key] != value:
            return [f"{key} {value} differs from {self.ref[key]} of the same source and seed"]
        return []

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    # --- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Generate the corpus SETUP_REPEATS times, each with a warm-up."""
        from corpora import build_corpus, tree_bytes, tree_digest
        from mfaudio import validate_manifest

        self.setup_s, self.synth_s, self.dry_run_s, digests = [], [], [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.silenced = build_corpus(self.workload, self.args.seed, self.corpus)
            self.synth_s.append(time.perf_counter() - start)
            wall, _, status = self.spawner.run(
                [sys.executable, "-m", "mfaudio.cli", "run", "--manifest", str(self.manifest),
                 "--dry-run", *self.workload.run_flags()],
                self.run_dir / "warmup.log", self.time_left(),
            )
            self.setup_s.append(time.perf_counter() - start)
            self.dry_run_s.append(wall)
            if status != 0:
                raise RuntimeError(f"warm-up `mfaudio run --dry-run` exited with status {status}")
            digests.add(tree_digest(self.corpus))
        if len(digests) != 1:
            self.problems.append("corpus generation is not deterministic for this seed")
        self.problems.extend(self.same_as_reference("corpus_sha256", digests.pop()))
        self.wav_bytes = tree_bytes(self.corpus / "audio")
        records = validate_manifest(self.manifest, None, self.workload.cli_mfdfa()).records
        self.expected_windows = sum(r.plan.part_count * r.plan.windows_per_part for r in records)

    # --- one checked invocation -------------------------------------------

    def check(self, label: str, out_dir: Path, problems: list[str]) -> dict:
        """Check one output directory, count the invocation, delete the directory."""
        from checks import check_outputs
        from corpora import tree_bytes, tree_digest

        facts = {}
        if not problems:
            problems, facts = check_outputs(out_dir, self.workload, self.expected_windows, self.silenced)
            problems += self.same_as_reference("outputs_sha256", tree_digest(out_dir))
            facts["written_kb"] = tree_bytes(out_dir) / 1e3
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        shutil.rmtree(out_dir, ignore_errors=True)
        return facts

    def mfaudio_run(self, jobs: int, label: str) -> tuple[float, float]:
        """Time one `python -m mfaudio.cli run` child and check its outputs:
        (wall s, peak RSS MiB)."""
        out_dir = self.run_dir / f"out-{label}"
        wall, rss, status = self.spawner.run(
            [sys.executable, "-m", "mfaudio.cli", "run", "--manifest", str(self.manifest),
             "--out", str(out_dir), "--jobs", str(jobs), *self.workload.run_flags()],
            self.run_dir / f"{label}.log", self.time_left(),
        )
        self.check(label, out_dir, [] if status == 0 else [f"exit status {status}"])
        return wall, rss

    def _more(self, start: float, pass_start: float) -> bool:
        """Whether another pass as long as the last fits in --seconds."""
        now = time.perf_counter()
        last = now - pass_start
        return now - start + last <= self.args.seconds and last < self.time_left() - 5.0

    # --- --trace 0 --------------------------------------------------------

    def end_to_end(self) -> dict:
        """Alternate --jobs 1 / --jobs 2 child runs for about --seconds."""
        walls = {j: [] for j in JOBS}
        rss = {j: [] for j in JOBS}
        start = time.perf_counter()
        n = 0
        while True:
            pass_start = time.perf_counter()
            for jobs in (JOBS if n % 2 == 0 else JOBS[::-1]):
                wall, peak = self.mfaudio_run(jobs, f"pass{n}-jobs{jobs}")
                walls[jobs].append(wall)
                rss[jobs].append(peak)
            n += 1
            if not self._more(start, pass_start):
                break
        self.samples = {"wall_s": walls, "peak_rss_mb": rss}
        metrics = {"setup_s": statistics.median(self.setup_s)}
        for jobs in JOBS:
            metrics[f"wall_s.jobs{jobs}"] = statistics.median(walls[jobs])
            metrics[f"peak_rss_mb.jobs{jobs}"] = statistics.median(rss[jobs])
        metrics["ok_frac"] = 1.0 - self.failed / self.attempted
        return metrics

    # --- --trace 1 --------------------------------------------------------

    def layers(self) -> dict:
        """Traced in-process passes for about --seconds."""
        from mfaudio import RenditionReport
        from spans import Tracer, self_times
        from traced import pass_figures, traced_pass, warm_up

        warm_up(self.workload, self.manifest)
        per_pass, all_spans, counts, facts = [], [], None, {}
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            n = len(per_pass)
            tracer = Tracer()
            result = traced_pass(tracer, self.workload, self.manifest, self.run_dir)
            for label, outcomes, out_dir in result["runs"]:
                bad = [str(o) for o in outcomes if not isinstance(o, RenditionReport)]
                bad += [f"rendition {o.record.rendition_id} errored"
                        for o in outcomes if isinstance(o, RenditionReport) and o.errored]
                facts = self.check(f"pass{n}-{label}", out_dir, bad) or facts
            pass_counts = {
                **result["counts"],
                "pipeline.flagged_windows": facts.get("flagged_windows", float("nan")),
                "signal_io.decoded_mb": self.wav_bytes / 1e6,
            }
            if counts is None:
                counts = pass_counts
            elif pass_counts != counts:
                self.problems.append(f"pass {n}: counts {pass_counts} differ from pass 0 {counts}")

            figures = pass_figures(tracer)
            root = next(s["id"] for s in tracer.spans if s["name"] == "run")
            layer_s, remainder, run_s = self_times(tracer.spans, root)
            if abs(sum(layer_s.values()) + remainder - run_s) > 1e-6:
                raise RuntimeError("layer self times and remainder do not add up to the run")
            figures.update({f"self_s.{layer}": t for layer, t in layer_s.items()})
            figures["self_s.remainder"] = remainder
            figures["trace.run_s"] = run_s
            per_pass.append(figures)
            all_spans.append(tracer.spans)
            if not self._more(start, pass_start):
                break
        for key, value in counts.items():
            self.problems.extend(self.same_as_reference(key, value))

        self.samples = {"passes": per_pass}
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        # interpreter start and package import: the --dry-run child minus
        # the validation it does (a difference of two full-run wall times
        # would drown in this host's run-to-run noise)
        metrics["cli.startup_s"] = (
            statistics.median(self.dry_run_s) - metrics["manifest.validate_ms"] / 1e3
        )
        metrics["cli.written_kb"] = facts.get("written_kb", float("nan"))
        metrics["mfdfa.windows"] = sum(1 for s in all_spans[0] if s["name"] == "mfdfa.window")
        metrics["h2_abs_err"] = facts.get("h2_abs_err", float("nan"))
        metrics["synth.corpus_s"] = statistics.median(self.synth_s)
        metrics["failed_frac"] = self.failed / self.attempted
        metrics.update(counts)
        (self.run_dir / "spans.json").write_text(
            json.dumps({"env": self.env, "passes": all_spans}) + "\n"
        )
        return metrics

    def finish(self, metrics: dict, units: dict) -> dict:
        self.ref_path.parent.mkdir(parents=True, exist_ok=True)
        self.ref_path.write_text(json.dumps(self.ref, indent=1, sort_keys=True) + "\n")
        result = {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items()},
        }
        (self.run_dir / "result.json").write_text(
            json.dumps({"env": self.env, "problems": self.problems, "setup_s": self.setup_s,
                        "samples": self.samples, **result}, indent=1) + "\n"
        )
        shutil.rmtree(self.corpus, ignore_errors=True)
        return result


def measure(args, spec_path: Path, spawner: Spawner):
    """Set up and measure; (metrics, units, bench), or Nones on a usage error.

    Only from here on is numpy imported: the benchmark's modules that use
    mfaudio are imported where they are used, after src/ is on sys.path
    and after the spawner has forked.
    """
    sys.path.insert(0, str(SRC))
    import mfaudio

    if Path(mfaudio.__file__).resolve().parent != SRC / "mfaudio":
        print(f"perfbench: imported mfaudio from {mfaudio.__file__}, not {SRC}", file=sys.stderr)
        return None, None, None
    from corpora import WORKLOADS, tree_digest

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return None, None, None
    if len(os.sched_getaffinity(0)) < max(JOBS):
        print(f"perfbench: --jobs {max(JOBS)} needs {max(JOBS)} usable cores", file=sys.stderr)
        return None, None, None

    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = environment(args, tree_digest(SRC, "*.py"))
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    bench = Bench(args, WORKLOADS[args.workload], env, spawner)
    bench.setup()
    metrics = bench.layers() if args.trace else bench.end_to_end()
    return metrics, units, bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (SRC / "mfaudio" / "__init__.py", spec_path):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    with Spawner() as spawner:  # before numpy is imported, to stay small
        metrics, units, bench = measure(args, spec_path, spawner)
    if metrics is None:
        return 2
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3
    result = bench.finish(metrics, units)
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:26s} {metrics[name]:14.6g} {unit}")
    print(f"run took {time.perf_counter() - bench.t_start:.1f} s")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
