"""Acceptance suite: the toolkit's exit criteria.

Every test pins one criterion at its stated tolerance and prints a
one-line PASS/FAIL verdict (run with ``pytest -s`` or ``-rA`` to see the
lines; pytest's own status is authoritative either way).
"""

import math
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from mfaudio import (
    CascadeSpec,
    DegenerateSegmentError,
    FgnSpec,
    FluctuationSurface,
    HurstCurve,
    InsufficientAudioError,
    MfdfaConfig,
    Signal,
    SingularitySpectrum,
    WindowPlan,
    analytic_cascade_alpha,
    analytic_cascade_h,
    analyze_rendition,
    compute_profile,
    fit_hurst,
    fluctuation_function,
    gen_binomial_cascade,
    gen_cascade_noise,
    gen_fgn,
    mfdfa,
    q_order_means,
    spectrum_width,
    tau_from_h,
)
from mfaudio.cli import main
from mfaudio.pipeline import RenditionRecord

H2_CONFIG = MfdfaConfig(q_grid=[2.0])


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def _h2(signal) -> float:
    surface = fluctuation_function(compute_profile(signal), H2_CONFIG)
    return float(fit_hurst(surface).h[0])


@lru_cache(maxsize=1)
def _cascade_result():
    return mfdfa(gen_binomial_cascade(CascadeSpec(16, 0.75)))


def test_criterion_01_hurst_recovery():
    # mean h(2) over 10 seeds within +-0.05 of H (+-0.07 at H = 0.3, 0.8),
    # n = 2^16, total runtime <= 60 s
    start = time.time()
    details = []
    ok = True
    for hurst, tol in ((0.3, 0.07), (0.5, 0.05), (0.7, 0.05), (0.8, 0.07)):
        h2s = [_h2(gen_fgn(FgnSpec(hurst, 2**16, seed))) for seed in range(10)]
        mean = float(np.mean(h2s))
        ok &= abs(mean - hurst) <= tol
        details.append(f"H={hurst}: mean h2={mean:.4f} (tol {tol})")
    elapsed = time.time() - start
    ok &= elapsed <= 60.0
    _verdict("1 (Hurst recovery)", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_02_cascade_oracle():
    # binomial cascade L=16, a=0.75: max |h(q) - analytic| <= 0.12 over
    # q in [-5, 5], and |tau(1)| <= 0.05
    res = _cascade_result()
    q = res.hurst.q_grid
    dev = float(np.abs(res.hurst.h - analytic_cascade_h(q, 0.75)).max())
    tau1 = float(res.spectrum.tau[np.argmin(np.abs(q - 1.0))])
    ok = dev <= 0.12 and abs(tau1) <= 0.05
    _verdict(
        "2 (cascade oracle)", ok, f"max|h - analytic|={dev:.4f} (<=0.12), tau(1)={tau1:+.4f} (<=0.05)"
    )


def test_criterion_03_width_separation():
    # W(cascade) > W(fGn H=0.5) + 0.5 on every one of 10 seeds; the
    # endpoints-method cascade width within +-0.3 of the analytic 1.57
    w_cascade = _cascade_result().width.width
    margins = []
    for seed in range(10):
        w_fgn = mfdfa(gen_fgn(FgnSpec(0.5, 2**16, seed))).width.width
        margins.append(w_cascade - w_fgn - 0.5)
    w_end = spectrum_width(_cascade_result().spectrum, "endpoints").width
    analytic = analytic_cascade_alpha(-5.0, 0.75) - analytic_cascade_alpha(5.0, 0.75)
    assert analytic == pytest.approx(1.57, abs=0.01)
    ok = min(margins) > 0 and abs(w_end - analytic) <= 0.3
    _verdict(
        "3 (width separation)",
        ok,
        f"worst margin={min(margins):+.3f} (>0), endpoints W={w_end:.3f} "
        f"vs analytic {analytic:.3f} (+-0.3)",
    )


def test_criterion_04_exact_recoveries():
    # synthetic F_q(s) = s^H -> h = H to 1e-12
    scales = np.array([16, 32, 64, 128])
    q = np.array([-2.0, 0.0, 2.0])
    surface = FluctuationSurface(
        q, scales, np.vstack([scales.astype(float) ** 0.5] * 3), np.full(4, 8)
    )
    curve = fit_hurst(surface)
    ok_h = bool(np.all(np.abs(curve.h - 0.5) <= 1e-12))
    ok_r2 = bool(np.all(np.abs(curve.r_squared - 1.0) <= 1e-12))

    # exact parabola -> W = 2, B = 0 to 1e-12
    alpha = 0.9 + np.linspace(-1, 1, 11)
    f = 1.0 - (alpha - 0.9) ** 2
    spectrum = SingularitySpectrum(np.linspace(-5, 5, 11), np.zeros(11), alpha, f, True)
    width = spectrum_width(spectrum)
    ok_w = abs(width.width - 2.0) <= 1e-12 and abs(width.asymmetry) <= 1e-12

    # tau(0) = -1 exactly
    grid = np.linspace(-5, 5, 41)
    tau = tau_from_h(HurstCurve(grid, np.linspace(1.4, 0.4, 41), np.ones(41)))
    ok_tau = tau[20] == -1.0

    # profile endpoint ~ 0 on random inputs
    rng = np.random.default_rng(123)
    ok_prof = True
    for _ in range(10):
        x = rng.normal(5.0, 3.0, 2**16)
        prof = compute_profile(x)
        ok_prof &= abs(prof.values[-1]) <= 1e-9 * np.abs(x - x.mean()).sum()

    ok = ok_h and ok_r2 and ok_w and ok_tau and ok_prof
    _verdict(
        "4 (exact recoveries)",
        ok,
        f"h=H {ok_h}, r2=1 {ok_r2}, parabola W/B {ok_w}, tau(0)=-1 {ok_tau}, "
        f"profile endpoint {ok_prof}",
    )


def test_criterion_05_affine_invariance():
    # h(q), alpha, f(alpha), W identical within 1e-9 relative under
    # x -> 1000 x + 7, for 20 random signals
    worst = 0.0
    for seed in range(20):
        weight = 0.55 + 0.25 * (seed / 19.0)
        x = gen_cascade_noise(8192, weight, seed).samples
        r1 = mfdfa(x)
        r2 = mfdfa(1000.0 * x + 7.0)
        for a, b in (
            (r1.hurst.h, r2.hurst.h),
            (r1.spectrum.alpha, r2.spectrum.alpha),
            (r1.spectrum.f_alpha, r2.spectrum.f_alpha),
            (np.array([r1.width.width]), np.array([r2.width.width])),
        ):
            rel = np.abs(a - b) / np.maximum(np.abs(a), 1e-12)
            worst = max(worst, float(rel.max()))
    ok = worst <= 1e-9
    _verdict("5 (affine invariance)", ok, f"worst relative deviation {worst:.2e} (<=1e-9)")


def test_criterion_06_power_mean_monotonicity():
    # >= 1000 random fluctuation sets: F_q(s) non-decreasing in q, always
    rng = np.random.default_rng(2024)
    q = np.linspace(-5, 5, 41)
    violations = 0
    for _ in range(1000):
        msq = rng.lognormal(rng.uniform(-2, 2), rng.uniform(0.1, 3.0), rng.integers(2, 65))
        vals = q_order_means(msq, q)
        if not np.all(np.diff(vals) >= 0):
            violations += 1
    ok = violations == 0
    _verdict("6 (power-mean monotonicity)", ok, f"{violations} violations in 1000 sets")


def test_criterion_07_q_zero_continuity():
    # F_0 on the two-segment fixture equals the geometric mean to 1e-12
    f0 = q_order_means([1.0, math.e**2], [0.0])[0]
    ok_fixture = abs(f0 - math.exp(0.5)) <= 1e-12 * math.exp(0.5)

    # |h(0.25) - h(-0.25)| < 0.1 on fGn oracle signals of length 2^16
    # (the a=0.75 cascade's analytic gap is 0.109, so the bound is
    # meaningful only where the true h(q) is flat; the cascade instead
    # must track its analytic gap)
    details = [f"F_0 fixture {'ok' if ok_fixture else 'BAD'}"]
    ok = ok_fixture
    config = MfdfaConfig(q_grid=[-0.25, 0.0, 0.25, 2.0])
    for hurst in (0.3, 0.5, 0.7, 0.8):
        surface = fluctuation_function(
            compute_profile(gen_fgn(FgnSpec(hurst, 2**16, 11))), config
        )
        h = fit_hurst(surface).h
        gap = abs(h[2] - h[0])
        ok &= gap < 0.1
        details.append(f"fGn H={hurst}: gap={gap:.4f}")

    res = _cascade_result()
    qg = res.hurst.q_grid
    gap = abs(
        res.hurst.h[np.argmin(np.abs(qg - 0.25))] - res.hurst.h[np.argmin(np.abs(qg + 0.25))]
    )
    analytic_gap = analytic_cascade_h(0.25, 0.75) - analytic_cascade_h(-0.25, 0.75)
    ok &= abs(gap - abs(analytic_gap)) < 0.05
    details.append(f"cascade gap={gap:.4f} vs analytic {abs(analytic_gap):.4f}")
    _verdict("7 (q=0 continuity)", ok, "; ".join(details))


def test_criterion_08_end_to_end_determinism(tmp_path):
    # synth corpus (5 generations x 1 rendition, 6 parts x 5 windows):
    # byte-identical CSVs across two runs and across --jobs 1 vs 8;
    # widths.csv holds 30 data rows
    corpus = tmp_path / "corpus"
    assert (
        main(
            ["synth", "--out", str(corpus), "--generations", "5", "--duration", "180",
             "--rate", "8000", "--parts", "6", "--window-seconds", "6", "--seed", "11"]
        )
        == 0
    )
    manifest = str(corpus / "manifest.json")
    outs = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r8", "8")):
        out = tmp_path / name
        assert main(["run", "--manifest", manifest, "--out", str(out), "--jobs", jobs]) == 0
        outs.append(out)

    names = sorted(p.name for p in outs[0].iterdir())
    identical = True
    for other in outs[1:]:
        identical &= sorted(p.name for p in other.iterdir()) == names
        for name in names:
            identical &= (outs[0] / name).read_bytes() == (other / name).read_bytes()

    widths_rows = (outs[0] / "widths.csv").read_text().count("\n") - 1
    ok = identical and widths_rows == 30
    _verdict(
        "8 (end-to-end determinism)",
        ok,
        f"byte-identical={identical}, widths rows={widths_rows} (expect 30)",
    )


def test_criterion_09_plausibility_band():
    # 6-s windows of cascade-modulated noise at 22050 Hz: finite W,
    # r2(q=2) >= 0.95, W inside the widened empirical envelope [0.1, 1.2]
    n = 6 * 22050
    widths, r2s = [], []
    for seed in range(6):
        res = mfdfa(gen_cascade_noise(n, 0.7, seed, 22050.0))
        widths.append(res.width.width)
        r2s.append(res.hurst.at(2.0)[1])
    ok = (
        all(math.isfinite(w) for w in widths)
        and min(r2s) >= 0.95
        and all(0.1 <= w <= 1.2 for w in widths)
    )
    _verdict(
        "9 (plausibility band)",
        ok,
        f"W in [{min(widths):.3f}, {max(widths):.3f}] (band [0.1, 1.2]), "
        f"min r2={min(r2s):.4f} (>=0.95)",
    )


def test_criterion_10_error_contracts(tmp_path):
    # digital silence -> degenerate-segment error naming (s, v)
    ok_silence = False
    silence_detail = "no error raised"
    try:
        mfdfa(Signal(np.zeros(2**14), 22050.0))
    except DegenerateSegmentError as err:
        ok_silence = err.scale >= 16 and err.segment >= 1
        silence_detail = f"DegenerateSegmentError(s={err.scale}, v={err.segment})"

    # 5 s of audio under a 6 s window plan -> insufficient-audio error
    # listing required vs available, with the record identified
    record = RenditionRecord(
        "probe-song", "probe-artist", 1950, 1, "unused.wav",
        plan=WindowPlan(clip_length=6.0, part_count=1, part_length=6.0, window_length=6.0),
    )
    ok_short = False
    short_detail = "no error raised"
    try:
        analyze_rendition(record, signal=Signal(np.ones(5 * 8000) * 0.1, 8000.0))
    except InsufficientAudioError as err:
        ok_short = (
            err.required_seconds == 6.0
            and err.available_seconds == 5.0
            and "probe-song-probe-artist-1950" in str(err)
        )
        short_detail = str(err)

    ok = ok_silence and ok_short
    _verdict("10 (error contracts)", ok, f"{silence_detail}; {short_detail}")
