import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mfaudio
from mfaudio import (
    CascadeSpec,
    ConfigError,
    DegenerateSegmentError,
    FluctuationSurface,
    HurstCurve,
    InsufficientScalesError,
    InsufficientSpectrumError,
    MfdfaConfig,
    NonConcaveSpectrumError,
    NonFiniteDataError,
    Signal,
    SingularitySpectrum,
    FgnSpec,
    compute_profile,
    default_scale_grid,
    fit_hurst,
    fluctuation_function,
    gen_binomial_cascade,
    gen_cascade_noise,
    gen_fgn,
    gen_fgn_prefix,
    gen_white_noise,
    legendre_spectrum,
    mfdfa,
    q_order_means,
    segment_fluctuation,
    spectrum_width,
    tau_from_h,
)
from mfaudio.analysis import (
    _CACHED_SCALE_MAX,
    _MAX_DETREND_ORDER,
    _basis,
    _detrend_basis,
    _distinct,
    _mfdfa_in_place,
    _q_lattice,
    _segment_msq,
)
from mfaudio.manifest import build_q_grid


# --- profile --------------------------------------------------------------

def test_profile_constant_series_is_zero():
    prof = compute_profile(np.array([5.0, 5.0, 5.0]))
    assert np.array_equal(prof.values, [0.0, 0.0, 0.0])


def test_profile_three_point_hand_sum():
    prof = compute_profile(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(prof.values, [-1.0, -1.0, 0.0], atol=1e-15)


def test_profile_endpoint_near_zero():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(3.0, 2.0, 2**14)
        prof = compute_profile(x)
        assert abs(prof.values[-1]) <= 1e-9 * np.abs(x - x.mean()).sum()


def test_profile_rejects_non_finite():
    from mfaudio import NonFiniteDataError

    with pytest.raises(NonFiniteDataError):
        compute_profile(np.array([1.0, np.inf]))


@pytest.mark.parametrize("analyze", [compute_profile, mfdfa])
@pytest.mark.parametrize("shape", [(64, 64), (), (1, 256)])
def test_analysis_refuses_samples_that_are_not_1_d(analyze, shape):
    # a 2-D array failed in the in-place cumsum with numpy's broadcast error
    with pytest.raises(ConfigError, match="samples must be 1-D"):
        analyze(np.ones(shape))


# --- segment fluctuation ----------------------------------------------------

def test_segment_fluctuation_exact_line_is_zero():
    prof = compute_profile(np.ones(12))  # profile is exactly 0, a line
    assert segment_fluctuation(prof, 4, 1, order=1) == pytest.approx(0.0, abs=1e-18)

    from mfaudio.analysis import Profile

    line = Profile(2.5 * np.arange(8.0) - 3.0)
    assert segment_fluctuation(line, 8, 1, order=1) == pytest.approx(0.0, abs=1e-12)


def test_segment_fluctuation_exact_quadratic_is_zero():
    from mfaudio.analysis import Profile

    x = np.arange(9.0)
    quad = Profile(0.5 * x * x - 2.0 * x + 1.0)
    assert segment_fluctuation(quad, 9, 1, order=2) == pytest.approx(0.0, abs=1e-12)


def test_segment_fluctuation_hand_computed_normal_equations():
    # values (0, 1, 0): best order-1 fit is the constant 1/3,
    # residuals (-1/3, 2/3, -1/3), mean square 2/9
    from mfaudio.analysis import Profile

    prof = Profile(np.array([0.0, 1.0, 0.0]))
    assert segment_fluctuation(prof, 3, 1, order=1) == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_segment_fluctuation_directions():
    from mfaudio.analysis import Profile

    prof = Profile(np.array([0.0, 1.0, 0.0, 7.0, 7.0, 7.0]))
    fwd = segment_fluctuation(prof, 3, 1, direction="forward")
    bwd = segment_fluctuation(prof, 3, 1, direction="backward")
    assert fwd == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert bwd == pytest.approx(0.0, abs=1e-15)  # trailing constant block
    # v=2 backward is the leading block
    assert segment_fluctuation(prof, 3, 2, direction="backward") == pytest.approx(
        2.0 / 9.0, abs=1e-12
    )
    with pytest.raises(ConfigError):
        segment_fluctuation(prof, 3, 3)


# --- q-order means ----------------------------------------------------------

def test_q_order_means_constant_fluctuations():
    q = np.linspace(-5, 5, 41)
    vals = q_order_means(np.full(7, 4.0), q)
    assert np.allclose(vals, 2.0, rtol=1e-12)


def test_q_order_means_geometric_mean_fixture():
    # two segments with F^2 in {1, e^2}: F_0 = exp(0.5) (geometric mean of
    # the RMS values 1 and e)
    vals = q_order_means([1.0, math.e**2], [0.0])
    assert vals[0] == pytest.approx(math.exp(0.5), rel=1e-12)


def test_q_order_means_power_mean_inequality():
    rng = np.random.default_rng(3)
    q = np.linspace(-5, 5, 41)
    for _ in range(50):
        msq = rng.lognormal(0.0, 1.5, rng.integers(2, 40))
        vals = q_order_means(msq, q)
        assert np.all(np.diff(vals) >= 0)


@pytest.mark.parametrize("fluctuations, q, error", [
    ([1.0, math.nan, 2.0], [-1.0, 0.0, 2.0], NonFiniteDataError),
    ([1.0, math.inf, 2.0], [-1.0, 0.0, 2.0], NonFiniteDataError),
    ([], [1.0, 2.0], ConfigError),
    ([1.0, 2.0], [math.nan], ConfigError),
    ([1.0, 2.0], [0.0, -math.inf, 2.0], ConfigError),
    (np.ones((2, 3)), [2.0], ConfigError),
    ([1.0, 2.0], [[1.0, 2.0]], ConfigError),
])
def test_q_order_means_refuses_what_fluctuation_function_refuses(fluctuations, q, error):
    # these returned NaN, raised numpy's RuntimeWarning, IndexError or
    # ValueError, or (a NaN q) returned [0.]
    with pytest.raises(error):
        q_order_means(fluctuations, q)


@settings(max_examples=200, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(2, 30),
        elements=st.floats(1e-6, 1e6),
    )
)
def test_q_order_means_monotone_property(msq):
    q = np.linspace(-4, 4, 17)
    vals = q_order_means(msq, q)
    assert np.all(np.diff(vals) >= -1e-12 * vals[:-1])


# --- fluctuation function ----------------------------------------------------

def test_fluctuation_function_matches_per_segment_route():
    # the vectorized surface must agree with the one-segment operation.
    # 256 is divisible by every scale, so forward and backward segments
    # cover the same samples; at 299 they cover different ones
    for n, order in ((256, 1), (299, 1), (256, 2), (299, 2)):
        _check_per_segment_route(n, order)


def _check_per_segment_route(n, order):
    rng = np.random.default_rng(8)
    sig = rng.standard_normal(n)
    prof = compute_profile(sig)
    config = MfdfaConfig(scales=[8, 16, 32, 64], q_grid=[-2.0, 0.0, 2.0], detrend_order=order)
    surface = fluctuation_function(prof, config)
    for j, s in enumerate(surface.scale_grid):
        n_seg = prof.values.size // s
        msq = [segment_fluctuation(prof, int(s), v, order, d)
               for d in ("forward", "backward") for v in range(1, n_seg + 1)]
        # both routes slice through analysis._segments; the test's own
        # slicing checks that layout
        np.testing.assert_allclose(msq, _msq(_segments(prof.values, int(s)), order), rtol=1e-12,
                                   err_msg=f"n={n} order={order} s={s}")
        expected = _lse_q_means(msq, config.q_grid)
        assert np.allclose(surface.values[:, j], expected, rtol=1e-12)
        assert surface.segment_counts[j] == 2 * n_seg


def _pairwise_gram(a, b):
    """a^T b from numpy's pairwise sums: a BLAS dot of a long constant
    column accumulates rounding of order s eps, too much for 1e-12."""
    return np.array([[np.sum(u * v) for v in b.T] for u in a.T])


# the highest order a config accepts has a tested basis
@pytest.mark.parametrize("order", [1, 2, 3, _MAX_DETREND_ORDER])
@pytest.mark.parametrize("size", ["m+2", 16, 1000, 33075, 132_300])
def test_detrend_basis_is_orthonormal_and_spans_the_polynomials(order, size, monkeypatch):
    s = order + 2 if size == "m+2" else size
    x = (2.0 * np.arange(s) - (s - 1)) / (s - 1)
    reference = np.linalg.qr(x[:, np.newaxis] ** np.arange(order + 1))[0]

    def no_qr(*args, **kwargs):
        raise AssertionError("the detrending basis calls np.linalg.qr")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    _detrend_basis.cache_clear()
    rows = _basis(s, order)
    assert rows.shape == (order + 1, s) and rows.flags.c_contiguous
    basis = rows.T
    np.testing.assert_allclose(_pairwise_gram(basis, basis), np.eye(order + 1),
                               rtol=0, atol=1e-12)
    # two orthogonal projectors of equal rank differ in spectral norm by
    # |(I - R R^T) Q|, which bounds every entry of Q Q^T - R R^T without
    # forming either s x s matrix
    outside = basis - reference @ _pairwise_gram(reference, basis)
    assert np.linalg.norm(outside, 2) <= 1e-12


def test_bidirectional_is_a_fixed_constant():
    # segments are always taken from both ends of the profile (their counts
    # are pinned in test_fluctuation_function_matches_per_segment_route)
    assert MfdfaConfig.bidirectional is True
    assert MfdfaConfig().bidirectional is True
    with pytest.raises(TypeError):
        MfdfaConfig(bidirectional=False)


def test_digital_silence_is_degenerate():
    sig = Signal(np.zeros(4096), 100.0)
    with pytest.raises(DegenerateSegmentError) as err:
        mfdfa(sig)
    assert err.value.scale >= 16
    assert err.value.segment >= 1
    assert "s=" in str(err.value) and "v=" in str(err.value)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("fraction", [0.05, 0.2, 0.5])
def test_trailing_digital_silence_is_degenerate(fraction, order):
    # silent segments leave F^2 of rounding size, which need not be exactly 0
    x = gen_cascade_noise(48_000, 0.7, 1).samples.copy()
    x[int(x.size * (1 - fraction)):] = 0.0
    with pytest.raises(DegenerateSegmentError, match="zero fluctuation"):
        fluctuation_function(compute_profile(x), MfdfaConfig(detrend_order=order))


@pytest.mark.parametrize(
    "zeros, expected",
    [(slice(None, 819), (16, 1, "forward")), (slice(-24, None), (16, 1, "backward"))],
    ids=["leading", "trailing"],
)
def test_silence_report_names_first_segment_in_scale_then_segment_order(zeros, expected):
    # 8191 = 511 * 16 + 15: 24 trailing zeros silence the last backward
    # segment at s = 16 but no forward one, and both directions at s = 21;
    # 819 leading zeros silence segments of both directions at many scales
    x = gen_cascade_noise(8191, 0.7, 3).samples.copy()
    x[zeros] = 0.0
    with pytest.raises(DegenerateSegmentError) as err:
        fluctuation_function(compute_profile(x))
    assert (err.value.scale, err.value.segment, err.value.direction) == expected


def test_oracles_and_near_silence_are_not_degenerate():
    near_silent = gen_cascade_noise(48_000, 0.7, 1).samples.copy()
    near_silent[-4_800:] = 1e-7 * np.random.default_rng(1).standard_normal(4_800)
    signals = [
        gen_white_noise(48_000, 0).samples,
        gen_fgn_prefix(0.3, 48_000, 1).samples,
        gen_fgn_prefix(0.9, 48_000, 1).samples,
        gen_binomial_cascade(CascadeSpec(16, 0.75)).samples,
        gen_cascade_noise(48_000, 0.7, 1).samples,
        near_silent,  # flagging near-silence is a separate, pipeline-level matter
    ]
    for x in signals:
        for order in (1, 2, 3):
            surface = fluctuation_function(compute_profile(x), MfdfaConfig(detrend_order=order))
            assert np.all(surface.values > 0)


# --- detrending kernel against references --------------------------------------

def _lstsq_msq(segments, order):
    """Reference F^2 per row: least squares on the scaled Vandermonde."""
    s = segments.shape[1]
    x = (2.0 * np.arange(s) - (s - 1)) / max(s - 1, 1)
    design = np.polynomial.polynomial.polyvander(x, order)
    coef = np.linalg.lstsq(design, segments.T, rcond=None)[0]
    resid = segments.T - design @ coef
    return np.mean(resid * resid, axis=0)


def _lse_q_means(fluctuations, q_grid):
    """Reference F_q of one scale: log-sum-exp shifted by each row's maximum."""
    logs = np.log(np.asarray(fluctuations, dtype=float))
    q = np.asarray(q_grid, dtype=float)
    out = np.empty(q.size)
    near_zero = np.abs(q) <= MfdfaConfig.q_zero_epsilon
    out[near_zero] = math.exp(0.5 * logs.mean())
    rest = ~near_zero
    z = 0.5 * np.outer(q[rest], logs)
    zmax = z.max(axis=1)
    lse = zmax + np.log(np.exp(z - zmax[:, np.newaxis]).sum(axis=1))
    out[rest] = np.exp((lse - math.log(logs.size)) / q[rest])
    return out


def _segments(y, s):
    """Forward then backward segments, in fluctuation_function's order."""
    n = y.size // s
    return np.concatenate([y[: n * s].reshape(n, s), y[y.size - n * s :].reshape(n, s)[::-1]])


def _msq(segments, order):
    """F^2 of every row of ``segments``, by the kernel of fluctuation_function."""
    return _segment_msq(segments, _basis(segments.shape[1], order), np.empty(len(segments)))


@pytest.fixture(scope="module")
def reference_signals():
    signals = {f"fgn-{h}": gen_fgn(FgnSpec(h, 2**15, 7)).samples for h in (0.3, 0.5, 0.7, 0.9)}
    signals["cascade-16"] = gen_binomial_cascade(CascadeSpec(16, 0.75)).samples
    signals["cascade-noise"] = gen_cascade_noise(2**15, 0.7, 7).samples
    return signals


@pytest.mark.parametrize("order", [1, 2, 3])
def test_fluctuation_matches_lstsq_reference(reference_signals, order):
    config = MfdfaConfig(detrend_order=order)
    for name, x in reference_signals.items():
        profile = compute_profile(x)
        surface = fluctuation_function(profile, config)
        for j, s in enumerate(surface.scale_grid):
            msq = _lstsq_msq(_segments(profile.values, int(s)), order)
            expected = _lse_q_means(msq, config.q_grid)
            np.testing.assert_allclose(
                surface.values[:, j], expected, rtol=1e-9, atol=0, err_msg=f"{name} s={s}"
            )


@pytest.mark.parametrize(
    "q_grid",
    [None, build_q_grid(-5.0, 5.0, 0.05), [-200.0, -50.0, -5.0, 0.0, 2.0, 5.0, 50.0, 200.0],
     [-3.7, -1.1, -0.3, 0.0, 0.1, 2.0, 4.4], [2.0]],
    ids=["default", "201-q", "extreme", "irregular", "one-value"],
)
def test_q_moments_match_lse_reference(reference_signals, q_grid):
    # all scales share one sign-anchored pass; the reference takes each
    # scale's F^2 on its own
    config = MfdfaConfig(q_grid=q_grid)
    for name, x in reference_signals.items():
        profile = compute_profile(x)
        surface = fluctuation_function(profile, config)
        for j, s in enumerate(surface.scale_grid):
            msq = _msq(_segments(profile.values, int(s)), config.detrend_order)
            expected = _lse_q_means(msq, config.q_grid)
            assert np.all(np.isfinite(expected))
            np.testing.assert_allclose(
                surface.values[:, j], expected, rtol=1e-12, atol=0, err_msg=f"{name} s={s}"
            )


@pytest.mark.parametrize("q_grid", [None, build_q_grid(-5.0, 5.0, 0.05)], ids=["default", "201-q"])
def test_q_moments_exponentiate_about_2_sqrt_k_rows_per_sign(monkeypatch, q_grid):
    # each term is exp(base h) exp(offset h), so a sign's K orders need
    # ceil(sqrt(K)) bases and as many shared offsets; an offset tolerance
    # that stopped matching would bring back K rows
    q = MfdfaConfig(q_grid=q_grid).q_grid
    k = np.count_nonzero(q > 0)
    assert k == np.count_nonzero(q < 0)
    msq = gen_white_noise(10_000, 3).samples ** 2
    exp, exponentiated = np.exp, []

    def counting_exp(x, *args, **kwargs):
        exponentiated.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    q_order_means(msq, q)
    # on one scale, one exponential per q follows the rows of terms
    rows = (sum(exponentiated) - q.size) / msq.size
    assert rows <= 2 * (2 * math.ceil(math.sqrt(k)) + 2), rows


def test_order_one_fluctuation_matches_extended_precision_on_cascade():
    # closed-form line fit in np.longdouble; projecting the segments without
    # anchoring each at its first value misses this bound (~4e-9)
    y = compute_profile(gen_binomial_cascade(CascadeSpec(16, 0.75))).values
    for s in default_scale_grid(y.size):
        segments = _segments(y, int(s))
        ext = segments.astype(np.longdouble)
        t = np.arange(s, dtype=np.longdouble)
        t -= t.mean()
        yc = ext - ext.mean(axis=1, keepdims=True)
        resid = yc - np.outer((yc * t).sum(axis=1) / (t * t).sum(), t)
        expected = (resid * resid).mean(axis=1)
        rel = np.abs(_msq(segments, 1) - expected) / expected
        assert float(rel.max()) <= 1e-10, f"s={s}"


@pytest.mark.parametrize("values", [
    [], [3.0], [2, 2, 2], [5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5], [0.5, -0.0, 0.0, 0.5, -1e-300],
    [math.nan], [math.nan, 1.0, math.nan, -math.inf, math.inf, math.inf, math.nan],
])
def test_distinct_matches_np_unique(values):
    values = np.array(values)
    got, expected = _distinct(values), np.unique(values)
    assert got.dtype == expected.dtype and np.array_equal(got, expected, equal_nan=True)


def test_analysis_leaves_numpy_ma_unimported():
    # numpy 2's np.unique imports numpy.ma at its first call (about 1.6 MiB
    # of peak RSS); numpy 1 imports it with numpy itself
    script = (
        "import sys\n"
        "import numpy\n"
        "before = 'numpy.ma' in sys.modules\n"
        "from mfaudio import gen_cascade_noise, mfdfa\n"
        "from mfaudio.manifest import parse_scale_rule\n"
        "mfdfa(gen_cascade_noise(4096, 0.7, 1))\n"
        "parse_scale_rule('16:512:8')\n"
        "print(before, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(mfaudio.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    before, after = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, check=True, text=True,
    ).stdout.split()
    assert after == before


def test_fluctuation_bytes_do_not_depend_on_blas_threads():
    # the q-moment sums are matrix products, which on the 201-q grid reach
    # sizes where OpenBLAS may use threads
    script = (
        "import sys\n"
        "from mfaudio import MfdfaConfig, compute_profile, fluctuation_function, gen_fgn_prefix\n"
        "from mfaudio.manifest import build_q_grid\n"
        "profile = compute_profile(gen_fgn_prefix(0.7, 132_300, 4))\n"
        "for config in (MfdfaConfig(), MfdfaConfig(q_grid=build_q_grid(-5.0, 5.0, 0.05))):\n"
        "    sys.stdout.buffer.write(fluctuation_function(profile, config).values.tobytes())\n"
    )
    src = str(Path(mfaudio.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(outputs[0]) == (41 + 201) * 20 * 8
    assert outputs[0] == outputs[1]


def test_fluctuation_peak_memory_on_a_paper_window():
    # 201 q values on a 6 s window at 22.05 kHz: ~50k segments, so holding a
    # sign's whole (q rows x segments) array of terms would take ~40 MiB
    profile = compute_profile(gen_fgn_prefix(0.55, 132_300, 4))
    config = MfdfaConfig(q_grid=build_q_grid(-5.0, 5.0, 0.05))
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        fluctuation_function(profile, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_a_paper_window_caches_only_its_small_bases():
    # the 7 scales above 2**11 hold 94% of the window's 1.52 MiB of bases
    n = 132_300
    _detrend_basis.cache_clear()
    mfdfa(gen_fgn_prefix(0.55, n, 4))
    scales = default_scale_grid(n)
    small = int(np.sum(scales <= _CACHED_SCALE_MAX))
    assert 0 < small < scales.size
    assert _detrend_basis.cache_info().currsize == small


def test_a_cold_paper_window_peaks_below_two_windows():
    # every basis built in the call: 3.17 windows when all of them were
    # cached, 1.75 with the large ones built per scale and dropped
    n = 132_300
    samples = np.array(gen_fgn_prefix(0.55, n, 4).samples, dtype=np.float64)
    _detrend_basis.cache_clear()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        _mfdfa_in_place(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * 8, f"{peak / (n * 8):.2f} windows"


# --- scaling fit ---------------------------------------------------------------

def test_fit_hurst_exact_power_law():
    scales = np.array([16, 32, 64, 128])
    q = np.array([-2.0, 0.0, 2.0])
    values = np.vstack([scales**0.5] * 3).astype(float)
    surface = FluctuationSurface(q, scales, values, np.full(4, 8))
    curve = fit_hurst(surface)
    assert np.allclose(curve.h, 0.5, atol=1e-12)
    assert np.allclose(curve.r_squared, 1.0, atol=1e-12)


def test_fit_hurst_needs_four_scales():
    scales = np.array([16, 32, 64])
    surface = FluctuationSurface(
        np.array([2.0]), scales, np.array([[4.0, 5.0, 6.0]]), np.full(3, 4)
    )
    with pytest.raises(InsufficientScalesError):
        fit_hurst(surface)


def test_fit_range_restricts_regression():
    scales = np.array([8, 16, 32, 64, 128, 256])
    # power law with a corrupted first point; fitting [1, 6) ignores it
    vals = scales.astype(float) ** 0.7
    vals[0] *= 10.0
    surface = FluctuationSurface(np.array([2.0]), scales, vals[np.newaxis, :], np.full(6, 4))
    full = fit_hurst(surface)
    tail = fit_hurst(surface, (1, 6))
    assert abs(tail.h[0] - 0.7) < 1e-12
    assert abs(full.h[0] - 0.7) > 0.1


# --- tau and spectrum ------------------------------------------------------------

def test_fit_range_flows_through_config():
    x = gen_cascade_noise(4096, 0.7, 12).samples
    full = mfdfa(x)
    n_scales = full.surface.scale_grid.size
    trimmed = mfdfa(x, MfdfaConfig(fit_range=(2, n_scales)))
    assert not np.allclose(full.hurst.h, trimmed.hurst.h)
    # the surface itself is unaffected; only the regression window moves
    assert np.array_equal(full.surface.values, trimmed.surface.values)


def test_tau_is_linear_for_constant_h():
    q = np.linspace(-5, 5, 41)
    curve = HurstCurve(q, np.full(41, 0.62), np.ones(41))
    tau = tau_from_h(curve)
    assert np.allclose(tau, 0.62 * q - 1.0, atol=1e-15)
    assert tau[20] == -1.0  # q = 0 exactly


def test_monofractal_spectrum_collapses_to_point():
    q = np.linspace(-5, 5, 41)
    curve = HurstCurve(q, np.full(41, 0.62), np.ones(41))
    spec = legendre_spectrum(curve)
    assert np.allclose(spec.alpha, 0.62, atol=1e-15)
    assert np.allclose(spec.f_alpha, 1.0, atol=1e-15)


def test_spectrum_needs_three_qs_spanning_zero():
    with pytest.raises(InsufficientSpectrumError):
        legendre_spectrum(HurstCurve(np.array([2.0]), np.array([0.5]), np.ones(1)))
    q = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ConfigError):
        legendre_spectrum(HurstCurve(q, np.full(3, 0.5), np.ones(3)))


# --- width -----------------------------------------------------------------------

def _parabola_spectrum(alpha0=0.8, n=11):
    alpha = alpha0 + np.linspace(-1.0, 1.0, n)
    f = 1.0 - (alpha - alpha0) ** 2
    q = np.linspace(-5, 5, n)
    return SingularitySpectrum(q, np.zeros(n), alpha, f, True)


def test_width_exact_parabola():
    # A = -1 and B = 0, so W = sqrt(B^2 - 4A) / (-A) = 2
    res = spectrum_width(_parabola_spectrum())
    assert [f.name for f in dataclasses.fields(res)] == ["width", "alpha0", "asymmetry"]
    assert res.width == pytest.approx(2.0, abs=1e-12)
    assert res.asymmetry == pytest.approx(0.0, abs=1e-12)
    assert res.alpha0 == pytest.approx(0.8, abs=1e-12)


def test_width_endpoints_method():
    res = spectrum_width(_parabola_spectrum(), "endpoints")
    assert res.width == pytest.approx(2.0, abs=1e-12)
    assert math.isnan(res.asymmetry)


def test_width_requires_three_distinct_alphas():
    n = 5
    spec = SingularitySpectrum(
        np.linspace(-2, 2, n), np.zeros(n), np.full(n, 0.5), np.ones(n), True
    )
    with pytest.raises(InsufficientSpectrumError):
        spectrum_width(spec)


def test_width_counts_nan_alphas_as_one_value():
    # as np.unique counts them: one finite alpha and four NaNs are two values
    alpha = np.array([math.nan, 0.4, math.nan, math.nan, math.nan])
    spec = SingularitySpectrum(np.linspace(-2, 2, 5), np.zeros(5), alpha, np.ones(5), True)
    with pytest.raises(InsufficientSpectrumError, match="3 distinct"):
        spectrum_width(spec)


def test_width_rejects_convex_spectrum():
    n = 11
    alpha = np.linspace(-1, 1, n)
    f = 0.6 + alpha**2  # upward parabola
    spec = SingularitySpectrum(np.linspace(-5, 5, n), np.zeros(n), alpha, f, True)
    with pytest.raises(NonConcaveSpectrumError):
        spectrum_width(spec)


def _lstsq_width(spectrum):
    """(W, B) of the quadratic width fit by LAPACK least squares."""
    f, alpha = spectrum.f_alpha, spectrum.alpha
    mask = f >= 0.5
    u = alpha[mask] - alpha[np.argmax(f)]
    a, b = np.linalg.lstsq(np.column_stack([u * u, u]), f[mask] - 1.0, rcond=None)[0]
    return math.sqrt(b * b - 4.0 * a) / -a, b


def test_width_fit_matches_lstsq(cascade_result):
    alpha = 0.7 + np.linspace(-0.35, 0.6, 41)
    skewed = 0.98 - 1.6 * (alpha - 0.72) ** 2 + 0.45 * (alpha - 0.72) ** 3
    spectra = [
        _parabola_spectrum(),
        SingularitySpectrum(np.linspace(-5, 5, 41), np.zeros(41), alpha, skewed, True),
        cascade_result.spectrum,
    ]
    for spectrum in spectra:
        res = spectrum_width(spectrum)
        width, b = _lstsq_width(spectrum)
        assert type(res.width) is float and type(res.asymmetry) is float
        assert res.width == pytest.approx(width, rel=1e-12, abs=0)
        assert res.asymmetry == pytest.approx(b, rel=0, abs=1e-12)


@pytest.mark.parametrize("alpha", [
    [0.9, 0.7, 0.7, 0.6, 0.2],  # lstsq gave its minimum-norm (A, B): W = 10.96
    [0.9, 0.6, 0.7, 0.6, 0.2],  # one nonzero offset, twice
])
def test_width_refuses_an_underdetermined_fit(alpha):
    # the points with f >= 1/2 hold the apex and one distinct offset
    # from it: one equation for A and B
    f = np.array([0.2, 0.9, 1.0, 0.8, 0.1])
    spec = SingularitySpectrum(np.linspace(-2, 2, 5), np.zeros(5), np.array(alpha), f, True)
    with pytest.raises(InsufficientSpectrumError, match="apex neighbourhood too narrow"):
        spectrum_width(spec)
    # a second distinct offset determines the fit
    spec = SingularitySpectrum(spec.q_grid, spec.tau, np.array([0.9, 0.8, 0.7, 0.6, 0.2]), f, True)
    assert spectrum_width(spec).width == pytest.approx(_lstsq_width(spec)[0], rel=1e-12)


def test_width_refuses_a_nan_alpha_near_the_apex():
    alpha = np.array([0.9, 0.8, 0.7, math.nan, 0.5, 0.2])
    f = np.array([0.2, 0.9, 1.0, 0.8, 0.7, 0.1])
    spec = SingularitySpectrum(np.linspace(-2, 2, 6), np.zeros(6), alpha, f, True)
    with pytest.raises(InsufficientSpectrumError):
        spectrum_width(spec)


def test_mfdfa_calls_no_linear_algebra_routine(monkeypatch):
    # a window's first LAPACK call maps about 0.9 MiB of library pages

    def refuse(*args, **kwargs):
        raise AssertionError("a window calls np.linalg")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError):
        np.linalg.lstsq(np.eye(2), np.ones(2))
    _detrend_basis.cache_clear()
    result = mfdfa(gen_cascade_noise(8192, 0.7, 3))
    assert math.isfinite(result.width.width)


# --- whole-analysis properties -------------------------------------------------

def test_mfdfa_is_deterministic():
    x = gen_cascade_noise(4096, 0.7, 5).samples
    r1 = mfdfa(x)
    r2 = mfdfa(x)
    assert np.array_equal(r1.hurst.h, r2.hurst.h)
    assert np.array_equal(r1.surface.values, r2.surface.values)
    assert r1.width.width == r2.width.width


def test_mfdfa_affine_invariance():
    for seed in (0, 1):
        x = gen_cascade_noise(4096, 0.72, seed).samples
        r1 = mfdfa(x)
        r2 = mfdfa(1000.0 * x + 7.0)
        assert np.allclose(r1.hurst.h, r2.hurst.h, rtol=1e-9, atol=1e-12)
        assert np.allclose(r1.spectrum.alpha, r2.spectrum.alpha, rtol=1e-9, atol=1e-12)
        assert np.allclose(r1.spectrum.f_alpha, r2.spectrum.f_alpha, rtol=1e-9, atol=1e-12)
        assert r1.width.width == pytest.approx(r2.width.width, rel=1e-9)


def test_mfdfa_error_names_failing_stage():
    with pytest.raises(DegenerateSegmentError) as err:
        mfdfa(Signal(np.zeros(1024), 100.0))
    assert "stage fluctuation" in str(err.value)


def test_an_overflowing_fluctuation_is_an_error_not_silence():
    # at 1e300 every F^2 overflows to inf; the silence floor's square used
    # to overflow too, with a RuntimeWarning, and the window was flagged
    # as digital silence at s=16, v=1
    x = gen_white_noise(8000, 0).samples
    with pytest.raises(NonFiniteDataError) as err:
        mfdfa(x * 1e300)
    assert str(err.value) == "stage fluctuation: fluctuation function overflowed; rescale the input"
    assert mfdfa(x * 1e150).width.width == pytest.approx(mfdfa(x).width.width, rel=1e-12)


def test_analysis_never_writes_the_callers_array():
    x = gen_cascade_noise(8192, 0.7, 3).samples
    before = x.tobytes()
    profile = compute_profile(x)
    assert x.tobytes() == before and not np.shares_memory(profile.values, x)
    values = profile.values.tobytes()
    fluctuation_function(profile)
    assert profile.values.tobytes() == values
    mfdfa(x)
    mfdfa(Signal(x, 8000.0))
    assert x.tobytes() == before


def test_q_lattice_is_built_once_per_grid_and_read_only():
    config = MfdfaConfig(q_grid=build_q_grid(-5.0, 5.0, 0.05))
    profile = compute_profile(gen_cascade_noise(8000, 0.7, 3))
    _q_lattice.cache_clear()
    first = fluctuation_function(profile, config).values
    assert np.array_equal(fluctuation_function(profile, config).values, first)
    info = _q_lattice.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for sign in _q_lattice(config.q_grid.tobytes(), config.q_zero_epsilon):
        arrays = [a for a in sign if isinstance(a, np.ndarray)]
        assert len(arrays) == 5 and not any(a.flags.writeable for a in arrays)


def test_surface_monotone_in_q_on_noise():
    x = np.random.default_rng(20).standard_normal(2048)
    surface = fluctuation_function(compute_profile(x))
    assert np.all(np.diff(surface.values, axis=0) >= -1e-12 * surface.values[:-1])


# --- oracle-signal invariants ------------------------------------------------

@pytest.fixture(scope="module")
def cascade_result():
    return mfdfa(gen_binomial_cascade(CascadeSpec(16, 0.75)))


def test_tau_concave_on_cascade(cascade_result):
    q = cascade_result.spectrum.q_grid
    slopes = np.diff(cascade_result.spectrum.tau) / np.diff(q)
    assert np.all(np.diff(slopes) <= 1e-9)


def test_spectrum_dimension_bounds_on_oracles(cascade_result):
    from mfaudio import FgnSpec, gen_fgn

    for result in (cascade_result, mfdfa(gen_fgn(FgnSpec(0.7, 2**16, 0)))):
        # f(alpha) at q = 0 is exactly 1, so the apex sits within 0.05 of 1
        assert result.spectrum.f_alpha.max() <= 1.05
        assert result.spectrum.f_alpha.max() >= 0.95


def test_cascade_alpha_endpoints_match_closed_form(cascade_result):
    from mfaudio import analytic_cascade_alpha

    alpha = cascade_result.spectrum.alpha
    assert alpha[-1] == pytest.approx(analytic_cascade_alpha(5.0, 0.75), abs=0.05)
    assert alpha[0] == pytest.approx(analytic_cascade_alpha(-5.0, 0.75), abs=0.05)


def test_monofractal_h_range_shrinks_with_length():
    from mfaudio import FgnSpec, gen_fgn

    spans = {}
    for n_exp in (12, 16):
        vals = []
        for seed in range(3):
            curve = mfdfa(gen_fgn(FgnSpec(0.7, 2**n_exp, seed))).hurst
            vals.append(curve.h.max() - curve.h.min())
        spans[n_exp] = np.mean(vals)
    assert spans[16] < spans[12]


def test_white_noise_has_small_width():
    from mfaudio import gen_white_noise

    result = mfdfa(gen_white_noise(2**16, 0))
    assert result.hurst.at(2.0)[0] == pytest.approx(0.5, abs=0.05)
    assert result.width.width < 0.5


def test_music_like_window_width_band():
    # 6 s windows at 22050 Hz of amplitude-modulated noise land in the
    # empirical width range of real sung recordings
    for seed in range(3):
        result = mfdfa(gen_cascade_noise(132_300, 0.7, seed, 22050.0))
        assert 0.2 <= result.width.width <= 0.9


# --- config validation -----------------------------------------------------------

def test_config_rejects_bad_grids():
    with pytest.raises(ConfigError):
        MfdfaConfig(q_grid=[2.0, 1.0])  # not increasing
    with pytest.raises(ConfigError):
        MfdfaConfig(q_grid=[-1.0, 0.0, 1.0])  # missing q = 2
    with pytest.raises(ConfigError):
        MfdfaConfig(scales=[4, 8], detrend_order=3)  # s < m + 2
    with pytest.raises(ConfigError):
        MfdfaConfig(detrend_order=0)
    with pytest.raises(TypeError):
        MfdfaConfig(width_method="cubic")  # a fixed ClassVar, as bidirectional is
    with pytest.raises(ConfigError, match="q_grid"):
        MfdfaConfig(q_grid=[[1.0], [1.0, 2.0]])  # ragged
    with pytest.raises(ConfigError, match="scales"):
        MfdfaConfig(scales=[[16], [16, 32]])


def test_config_accepts_numpy_integers():
    config = MfdfaConfig(
        detrend_order=np.int64(2), fit_range=(np.int32(1), np.int64(6)),
    )
    assert config.detrend_order == 2
    assert config.fit_range == (1, 6) and all(type(b) is int for b in config.fit_range)
    assert mfdfa(gen_cascade_noise(4096, 0.7, 5), config).hurst.h.size == 41


def test_config_rejects_explicit_grid_too_short_to_fit():
    # decidable without a signal, so raised by the constructor, not per window
    with pytest.raises(InsufficientScalesError):
        MfdfaConfig(scales=[16, 32, 64])
    with pytest.raises(InsufficientScalesError):
        MfdfaConfig(scales=[16, 32, 64, 128, 256], fit_range=(1, 6))
    with pytest.raises(ConfigError):
        MfdfaConfig(fit_range=(2, 5))  # 3 scales on any grid


def test_a_fit_range_past_the_grid_names_the_grid_end():
    # both used to say the range "holds fewer than the 4 scales" or is "outside" the grid
    past = "fit range (0, 6) runs past the grid's end: stop <= 5"
    with pytest.raises(InsufficientScalesError, match=re.escape(past)):
        MfdfaConfig(scales=[16, 32, 64, 128, 256], fit_range=(0, 6))
    scales = np.array([16, 32, 64, 128, 256])
    surface = FluctuationSurface(np.array([2.0]), scales, scales[np.newaxis, :] ** 0.5, np.full(5, 4))
    with pytest.raises(InsufficientScalesError, match=re.escape(past)):
        fit_hurst(surface, (0, 6))
    # no default grid has more than 20 scales
    with pytest.raises(InsufficientScalesError, match="stop <= 20"):
        MfdfaConfig(fit_range=(0, 10**30))


def test_config_enforces_scale_bounds_per_signal():
    config = MfdfaConfig(scales=[16, 32, 64, 128])
    with pytest.raises(ConfigError):
        config.scales_for(256)  # 128 > 256 // 4


def test_default_scale_grid_spans_16_to_quarter_n():
    grid = default_scale_grid(2**16)
    assert grid[0] == 16
    assert grid[-1] == 2**14
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ConfigError):
        default_scale_grid(60)


def test_minimum_signal_length_enforced():
    with pytest.raises(ConfigError):
        mfdfa(np.random.default_rng(0).standard_normal(63))
