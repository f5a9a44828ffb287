import math
import tracemalloc

import numpy as np
import pytest

from mfaudio import (
    CascadeSpec,
    ConfigError,
    FgnSpec,
    MfdfaConfig,
    analytic_cascade_alpha,
    analytic_cascade_h,
    cascade_masses,
    compute_profile,
    fgn_autocovariance,
    fit_hurst,
    fluctuation_function,
    gen_binomial_cascade,
    gen_cascade_noise,
    gen_fgn,
    gen_fgn_prefix,
    gen_white_noise,
    shuffle,
)

H2_CONFIG = MfdfaConfig(q_grid=[2.0])


def h2_of(signal) -> float:
    surface = fluctuation_function(compute_profile(signal), H2_CONFIG)
    return float(fit_hurst(surface).h[0])


# --- PRNG pinning -----------------------------------------------------------
#
# The generators draw from numpy's PCG64 by construction; these frozen
# vectors detect any change of algorithm or draw order that would break
# reproducibility of golden outputs.

def test_prng_stream_is_pinned():
    raw = np.random.PCG64(0).random_raw(3)
    assert list(raw) == [
        11749869230777074271,
        4976686463289251617,
        755828109848996024,
    ]
    normals = np.random.Generator(np.random.PCG64(0)).standard_normal(4)
    assert np.allclose(
        normals,
        [0.1257302210933933, -0.1321048632913019, 0.6404226504432821, 0.10490011715303971],
        rtol=0,
        atol=1e-15,
    )


def test_fgn_draws_are_pinned():
    sig = gen_fgn(FgnSpec(0.7, 8, 1))
    assert np.allclose(
        sig.samples,
        [0.682969740614943, 0.16544458401598544, 0.8078416549631311,
         0.8502194808257779, 0.2664251355137349, -0.6255514879279367,
         -0.6406066268002382, 0.8588652318824237],
        rtol=0,
        atol=1e-15,
    )


# --- white noise --------------------------------------------------------------

def test_white_noise_deterministic():
    a = gen_white_noise(1000, 42)
    b = gen_white_noise(1000, 42)
    assert np.array_equal(a.samples, b.samples)
    c = gen_white_noise(1000, 43)
    assert not np.array_equal(a.samples, c.samples)


def test_white_noise_moments():
    sig = gen_white_noise(2**16, 7)
    assert abs(sig.samples.mean()) < 0.02
    assert abs(sig.samples.var() - 1.0) < 0.02


def test_white_noise_hurst_is_half():
    h2s = [h2_of(gen_white_noise(2**16, seed)) for seed in range(3)]
    assert abs(np.mean(h2s) - 0.5) < 0.05


# --- fGn ------------------------------------------------------------------------

def test_autocovariance_closed_form():
    # H = 0.5 reduces to white noise
    gamma = fgn_autocovariance(0.5, np.arange(6))
    assert gamma[0] == 1.0
    assert np.allclose(gamma[1:], 0.0, atol=1e-15)
    # lag-1 value for general H
    assert fgn_autocovariance(0.7, [1])[0] == pytest.approx(2**0.4 - 1.0, rel=1e-12)


@pytest.mark.parametrize("hurst", [0.3, 0.55, 0.9, 0.99])
def test_autocovariance_matches_large_lag_asymptotics(hurst):
    # gamma(k) = H(2H-1) k^{2H-2} [1 + (2H-2)(2H-3)/(12 k^2) + O(k^-4)]; the
    # three-term difference |k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H} loses ~k^2
    # ulps to cancellation and misses this by 1e-3 or worse at k = 4e6
    k = np.unique(np.rint(np.geomspace(1e3, 4e6, 40)))
    asymptotic = (
        hurst * (2 * hurst - 1) * k ** (2 * hurst - 2)
        * (1 + (2 * hurst - 2) * (2 * hurst - 3) / (12 * k**2))
    )
    assert np.allclose(fgn_autocovariance(hurst, k), asymptotic, rtol=1e-8, atol=0)


def test_fgn_spec_validation():
    with pytest.raises(ConfigError):
        FgnSpec(1.2, 1024, 0)
    with pytest.raises(ConfigError):
        FgnSpec(0.7, 1000, 0)  # not a power of two


def _davies_harte_reference(spec):
    """Reference fGn: the full 2n-entry Hermitian spectrum and complex FFTs."""
    n, m = spec.length, 2 * spec.length
    gamma = fgn_autocovariance(spec.hurst, np.arange(n + 1))
    lam = np.clip(np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real, 0.0, None)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    u = rng.standard_normal(n + 1)
    v = rng.standard_normal(n - 1)
    w = np.zeros(m, dtype=complex)
    w[0] = math.sqrt(lam[0] / m) * u[0]
    w[n] = math.sqrt(lam[n] / m) * u[n]
    w[1:n] = np.sqrt(lam[1:n] / (2.0 * m)) * (u[1:n] + 1j * v)
    w[n + 1 :] = np.conj(w[n - 1 : 0 : -1])
    return np.fft.fft(w).real[:n]


@pytest.mark.parametrize("length", [2, 4, 8, 2**10, 2**16])
@pytest.mark.parametrize("hurst", [0.1, 0.55, 0.9, 0.99])
def test_fgn_matches_the_full_spectrum_reference(hurst, length):
    # lengths 2 and 4 are the edges of the half-spectrum indexing
    spec = FgnSpec(hurst, length, 3)
    diff = np.abs(gen_fgn(spec).samples - _davies_harte_reference(spec))
    assert diff.max() <= 1e-13


def test_fgn_peak_memory():
    # the full complex spectrum and its FFT took 15.1x the output at 2^20
    n = 2**20
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        gen_fgn(FgnSpec(0.55, n, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 8 * n, f"{peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("hurst", [0.1, 0.25, 0.5, 0.55, 0.75, 0.9, 0.99])
def test_autocovariance_bytes_match_one_expression(hurst):
    # in-place evaluation must round exactly like the plain expression;
    # H = 0.25 and 0.5 hit numpy's fast paths for k ** 0.5 and k ** 1
    lags = np.arange(2**16 + 1)
    k = np.abs(lags.astype(float))
    two_h = 2.0 * hurst
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / k
        gamma = 0.5 * k**two_h * (
            np.expm1(two_h * np.log1p(inv)) + np.expm1(two_h * np.log1p(-inv))
        )
    expected = np.where(k == 0, 1.0, gamma)
    assert fgn_autocovariance(hurst, lags).tobytes() == expected.tobytes()
    assert fgn_autocovariance(hurst, 3).shape == ()


def test_fgn_lag_one_autocorrelation():
    sig = gen_fgn(FgnSpec(0.7, 2**16, 9))
    x = sig.samples - sig.samples.mean()
    rho1 = (x[:-1] @ x[1:]) / (x @ x)
    assert rho1 == pytest.approx(2**0.4 - 1.0, abs=0.03)


def test_fgn_unit_variance():
    sig = gen_fgn(FgnSpec(0.8, 2**16, 2))
    assert sig.samples.var() == pytest.approx(1.0, abs=0.1)


def test_fgn_paper_length_at_high_hurst_is_unit_variance():
    # 180 s at 22.05 kHz is a prefix of 2^22 samples; at H = 0.9 an
    # inexact covariance makes their circulant embedding indefinite
    sig = gen_fgn_prefix(0.9, 180 * 22050, 5, 22050.0)
    assert len(sig) == 180 * 22050
    assert sig.samples.var() == pytest.approx(1.0, abs=0.1)


def test_fgn_prefix_truncates_a_power_of_two():
    sig = gen_fgn_prefix(0.6, 3000, 4, 100.0)
    assert len(sig) == 3000
    assert sig.sample_rate == 100.0
    full = gen_fgn(FgnSpec(0.6, 4096, 4))
    assert np.array_equal(sig.samples, full.samples[:3000])


def test_fgn_samples_keep_no_transform_alive():
    # the signal owns its n samples, not a view of the 2n-sample irfft
    # output, so a prefix holds no more than its power-of-two length
    sig = gen_fgn(FgnSpec(0.55, 2**12, 1))
    assert sig.samples.flags.owndata
    prefix = gen_fgn_prefix(0.55, 3000, 1).samples
    held = prefix if prefix.base is None else prefix.base
    assert held.nbytes <= 8 * 4096


def test_shuffle_preserves_multiset():
    sig = gen_fgn(FgnSpec(0.8, 2**10, 3))
    mixed = shuffle(sig, 17)
    assert np.array_equal(np.sort(mixed.samples), np.sort(sig.samples))
    assert np.array_equal(shuffle(sig, 17).samples, mixed.samples)
    assert not np.array_equal(mixed.samples, sig.samples)


def test_shuffle_destroys_long_range_correlation():
    sig = gen_fgn(FgnSpec(0.8, 2**16, 21))
    assert h2_of(sig) > 0.7  # correlated before shuffling
    assert abs(h2_of(shuffle(sig, 1)) - 0.5) < 0.05


# --- binomial cascade --------------------------------------------------------------

def test_cascade_two_level_hand_expansion():
    masses = cascade_masses(2, 0.75)
    assert np.allclose(masses, [0.5625, 0.1875, 0.1875, 0.0625], atol=1e-15)


def test_cascade_mass_conservation():
    assert cascade_masses(16, 0.75).sum() == 1.0  # dyadic weight: exact
    assert cascade_masses(12, 0.6).sum() == pytest.approx(1.0, rel=1e-12)


def test_cascade_uniform_split_limit():
    masses = cascade_masses(6, 0.5)
    assert np.allclose(masses, 2.0**-6, atol=1e-18)


def test_cascade_spec_validation():
    with pytest.raises(ConfigError):
        CascadeSpec(5, 0.75)
    with pytest.raises(ConfigError):
        CascadeSpec(12, 0.5)
    sig = gen_binomial_cascade(CascadeSpec(10, 0.75))
    assert len(sig) == 2**10


def test_analytic_cascade_h_values():
    assert analytic_cascade_h(1.0, 0.75) == pytest.approx(1.0, abs=1e-12)
    expected_h0 = -(math.log(0.75) + math.log(0.25)) / (2 * math.log(2))
    assert analytic_cascade_h(0.0, 0.75) == pytest.approx(expected_h0, rel=1e-12)
    assert expected_h0 == pytest.approx(1.2075, abs=5e-5)


def test_analytic_cascade_h_monotone():
    for a in (0.6, 0.75, 0.9):
        h = analytic_cascade_h(np.linspace(-5, 5, 41), a)
        assert np.all(np.diff(h) < 0)
        assert analytic_cascade_h(-5.0, a) > analytic_cascade_h(0.0, a) > analytic_cascade_h(5.0, a)


def test_analytic_cascade_alpha_values():
    assert analytic_cascade_alpha(5.0, 0.75) == pytest.approx(0.4215, abs=5e-4)
    assert analytic_cascade_alpha(-5.0, 0.75) == pytest.approx(1.9935, abs=5e-4)


# --- cascade-modulated noise ----------------------------------------------------

def test_cascade_noise_deterministic_and_sized():
    a = gen_cascade_noise(5000, 0.7, 3, 22050.0)
    b = gen_cascade_noise(5000, 0.7, 3, 22050.0)
    assert len(a) == 5000
    assert a.sample_rate == 22050.0
    assert np.array_equal(a.samples, b.samples)


def test_cascade_noise_is_modulated_noise():
    sig = gen_cascade_noise(2**14, 0.75, 6)
    # burstier than plain Gaussian noise: excess kurtosis well above 0
    x = sig.samples
    kurt = np.mean((x - x.mean()) ** 4) / x.var() ** 2 - 3.0
    assert kurt > 1.0
