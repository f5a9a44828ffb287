"""Seed-deterministic synthetic signals with known scaling behaviour.

These generators are the verification bedrock for the analysis core:
their Hurst exponents and singularity spectra are known in closed form,
so measured values can be checked against analytic truth.

Randomness comes exclusively from numpy's PCG64 bit generator, fixed
here by name so one (algorithm, seed) pair reproduces the same sequence
on every platform; frozen draw vectors are pinned in the test suite.

- white Gaussian noise: uncorrelated, h(2) = 0.5
- fractional Gaussian noise (fGn) with autocovariance
      gamma(k) = 0.5 (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}),
  sampled exactly by circulant embedding (Davies & Harte 1987) with real FFTs
- the deterministic binomial multiplicative cascade, whose generalized
  Hurst exponent has the closed form
      h(q) = 1/q - ln(a^q + (1-a)^q) / (q ln 2)
- cascade-modulated Gaussian noise: a stationary, music-like test signal
  (noise carrier with multifractal amplitude envelope)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .signal_io import Signal

_LN2 = math.log(2.0)
# gen_cascade_noise raises the unit-mean cascade envelope to this power,
# which softens the modulation
ENVELOPE_POWER = 0.5


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class FgnSpec:
    """Fractional Gaussian noise request: Hurst exponent, length, seed.

    The length must be a power of two so the circulant embedding stays
    exact and cheap.
    """

    hurst: float
    length: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.hurst < 1.0:
            raise ConfigError(f"hurst must lie in (0, 1), got {self.hurst}")
        if self.length < 2 or self.length & (self.length - 1):
            raise ConfigError(f"length must be a power of two >= 2, got {self.length}")


@dataclass(frozen=True)
class CascadeSpec:
    """Binomial cascade request: 2^levels cells, left-mass fraction ``weight``."""

    levels: int
    weight: float

    def __post_init__(self):
        if not 10 <= self.levels <= 24:
            raise ConfigError(f"levels must lie in [10, 24], got {self.levels}")
        if not 0.5 < self.weight < 1.0:
            raise ConfigError(f"weight must lie in (0.5, 1), got {self.weight}")


def gen_white_noise(n: int, seed: int, sample_rate: float = 1.0) -> Signal:
    """i.i.d. standard Gaussian samples."""
    if n < 2:
        raise ConfigError(f"need at least 2 samples, got {n}")
    return Signal(_rng(seed).standard_normal(n), sample_rate)


def fgn_autocovariance(hurst: float, lags) -> np.ndarray:
    """gamma(k) = 0.5 (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}).

    Evaluated as 0.5 k^{2H} (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k)))
    for k != 0: the direct three-term difference cancels catastrophically
    at large lags, and its error is enough to make the circulant
    embedding of a long series indefinite.
    """
    k = np.abs(np.array(lags, dtype=float, ndmin=1))
    zero = k == 0
    two_h = 2.0 * hurst
    with np.errstate(divide="ignore", invalid="ignore"):  # k = 0 and k = 1
        up, down = 1.0 / k, -1.0 / k
        for t in (up, down):  # in place, rounding as one expression would
            np.expm1(np.multiply(np.log1p(t, out=t), two_h, out=t), out=t)
        up += down
        k **= two_h
        k *= 0.5
        k *= up
    k[zero] = 1.0
    return k.reshape(np.shape(lags))


def gen_fgn(spec: FgnSpec, sample_rate: float = 1.0) -> Signal:
    """Unit-variance fractional Gaussian noise by circulant embedding.

    The embedding of the fGn covariance is nonnegative definite
    (Craigmile 2003), so negative eigenvalues can only be rounding; they
    are clipped at zero, and anything beyond rounding is an error.  Both
    FFTs are real and exact: the circulant row is real and even, so its
    eigenvalues are real (``rfft``); the random spectrum is Hermitian, so its
    series is real (``irfft`` of n + 1 entries).  The signal owns its n
    samples, not a view of the 2n-sample transform.  At 2^22 samples on 2
    x86-64 cores: 1.3 s, 160 MiB tracemalloc peak (full complex FFTs: 2.0 s,
    484 MiB).
    """
    n = spec.length
    gamma = fgn_autocovariance(spec.hurst, np.arange(n + 1))
    lam = np.fft.rfft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    del gamma
    if lam.min() < -1e-10 * lam.max():
        raise ConfigError(
            f"circulant embedding is not positive semidefinite for H={spec.hurst}, "
            f"n={spec.length}"
        )
    m = 2 * n
    lam = np.clip(lam, 0.0, None) / (2.0 * m)
    lam[[0, n]] *= 2.0  # w[0] and w[n] are real at sqrt(lam / m) u; exact, m = 2^j
    np.sqrt(lam, out=lam)

    rng = _rng(spec.seed)
    u = rng.standard_normal(n + 1)
    v = rng.standard_normal(n - 1)
    # fft(w)[:n] of the Hermitian w = sqrt(lam / 2m) (u + iv) is irfft(conj(w[:n + 1]))
    half = np.zeros(n + 1, dtype=complex)
    np.multiply(lam, u, out=half.real)
    np.multiply(lam[1:n], np.negative(v, out=v), out=half.imag[1:n])
    del lam, u, v
    series = np.fft.irfft(half, m, norm="forward")
    del half
    return Signal(series[:n].copy(), sample_rate)


def gen_fgn_prefix(hurst: float, n: int, seed: int, sample_rate: float = 1.0) -> Signal:
    """fGn of arbitrary length: the next power of two is generated and
    truncated (stationarity makes the prefix exact fGn)."""
    if n < 2:
        raise ConfigError(f"need at least 2 samples, got {n}")
    length = 1 << max(1, math.ceil(math.log2(n)))
    base = gen_fgn(FgnSpec(hurst, length, seed))
    return Signal(base.samples[:n], sample_rate)


def cascade_masses(levels: int, weight: float) -> np.ndarray:
    """Cell masses of the binomial measure after ``levels`` splits.

    Mass 1 on [0, 1) is split left/right into fractions (a, 1 - a) at
    every level; the 2^levels cell masses sum to 1.
    """
    if levels < 1:
        raise ConfigError(f"levels must be >= 1, got {levels}")
    if not 0.0 < weight < 1.0:
        raise ConfigError(f"weight must lie in (0, 1), got {weight}")
    masses = np.array([1.0])
    split = np.array([weight, 1.0 - weight])
    for _ in range(levels):
        masses = np.kron(masses, split)
    return masses


def gen_binomial_cascade(spec: CascadeSpec, sample_rate: float = 1.0) -> Signal:
    """Deterministic binomial measure, emitted as the cell-mass series."""
    return Signal(cascade_masses(spec.levels, spec.weight), sample_rate)


def analytic_cascade_h(q, weight: float):
    """Closed-form generalized Hurst exponent of the binomial cascade.

    h(q) = 1/q - ln(a^q + (1-a)^q) / (q ln 2) for |q| > 0, with the
    q -> 0 limit -(ln a + ln(1-a)) / (2 ln 2).  Scalar in, scalar out.
    """
    if not 0.5 < weight < 1.0:
        raise ConfigError(f"weight must lie in (0.5, 1), got {weight}")
    a, b = weight, 1.0 - weight
    qv = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.empty_like(qv)
    small = np.abs(qv) <= 1e-9
    out[small] = -(math.log(a) + math.log(b)) / (2.0 * _LN2)
    qs = qv[~small]
    out[~small] = 1.0 / qs - np.log(a**qs + b**qs) / (qs * _LN2)
    return float(out[0]) if np.isscalar(q) else out


def analytic_cascade_alpha(q, weight: float):
    """Closed-form singularity strength of the binomial cascade.

    alpha(q) = -(a^q ln a + b^q ln b) / ((a^q + b^q) ln 2), b = 1 - a.
    """
    if not 0.5 < weight < 1.0:
        raise ConfigError(f"weight must lie in (0.5, 1), got {weight}")
    a, b = weight, 1.0 - weight
    qv = np.atleast_1d(np.asarray(q, dtype=float))
    aq, bq = a**qv, b**qv
    alpha = -(aq * math.log(a) + bq * math.log(b)) / ((aq + bq) * _LN2)
    return float(alpha[0]) if np.isscalar(q) else alpha


def shuffle(signal: Signal, seed: int) -> Signal:
    """Uniform random permutation of the samples.

    The value multiset is preserved exactly while long-range correlation
    is destroyed, which is the classic surrogate test: a shuffled series
    should come out with h(2) near 0.5.
    """
    perm = _rng(seed).permutation(signal.samples.size)
    return Signal(signal.samples[perm], signal.sample_rate)


def gen_cascade_noise(n: int, weight: float, seed: int, sample_rate: float = 1.0) -> Signal:
    """Gaussian noise amplitude-modulated by a binomial-cascade envelope.

    The envelope is the cascade mass series scaled to unit mean and
    raised to ``ENVELOPE_POWER``.
    The result is a stationary-carrier signal with music-like burstiness
    and a genuinely multifractal amplitude structure, usable at any
    length.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 samples, got {n}")
    if not 0.5 < weight < 1.0:
        raise ConfigError(f"weight must lie in (0.5, 1), got {weight}")
    levels = max(1, math.ceil(math.log2(n)))
    masses = cascade_masses(levels, weight)[:n]
    envelope = (masses * 2.0**levels) ** ENVELOPE_POWER
    noise = _rng(seed).standard_normal(n)
    return Signal(noise * envelope, sample_rate)
