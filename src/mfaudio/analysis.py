"""Multifractal detrended fluctuation analysis (MFDFA).

The pipeline follows the standard formulation of Kantelhardt et al.,
Physica A 316 (2002) 87-114, with DFA detrending after Peng et al. (1994):

1. profile       Y(i) = sum_{k<=i} (x_k - mean(x))
2. fluctuation   F^2(s, v) = mean squared residual of a least-squares
                 polynomial of degree m over segment v of size s, the
                 part left by a projection onto an orthonormal basis;
                 segments are taken from the start of the profile and
                 from its end, and detrended in row blocks of fixed size
3. q-order mean  F_q(s) = { mean_v [F^2(s, v)]^(q/2) }^(1/q)
                 F_0(s) = exp{ 0.5 * mean_v ln F^2(s, v) }
                 taken over all scales on ln F^2, anchored at each
                 scale's maximum for q > 0 and its minimum for q < 0, so
                 |q| up to 200 (tested) neither overflows nor underflows;
                 each term is a product exp(b h) exp(o h) of about
                 2 sqrt(K) shared rows of exponentials for a sign's K
                 orders, and each scale's sums are one matrix product
4. scaling       F_q(s) ~ s^h(q), fitted by OLS in ln-ln space
5. spectrum      tau(q) = q h(q) - 1;  alpha = h + q h';
                 f(alpha) = q (alpha - h) + 1
6. width         W = alpha_1 - alpha_2, the root separation of the
                 quadratic A (alpha - alpha_0)^2 + B (alpha - alpha_0) + C
                 fitted around the spectrum apex with C pinned to 1

Natural logarithms are used throughout, and every reduction sums in an
order fixed by its input's shape, so results are bit-identical regardless
of scheduling or BLAS threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSegmentError,
    EmptySignalError,
    InsufficientScalesError,
    InsufficientSpectrumError,
    MfaudioError,
    NonConcaveSpectrumError,
    NonFiniteDataError,
    check_type,
)
from .signal_io import Signal

DEFAULT_MIN_SCALE = 16
DEFAULT_SCALE_COUNT = 20
# Spectrum points with f(alpha) >= APEX_FLOOR enter the quadratic width fit.
APEX_FLOOR = 0.5
# Digital-silence tolerance, in rounding units eps * sqrt(N) * max|Y| of
# the profile.  At N = 48,000 silent segments reach 0.5 units, a window
# with a tenth of 1e-7-amplitude noise stays above 2,000, and noise,
# fGn and cascade oracles above 1e5.
SILENCE_ULPS = 32.0
# The width fit refuses u whose angle to u^2 has a sine <= sqrt(eps): fewer
# than half of B's digits survive, and at 0 two unknowns have one equation.
_SINE_FLOOR = math.sqrt(np.finfo(float).eps)
# _q_moments exponentiates the segments in chunks of about this many terms,
# one reused buffer of 1 MiB (inside a 2 MiB L2), not all rows at once.
_Q_BLOCK_TERMS = 2**17
# _segment_msq detrends rows in blocks of about this many samples: one block
# for a 48,000-sample window at any scale (2**15 was 22% slower there).
_DETREND_BLOCK_TERMS = 2**16
# Bounds of the settings: float64 holds every integer scale to 2**53, and
# the detrending basis is tested up to order 8 ((m + 1) s floats per scale).
_MAX_SCALE = 2**53
_MAX_DETREND_ORDER = 8


def default_q_grid() -> np.ndarray:
    """-5 .. +5 in steps of 0.25; contains 0 and 2 exactly."""
    return np.linspace(-5.0, 5.0, 41)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array, as ``np.unique`` gives them:
    NaNs, sorted last, count as one value.  numpy 2's ``np.unique`` imports
    ``numpy.ma`` at its first call, about 1.6 MiB of peak RSS that a run
    needs for nothing else."""
    v = np.sort(values)
    new = v[1:] != v[:-1]
    new &= ~np.isnan(v[:-1])
    return np.concatenate((v[:1], v[1:][new]))


def _log_scales(lo: int, hi: int, count: int) -> np.ndarray:
    """The distinct integers nearest ``count`` log-spaced values from lo to hi."""
    return _distinct(np.rint(np.geomspace(lo, hi, count)).astype(int))


def default_scale_grid(n: int) -> np.ndarray:
    """DEFAULT_SCALE_COUNT log-spaced integer scales covering [DEFAULT_MIN_SCALE, n // 4]."""
    max_scale = n // 4
    if max_scale < DEFAULT_MIN_SCALE:
        raise ConfigError(
            f"series of length {n} is too short for scales >= {DEFAULT_MIN_SCALE} "
            f"(needs at least {4 * DEFAULT_MIN_SCALE} samples)"
        )
    return _log_scales(DEFAULT_MIN_SCALE, max_scale, DEFAULT_SCALE_COUNT)


def _fit_span(fit_range, n_scales: int) -> tuple[int, int]:
    """(lo, hi), the half-open scale-index range of the h(q) fit on an
    n_scales grid (None: all of it).  ConfigError if not an integer pair,
    lo < 0 or under 4 scales, on any grid; InsufficientScalesError past
    the grid's end, or for a whole grid of under 4 scales."""
    if fit_range is None:
        if n_scales < 4:
            raise InsufficientScalesError(f"a {n_scales}-scale grid has fewer than 4 scales to fit")
        return 0, n_scales
    if not (isinstance(fit_range, (tuple, list)) and len(fit_range) == 2):
        raise ConfigError(f"fit_range must be a (start, stop) pair, got {fit_range!r}")
    for bound in fit_range:
        check_type("fit_range", bound, int)
    lo, hi = map(int, fit_range)
    if not 0 <= lo <= hi - 4:
        raise ConfigError(f"fit_range ({lo}, {hi}) needs 0 <= start and >= 4 scales to regress")
    if hi > n_scales:
        raise InsufficientScalesError(
            f"fit range ({lo}, {hi}) runs past the grid's end: stop <= {n_scales}")
    return lo, hi


def _as_grid(name: str, value) -> np.ndarray:
    try:
        grid = np.asarray(value)
    except ValueError:  # a ragged sequence
        raise ConfigError(f"{name} must be a 1-D sequence, got {value!r}") from None
    if grid.ndim == 1 and any(isinstance(v, (bool, np.bool_)) for v in value):  # True is not 1
        raise ConfigError(f"{name} must hold numbers, not booleans, got {value!r}")
    return grid


@dataclass(frozen=True, eq=False)
class MfdfaConfig:
    """Settings of the MFDFA method; every field's default is overridable.

    ``scales=None`` resolves to ``default_scale_grid(len(profile))`` at
    analysis time, so one config can serve windows of different sizes.
    ``fit_range`` is a half-open index range into the scale grid.
    ``q_zero_epsilon`` is fixed: orders with |q| at or below it take the
    logarithmic-average limit.  So are ``bidirectional``, segments from both
    ends of the profile, and ``width_method``, the quadratic width.
    """

    q_grid: np.ndarray | Sequence[float] | None = None
    scales: np.ndarray | Sequence[int] | None = None
    detrend_order: int = 1
    fit_range: tuple[int, int] | None = None
    q_zero_epsilon: ClassVar[float] = 1e-9
    bidirectional: ClassVar[bool] = True
    width_method: ClassVar[str] = "quadratic"

    def __post_init__(self):
        q = default_q_grid() if self.q_grid is None else _as_grid("q_grid", self.q_grid)
        if q.ndim != 1 or q.size == 0 or q.dtype.kind not in "iuf":
            raise ConfigError("q_grid must be a non-empty 1-D sequence of numbers")
        if not np.all(np.isfinite(q)):
            raise ConfigError("q_grid must be finite")
        if np.any(np.diff(q) <= 0):
            raise ConfigError("q_grid must be strictly increasing")
        if not np.any(np.abs(q - 2.0) < 1e-9):
            raise ConfigError("q_grid must include q = 2")
        object.__setattr__(self, "q_grid", q.astype(float))

        check_type("detrend_order", self.detrend_order, int)
        if not 1 <= self.detrend_order <= _MAX_DETREND_ORDER:
            raise ConfigError(f"detrend_order {self.detrend_order} not in 1..{_MAX_DETREND_ORDER}")
        if self.scales is not None:  # a default grid starts at 16 >= _MAX_DETREND_ORDER + 2
            s = _as_grid("scales", self.scales)
            if (s.ndim != 1 or s.size == 0 or s.dtype.kind not in "iuf"
                    or not np.all(s == np.floor(s))):
                raise ConfigError("scales must be a 1-D sequence of integers")
            if not np.all((s >= 1) & (s <= _MAX_SCALE)):  # before the cast wraps them
                raise ConfigError("scales must lie in 1 .. 2**53")
            s = s.astype(int)
            if np.any(np.diff(s) <= 0):
                raise ConfigError("scales must be strictly increasing")
            if s[0] < self.detrend_order + 2:
                raise ConfigError(
                    f"detrend_order {self.detrend_order} leaves no residual degree of "
                    f"freedom at scale {s[0]} (need every scale >= m + 2)"
                )
            object.__setattr__(self, "scales", s)
        # no default grid has more than DEFAULT_SCALE_COUNT scales
        fit = self.fit_indices(DEFAULT_SCALE_COUNT if self.scales is None else self.scales.size)
        object.__setattr__(self, "fit_range", None if self.fit_range is None else fit)

    def scales_for(self, n: int) -> np.ndarray:
        """Concrete scale grid for a profile of length n.

        Only the checks that need n live here; enforcing max(s) <= n // 4
        also guarantees the minimum signal length of 4 * min(s).
        """
        if self.scales is not None and self.scales[-1] > n // 4:
            raise ConfigError(
                f"scale {self.scales[-1]} exceeds N/4 = {n // 4} for a series of length {n}"
            )
        scales = default_scale_grid(n) if self.scales is None else self.scales
        self.fit_indices(scales.size)
        return scales

    def fit_indices(self, n_scales: int) -> tuple[int, int]:
        """Half-open scale-index range of the regression on an n_scales grid."""
        return _fit_span(self.fit_range, n_scales)


@dataclass(frozen=True, eq=False)
class Profile:
    """Cumulative sum of mean-subtracted samples (random-walk-like series).

    Deviations from the mean sum to zero, so the final value is 0 up to
    rounding.
    """

    values: np.ndarray


@dataclass(frozen=True, eq=False)
class FluctuationSurface:
    """F_q(s) over a q-grid and a scale grid, all entries finite and > 0."""

    q_grid: np.ndarray
    scale_grid: np.ndarray
    values: np.ndarray  # shape (len(q_grid), len(scale_grid))
    segment_counts: np.ndarray  # segments entering the mean, per scale


@dataclass(frozen=True, eq=False)
class HurstCurve:
    """Generalized Hurst exponent h(q) with per-q regression diagnostics."""

    q_grid: np.ndarray
    h: np.ndarray
    r_squared: np.ndarray

    def at(self, q: float) -> tuple[float, float]:
        """(h, r^2) at grid point q; q must lie on the grid."""
        i = int(np.argmin(np.abs(self.q_grid - q)))
        if abs(self.q_grid[i] - q) > 1e-9:
            raise ConfigError(f"q = {q:g} is not on the analysis grid")
        return float(self.h[i]), float(self.r_squared[i])


@dataclass(frozen=True, eq=False)
class SingularitySpectrum:
    """tau(q), singularity strengths alpha(q), and dimensions f(alpha).

    ``alpha_monotone`` records whether alpha is non-increasing in q;
    finite-size noise may break monotonicity, which is permitted but
    worth surfacing.
    """

    q_grid: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    f_alpha: np.ndarray
    alpha_monotone: bool


@dataclass(frozen=True, eq=False)
class WidthResult:
    """Multifractal spectral width and apex diagnostics.

    For the quadratic method ``asymmetry`` is the fitted B (zero for a
    perfectly symmetric spectrum); the endpoints method leaves it NaN.
    """

    width: float
    alpha0: float
    asymmetry: float


@dataclass(frozen=True, eq=False)
class MfdfaResult:
    profile: Profile
    surface: FluctuationSurface
    hurst: HurstCurve
    spectrum: SingularitySpectrum
    width: WidthResult


def _copied_samples(signal) -> np.ndarray:
    x = np.array(signal.samples if isinstance(signal, Signal) else signal, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigError(f"samples must be 1-D, got shape {x.shape}")
    return x


def compute_profile(signal) -> Profile:
    """Integrate mean-subtracted samples into the analysis profile, over a copy of them."""
    return _integrate(_copied_samples(signal))


def _integrate(x: np.ndarray) -> Profile:
    """The profile of float64 samples ``x``, built in ``x`` itself."""
    if x.size == 0:
        raise EmptySignalError("cannot profile an empty series")
    if not np.all(np.isfinite(x)):
        raise NonFiniteDataError("series contains NaN or infinity")
    x -= x.mean()
    return Profile(np.cumsum(x, out=x))


# Orthonormal bases of scales up to _CACHED_SCALE_MAX samples stay cached
# per (s, order), 13 of a 132,300-sample window's default scales, so this
# holds the small bases of a few window lengths.  Each larger basis is built
# once per window and scale: the 7 of such a window hold 94% of its basis
# floats for 8-88 segments each, and take 0.6 ms to build.  Caching up to
# 2**10 .. 2**13 samples gave the same peak RSS.
_BASIS_CACHE_SIZE = 64
_CACHED_SCALE_MAX = 2**11


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _detrend_basis(s: int, order: int) -> np.ndarray:
    """Orthonormal basis (order + 1, s) of the polynomials of degree <= order.

    Row k is the Gram (discrete Chebyshev) polynomial p_k on the abscissae
    t = (i - h) / h, h = (s - 1) / 2, scaled to unit norm: p_0 = 1,
    p_1 = t and p_{k+1} = t p_k - c_k p_{k-1} with the exact
    c_k = k^2 (s^2 - k^2) / (4 (4 k^2 - 1) h^2).  The p_k are orthogonal on
    these points, and their three-term recurrence keeps that to working
    precision at every tested order and size.  Norms are einsums over
    contiguous rows, never a BLAS or LAPACK call: a LAPACK QR loads library
    pages that outweigh the bases, and OpenBLAS hands long 1-D dots to a
    helper thread.  Read-only because it may be shared.
    """
    rows = np.empty((order + 1, s))
    rows[0] = 1.0
    rows[1] = np.arange(1 - s, s, 2, dtype=float)  # 2 i - (s - 1) = 2 (i - h)
    rows[1] /= s - 1
    for k in range(1, order):
        np.multiply(rows[1], rows[k], out=rows[k + 1])
        rows[k + 1] -= k * k * (s * s - k * k) / ((4 * k * k - 1) * (s - 1) ** 2) * rows[k - 1]
    for v in rows:
        v /= math.sqrt(np.einsum("i,i", v, v))
    rows.flags.writeable = False
    return rows


def _basis(s: int, order: int) -> np.ndarray:
    """``_detrend_basis``, cached only up to ``_CACHED_SCALE_MAX`` samples."""
    return (_detrend_basis if s <= _CACHED_SCALE_MAX else _detrend_basis.__wrapped__)(s, order)


def _segments(y: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The forward and the backward segments of scale s, (n_seg, s) views
    of ``y``: forward v = 1..n_seg from the start of the profile, backward
    v = 1..n_seg from its end, so trailing samples are always covered."""
    n_seg = y.size // s
    return y[: n_seg * s].reshape(n_seg, s), y[y.size - n_seg * s :].reshape(n_seg, s)[::-1]


def _segment_msq(segments: np.ndarray, basis: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Mean squared residual per row of its LS fit in the span of the
    orthonormal rows of ``basis``, into ``out``.

    Each row is first anchored at its own first value.  A constant lies
    in the fit's span, so the residual is unchanged, but the profile's
    offset no longer scales the rounding error.  The residual is formed
    explicitly, r = A - (A Q^T) Q, never as |A|^2 - |Q^T A|^2, which
    cancels.  Anchor, projection and norm run over a block of rows of
    ``_DETREND_BLOCK_TERMS`` samples (or one row) at a time, so no copy
    of ``segments`` is made.
    """
    n, s = segments.shape
    rows = _DETREND_BLOCK_TERMS // s or 1
    for lo in range(0, n, rows):
        block = segments[lo : lo + rows]
        resid = block - block[:, :1]
        resid -= (resid @ basis.T) @ basis
        np.einsum("ij,ij->i", resid, resid, out=out[lo : lo + rows])
    out /= s
    return out


def segment_fluctuation(
    profile: Profile, s: int, v: int, order: int = 1, direction: str = "forward"
) -> float:
    """Detrended fluctuation F^2(s, v) of one profile segment.

    Segments are 1-based; ``forward`` counts them from the start of the
    profile, ``backward`` from the end.
    """
    if s < order + 2:
        raise ConfigError(f"scale {s} too small for order-{order} detrending")
    if direction not in ("forward", "backward"):
        raise ConfigError(f"unknown direction {direction!r}")
    segments = _segments(profile.values, s)[direction == "backward"]
    if not 1 <= v <= len(segments):
        raise ConfigError(f"segment v={v} outside 1..{len(segments)} at scale s={s}")
    return float(_segment_msq(segments[v - 1 : v], _basis(s, order), np.empty(1))[0])


def q_order_means(fluctuations, q_grid, q_zero_epsilon: float = 1e-9) -> np.ndarray:
    """q-order overall RMS variation of one scale's segment fluctuations.

    ``fluctuations`` are the squared residual means F^2(s, v), all > 0.
    This is the one-scale call of ``_q_moments``, the kernel that
    ``fluctuation_function`` runs on every scale at once.
    """
    msq = np.atleast_1d(np.asarray(fluctuations, dtype=float))
    q = np.atleast_1d(np.asarray(q_grid, dtype=float))
    if msq.size == 0 or msq.ndim > 1 or q.ndim > 1 or not np.all(np.isfinite(q)):
        raise ConfigError("q-order means need a 1-D list of fluctuations and finite 1-D q")
    if not np.all(np.isfinite(msq)):
        raise NonFiniteDataError("fluctuations contain NaN or infinity")
    if np.any(msq <= 0):
        raise ConfigError("q-order means need strictly positive fluctuations")
    return _q_moments(np.log(msq), np.zeros(1, dtype=int), q, q_zero_epsilon)[:, 0]


@functools.lru_cache(maxsize=8)
def _q_lattice(q_bytes: bytes, q_zero_epsilon: float) -> tuple[tuple, ...]:
    """The factored terms of ``_q_moments`` for the grid ``q_bytes``, per
    sign with orders: (extreme, bases, rows, factors, block_of, offset_of,
    q_rows).  Built once per grid; read-only because it is shared."""
    q = np.frombuffer(q_bytes)
    lattice = []
    for sign, extreme in ((q > q_zero_epsilon, np.maximum), (q < -q_zero_epsilon, np.minimum)):
        rows = np.flatnonzero(sign)
        if rows.size == 0:
            continue
        rows = rows[np.argsort(np.abs(q[rows]))]
        block = math.ceil(math.sqrt(rows.size))
        block_of = np.arange(rows.size) // block
        bases = q[rows[::block]]
        offsets = q[rows] - bases[block_of]
        order = np.argsort(offsets)
        apart = np.diff(offsets[order]) > 4 * np.spacing(np.abs(q[rows[-1]]))
        offset_of = np.cumsum(np.append(0, apart))[np.argsort(order)]
        factors = 0.5 * np.concatenate((bases, offsets[order][np.append(True, apart)]))
        arrays = rows, factors, block_of, offset_of, q[rows, np.newaxis]
        for a in arrays:
            a.flags.writeable = False
        lattice.append((extreme, bases.size, *arrays))
    return tuple(lattice)


def _q_moments(logs: np.ndarray, starts: np.ndarray, q: np.ndarray,
               q_zero_epsilon: float) -> np.ndarray:
    """F_q of every scale, shape (q.size, starts.size), from ln F^2.

    ``logs`` holds the scales' ln F^2 back to back, scale j from
    ``starts[j]``.  Orders with |q| <= q_zero_epsilon take the
    logarithmic mean.  The others are anchored by sign: ln F^2 minus the
    scale's maximum for q > 0 and its minimum for q < 0, so every
    exponent is <= 0, each scale's largest term is exactly 1, and no
    order overflows or underflows.

    Each term is exp(q h) = exp(b h) exp(o h), two exact exponentials:
    a sign's K orders, sorted by |q|, fall in blocks of ceil(sqrt(K)),
    each block's first q is the base b of its orders, and o = q - b is
    the offset.  Offsets within 4 ulp of the largest |q| share one row,
    so a uniform grid exponentiates about 2 sqrt(K) rows, and each
    scale's base x offset sums are one matrix product.  Chunks of segments
    share one buffer, sized to the call and at most ``_Q_BLOCK_TERMS``.
    """
    ends = np.append(starts[1:], logs.size)
    counts = ends - starts
    out = np.empty((q.size, starts.size))
    near_zero = np.abs(q) <= q_zero_epsilon
    out[near_zero] = np.exp(0.5 * np.add.reduceat(logs, starts) / counts)
    lattice = _q_lattice(q.tobytes(), q_zero_epsilon)
    most = max((sign[3].size for sign in lattice), default=0)
    terms = np.empty(min(most * logs.size, max(_Q_BLOCK_TERMS, most)))
    for extreme, bases, rows, factors, block_of, offset_of, q_rows in lattice:
        anchor = extreme.reduceat(logs, starts)
        sums = np.zeros((starts.size, bases, factors.size - bases))
        width = max(1, _Q_BLOCK_TERMS // factors.size)
        for lo in range(0, logs.size, width):  # segments [lo, hi) of scales [first, stop)
            hi = min(lo + width, logs.size)
            first, stop = np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi)
            held = np.minimum(ends[first:stop], hi) - np.maximum(starts[first:stop], lo)
            exps = terms[: factors.size * (hi - lo)].reshape(factors.size, hi - lo)
            shifted = np.repeat(anchor[first:stop], held)
            np.subtract(logs[lo:hi], shifted, out=shifted)
            np.multiply.outer(factors, shifted, out=exps)
            np.exp(exps, out=exps)
            for j in range(first, stop):
                v = slice(max(starts[j], lo) - lo, min(ends[j], hi) - lo)
                sums[j] += exps[:bases, v] @ exps[bases:, v].T
        means = sums[:, block_of, offset_of].T / counts
        out[rows] = np.exp(0.5 * anchor + np.log(means) / q_rows)
    return out


def _silence_floor(profile: Profile) -> float:
    """Largest RMS residual of digital silence, SILENCE_ULPS eps sqrt(N) max|Y|.

    Summing N samples into the profile leaves a rounding error of order
    eps sqrt(N) max|Y|, so a segment whose RMS residual is no more than
    ``SILENCE_ULPS`` times that cannot be told from a run of zeros.  An
    all-zero profile has a floor of 0, which F^2 = 0 meets.  Below max|Y|,
    the floor cannot overflow where its square would.
    """
    y = profile.values
    return SILENCE_ULPS * np.finfo(float).eps * math.sqrt(y.size) * max(y.max(), -y.min())


def fluctuation_function(profile: Profile, config: MfdfaConfig | None = None) -> FluctuationSurface:
    """q-order fluctuation F_q(s) over the configured scale grid.

    ``_segment_msq`` writes every F^2(s, v) into one array, scale j from
    ``starts[j]``, forward then backward segments as ``_segments`` lays
    them out.  Raises NonFiniteDataError if an F^2 overflows, else
    DegenerateSegmentError, naming the first offending (s, v) in that
    order, if any segment is digital silence: its RMS residual is at or
    below ``_silence_floor(profile)``, the size of the profile's own
    rounding.  Negative-q moments diverge on such segments.  Each scale's
    basis serves both directions, and the profile is never written.
    """
    config = config if config is not None else MfdfaConfig()
    y = profile.values
    scales = config.scales_for(y.size)
    counts = 2 * (y.size // scales)
    starts = np.cumsum(counts) - counts
    msq = np.empty(counts.sum())
    for s, start, count in zip(scales, starts, counts):
        basis = _basis(int(s), config.detrend_order)
        for segments, out in zip(_segments(y, int(s)), msq[start : start + count].reshape(2, -1)):
            _segment_msq(segments, basis, out)
    del basis  # not held through the q-moments
    if not math.isfinite(msq.max()):
        raise NonFiniteDataError("fluctuation function overflowed; rescale the input")
    silent = np.sqrt(msq) <= _silence_floor(profile)
    if silent.any():
        i = int(silent.argmax())
        j = int(np.searchsorted(starts, i, side="right")) - 1
        backward, v = divmod(i - int(starts[j]), int(counts[j]) // 2)
        raise DegenerateSegmentError(int(scales[j]), v + 1, ("forward", "backward")[backward])
    values = _q_moments(np.log(msq, out=msq), starts, config.q_grid, config.q_zero_epsilon)
    return FluctuationSurface(config.q_grid, scales, values, counts)


def fit_hurst(surface: FluctuationSurface, fit_range: tuple[int, int] | None = None) -> HurstCurve:
    """Per-q OLS of ln F_q(s) on ln s over the scales of ``fit_range``
    (``None``: all of them); the slope is h(q)."""
    lo, hi = _fit_span(fit_range, surface.scale_grid.size)
    x = np.log(surface.scale_grid[lo:hi].astype(float))
    ymat = np.log(surface.values[:, lo:hi])

    xc = x - x.mean()
    denom = float(xc @ xc)
    ymean = ymat.mean(axis=1)
    yc = ymat - ymean[:, np.newaxis]
    slope = (yc @ xc) / denom
    ss_res = np.sum((yc - np.outer(slope, xc)) ** 2, axis=1)
    ss_tot = np.sum(yc * yc, axis=1)
    r2 = np.ones_like(slope)
    nonzero = ss_tot > 0
    r2[nonzero] = 1.0 - ss_res[nonzero] / ss_tot[nonzero]
    return HurstCurve(surface.q_grid, slope, np.clip(r2, 0.0, 1.0))


def tau_from_h(curve: HurstCurve) -> np.ndarray:
    """Classical multifractal scaling exponent tau(q) = q h(q) - 1."""
    return curve.q_grid * curve.h - 1.0


def _central_differences(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (x[2:] - x[:-2])
    d[0] = (y[1] - y[0]) / (x[1] - x[0])
    d[-1] = (y[-1] - y[-2]) / (x[-1] - x[-2])
    return d


def check_spectrum_grid(q: np.ndarray) -> None:
    """Raise unless a spectrum can be taken on q: >= 3 values spanning both signs."""
    if q.size < 3:
        raise InsufficientSpectrumError("spectrum needs at least 3 q values")
    if not (q[0] < 0.0 < q[-1]):
        raise ConfigError("spectrum needs a q-grid spanning both signs")


def legendre_spectrum(curve: HurstCurve) -> SingularitySpectrum:
    """Singularity spectrum from h(q).

    alpha = h + q h' and f(alpha) = q (alpha - h) + 1, with h' taken by
    central differences on the q grid (one-sided at the ends) and no
    smoothing of h beforehand.
    """
    q = curve.q_grid
    check_spectrum_grid(q)
    dh = _central_differences(curve.h, q)
    alpha = curve.h + q * dh
    f_alpha = q * (alpha - curve.h) + 1.0
    monotone = bool(np.all(np.diff(alpha) <= 1e-12))
    return SingularitySpectrum(q, tau_from_h(curve), alpha, f_alpha, monotone)


def spectrum_width(spectrum: SingularitySpectrum, method: str = "quadratic") -> WidthResult:
    """Multifractal width W of a singularity spectrum.

    quadratic, the width ``mfdfa`` takes: least-squares fit of f = A u^2 +
    B u + 1 (u = alpha - alpha_0, alpha_0 at the apex) over the points with
    f >= APEX_FLOOR; W is the separation of the parabola's roots at f = 0.
    (u^2, u) = QR by Gram-Schmidt applied twice (Giraud et al. 2005), not by
    LAPACK or the normal equations; fewer than two distinct nonzero u raise
    InsufficientSpectrumError, a non-concave fit NonConcaveSpectrumError.
    endpoints: W = max(alpha) - min(alpha), the pipeline's ``endpoint_width``.
    """
    alpha = spectrum.alpha
    f = spectrum.f_alpha
    if _distinct(alpha).size < 3:
        raise InsufficientSpectrumError("need >= 3 distinct alpha values")
    apex = int(np.argmax(f))
    alpha0 = float(alpha[apex])
    if method == "endpoints":
        return WidthResult(float(alpha.max() - alpha.min()), alpha0, math.nan)
    if method != "quadratic":
        raise ConfigError(f"unknown width method {method!r}")

    mask = f >= APEX_FLOOR
    u, y = alpha[mask] - alpha0, f[mask] - 1.0
    q1 = u * u  # (u^2, u) = (q1, q2 / r22) R; a zero or NaN r11 is refused below
    r11 = math.sqrt(np.einsum("i,i", q1, q1))
    q1 /= r11 or 1.0
    q2, r12 = u.copy(), 0.0
    for _ in range(2):
        c = float(np.einsum("i,i", q1, q2))
        q2 -= c * q1
        r12 += c
    r22 = math.sqrt(np.einsum("i,i", q2, q2))
    if not (r11 > 0.0 and r22 > _SINE_FLOOR * math.sqrt(np.einsum("i,i", u, u))):
        raise InsufficientSpectrumError("apex neighbourhood too narrow for a quadratic fit")
    b = float(np.einsum("i,i", q2, y)) / (r22 * r22)
    a = (float(np.einsum("i,i", q1, y)) - r12 * b) / r11
    if a >= 0:
        raise NonConcaveSpectrumError(
            f"fitted leading coefficient A = {a:g} is not negative"
        )
    return WidthResult(math.sqrt(b * b - 4.0 * a) / -a, alpha0, b)  # roots' separation, C = 1


def _staged(stage: str, fn, *args):
    try:
        return fn(*args)
    except MfaudioError as err:
        raise err.add_context(f"stage {stage}")


def mfdfa(signal, config: MfdfaConfig | None = None) -> MfdfaResult:
    """Full analysis: profile, fluctuation surface, h(q), spectrum, width.

    Deterministic for fixed inputs; component errors propagate with the
    failing stage named in the message.  The samples are never written.
    """
    return _mfdfa_in_place(_copied_samples(signal), config)


def _mfdfa_in_place(samples: np.ndarray, config: MfdfaConfig | None = None) -> MfdfaResult:
    """``mfdfa`` of float64 samples whose array becomes the profile."""
    config = config if config is not None else MfdfaConfig()
    profile = _staged("profile", _integrate, samples)
    surface = _staged("fluctuation", fluctuation_function, profile, config)
    hurst = _staged("scaling-fit", fit_hurst, surface, config.fit_range)
    spectrum = _staged("spectrum", legendre_spectrum, hurst)
    width = _staged("width", spectrum_width, spectrum)
    return MfdfaResult(profile, surface, hurst, spectrum, width)
