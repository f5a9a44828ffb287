"""Multifractal DFA toolkit for audio time series.

Ingest PCM WAV recordings, cut them into the clip -> part -> window
hierarchy, run MFDFA per window, and reduce the results to multifractal
spectral widths, per-part averages, and per-generation aggregates.
Synthetic generators with analytically known scaling provide the oracle
signals the test suite verifies against.
"""

from .analysis import (
    FluctuationSurface,
    HurstCurve,
    MfdfaConfig,
    MfdfaResult,
    Profile,
    SingularitySpectrum,
    WidthResult,
    compute_profile,
    default_q_grid,
    default_scale_grid,
    fit_hurst,
    fluctuation_function,
    legendre_spectrum,
    mfdfa,
    q_order_means,
    segment_fluctuation,
    spectrum_width,
    tau_from_h,
)
from .errors import (
    ConfigError,
    DegenerateSegmentError,
    EmptySignalError,
    InsufficientAudioError,
    InsufficientScalesError,
    InsufficientSpectrumError,
    ManifestError,
    MfaudioError,
    NonConcaveSpectrumError,
    NonFiniteDataError,
    SchemaError,
    UnsupportedCodecError,
    WavFormatError,
)
from .manifest import Manifest, validate_manifest
from .pipeline import (
    GenerationAggregate,
    PartResult,
    RenditionRecord,
    RenditionReport,
    WindowResult,
    aggregate_generation,
    analyze_rendition,
    cross_generation_table,
)
from .signal_io import (
    Signal,
    WindowPlan,
    decode_wav,
    partition_windows,
    write_wav,
)
from .synth import (
    CascadeSpec,
    FgnSpec,
    analytic_cascade_alpha,
    analytic_cascade_h,
    cascade_masses,
    fgn_autocovariance,
    gen_binomial_cascade,
    gen_cascade_noise,
    gen_fgn,
    gen_fgn_prefix,
    gen_white_noise,
    shuffle,
)

__version__ = "0.1.0"

# every public name but the submodules, which the imports above also bind
__all__ = [n for n, v in globals().items() if n[0] != "_" and type(v) is not type(analysis)]
