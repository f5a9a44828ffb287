"""Exception hierarchy for the toolkit.

Everything raised here derives from :class:`MfaudioError`, so pipeline
boundaries can catch a single type.  Errors accumulate context labels
(the failing stage, the offending recording) as they propagate upward;
the labels are prepended to the message.
"""

from __future__ import annotations

import copyreg
import numbers
import sys


class MfaudioError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, *args):
        super().__init__(*args)
        self.context: list[str] = []

    def add_context(self, label: str) -> "MfaudioError":
        """Prepend a context label and return self (for ``raise e.add_context(..)``)."""
        self.context.insert(0, label)
        return self

    def __str__(self) -> str:
        base = super().__str__()
        if self.context:
            return ": ".join(self.context) + ": " + base
        return base

    def __reduce__(self):
        # rebuilt from ``args`` and the attributes without calling __init__,
        # whose signature differs per subclass, so an error raised in a
        # worker process reaches the parent intact
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class WavFormatError(MfaudioError):
    """The file cannot be read as a RIFF/WAVE container."""


class UnsupportedCodecError(MfaudioError):
    """The WAV holds a codec other than integer or 32-bit float PCM."""


class EmptySignalError(MfaudioError):
    """Decoding or slicing produced zero samples."""


class NonFiniteDataError(MfaudioError):
    """Samples or derived quantities contain NaN or infinity."""


class InsufficientAudioError(MfaudioError):
    """The signal is shorter than the window plan requires."""

    def __init__(self, required_seconds: float, available_seconds: float):
        super().__init__(
            f"plan requires {required_seconds:g} s of audio, "
            f"only {available_seconds:g} s available"
        )
        self.required_seconds = required_seconds
        self.available_seconds = available_seconds


class ConfigError(MfaudioError):
    """An analysis configuration or window plan violates its invariants."""


def check_type(name: str, value, kind: type) -> None:
    """Raise ConfigError unless ``value`` is of ``kind``: int or float.

    Python and numpy scalars count and nothing is coerced; a bool is
    neither an integer nor a number here, and an integer past float64's
    range is not a number.
    """
    abstract, noun = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}[kind]
    if not isinstance(value, abstract) or isinstance(value, bool):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if kind is float and isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} must be a number, got an integer past float64's range")


class DegenerateSegmentError(MfaudioError):
    """A detrended segment has zero fluctuation up to the profile's rounding.

    Negative-q moments diverge on zero fluctuations, so digital silence
    is rejected instead of being epsilon-floored.  Callers that expect
    silent stretches should pre-screen their windows.
    """

    def __init__(self, scale: int, segment: int, direction: str = "forward"):
        super().__init__(
            f"zero fluctuation in segment v={segment} ({direction}) at scale s={scale}"
        )
        self.scale = scale
        self.segment = segment
        self.direction = direction


class InsufficientScalesError(MfaudioError):
    """Fewer scales available than the regression needs."""


class NonConcaveSpectrumError(MfaudioError):
    """The quadratic fitted to f(alpha) is not a downward parabola."""


class InsufficientSpectrumError(MfaudioError):
    """Too few distinct spectrum points for the requested operation."""


class ManifestError(MfaudioError):
    """A corpus manifest failed validation; every violation is listed."""

    def __init__(self, violations: list[str] | str):
        if isinstance(violations, str):
            violations = [violations]
        super().__init__("; ".join(violations))
        self.violations = list(violations)


class SchemaError(MfaudioError):
    """Reports with incompatible shapes were combined."""
