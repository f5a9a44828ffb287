import pickle

import pytest

from mfaudio import errors
from mfaudio.errors import MfaudioError


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


# one instance of every error class, with the attributes its own __init__ sets
INSTANCES = {
    errors.MfaudioError: (errors.MfaudioError("base"), []),
    errors.WavFormatError: (errors.WavFormatError("no RIFF header"), []),
    errors.UnsupportedCodecError: (errors.UnsupportedCodecError("codec 85"), []),
    errors.EmptySignalError: (errors.EmptySignalError("zero samples"), []),
    errors.NonFiniteDataError: (errors.NonFiniteDataError("NaN"), []),
    errors.InsufficientAudioError: (
        errors.InsufficientAudioError(10.0, 5.0), ["required_seconds", "available_seconds"]
    ),
    errors.ConfigError: (errors.ConfigError("bad order"), []),
    errors.DegenerateSegmentError: (
        errors.DegenerateSegmentError(16, 3, "backward"), ["scale", "segment", "direction"]
    ),
    errors.InsufficientScalesError: (errors.InsufficientScalesError("two scales"), []),
    errors.NonConcaveSpectrumError: (errors.NonConcaveSpectrumError("upward"), []),
    errors.InsufficientSpectrumError: (errors.InsufficientSpectrumError("one point"), []),
    errors.ManifestError: (errors.ManifestError(["first", "second"]), ["violations"]),
    errors.SchemaError: (errors.SchemaError("mixed part counts"), []),
}


def test_every_error_class_has_an_instance():
    assert set(INSTANCES) == {MfaudioError, *all_subclasses(MfaudioError)}


@pytest.mark.parametrize("cls", list(INSTANCES), ids=lambda cls: cls.__name__)
def test_error_survives_a_pickle_round_trip(cls):
    err, own_attributes = INSTANCES[cls]
    err.add_context("window 3").add_context("rendition r")
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is cls
    assert str(copy) == str(err)
    assert str(copy).startswith("rendition r: window 3: ")
    assert copy.context == ["rendition r", "window 3"]
    for name in own_attributes:
        assert getattr(copy, name) == getattr(err, name), name
