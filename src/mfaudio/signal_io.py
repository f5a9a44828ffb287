"""PCM WAV ingestion and the clip -> part -> window segmentation.

Only RIFF/WAVE containers holding integer PCM (8/16/24/32 bit) or 32-bit
float PCM are decoded; anything compressed is refused rather than guessed.
Integer samples are normalized to [-1, 1] by the power-of-two divisor of
their bit depth (16-bit: divide by 32768, so -32768 maps to -1.0 exactly).
Analysis always runs at the native sample rate; nothing here resamples.

A decode is two steps: a walk of the chunk headers gives a small layout
of the samples, and any frame range is then decoded from the file in
blocks.  The segmentation is likewise computed as sample spans from a
length and a rate, so the pipeline cuts and decodes windows without ever
holding the whole file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    EmptySignalError,
    InsufficientAudioError,
    NonFiniteDataError,
    UnsupportedCodecError,
    WavFormatError,
    check_type,
)

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# Guard added before floor() so second->sample conversions that are exact
# in decimal (e.g. 180 * 22050) cannot land one sample short in binary.
_FLOOR_GUARD = 1e-6

# WAV data is read in blocks of this many samples (1 MiB as float64), never whole
_DECODE_BLOCK_SAMPLES = 2**17

# Bytes per block of a float WAV's NaN/infinity scan, each read into one reused buffer
_SCAN_BLOCK_BYTES = 2**16


@dataclass(frozen=True, eq=False)
class Signal:
    """A finite real-valued sample sequence at a fixed rate.

    Amplitudes are dimensionless (PCM input arrives normalized to
    [-1, 1]); ``sample_rate`` is in Hz.
    """

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ConfigError(f"signal samples must be 1-D, got shape {samples.shape}")
        if samples.size == 0:
            raise EmptySignalError("signal holds zero samples")
        if not np.all(np.isfinite(samples)):
            raise NonFiniteDataError("signal samples contain NaN or infinity")
        if not 0 < self.sample_rate < math.inf:
            raise ConfigError(f"sample_rate must be finite and > 0, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class WindowPlan:
    """Clip -> part -> window segmentation recipe, all in seconds.

    A clip of ``clip_length`` seconds starting at ``clip_start`` is cut
    into ``part_count`` consecutive parts of ``part_length`` seconds;
    each part is cut into non-overlapping windows of ``window_length``
    seconds.  Remainder samples at part or window boundaries are dropped,
    never zero-padded.  ``part_length=None`` derives clip_length /
    part_count, so 4 parts of a 180 s clip last 45 s.  Every setting is
    checked in field order and is at most 2**53, as is a part's window
    count: no second or count is infinite, nor is a product of them.
    """

    clip_start: float = 0.0
    clip_length: float = 180.0
    part_count: int = 6
    part_length: float | None = 30.0
    window_length: float = 6.0

    def __post_init__(self):
        for name in ("clip_start", "clip_length", "part_count", "part_length", "window_length"):
            if name == "part_length" and self.part_length is None:
                object.__setattr__(self, name, self.clip_length / self.part_count)
            value, least = getattr(self, name), ">= 0" if name == "clip_start" else "> 0"
            check_type(name, value, int if name == "part_count" else float)
            if not ((value >= 0 if name == "clip_start" else value > 0) and value <= 2**53):
                raise ConfigError(f"{name} must be {least} and at most 2**53, got {value}")
        if self.part_count * self.part_length > self.clip_length + 1e-9:
            raise ConfigError(
                f"{self.part_count} parts of {self.part_length:g} s exceed "
                f"the {self.clip_length:g} s clip"
            )
        if self.window_length * 2.0**53 < self.part_length:  # before floor(inf)
            raise ConfigError(f"window_length must be at least part_length / 2**53, got "
                              f"{self.window_length:g} s for a {self.part_length:g} s part")
        if self.window_length > self.part_length + 1e-9 or self.windows_per_part < 1:
            raise ConfigError(
                f"window of {self.window_length:g} s does not fit in a "
                f"{self.part_length:g} s part"
            )

    @property
    def windows_per_part(self) -> int:
        return int(math.floor(self.part_length / self.window_length + 1e-9))

    @property
    def required_seconds(self) -> float:
        return self.clip_start + self.clip_length


class _WavLayout(NamedTuple):
    """Where a WAV's samples lie and how they are stored: all that a reader
    of any frame range needs, small enough to send to a worker process."""

    path: str | Path
    data_at: int  # file offset of the first frame
    tag: int
    bits: int
    channels: int
    sample_rate: float
    n_frames: int  # whole frames, cut at EOF


def decode_wav(path: str | Path) -> Signal:
    """Decode a PCM WAV file into a mono, [-1, 1]-normalized Signal.

    Chunk headers are walked by seeks; the rate comes from ``fmt `` and the
    samples from the last ``data`` chunk, cut at EOF and to whole frames.
    They are read in blocks of ``_DECODE_BLOCK_SAMPLES``, each converted,
    and mixed down by per-frame channel average, into its slice of the result.

    Raises WavFormatError for a file it cannot open or a corrupt container,
    UnsupportedCodecError for compressed codecs, EmptySignalError for a
    data chunk with zero frames, and NonFiniteDataError, naming the path,
    for a NaN or infinite float sample.
    """
    layout = _wav_layout(path)
    try:
        return Signal(_decode_frames(layout, 0, layout.n_frames), layout.sample_rate)
    except NonFiniteDataError as err:
        raise err.add_context(str(path))


def _wav_layout(path: str | Path) -> _WavLayout:
    """Walk the chunk headers of ``path`` and check its codec; decode_wav's
    errors, except the one for a non-finite sample."""
    with _open(path) as handle:
        header = handle.read(12)
        if len(header) < 12 or header[0:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise WavFormatError(f"{path}: not a RIFF/WAVE file")
        end = Path(path).stat().st_size
        fmt = data_at = None
        pos = 12
        while pos + 8 <= end:
            handle.seek(pos)
            chunk_id, chunk_size = struct.unpack("<4sI", handle.read(8))
            body_size = min(chunk_size, end - pos - 8)
            if chunk_id == b"fmt ":
                fmt = _parse_fmt(handle.read(body_size), path)
            elif chunk_id == b"data":
                data_at, data_size = pos + 8, body_size
            pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError(f"{path}: missing 'fmt ' chunk")
    if data_at is None:
        raise WavFormatError(f"{path}: missing 'data' chunk")

    tag, channels, rate, bits = fmt
    if tag == _WAVE_FORMAT_PCM:
        if bits not in (8, 16, 24, 32):
            raise UnsupportedCodecError(f"{path}: {bits}-bit integer PCM is not supported")
    elif tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedCodecError(f"{path}: {bits}-bit float PCM is not supported")
    else:
        raise UnsupportedCodecError(
            f"{path}: compressed or unknown codec (format tag 0x{tag:04x})"
        )

    n_frames = data_size // (channels * (bits // 8))
    if n_frames == 0:
        raise EmptySignalError(f"{path}: WAV holds zero frames")
    return _WavLayout(path, data_at, tag, bits, channels, float(rate), n_frames)


def _open(path: str | Path) -> BinaryIO:
    """``path`` opened for binary reading; WavFormatError, naming the path,
    if it cannot be (deleted, a directory, or no read permission)."""
    try:
        return open(path, "rb")
    except OSError as err:
        raise WavFormatError(f"{path}: cannot read: {err.strerror}") from err


def _decode_frames(layout: _WavLayout, start: int, stop: int) -> np.ndarray:
    """Frames [start, stop) of a WAV as mono float64, decoded block by block.

    Multichannel frames are mixed down by adding the channel columns in
    order onto +0.0 and dividing by the channel count.  For up to 7
    channels those are the bytes of ``mean(axis=1)`` at several times its
    speed; from 8 on, numpy's pairwise sum may round differently.
    """
    channels = layout.channels
    frame_size = channels * (layout.bits // 8)
    mono = np.empty(stop - start)
    block_frames = max(1, _DECODE_BLOCK_SAMPLES // channels)
    frames = np.empty((min(block_frames, stop - start), channels)) if channels > 1 else None
    with _open(layout.path) as handle:
        handle.seek(layout.data_at + start * frame_size)
        for a in range(0, stop - start, block_frames):
            b = min(a + block_frames, stop - start)
            raw = handle.read((b - a) * frame_size)
            if len(raw) < (b - a) * frame_size:  # cut short since its header was read
                raise WavFormatError(f"{layout.path}: file ends before frame {start + b}")
            if frames is None:
                _decode_into(raw, layout.tag, layout.bits, mono[a:b])
                continue
            block, out = frames[: b - a], mono[a:b]
            _decode_into(raw, layout.tag, layout.bits, block.reshape(-1))
            out.fill(0.0)
            for column in block.T:
                out += column
            out /= channels
    return mono


def _require_finite(layout: _WavLayout) -> None:
    """Raise NonFiniteDataError, naming the path, for a NaN or infinity in
    the whole frames of a float WAV, reading blocks of its raw samples.
    Integer PCM always decodes to finite values."""
    if layout.tag != _WAVE_FORMAT_IEEE_FLOAT:
        return
    size = layout.n_frames * layout.channels * 4
    block = bytearray(min(_SCAN_BLOCK_BYTES, size))
    values = np.frombuffer(block, dtype="<f4")
    finite = np.empty(values.size, dtype=bool)
    with _open(layout.path) as handle:
        handle.seek(layout.data_at)
        for at in range(0, size, _SCAN_BLOCK_BYTES):
            n = handle.readinto(memoryview(block)[: size - at]) // 4
            if not np.isfinite(values[:n], out=finite[:n]).all():
                raise NonFiniteDataError("signal samples contain NaN or infinity").add_context(
                    str(layout.path))


def _parse_fmt(body: bytes, path) -> tuple[int, int, int, int]:
    if len(body) < 16:
        raise WavFormatError(f"{path}: truncated 'fmt ' chunk")
    tag, channels, rate, _byte_rate, _align, bits = struct.unpack_from("<HHIIHH", body, 0)
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        # the real format code sits in the first two bytes of the sub-format GUID
        if len(body) < 26:
            raise WavFormatError(f"{path}: truncated extensible 'fmt ' chunk")
        (tag,) = struct.unpack_from("<H", body, 24)
    if channels < 1:
        raise WavFormatError(f"{path}: invalid channel count {channels}")
    if rate <= 0:
        raise WavFormatError(f"{path}: invalid sample rate {rate}")
    if bits % 8 or bits == 0:
        raise WavFormatError(f"{path}: invalid bit depth {bits}")
    return tag, channels, rate, bits


def _decode_into(raw: bytes, tag: int, bits: int, out: np.ndarray) -> None:
    """Normalize the little-endian samples in ``raw`` into the float64 ``out``."""
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        out[:] = np.frombuffer(raw, dtype="<f4")
        return
    if bits == 8:  # unsigned, centred on 128; widened first, so no numpy wraps it
        ints = np.frombuffer(raw, dtype=np.uint8).astype(np.int16) - 128
    elif bits == 24:
        raw24 = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        ints = raw24[:, 0] | (raw24[:, 1] << 8) | (raw24[:, 2] << 16)
        ints -= (ints & 0x800000) << 1  # sign extension
    else:
        ints = np.frombuffer(raw, dtype=f"<i{bits // 8}")
    np.divide(ints, 2.0 ** (bits - 1), out=out)


def write_wav(path: str | Path, signal: Signal, encoding: str = "float32") -> None:
    """Write a mono WAV file: its 44-byte header, then the sample array.

    ``float32`` stores IEEE-float PCM (decode_wav round-trips it up to
    float32 precision); ``int16`` scales by 32767 and rounds.
    """
    if encoding == "float32":
        tag, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
        body = signal.samples.astype("<f4")
    elif encoding == "int16":
        tag, bits = _WAVE_FORMAT_PCM, 16
        body = np.clip(np.rint(signal.samples * 32767.0), -32768, 32767).astype("<i2")
    else:
        raise ConfigError(f"unknown WAV encoding {encoding!r}")

    rate = signal.sample_rate
    frame = bits // 8
    if not (float(rate).is_integer() and 0 < rate * frame < 2**32):
        raise ConfigError(
            f"WAV sample rate must be a whole number of Hz below {2**32 // frame}, got {rate!r}"
        )
    rate = int(rate)
    with open(path, "wb") as handle:
        # a 16-byte fmt chunk; both bodies have an even size, so nothing is padded
        handle.write(struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + body.nbytes, b"WAVE", b"fmt ",
                                 16, tag, 1, rate, rate * frame, frame, bits, b"data", body.nbytes))
        handle.write(body)


def partition_windows(signal: Signal, plan: WindowPlan) -> list[list[Signal]]:
    """Cut a signal into the plan's parts, each a list of window Signals.

    Within each part the windows are contiguous from the part start, so
    concatenating them reproduces a prefix of the part sample-for-sample;
    trailing remainder samples are dropped.
    """
    rate = signal.sample_rate
    return [[Signal(signal.samples[a:b], rate) for a, b in part]
            for part in _window_spans(len(signal), rate, plan)]


def _window_spans(n_samples: int, rate: float, plan: WindowPlan) -> list[list[tuple[int, int]]]:
    """The plan's windows as [start, stop) indices into ``n_samples``
    samples at ``rate``, part by part; a window is cut at the clip's end."""
    i0 = math.floor(plan.clip_start * rate + _FLOOR_GUARD)
    i1 = math.floor(plan.required_seconds * rate + _FLOOR_GUARD)
    if i1 > n_samples:
        raise InsufficientAudioError(plan.required_seconds, n_samples / rate)
    if i1 <= i0:
        raise EmptySignalError(f"clip of {plan.clip_length:g} s holds no samples at this rate")

    part_samples = math.floor(plan.part_length * rate + _FLOOR_GUARD)
    window_samples = math.floor(plan.window_length * rate + _FLOOR_GUARD)
    if window_samples < 1:
        raise ConfigError(
            f"window of {plan.window_length:g} s is shorter than one sample at {rate:g} Hz"
        )
    return [
        [(min(base + w * window_samples, i1), min(base + (w + 1) * window_samples, i1))
         for w in range(plan.windows_per_part)]
        for base in (i0 + p * part_samples for p in range(plan.part_count))
    ]
