import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfaudio import signal_io
from mfaudio import (
    ConfigError,
    EmptySignalError,
    InsufficientAudioError,
    NonFiniteDataError,
    Signal,
    UnsupportedCodecError,
    WavFormatError,
    WindowPlan,
    decode_wav,
    partition_windows,
    write_wav,
)


def make_wav(
    payload: bytes,
    channels: int = 1,
    rate: int = 22050,
    bits: int = 16,
    tag: int = 1,
    extra_chunks: bytes = b"",
) -> bytes:
    """Hand-rolled RIFF builder, independent of the package's writer."""
    fmt = struct.pack(
        "<HHIIHH", tag, channels, rate, rate * channels * bits // 8,
        channels * bits // 8, bits,
    )
    body = (
        b"WAVE"
        + extra_chunks
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(payload)) + payload
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_decode_one_second_of_silence(tmp_path):
    payload = struct.pack("<22050h", *([0] * 22050))
    path = tmp_path / "zeros.wav"
    path.write_bytes(make_wav(payload))
    sig = decode_wav(path)
    assert len(sig) == 22050
    assert sig.sample_rate == 22050
    assert np.all(sig.samples == 0.0)


def test_decode_is_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    payload = rng.integers(-32768, 32768, 500, dtype=np.int16).tobytes()
    path = tmp_path / "x.wav"
    path.write_bytes(make_wav(payload))
    a = decode_wav(path)
    b = decode_wav(path)
    assert np.array_equal(a.samples, b.samples)


def test_16bit_normalization(tmp_path):
    # full negative range maps to -1.0 exactly; +16384 to +0.5
    payload = struct.pack("<4h", -32768, 16384, 32767, 0)
    path = tmp_path / "levels.wav"
    path.write_bytes(make_wav(payload))
    sig = decode_wav(path)
    assert sig.samples[0] == -1.0
    assert sig.samples[1] == 0.5
    assert sig.samples[2] == 32767 / 32768
    assert sig.samples[3] == 0.0


def test_8bit_normalization(tmp_path):
    payload = bytes([0, 128, 192, 255])
    path = tmp_path / "u8.wav"
    path.write_bytes(make_wav(payload, bits=8))
    sig = decode_wav(path)
    assert sig.samples[0] == -1.0
    assert sig.samples[1] == 0.0
    assert sig.samples[2] == 0.5
    assert sig.samples[3] == 127 / 128


def test_24bit_normalization(tmp_path):
    vals = [-(2**23), 2**22, 2**23 - 1]
    payload = b"".join(v.to_bytes(3, "little", signed=True) for v in vals)
    path = tmp_path / "s24.wav"
    path.write_bytes(make_wav(payload, bits=24))
    sig = decode_wav(path)
    assert sig.samples[0] == -1.0
    assert sig.samples[1] == 0.5
    assert sig.samples[2] == (2**23 - 1) / 2**23


def test_32bit_int_and_float(tmp_path):
    payload = struct.pack("<2i", -(2**31), 2**30)
    path = tmp_path / "s32.wav"
    path.write_bytes(make_wav(payload, bits=32))
    sig = decode_wav(path)
    assert sig.samples[0] == -1.0
    assert sig.samples[1] == 0.5

    fpayload = struct.pack("<3f", -0.25, 0.0, 1.0)
    fpath = tmp_path / "f32.wav"
    fpath.write_bytes(make_wav(fpayload, bits=32, tag=3))
    fsig = decode_wav(fpath)
    assert np.allclose(fsig.samples, [-0.25, 0.0, 1.0])


def test_stereo_identical_channels_equals_either(tmp_path):
    rng = np.random.default_rng(9)
    mono = rng.integers(-2000, 2000, 300, dtype=np.int16)
    stereo = np.column_stack([mono, mono]).ravel()
    path = tmp_path / "st.wav"
    path.write_bytes(make_wav(stereo.tobytes(), channels=2))
    sig = decode_wav(path)
    assert np.array_equal(sig.samples, mono.astype(np.float64) / 32768.0)


def test_channel_average_mix_is_linear(tmp_path):
    # mixing (aL, aR) equals a * mix(L, R); float payloads avoid quantization
    rng = np.random.default_rng(2)
    left = rng.uniform(-0.4, 0.4, 200).astype(np.float32)
    right = rng.uniform(-0.4, 0.4, 200).astype(np.float32)
    a = 2.0  # exactly representable, so scaling commutes with float32

    def stereo_file(name, l, r):
        path = tmp_path / name
        path.write_bytes(
            make_wav(np.column_stack([l, r]).ravel().tobytes(), channels=2, bits=32, tag=3)
        )
        return decode_wav(path)

    base = stereo_file("base.wav", left, right)
    scaled = stereo_file("scaled.wav", a * left, a * right)
    assert np.allclose(scaled.samples, a * base.samples, rtol=0, atol=1e-12)


def test_stereo_channels_are_averaged(tmp_path):
    payload = struct.pack("<4h", 1000, -1000, 2000, 1000)  # two frames
    path = tmp_path / "lr.wav"
    path.write_bytes(make_wav(payload, channels=2))
    sig = decode_wav(path)
    assert np.allclose(sig.samples, [0.0, 1500 / 32768], atol=1e-15)


def test_extensible_format_resolves_subcode(tmp_path):
    # WAVE_FORMAT_EXTENSIBLE wraps the real code in the sub-format GUID
    fmt = struct.pack(
        "<HHIIHHHHI", 0xFFFE, 1, 8000, 16000, 2, 16, 22, 16, 0
    ) + struct.pack("<H", 1) + b"\x00" * 14
    payload = struct.pack("<2h", -32768, 16384)
    body = (
        b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(payload)) + payload
    )
    path = tmp_path / "ext.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    sig = decode_wav(path)
    assert sig.samples[0] == -1.0
    assert sig.samples[1] == 0.5


def test_unknown_chunks_are_skipped(tmp_path):
    payload = struct.pack("<3h", 1, 2, 3)
    junk = b"LIST" + struct.pack("<I", 5) + b"junk!" + b"\x00"  # odd size, padded
    path = tmp_path / "chunky.wav"
    path.write_bytes(make_wav(payload, extra_chunks=junk))
    sig = decode_wav(path)
    assert len(sig) == 3


def test_corrupt_header_raises_format_error(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"RIFX" + b"\x00" * 40)
    with pytest.raises(WavFormatError):
        decode_wav(path)
    path.write_bytes(b"RI")
    with pytest.raises(WavFormatError):
        decode_wav(path)


def test_missing_chunks_raise_format_error(tmp_path):
    path = tmp_path / "nofmt.wav"
    body = b"WAVE" + b"data" + struct.pack("<I", 2) + b"\x00\x00"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(WavFormatError):
        decode_wav(path)


def test_compressed_codec_raises_unsupported(tmp_path):
    path = tmp_path / "mp3ish.wav"
    path.write_bytes(make_wav(b"\x00\x00", tag=85))  # MPEG layer 3 tag
    with pytest.raises(UnsupportedCodecError):
        decode_wav(path)


def test_zero_frames_raise_empty_signal(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(make_wav(b""))
    with pytest.raises(EmptySignalError):
        decode_wav(path)


def test_declared_data_size_past_eof_is_cut_at_eof(tmp_path):
    image = bytearray(make_wav(struct.pack("<3h", 1, 2, 3)))
    data_size_at = image.index(b"data") + 4
    struct.pack_into("<I", image, data_size_at, 1_000_000)
    path = tmp_path / "long.wav"
    path.write_bytes(bytes(image))
    assert np.array_equal(decode_wav(path).samples, np.array([1, 2, 3]) / 32768.0)


def test_trailing_partial_frame_is_dropped(tmp_path):
    # 16-bit stereo: five samples are two frames and half of a third
    path = tmp_path / "partial.wav"
    path.write_bytes(make_wav(struct.pack("<5h", 100, 300, -200, 0, 7), channels=2))
    assert np.array_equal(decode_wav(path).samples, np.array([200.0, -100.0]) / 32768.0)
    # 16-bit mono with an odd byte count
    path.write_bytes(make_wav(struct.pack("<3h", 4, 5, 6) + b"\x01"))
    assert np.array_equal(decode_wav(path).samples, np.array([4, 5, 6]) / 32768.0)


def test_last_data_chunk_wins(tmp_path):
    early = struct.pack("<2h", 1, 2)
    early_chunk = b"data" + struct.pack("<I", len(early)) + early
    path = tmp_path / "twodata.wav"
    path.write_bytes(make_wav(struct.pack("<3h", 3, 4, 5), extra_chunks=early_chunk))
    assert np.array_equal(decode_wav(path).samples, np.array([3, 4, 5]) / 32768.0)


def test_nan_in_float_wav_names_the_path(tmp_path):
    path = tmp_path / "nan.wav"
    path.write_bytes(make_wav(struct.pack("<3f", 0.25, math.nan, 0.5), bits=32, tag=3))
    with pytest.raises(NonFiniteDataError, match="nan.wav"):
        decode_wav(path)


# (bits, format tag): integer PCM at every supported depth, and float32
_CODECS = [(8, 1), (16, 1), (24, 1), (32, 1), (32, 3)]


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("bits, tag", _CODECS, ids=["u8", "s16", "s24", "s32", "f32"])
def test_decode_across_block_boundaries(tmp_path, monkeypatch, bits, tag, channels):
    # 7 samples a block: 7 frames mono, 3 stereo, so 23 frames span several
    # blocks and end in a partial one
    monkeypatch.setattr(signal_io, "_DECODE_BLOCK_SAMPLES", 7)
    rng = np.random.default_rng(bits + tag + channels)
    n = 23 * channels
    if tag == 3:
        values = rng.uniform(-1.5, 1.5, n).astype(np.float32)
        payload = values.astype("<f4").tobytes()
        expected = values.astype(np.float64)
    else:
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1)
        ints = np.concatenate([[lo, hi - 1, 0], rng.integers(lo, hi, n - 3)])
        if bits == 8:  # unsigned, centred on 128
            payload = (ints + 128).astype(np.uint8).tobytes()
        else:
            payload = b"".join(int(v).to_bytes(bits // 8, "little", signed=True) for v in ints)
        expected = ints.astype(np.float64) / 2.0 ** (bits - 1)
    path = tmp_path / "blocks.wav"
    path.write_bytes(make_wav(payload, channels=channels, bits=bits, tag=tag))
    sig = decode_wav(path)
    assert np.array_equal(sig.samples, expected.reshape(-1, channels).mean(axis=1))


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("bits, tag", _CODECS, ids=["u8", "s16", "s24", "s32", "f32"])
def test_frame_range_decode_equals_the_slice_of_the_whole(tmp_path, monkeypatch, bits, tag, channels):
    # 7 samples a block: 7 frames mono, 3 stereo, 2 of 3 channels; the
    # payload ends one byte short of a 24th frame, which neither read decodes
    monkeypatch.setattr(signal_io, "_DECODE_BLOCK_SAMPLES", 7)
    n, frame = 23, channels * bits // 8
    rng = np.random.default_rng(10 * bits + tag + channels)
    payload = rng.integers(0, 256, (n + 1) * frame - 1, dtype=np.uint8)
    if tag == 3:  # finite floats, with zeros of both signs
        values = rng.uniform(-1.5, 1.5, n * channels).astype("<f4")
        values[:2 * channels] = [0.0, -0.0] * channels
        payload[:n * frame] = values.view(np.uint8)
    path = tmp_path / "range.wav"
    path.write_bytes(make_wav(payload.tobytes(), channels=channels, bits=bits, tag=tag))
    whole = decode_wav(path).samples
    layout = signal_io._wav_layout(path)
    assert layout.n_frames == n
    for a, b in [(0, n), (0, 1), (2, 9), (4, 17), (5, n), (n - 1, n), (8, 8)]:
        part = signal_io._decode_frames(layout, a, b)
        assert part.tobytes() == whole[a:b].tobytes(), (a, b)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("channels, bits, tag", [(1, 32, 3), (2, 16, 1)],
                         ids=["float32-mono", "int16-stereo"])
def test_decode_peak_memory_follows_the_result(tmp_path, channels, bits, tag):
    # 2.7M frames decode to 20.6 MiB of float64; holding the whole float32
    # file beside the result would alone reach the 1.5x bound
    n = 2_700_000
    rng = np.random.default_rng(4)
    if tag == 3:
        payload = rng.uniform(-1.0, 1.0, n).astype("<f4").tobytes()
    else:
        payload = rng.integers(-32768, 32768, n * channels, dtype=np.int16).tobytes()
    path = tmp_path / "big.wav"
    path.write_bytes(make_wav(payload, channels=channels, bits=bits, tag=tag))
    del payload
    sig, peak = _traced_peak(decode_wav, path)
    assert len(sig) == n
    assert peak <= 1.5 * sig.samples.nbytes, f"{peak / 2**20:.1f} MiB"


def test_float_scan_holds_small_blocks(tmp_path):
    # 4M float32 samples are 16 MiB on disk; the scan for NaN or infinity
    # holds two raw blocks and one bool block, never a large read
    n = 4_000_000
    path = tmp_path / "scan.wav"
    path.write_bytes(make_wav(np.random.default_rng(6).uniform(-1.0, 1.0, n).astype("<f4").tobytes(),
                              bits=32, tag=3))
    layout = signal_io._wav_layout(path)
    _, peak = _traced_peak(signal_io._require_finite, layout)
    assert peak < 256 * 1024, f"{peak / 1024:.0f} KiB"


def test_write_wav_bytes_match_a_hand_rolled_image(tmp_path):
    sig = Signal(np.array([-1.0, -0.5, 0.0, 0.25, 1.0]), 8000.0)
    path = tmp_path / "image.wav"
    write_wav(path, sig, "float32")
    assert path.read_bytes() == make_wav(
        struct.pack("<5f", -1.0, -0.5, 0.0, 0.25, 1.0), rate=8000, bits=32, tag=3
    )
    write_wav(path, sig, "int16")  # x 32767, rounded half to even
    assert path.read_bytes() == make_wav(
        struct.pack("<5h", -32767, -16384, 0, 8192, 32767), rate=8000, bits=16, tag=1
    )


def test_write_wav_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    samples = rng.uniform(-0.9, 0.9, 1000).astype(np.float32).astype(np.float64)
    sig = Signal(samples, 8000.0)
    path = tmp_path / "rt.wav"
    write_wav(path, sig, "float32")
    back = decode_wav(path)
    assert back.sample_rate == 8000.0
    assert np.array_equal(back.samples, samples)

    write_wav(path, sig, "int16")
    back16 = decode_wav(path)
    # write scales by 32767, decode divides by 32768: half a step of
    # rounding plus |x|/32768 of scale mismatch
    assert np.abs(back16.samples - samples).max() < 2.0 / 32768


@pytest.mark.parametrize(
    "rate, encoding",
    [(0.4, "float32"), (4000.5, "float32"), (2.0**30, "float32"), (2.0**31, "int16")],
)
def test_write_wav_rejects_rates_a_header_cannot_hold(tmp_path, rate, encoding):
    path = tmp_path / "rate.wav"
    with pytest.raises(ConfigError, match="sample rate"):
        write_wav(path, Signal(np.zeros(8), rate), encoding)
    assert not path.exists()


def test_window_plan_accepts_numpy_scalars():
    plan = WindowPlan(
        clip_length=np.float64(60.0), part_count=np.int64(3),
        part_length=np.float32(20.0), window_length=np.int32(5),
    )
    assert plan.windows_per_part == 4


def test_window_plan_needs_one_window_per_part():
    # a window up to 1e-9 s longer than its part passes the length check;
    # at 10 ns it is 5% longer, so a part would hold no window
    with pytest.raises(ConfigError, match="does not fit"):
        WindowPlan(clip_length=1e-8, part_count=1, part_length=1e-8, window_length=1.05e-8)
    assert WindowPlan(clip_length=1e-8, part_count=1, part_length=1e-8,
                      window_length=1e-8).windows_per_part == 1


def test_window_plan_derives_a_null_part_length_after_checking_its_terms():
    assert WindowPlan(clip_length=180.0, part_count=4, part_length=None).part_length == 45.0
    with pytest.raises(ConfigError, match=r"clip_length must be > 0 and at most 2\*\*53, got inf"):
        WindowPlan(clip_length=math.inf, part_length=None)
    with pytest.raises(ConfigError, match="part_count must be an integer"):
        WindowPlan(part_count=2.0, part_length=None)


@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -8000.0])
def test_signal_refuses_a_sample_rate_that_is_not_finite_and_positive(rate):
    # an infinite rate was accepted, and analyze_rendition(signal=) then
    # failed in _window_spans with a ValueError
    with pytest.raises(ConfigError, match="sample_rate must be finite and > 0"):
        Signal(np.ones(8), rate)


def test_window_spans_sample_arithmetic():
    # 180 s at 22050 Hz from 10 s on -> 180 * 22050 samples from 220,500 on
    plan = WindowPlan(clip_start=10.0, clip_length=180.0, part_count=1, part_length=180.0,
                      window_length=180.0)
    [[(start, stop)]] = signal_io._window_spans(200 * 22050, 22050.0, plan)
    assert (start, stop - start) == (220_500, 3_969_000)


def test_window_spans_clip_bounds():
    # the clip's end is compared with the signal in samples, at any rate:
    # at 2 GHz a 1.5 ns clip ends at sample 3 of a 1 ns signal's 2
    plan = WindowPlan(clip_length=1.5e-9, part_count=1, part_length=1.5e-9, window_length=1.5e-9)
    with pytest.raises(InsufficientAudioError) as err:
        signal_io._window_spans(2, 2e9, plan)
    assert (err.value.required_seconds, err.value.available_seconds) == (1.5e-9, 1e-9)
    # a clip cannot start before the signal
    with pytest.raises(ConfigError, match="clip_start must be >= 0"):
        WindowPlan(clip_start=-1.0, clip_length=1.0, part_count=1, part_length=1.0,
                   window_length=1.0)
    # 10 ms at 10 Hz holds no sample
    plan = WindowPlan(clip_length=0.01, part_count=1, part_length=0.01, window_length=0.01)
    with pytest.raises(EmptySignalError):
        signal_io._window_spans(10, 10.0, plan)


def test_window_spans_accept_a_clip_ending_within_the_last_sample():
    # 10.5 samples at 10 Hz end half a sample after the tenth: every
    # window's samples exist, and the spans are those of longer audio
    plan = WindowPlan(clip_length=1.05, part_count=1, part_length=1.05, window_length=0.5)
    assert signal_io._window_spans(10, 10.0, plan) == [[(0, 5), (5, 10)]]
    assert signal_io._window_spans(10, 10.0, plan) == signal_io._window_spans(11, 10.0, plan)


def test_window_spans_reject_a_clip_one_sample_short():
    plan = WindowPlan(clip_length=1.1, part_count=1, part_length=1.1, window_length=0.5)
    with pytest.raises(InsufficientAudioError) as err:
        signal_io._window_spans(10, 10.0, plan)
    assert (err.value.required_seconds, err.value.available_seconds) == (1.1, 1.0)
    assert str(err.value) == "plan requires 1.1 s of audio, only 1 s available"


def test_partition_six_parts_five_windows():
    sig = Signal(np.arange(180 * 22050, dtype=float), 22050.0)
    plan = WindowPlan(clip_length=180.0, part_count=6, part_length=30.0, window_length=6.0)
    parts = partition_windows(sig, plan)
    assert len(parts) == 6
    assert all(len(p) == 5 for p in parts)
    assert all(len(w) == 132_300 for p in parts for w in p)


def test_partition_drops_remainder():
    # 45 s phrase, 6 s windows -> 7 windows, 3 s dropped
    sig = Signal(np.ones(45 * 8000), 8000.0)
    plan = WindowPlan(clip_length=45.0, part_count=1, part_length=45.0, window_length=6.0)
    parts = partition_windows(sig, plan)
    assert len(parts) == 1
    assert len(parts[0]) == 7
    assert all(len(w) == 6 * 8000 for w in parts[0])


def test_partition_honours_clip_start():
    sig = Signal(np.arange(30 * 100, dtype=float), 100.0)
    plan = WindowPlan(
        clip_start=10.0, clip_length=20.0, part_count=2, part_length=10.0, window_length=5.0
    )
    parts = partition_windows(sig, plan)
    assert parts[0][0].samples[0] == 1000.0  # 10 s x 100 Hz offset
    assert len(parts) == 2 and len(parts[0]) == 2

    # clip_start pushes the requirement past the signal end
    with pytest.raises(InsufficientAudioError) as err:
        partition_windows(sig, WindowPlan(
            clip_start=15.0, clip_length=20.0, part_count=2, part_length=10.0, window_length=5.0
        ))
    assert err.value.required_seconds == 35.0


def test_partition_insufficient_audio():
    sig = Signal(np.ones(5 * 8000), 8000.0)
    plan = WindowPlan(clip_length=6.0, part_count=1, part_length=6.0, window_length=6.0)
    with pytest.raises(InsufficientAudioError) as err:
        partition_windows(sig, plan)
    assert err.value.required_seconds == 6.0
    assert err.value.available_seconds == 5.0


def test_windows_concatenate_to_part_prefixes():
    sig = Signal(np.arange(60 * 100, dtype=float), 100.0)
    plan = WindowPlan(clip_length=60.0, part_count=3, part_length=20.0, window_length=7.0)
    parts = partition_windows(sig, plan)
    part_samples = 20 * 100
    for p, windows in enumerate(parts):
        joined = np.concatenate([w.samples for w in windows])
        start = p * part_samples
        assert np.array_equal(joined, sig.samples[start : start + joined.size])


@settings(max_examples=60, deadline=None)
@given(
    rate=st.sampled_from([100, 1000, 8000]),
    part_count=st.integers(1, 4),
    windows_per_part=st.integers(1, 5),
    window_seconds=st.integers(1, 4),
    slack=st.integers(0, 3),
)
def test_partition_prefix_property(rate, part_count, windows_per_part, window_seconds, slack):
    part_seconds = windows_per_part * window_seconds + slack
    clip_seconds = part_count * part_seconds
    plan = WindowPlan(
        clip_length=float(clip_seconds),
        part_count=part_count,
        part_length=float(part_seconds),
        window_length=float(window_seconds),
    )
    sig = Signal(np.arange(clip_seconds * rate, dtype=float), float(rate))
    parts = partition_windows(sig, plan)
    assert len(parts) == part_count
    flat = np.concatenate(
        [w.samples for p in parts for w in p]
    )
    # each part's windows are a prefix of the part; parts tile the clip
    for p, windows in enumerate(parts):
        assert len(windows) == plan.windows_per_part
        joined = np.concatenate([w.samples for w in windows])
        start = p * part_seconds * rate
        assert np.array_equal(joined, sig.samples[start : start + joined.size])
    assert flat.size == part_count * plan.windows_per_part * window_seconds * rate


def test_signal_invariants():
    with pytest.raises(EmptySignalError):
        Signal(np.array([]), 10.0)
    from mfaudio import NonFiniteDataError

    with pytest.raises(NonFiniteDataError):
        Signal(np.array([1.0, np.nan]), 10.0)
