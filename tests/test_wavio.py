"""WAV reading and writing: scaling of integer PCM, the memory a read
takes, and a differential check of the numpy codec against
scipy.io.wavfile over hand-built headers."""

import io
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.io import wavfile

from cogspeech import wavio
from cogspeech.errors import InputError


def _write_pcm(path, samples, rate=16000):
    wavfile.write(str(path), rate, samples)


def test_int16_scaled_to_full_scale(tmp_path):
    pcm = np.array([-32768, -1, 0, 1, 16384, 32767], dtype=np.int16)
    _write_pcm(tmp_path / "a.wav", pcm)
    x, rate = wavio.read_wav(tmp_path / "a.wav")
    assert rate == 16000 and x.dtype == np.float64
    assert np.array_equal(x, pcm.astype(np.float64) / 2 ** 15)


def test_stereo_int16_is_averaged_then_scaled(tmp_path):
    pcm = np.array([[32767, -32768], [100, 300], [0, 1]], dtype=np.int16)
    _write_pcm(tmp_path / "s.wav", pcm)
    x, _ = wavio.read_wav(tmp_path / "s.wav")
    assert np.array_equal(x, pcm.astype(np.float64).mean(axis=1) / 2 ** 15)


def test_8bit_pcm_is_refused(tmp_path):
    pcm = (128 + 100 * np.sin(np.arange(160) / 5)).astype(np.uint8)
    _write_pcm(tmp_path / "u8.wav", pcm)
    with pytest.raises(InputError, match="8-bit PCM"):
        wavio.read_wav(tmp_path / "u8.wav")


def test_read_peak_memory_is_the_output_plus_the_pcm(tmp_path):
    # 131 s of 16 kHz int16: the float64 output is 16.8 MB; scaling in
    # place leaves the 2-byte PCM as the only other full-length array
    pcm = np.random.default_rng(0).integers(
        -2 ** 15, 2 ** 15, 131 * 16000).astype(np.int16)
    _write_pcm(tmp_path / "long.wav", pcm)
    wavio.read_wav(tmp_path / "long.wav")  # one-off imports and caches
    tracemalloc.start()
    try:
        x, _ = wavio.read_wav(tmp_path / "long.wav")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * x.nbytes, f"peak {peak / x.nbytes:.2f}x the output"


# ---------------------------------------------------------------------------
# the codec against scipy.io.wavfile

PCM, FLOAT = 0x0001, 0x0003
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}


def _chunk(order, cid, payload, size=None):
    size = len(payload) if size is None else size
    return cid + struct.pack(order + "I", size) + payload + b"\0" * (len(payload) % 2)


def wav_bytes(samples: bytes, *, tag=PCM, channels=1, rate=16000, width=2,
              bits=None, container="RIFF", extensible=False, before=(),
              after=()):
    """A WAV file built by hand: `before` and `after` are (id, payload)
    chunks around fmt + data; RF64 puts the sizes in a ds64 chunk."""
    order = ">" if container == "RIFX" else "<"
    bits = 8 * width if bits is None else bits
    fmt = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag, channels,
                      rate, rate * channels * width, channels * width, bits)
    if extensible:
        fmt += struct.pack(order + "HHII", 22, bits, 0, tag) + _GUID_TAIL[order]
    rf64 = container == "RF64"
    body = (b"".join(_chunk(order, c, p) for c, p in before)
            + _chunk(order, b"fmt ", fmt)
            + _chunk(order, b"data", samples, 0xFFFFFFFF if rf64 else None)
            + b"".join(_chunk(order, c, p) for c, p in after))
    if not rf64:
        return (container.encode() + struct.pack(order + "I", 4 + len(body))
                + b"WAVE" + body)
    ds64 = _chunk("<", b"ds64", struct.pack("<QQQI", 4 + 36 + len(body),
                                            len(samples), 0, 0))
    return b"RF64\xff\xff\xff\xffWAVE" + ds64 + body


def _decode(data: bytes, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.wav"
        path.write_bytes(data)
        with np.errstate(all="ignore"):  # inf - inf in a downmix
            return read(path)


def scipy_read(path):
    """scipy.io.wavfile's decode, downmixed and scaled as read_wav does."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        rate, data = wavfile.read(path)
    x = data.astype(np.float64)
    if x.ndim == 2:
        x = x.mean(axis=1)
    if data.dtype.kind == "i":
        x /= 2.0 ** (8 * data.dtype.itemsize - 1)
    return x, rate


def assert_same_decode(ours: bytes, reference: bytes):
    x, rate = _decode(ours, wavio.read_wav)
    want, want_rate = _decode(reference, scipy_read)
    assert rate == want_rate and x.dtype == np.float64
    assert x.shape == want.shape and x.tobytes() == want.tobytes()


_FORMATS = [(PCM, 2, 16), (PCM, 2, 12), (PCM, 3, 24), (PCM, 3, 20),
            (PCM, 4, 32), (PCM, 4, 24), (FLOAT, 4, 32), (FLOAT, 8, 64)]
_EXTRA = st.lists(st.tuples(st.sampled_from([b"LIST", b"JUNK", b"bext", b"cue "]),
                            st.binary(max_size=9)), max_size=2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fmt=st.sampled_from(_FORMATS), channels=st.integers(1, 4),
       frames=st.integers(0, 40), rate=st.sampled_from([8000, 16000, 44100]),
       container=st.sampled_from(["RIFF", "RIFX", "RF64"]),
       extensible=st.booleans(), before=_EXTRA, after=_EXTRA,
       seed=st.integers(0, 2 ** 32 - 1))
def test_read_matches_scipy(fmt, channels, frames, rate, container, extensible,
                            before, after, seed):
    tag, width, bits = fmt
    samples = np.random.default_rng(seed).bytes(frames * channels * width)
    case = dict(tag=tag, channels=channels, rate=rate, width=width, bits=bits,
                extensible=extensible, before=before, after=after)
    # older scipy releases read no RF64; its RIFF twin is the reference
    reference = "RIFX" if container == "RIFX" else "RIFF"
    assert_same_decode(wav_bytes(samples, container=container, **case),
                       wav_bytes(samples, container=reference, **case))


def test_rifx_int16_is_decoded_not_refused():
    pcm = np.array([-32768, -1, 0, 1, 32767], dtype=">i2")
    data = wav_bytes(pcm.tobytes(), container="RIFX")
    assert_same_decode(data, data)
    x, _ = _decode(data, wavio.read_wav)
    assert np.array_equal(x, pcm.astype(np.float64) / 2 ** 15)


def test_rf64_header_reads_its_sizes_from_ds64():
    pcm = np.arange(-5, 6, dtype="<i4") << 20
    x, rate = _decode(wav_bytes(pcm.tobytes(), width=4, rate=22050,
                                container="RF64"), wavio.read_wav)
    assert rate == 22050 and np.array_equal(x, pcm / 2 ** 31)


def test_extensible_24bit_stereo_matches_scipy():
    pcm = np.random.default_rng(3).bytes(2 * 3 * 101)  # odd: a pad byte
    case = dict(channels=2, width=3, extensible=True,
                before=[(b"JUNK", b"\0" * 27)], after=[(b"LIST", b"INFOx")])
    assert_same_decode(wav_bytes(pcm, **case), wav_bytes(pcm, **case))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n=st.integers(0, 500), rate=st.integers(1, 192000),
       seed=st.integers(0, 2 ** 32 - 1))
def test_write_matches_scipy_bytes(n, rate, seed):
    x = np.random.default_rng(seed).standard_normal(n) * 3
    ref = io.BytesIO()
    wavfile.write(ref, rate, x.astype(np.float32))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sub" / "x.wav"
        wavio.write_wav(path, x, rate)
        assert path.read_bytes() == ref.getvalue()
        back, back_rate = wavio.read_wav(path)
    assert back_rate == rate and np.array_equal(back, x.astype(np.float32))


def _float_wav(n=100):
    out = io.BytesIO()
    wavfile.write(out, 16000, np.linspace(-1, 1, n, dtype=np.float32))
    return out.getvalue()


@pytest.mark.parametrize("spoil, says", [
    (lambda w: b"not a wav file" * 10, "not understood"),
    (lambda w: w[:10], "RIFF header cut short: 10 of 12 bytes"),
    (lambda w: w[:30], "fmt chunk cut short: 10 of 18 bytes"),
    (lambda w: w[:50], "no data chunk"),
    (lambda w: w[:-1], "data chunk of 400 bytes runs past the end of the file "
                       "(399 bytes left)"),
    (lambda w: w[:8] + b"AVIX" + w[12:], "RIFF form type is b'AVIX'"),
    (lambda w: w[:20] + b"\x06\x00" + w[22:], "Unknown wave file format"),
    (lambda w: wav_bytes(b"\0" * 80, width=8), "64-bit PCM is not supported"),
    (lambda w: wav_bytes(b"\0" * 20, tag=FLOAT, width=2),
     "16-bit floating-point"),
])
def test_malformed_or_unsupported_wav_is_refused_naming_the_file(tmp_path,
                                                                 spoil, says):
    path = tmp_path / "bad.wav"
    path.write_bytes(spoil(_float_wav()))
    with pytest.raises(InputError, match="bad.wav") as exc:
        wavio.read_wav(path)
    assert says in str(exc.value)
