"""PCM WAV reading: scaling of integer PCM and the memory it takes."""

import tracemalloc

import numpy as np
import pytest

from cogspeech import wavio
from cogspeech.errors import InputError


def _write_pcm(path, samples, rate=16000):
    from scipy.io import wavfile
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
