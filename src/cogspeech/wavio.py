"""PCM WAV reading/writing.

Reads 16/24/32-bit integer and 32-bit float WAV (8-bit PCM, which
scipy returns unsigned and offset, is refused); multichannel input is
downmixed to mono by channel averaging. Samples are float64 in [-1, 1]
nominal full scale. Output is written as 32-bit float.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InputError

# 24-bit PCM arrives from scipy as int32 with the low byte zeroed.
_INT_SCALE = {np.dtype(np.int16): 2 ** 15, np.dtype(np.int32): 2 ** 31}


def read_wav(path) -> tuple[np.ndarray, int]:
    """Return (samples, sample_rate); samples mono float64."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such audio file: {path}")
    from scipy.io import wavfile  # imported here: it loads scipy.sparse
    try:
        rate, data = wavfile.read(str(path))
    except ValueError as exc:
        raise InputError(f"cannot decode {path}: {exc}") from None
    raw_dtype = data.dtype
    if raw_dtype not in _INT_SCALE and raw_dtype.kind != "f":
        raise InputError(f"{path}: {8 * raw_dtype.itemsize}-bit PCM is not "
                         f"supported (16/24/32-bit integer or float)")
    samples = data.astype(np.float64)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if raw_dtype in _INT_SCALE:
        samples /= _INT_SCALE[raw_dtype]  # in place: no third full-length array
    return samples, int(rate)


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    from scipy.io import wavfile
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(str(path), int(sample_rate), np.asarray(samples, dtype=np.float32))
