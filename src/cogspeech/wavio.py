"""WAV reading and writing in numpy (no scipy.io, whose import loads
scipy.sparse and costs about 0.2 s of every audio stage's start-up).

read_wav decodes RIFF, RIFX (big-endian) and RF64 files whose `fmt `
chunk is PCM or IEEE float, plain or as WAVE_FORMAT_EXTENSIBLE:
16-, 24- and 32-bit integer and 32/64-bit float, with any number of
channels. The sample width is the container's (block align over
channels); 24-bit samples are left-justified into int32, so integer
full scale is 2**15 or 2**31. Multichannel input is downmixed to mono
by channel averaging; samples are float64 in [-1, 1] nominal full
scale, bit for bit what scipy.io.wavfile.read gives scaled the same
way. Chunks before the first `data` chunk are walked, skipping each
odd-sized one's pad byte; the walk ends at the RIFF size or at the
first `data` chunk, and nothing after that is read.

Refused, with InputError naming the file: 8-bit PCM (unsigned and
offset) and PCM samples wider than 4 bytes; other format tags; and a
malformed container: not a RIFF/RIFX/RF64 WAVE, a header or `fmt `
chunk cut short, no `data` chunk, or a `data` chunk that runs past the
end of the file. A WAV cut short is refused, never read short.

write_wav writes mono 32-bit float, the bytes scipy.io.wavfile.write
writes for a float32 array: an 18-byte `fmt `, a `fact`, then `data`.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import InputError

_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# the KSDATAFORMAT_SUBTYPE GUID after its leading 4-byte format tag
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71"}
_INT_SCALE = {2: 2 ** 15, 4: 2 ** 31}  # integer sample width -> full scale


def _read(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) < n:
        raise ValueError(f"{what} cut short: {len(data)} of {n} bytes")
    return data


def _parse_fmt(body: bytes, order: str) -> tuple:
    """(format tag, channels, rate, block align, bits) of a `fmt ` body."""
    if len(body) < 16:
        raise ValueError("Binary structure of wave file is not compliant")
    tag, channels, rate, byte_rate, align, bits = struct.unpack(
        order + "HHIIHH", body[:16])
    if tag == _EXTENSIBLE and len(body) >= 18:
        if struct.unpack(order + "H", body[16:18])[0] < 22 or len(body) < 40:
            raise ValueError("Binary structure of wave file is not compliant")
        guid = body[24:40]
        if guid.endswith(_GUID_TAIL[order]):
            tag = struct.unpack(order + "I", guid[:4])[0]
    if tag not in (_PCM, _FLOAT):
        raise ValueError(f"Unknown wave file format: {tag:#06x}. Supported "
                         f"formats: PCM, IEEE_FLOAT")
    if tag == _PCM and byte_rate != rate * align:
        raise ValueError("WAV header is invalid: nAvgBytesPerSec must equal "
                         "product of nSamplesPerSec and nBlockAlign, but file "
                         f"has nSamplesPerSec = {rate}, nBlockAlign = {align}, "
                         f"and nAvgBytesPerSec = {byte_rate}")
    return tag, channels, rate, align, bits


def _find_data(fh, file_size: int) -> tuple:
    """Walk the chunks to the first `data` chunk, leaving fh at its
    first byte: (byte order, fmt fields, data size)."""
    head = fh.read(12)
    order = {b"RIFF": "<", b"RIFX": ">", b"RF64": "<"}.get(head[:4])
    if order is None:
        raise ValueError(f"File format {head[:4]!r} not understood. Only "
                         "'RIFF', 'RIFX', and 'RF64' supported.")
    if len(head) < 12:
        raise ValueError(f"RIFF header cut short: {len(head)} of 12 bytes")
    if head[8:] != b"WAVE":
        raise ValueError(f"Not a WAV file. RIFF form type is {head[8:]!r}.")
    end = struct.unpack(order + "I", head[4:8])[0] + 8
    rf64_data = None
    if head[:4] == b"RF64":  # sizes over 4 GiB live in a leading ds64 chunk
        ck = _read(fh, 8, "ds64 chunk")
        if ck[:4] != b"ds64":
            raise ValueError("Invalid RF64 file: ds64 chunk not found.")
        body = _read(fh, struct.unpack("<I", ck[4:])[0], "ds64 chunk")
        if len(body) < 16:
            raise ValueError("ds64 chunk cut short")
        riff, rf64_data = struct.unpack("<QQ", body[:16])
        end = riff + 8
    fmt = None
    while fh.tell() < end:
        ck = fh.read(8)
        if len(ck) < 8:
            break
        size = struct.unpack(order + "I", ck[4:])[0]
        if ck[:4] == b"data":
            if fmt is None:
                raise ValueError("No fmt chunk before data")
            size = size if rf64_data is None else rf64_data
            left = file_size - fh.tell()
            if size > left:
                raise ValueError(f"data chunk of {size} bytes runs past the "
                                 f"end of the file ({left} bytes left)")
            return order, fmt, size
        if ck[:4] == b"fmt ":
            fmt = _parse_fmt(_read(fh, size, "fmt chunk"), order)
        else:
            fh.seek(size, 1)
        fh.seek(size % 2, 1)  # the pad byte of an odd-sized chunk
    raise ValueError("no data chunk before the end of the file")


def read_wav(path) -> tuple[np.ndarray, int]:
    """Return (samples, sample_rate); samples mono float64."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"no such audio file: {path}")
    with open(path, "rb") as fh:
        try:
            order, (tag, channels, rate, align, bits), size = _find_data(
                fh, os.fstat(fh.fileno()).st_size)
            if channels < 1 or align < channels:
                raise ValueError(f"fmt chunk gives {channels} channels in "
                                 f"{align}-byte frames")
            width = align // channels
            if tag == _FLOAT:
                if bits not in (32, 64):
                    raise ValueError(f"Unsupported bit depth: the WAV file has "
                                     f"{bits}-bit floating-point data.")
                if width not in (4, 8):
                    raise ValueError(f"{width}-byte float samples")
            elif bits > 64:
                raise ValueError(f"Unsupported bit depth: the WAV file has "
                                 f"{bits}-bit integer data.")
            elif 1 <= bits <= 8 or width not in (2, 3, 4):
                # named as scipy reads them: up to 8 bits as uint8, and
                # 5- to 7-byte samples widened to int64
                narrow = 1 <= bits <= 8 or width == 1
                raise InputError(f"{path}: {8 if narrow else 8 * max(width, 8)}"
                                 f"-bit PCM is not supported "
                                 f"(16/24/32-bit integer or float)")
            count = size // width
            if width == 3:  # each sample into the top three bytes of an int32
                data = np.zeros(count, dtype=order + "i4")
                top = slice(1, 4) if order == "<" else slice(0, 3)
                data.view(np.uint8).reshape(-1, 4)[:, top] = np.fromfile(
                    fh, np.uint8, 3 * count).reshape(-1, 3)
            else:
                kind = "f" if tag == _FLOAT else "i"
                data = np.fromfile(fh, order + kind + str(width), count)
            if channels > 1:
                data = data.reshape(-1, channels)
        except ValueError as exc:
            raise InputError(f"cannot decode {path}: {exc}") from None
    samples = data.astype(np.float64)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    if tag == _PCM:
        samples /= _INT_SCALE[data.dtype.itemsize]  # in place: no third array
    return samples, rate


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono samples as a 32-bit float WAV."""
    data = np.ascontiguousarray(samples, dtype="<f4")
    if data.ndim != 1:
        raise ValueError(f"write_wav takes mono samples, not shape {data.shape}")
    if data.nbytes > 0xFFFFFFFF - 50:
        raise ValueError(f"{data.size} float32 samples overflow a RIFF WAV")
    rate = int(sample_rate)
    header = struct.pack("<4sI4s" "4sIHHIIHHH" "4sII" "4sI",
                         b"RIFF", 50 + data.nbytes, b"WAVE",
                         b"fmt ", 18, _FLOAT, 1, rate, 4 * rate, 4, 32, 0,
                         b"fact", 4, data.size,
                         b"data", data.nbytes)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
