"""Signal conditioning: high-pass filtering, spectral gating, loudness.

The processing chain is fixed as high-pass -> spectral gate -> loudness
normalization; ``preprocess_chain`` applies it and emits one audit entry
per stage (stage name, parameters, output RMS).

Loudness follows the integrated-measurement convention: K-weighting,
400 ms blocks at 75% overlap, an absolute -70 LUFS gate, then a relative
-10 LU gate over the surviving blocks.

Alpha semantics of the spectral gate: bins below the noise threshold are
multiplied by (1 - alpha), i.e. alpha is the attenuation fraction, so
alpha = 0 leaves the signal untouched and alpha = 1 zeroes gated bins.

Memory: the gate's STFT, gain and inverse FFT, the K-weighting filter
and the meters all run in fixed blocks of frames or samples, with every
sum taken in the same order as one whole-array pass, so the outputs are
bitwise those of the unblocked forms. The gate overlap-adds each block's
frames straight into one array over its padded axis (x plus about a
frame on each side), divides by one hop-long squared-window sum and
returns the view of x. What grows with the recording is each stage's output and the
noise profile's (frames x bins) magnitudes, which the exact per-bin
quantile needs.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, ValidationError

# scipy.signal (0.75-1.3 s to import on a 2-core x86-64 VM with numpy
# loaded) is imported inside the four functions that call it, so
# subcommands that never filter do not pay for it.

SAMPLE_RATE_MIN = 8000
SAMPLE_RATE_MAX = 192000

RMS_FLOOR_DBFS = -120.0

# Frames per block of the frame meter and the feature passes (1.28 s at a
# 10 ms hop; larger blocks were no faster on a 2-core host), samples per
# block of the scalar meter (at least numpy's 128): transient arrays keep
# a fixed size whatever the recording length.
_BLOCK_FRAMES = 128
_BLOCK_SAMPLES = 1 << 16

# Integrated loudness constants
_BLOCK_S = 0.400
_BLOCK_STEP_S = 0.100
_ABS_GATE_LUFS = -70.0
_REL_GATE_LU = -10.0
_LOUDNESS_OFFSET = -0.691

# (test, wording) rules for _check; NaN fails every comparison
_UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "in (0, 1)")
_FINITE = (math.isfinite, "finite")
_POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and > 0")
_NON_NEGATIVE = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_ORDER = (lambda v: v >= 1 and v % 1 == 0, "an integer >= 1")


def _check(name: str, value, test, wording: str) -> None:
    """ConfigError unless value is a real number, not a bool, that passes
    test."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not test(value)):
        raise ConfigError(f"{name} must be {wording}, got {value!r}")


@dataclass(frozen=True)
class Signal:
    """Mono audio: float64 samples at nominal [-1, 1] full scale."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1:
            raise ValidationError(f"expected mono 1-D samples, got shape {samples.shape}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValidationError("non-finite samples")
        if not (SAMPLE_RATE_MIN <= self.sample_rate <= SAMPLE_RATE_MAX):
            raise ValidationError(f"sample_rate {self.sample_rate} outside "
                                  f"[{SAMPLE_RATE_MIN}, {SAMPLE_RATE_MAX}]")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


def _sum_squares(x: np.ndarray) -> float:
    """np.sum(np.square(x)), bitwise, in blocks of _BLOCK_SAMPLES: numpy's
    pairwise sum splits an array at half its length rounded down to a
    multiple of 8, so splitting at the same places keeps every partial sum."""
    n = len(x)
    if n <= _BLOCK_SAMPLES:
        return float(np.sum(np.square(x)))
    half = n // 2 - n // 2 % 8
    return _sum_squares(x[:half]) + _sum_squares(x[half:])


def _rms_db(x: np.ndarray) -> float:
    """Level in dB re full scale, floored at RMS_FLOOR_DBFS (also if empty)."""
    ms = _sum_squares(x) / len(x) if len(x) else 0.0
    if ms <= 0.0:
        return RMS_FLOOR_DBFS
    return max(10.0 * math.log10(ms), RMS_FLOOR_DBFS)


@dataclass(frozen=True)
class BiquadSection:
    b0: float
    b1: float
    b2: float
    a1: float
    a2: float

    def poles(self) -> np.ndarray:
        return np.roots([1.0, self.a1, self.a2])


@dataclass(frozen=True)
class FilterSpec:
    """Cascaded biquad realization of an IIR design."""

    sections: tuple[BiquadSection, ...]
    design: MappingProxyType
    sample_rate: int

    def to_sos(self) -> np.ndarray:
        return np.array([[s.b0, s.b1, s.b2, 1.0, s.a1, s.a2] for s in self.sections])

    def is_stable(self) -> bool:
        return all(np.all(np.abs(s.poles()) < 1.0) for s in self.sections)


@functools.lru_cache(maxsize=64, typed=True)
def design_highpass(order: int, cutoff_hz: float, sample_rate: int) -> FilterSpec:
    """Butterworth high-pass as second-order sections.

    Bilinear transform with prewarping at the cutoff, so the half-power
    point (-3.01 dB) lands exactly on cutoff_hz. Memoized on the
    arguments and their types, so callers share one read-only spec.
    """
    if not (0.0 < cutoff_hz < sample_rate / 2):  # also rejects NaN
        raise ConfigError(f"cutoff {cutoff_hz} Hz outside (0, Nyquist = "
                          f"{sample_rate / 2} Hz)")
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")
    from scipy import signal as sps
    sos = sps.butter(order, cutoff_hz, btype="highpass", fs=sample_rate, output="sos")
    sections = tuple(
        BiquadSection(b0=row[0] / row[3], b1=row[1] / row[3], b2=row[2] / row[3],
                      a1=row[4] / row[3], a2=row[5] / row[3])
        for row in sos
    )
    spec = FilterSpec(
        sections=sections,
        design=MappingProxyType({"order": order, "cutoff_hz": cutoff_hz,
                                 "kind": "highpass"}),
        sample_rate=int(sample_rate),
    )
    if not spec.is_stable():
        raise ConfigError(f"unstable design: order={order} cutoff={cutoff_hz} "
                          f"fs={sample_rate}")
    return spec


def apply_filter(spec: FilterSpec, x: Signal) -> Signal:
    """Run the biquad cascade with zero initial state."""
    if spec.sample_rate != x.sample_rate:
        raise ValidationError(f"filter designed for {spec.sample_rate} Hz, "
                              f"signal is {x.sample_rate} Hz")
    from scipy import signal as sps
    y = sps.sosfilt(spec.to_sos(), x.samples)
    return Signal(y, x.sample_rate)


def magnitude_response_db(spec: FilterSpec, freqs_hz) -> np.ndarray:
    """Filter magnitude in dB at the given frequencies."""
    from scipy import signal as sps
    w = 2 * np.pi * np.asarray(freqs_hz, dtype=np.float64) / spec.sample_rate
    _, h = sps.sosfreqz(spec.to_sos(), worN=w)
    return 20.0 * np.log10(np.maximum(np.abs(h), 1e-300))


@dataclass(frozen=True)
class GateConfig:
    """Spectral gate parameters. Only alpha is externally prescribed;
    everything else is tunable and defaults to 25 ms / 10 ms Hann frames,
    a 0.10 noise quantile, and a 6 dB threshold margin."""

    frame_len: int
    hop: int
    noise_quantile: float = 0.10
    threshold_margin_db: float = 6.0
    alpha: float = 0.3

    def __post_init__(self):
        if not (0 < self.hop <= self.frame_len):
            raise ConfigError(f"need 0 < hop <= frame_len, got hop={self.hop} "
                              f"frame_len={self.frame_len}")
        for name, rule in (("alpha", _UNIT), ("noise_quantile", _OPEN_UNIT),
                           ("threshold_margin_db", _FINITE)):
            _check(name, getattr(self, name), *rule)

    @classmethod
    def at_rate(cls, sample_rate: int, frame_s: float = 0.025, hop_s: float = 0.010,
                **kwargs) -> "GateConfig":
        return cls(frame_len=int(round(frame_s * sample_rate)),
                   hop=int(round(hop_s * sample_rate)), **kwargs)


def _frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Read-only (n_frames, frame_len) strided view of x, one frame every
    hop samples; nothing is copied."""
    if len(x) < frame_len:
        return np.zeros((0, frame_len))
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]


def _blocks(n: int):
    """Consecutive slices of range(n), at most _BLOCK_FRAMES long."""
    return (slice(lo, min(lo + _BLOCK_FRAMES, n))
            for lo in range(0, n, _BLOCK_FRAMES))


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of the runs of True in a boolean array."""
    edges = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def _frame_levels(x: Signal, frame_s: float, hop_s: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy frame view of the samples (one frame_s frame every hop_s)
    and each frame's level in dB, floored at RMS_FLOOR_DBFS."""
    frames = _frame_signal(x.samples, int(round(frame_s * x.sample_rate)),
                           int(round(hop_s * x.sample_rate)))
    ms = np.empty(len(frames))
    for b in _blocks(len(ms)):
        ms[b] = np.mean(np.square(frames[b]), axis=1)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(ms)
    return frames, np.maximum(db, RMS_FLOOR_DBFS)


def estimate_noise_profile(x: Signal, cfg: GateConfig) -> np.ndarray:
    """Per-bin noise magnitude: the noise_quantile of STFT magnitudes
    across frames. A tone present in more than that fraction of frames
    leaks into the profile; that is inherent to quantile estimation."""
    if len(x) < cfg.frame_len:
        raise ValidationError(f"signal ({len(x)} samples) shorter than one "
                              f"frame ({cfg.frame_len})")
    frames = _frame_signal(x.samples, cfg.frame_len, cfg.hop)
    win = np.hanning(cfg.frame_len)
    # the exact quantile needs every frame's magnitudes: one (frames x bins)
    # array, partitioned in place
    mags = np.empty((len(frames), cfg.frame_len // 2 + 1))
    for b in _blocks(len(frames)):
        mags[b] = np.abs(np.fft.rfft(frames[b] * win, axis=1))
    return np.quantile(mags, cfg.noise_quantile, axis=0, overwrite_input=True)


def spectral_gate(x: Signal, cfg: GateConfig | None = None) -> Signal:
    """Attenuate sub-threshold time-frequency bins by (1 - alpha).

    Threshold per bin: noise profile raised by threshold_margin_db.
    Reconstruction is weighted overlap-add with squared-window
    normalization, so alpha = 0 returns the input to within float error.
    """
    if cfg is None:
        cfg = GateConfig.at_rate(x.sample_rate)
    if len(x) < cfg.frame_len:
        raise ValidationError(f"signal ({len(x)} samples) shorter than one "
                              f"frame ({cfg.frame_len})")
    profile = estimate_noise_profile(x, cfg)
    threshold = profile * 10.0 ** (cfg.threshold_margin_db / 20.0)

    # Frames are taken from x behind frame_len zeros: frame m starts at
    # padded position m * hop, and padded position p holds x[p - pad].
    # Hop-wide chunk c of the padded axis sums the terms of frames
    # c - k + 1 .. c; adding offset d = k - 1 .. 0 in turn, block after
    # block, sums them in ascending frame order, as a frame-by-frame
    # loop would.  Inside x every chunk has all k of its frames, so its
    # squared-window sum is the same hop-long period, taken in that order;
    # n >= frame_len >= hop puts every phase of it inside x.
    n, flen, hop = len(x), cfg.frame_len, cfg.hop
    pad = flen
    k = -(-flen // hop)
    win = np.hanning(flen)
    win_sq = np.zeros(k * hop)
    win_sq[:flen] = win * win
    norm = np.zeros(hop)
    for d in range(k - 1, -1, -1):
        norm += win_sq[d * hop:(d + 1) * hop]
    if not np.all(norm > 1e-12):
        raise ConfigError(f"frame/hop combination leaves gaps: frame_len="
                          f"{cfg.frame_len} hop={cfg.hop}")
    n_frames = -(-(n + pad) // hop)  # frames that start before x ends
    out = np.zeros((n_frames + k - 1, hop))
    for b in _blocks(n_frames):
        nb, p0 = b.stop - b.start, b.start * hop
        seg = np.zeros((nb - 1) * hop + flen)  # the block's padded samples
        lo, hi = max(p0, pad), min(p0 + len(seg), pad + n)
        seg[lo - p0:hi - p0] = x.samples[lo - pad:hi - pad]
        spec = np.fft.rfft(_frame_signal(seg, flen, hop) * win, axis=1)
        gain = np.where(np.abs(spec) < threshold[None, :], 1.0 - cfg.alpha, 1.0)
        terms = np.zeros((nb, k * hop))
        terms[:, :flen] = np.fft.irfft(spec * gain, n=flen, axis=1) * win
        for d in range(k - 1, -1, -1):  # frame m into chunk m + d
            out[b.start + d:b.stop + d] += terms[:, d * hop:(d + 1) * hop]
    out /= norm
    return Signal(out.reshape(-1)[pad:pad + n], x.sample_rate)


@dataclass(frozen=True)
class LoudnessResult:
    """Integrated loudness; below-gate signals carry a -inf sentinel."""

    integrated_lufs: float
    gated_block_count: int

    @property
    def below_gate(self) -> bool:
        return not math.isfinite(self.integrated_lufs)


def _k_weighting_sos(sample_rate: int) -> np.ndarray:
    """Two-stage K-weighting (high shelf + high pass), designed
    parametrically so any sample rate reproduces the 48 kHz reference
    response."""
    fs = float(sample_rate)

    # Stage 1: high shelf, +4 dB above ~1.68 kHz.  Bilinear transform with
    # tan() prewarping; the bandedge gain exponent keeps the transition
    # shape of the 48 kHz reference filter at any rate.
    G, Q, fc = 3.999843853973347, 0.7071752369554193, 1681.9744509555319
    K = math.tan(math.pi * fc / fs)
    Vh = 10.0 ** (G / 20.0)
    Vb = Vh ** 0.4996667741545416
    a0 = 1.0 + K / Q + K * K
    shelf = [
        (Vh + Vb * K / Q + K * K) / a0,
        2.0 * (K * K - Vh) / a0,
        (Vh - Vb * K / Q + K * K) / a0,
        1.0,
        2.0 * (K * K - 1.0) / a0,
        (1.0 - K / Q + K * K) / a0,
    ]

    # Stage 2: high pass at ~38 Hz.  Numerator left unnormalized on
    # purpose, matching the reference response above the corner.
    Q2, fc2 = 0.5003270373223665, 38.13547087613982
    K = math.tan(math.pi * fc2 / fs)
    a0 = 1.0 + K / Q2 + K * K
    hp = [
        1.0,
        -2.0,
        1.0,
        1.0,
        2.0 * (K * K - 1.0) / a0,
        (1.0 - K / Q2 + K * K) / a0,
    ]

    return np.array([shelf, hp])


def measure_loudness(x: Signal) -> LoudnessResult:
    """Gated integrated loudness of a mono signal."""
    block = int(round(_BLOCK_S * x.sample_rate))
    step = int(round(_BLOCK_STEP_S * x.sample_rate))
    if len(x) < block:
        return LoudnessResult(float("-inf"), 0)

    # K-weighting in chunks with the filter state carried across; the
    # running sum of squares is the sequential np.cumsum of the whole
    # signal, continued from each chunk's carry, and only its values at
    # the block edges are kept
    from scipy import signal as sps
    sos = _k_weighting_sos(x.sample_rate)
    zi = np.zeros((len(sos), 2))
    n_blocks = 1 + (len(x) - block) // step
    starts = step * np.arange(n_blocks)
    edges = (starts, starts + block)
    css_at = (np.empty(n_blocks), np.empty(n_blocks))
    carry = 0.0
    for lo in range(0, len(x), _BLOCK_SAMPLES):
        weighted, zi = sps.sosfilt(sos, x.samples[lo:lo + _BLOCK_SAMPLES], zi=zi)
        css = np.cumsum(np.concatenate([[carry], np.square(weighted)]))
        hi = lo + len(weighted)  # css[i] is the sum of the first lo + i squares
        for idx, vals in zip(edges, css_at):
            i0, i1 = np.searchsorted(idx, lo), np.searchsorted(idx, hi, "right")
            vals[i0:i1] = css[idx[i0:i1] - lo]
        carry = css[-1]
    powers = (css_at[1] - css_at[0]) / block

    with np.errstate(divide="ignore"):
        levels = _LOUDNESS_OFFSET + 10.0 * np.log10(powers)

    abs_pass = levels > _ABS_GATE_LUFS
    if not np.any(abs_pass):
        return LoudnessResult(float("-inf"), 0)
    rel_threshold = (_LOUDNESS_OFFSET + 10.0 * np.log10(np.mean(powers[abs_pass]))
                     + _REL_GATE_LU)
    gated = abs_pass & (levels > rel_threshold)
    if not np.any(gated):
        return LoudnessResult(float("-inf"), 0)
    integrated = _LOUDNESS_OFFSET + 10.0 * np.log10(np.mean(powers[gated]))
    return LoudnessResult(float(integrated), int(np.count_nonzero(gated)))


@dataclass(frozen=True)
class NormalizeResult:
    signal: Signal
    gain_db: float
    input_lufs: float
    output_lufs: float
    clipped_samples: int  # samples beyond +-1 after gain; reported, not clipped


def normalize_loudness(x: Signal, target_lufs: float = -23.0) -> NormalizeResult:
    """Scale to the target integrated loudness with a single gain."""
    if not math.isfinite(target_lufs):
        raise ConfigError(f"target_lufs must be finite, got {target_lufs}")
    measured = measure_loudness(x)
    if measured.below_gate:
        raise ValidationError("input below the absolute loudness gate; "
                              "nothing to normalize")
    gain_db = target_lufs - measured.integrated_lufs
    y = x.samples * 10.0 ** (gain_db / 20.0)
    out = Signal(y, x.sample_rate)
    after = measure_loudness(out)
    return NormalizeResult(
        signal=out,
        gain_db=float(gain_db),
        input_lufs=measured.integrated_lufs,
        output_lufs=after.integrated_lufs,
        clipped_samples=sum(
            int(np.count_nonzero(np.abs(y[lo:lo + _BLOCK_SAMPLES]) > 1.0))
            for lo in range(0, len(y), _BLOCK_SAMPLES)),
    )


@dataclass(frozen=True)
class PreprocessConfig:
    """Parameters of the fixed three-stage conditioning chain."""

    highpass_order: int = 6
    highpass_cutoff_hz: float = 100.0
    gate_alpha: float = 0.3
    gate_noise_quantile: float = 0.10
    gate_margin_db: float = 6.0
    gate_frame_s: float = 0.025
    gate_hop_s: float = 0.010
    loudness_target_lufs: float = -23.0

    def __post_init__(self):
        # every field, before any session runs; the Nyquist limit of the
        # cutoff and the gate's frame and hop in samples depend on the
        # recording's rate and are checked per session
        for name, rule in (("highpass_order", _ORDER),
                           ("highpass_cutoff_hz", _POSITIVE),
                           ("gate_alpha", _UNIT), ("gate_noise_quantile", _OPEN_UNIT),
                           ("gate_margin_db", _FINITE), ("gate_frame_s", _POSITIVE),
                           ("gate_hop_s", _POSITIVE),
                           ("loudness_target_lufs", _FINITE)):
            _check(name, getattr(self, name), *rule)


def preprocess_chain(x: Signal, cfg: PreprocessConfig | None = None
                     ) -> tuple[Signal, list[dict]]:
    """high-pass -> spectral gate -> loudness normalization.

    Returns the conditioned signal and the per-stage audit entries.
    """
    if cfg is None:
        cfg = PreprocessConfig()
    audit = []

    spec = design_highpass(cfg.highpass_order, cfg.highpass_cutoff_hz, x.sample_rate)
    y = apply_filter(spec, x)
    audit.append({
        "stage": "highpass",
        "params": dict(spec.design),
        "output_rms_dbfs": round(_rms_db(y.samples), 4),
    })

    gate_cfg = GateConfig.at_rate(
        x.sample_rate, frame_s=cfg.gate_frame_s, hop_s=cfg.gate_hop_s,
        noise_quantile=cfg.gate_noise_quantile,
        threshold_margin_db=cfg.gate_margin_db, alpha=cfg.gate_alpha,
    )
    y = spectral_gate(y, gate_cfg)
    audit.append({
        "stage": "spectral_gate",
        "params": {"alpha": gate_cfg.alpha, "noise_quantile": gate_cfg.noise_quantile,
                   "threshold_margin_db": gate_cfg.threshold_margin_db,
                   "frame_len": gate_cfg.frame_len, "hop": gate_cfg.hop},
        "output_rms_dbfs": round(_rms_db(y.samples), 4),
    })

    norm = normalize_loudness(y, cfg.loudness_target_lufs)
    audit.append({
        "stage": "loudness_normalize",
        "params": {"target_lufs": cfg.loudness_target_lufs},
        "gain_db": round(norm.gain_db, 4),
        "clipped_samples": norm.clipped_samples,
        "output_rms_dbfs": round(_rms_db(norm.signal.samples), 4),
    })
    return norm.signal, audit
