"""Acoustic feature extraction and embedding ingestion.

Hand-crafted features form three sets: prosodic features taken from the
prosody-preserved stream, voice-quality features from the concatenated
stream, and their union. Names carry an `egx.` prefix: the inventory is
inspired by the extended Geneva minimalistic parameter set but is a
curated subset, not the certified 88-parameter vector.

Functionals are arithmetic mean and coefficient of variation with the
population-SD convention; F0 statistics live on the semitone scale
relative to 27.5 Hz; dB-scaled level contours report SD instead of CoV
so a pure gain shifts the mean by that many dB and nothing else.

The low-level descriptors (F0, jitter/shimmer/HNR, spectral slopes, LPC
formants) are computed by one batched pass per stream: frames are
zero-copy strided views of the samples, and every per-frame decision
(peak picking, pulse-window statistics, the Levinson-Durbin recursion,
formant selection) runs as array operations over all frames at once.
Frames and their levels come from ``dsp._frame_levels``, the meter that
QC shares; formants, which need no level, take the bare frame view of
``dsp._frame_signal``. They go through the level meter, the FFTs,
autocorrelations and companion-matrix eigenvalues in the blocks of
``dsp._blocks`` (at most ``dsp._BLOCK_FRAMES`` frames), so the transient
arrays have a fixed size and peak memory does not grow with the length
of the recording; only the per-frame contours do.

F0 and HNR share one autocorrelation pass per stream (``_acf_pass``):
each frame's normalized ACF at the 40 ms F0 window is taken once, and
only for frames above the energy floor, which can be neither voiced nor
carry an HNR; F0 and the HNR peak near it are read from the same rows.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .dsp import Signal, _blocks, _frame_levels, _frame_signal, _runs
from .corpus import _parse_float, _read_lines
from .errors import InputError, ParseError, ValidationError

FRAME_S = 0.025
HOP_S = 0.010
F0_WIN_S = 0.040
SEMITONE_REF_HZ = 27.5
VOICING_THRESHOLD = 0.45
ENERGY_FLOOR_DBFS = -60.0
HNR_MIN_DB, HNR_MAX_DB = -20.0, 40.0

SET_TAGS = ("EG_PROSODY", "EG_VQUAL", "EG_ALL", "EMBEDDING")

EG_PROSODY_NAMES = (
    "egx.f0_semitone.mean", "egx.f0_semitone.cov",
    "egx.rms_db.mean", "egx.rms_db.sd",
    "egx.voiced.ratio", "egx.voiced_run.rate_per_s",
    "egx.pause.count", "egx.pause.mean_s", "egx.pause.max_s",
    "egx.pause.total_ratio",
)

EG_VQUAL_NAMES = (
    "egx.jitter.mean", "egx.jitter.cov",
    "egx.shimmer.mean", "egx.shimmer.cov",
    "egx.hnr_db.mean", "egx.hnr_db.cov",
    "egx.slope_v_0_500.mean", "egx.slope_v_0_500.cov",
    "egx.slope_uv_0_500.mean", "egx.slope_uv_0_500.cov",
    "egx.slope_v_500_1500.mean", "egx.slope_v_500_1500.cov",
    "egx.slope_uv_500_1500.mean", "egx.slope_uv_500_1500.cov",
    "egx.f1_hz.mean", "egx.f1_hz.cov",
    "egx.f1_bw_hz.mean", "egx.f1_bw_hz.cov",
    "egx.f2_hz.mean", "egx.f2_hz.cov",
    "egx.f2_bw_hz.mean", "egx.f2_bw_hz.cov",
)

EG_ALL_NAMES = EG_PROSODY_NAMES + EG_VQUAL_NAMES

# contours whose second functional is plain SD (dB-scaled levels)
_SD_ONLY = {"rms_db"}


@dataclass(frozen=True)
class LldContour:
    """Per-frame descriptor track; mask marks frames where the value is
    meaningful (voiced, enough pulses, stable fit, ...)."""

    name: str
    values: np.ndarray
    voiced_mask: np.ndarray
    frame_s: float = HOP_S

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.voiced_mask, dtype=bool)
        if values.shape != mask.shape or values.ndim != 1:
            raise ValidationError(f"contour {self.name!r}: values {values.shape} "
                                  f"vs mask {mask.shape}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "voiced_mask", mask)

    def valid_values(self) -> np.ndarray:
        return self.values[self.voiced_mask]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class FeatureVector:
    set_tag: str
    values: dict  # name -> float, insertion order is canonical
    absent: tuple[str, ...] = ()

    def __post_init__(self):
        if self.set_tag not in SET_TAGS:
            raise ValidationError(f"unknown set tag {self.set_tag!r}")
        for name, v in self.values.items():
            if not math.isfinite(v):
                raise ValidationError(f"non-finite feature {name!r}: {v}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.values)

    def array(self) -> np.ndarray:
        return np.array(list(self.values.values()), dtype=np.float64)


def _normalized_acf(frames: np.ndarray, lag_lo: int, lag_hi: int) -> np.ndarray:
    """r[f, tau - lag_lo] = acf / sqrt(leading * trailing energy) for
    lag_lo <= tau <= lag_hi, per frame (lag_lo >= 1).

    The FFT length is the smallest power of two >= n + lag_hi + 1, so the
    circular wrap-around never reaches a lag that is read.
    """
    n = frames.shape[1]
    nfft = 1 << (n + lag_hi).bit_length()
    spec = np.fft.rfft(frames, nfft, axis=1)
    acf = np.fft.irfft(np.abs(spec) ** 2, nfft, axis=1)
    csum = np.cumsum(np.square(frames), axis=1)
    e_lead = csum[:, n - 1 - lag_hi:n - lag_lo][:, ::-1]
    e_trail = csum[:, -1:] - csum[:, lag_lo - 1:lag_hi]
    denom = np.sqrt(np.maximum(e_lead * e_trail, 1e-300))
    return acf[:, lag_lo:lag_hi + 1] / denom


def _pick_f0(r: np.ndarray, lag_lo: int, fs: int, fmin: float, fmax: float,
             voicing_threshold: float):
    """(f0, voiced) per row of r, whose columns are lags lag_lo - 1 ..
    lag_hi + 1."""
    inner = r[:, 1:-1]  # lags lag_lo..lag_hi
    peaks = (inner > r[:, :-2]) & (inner >= r[:, 2:])
    best = np.where(peaks, inner, -np.inf).max(axis=1)
    voiced = peaks.any(axis=1) & (best >= voicing_threshold)
    # halving guard: the smallest lag within 90% of the best peak
    near = (inner >= 0.9 * best[:, None]) | (best <= 0)[:, None]
    p = np.argmax(peaks & near, axis=1)
    # parabolic refinement around the chosen peak
    a, b, c = np.take_along_axis(r, p[:, None] + np.arange(3), axis=1).T
    denom = a - 2 * b + c
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(np.abs(denom) > 1e-12, 0.5 * (a - c) / denom, 0.0)
    f0 = fs / ((lag_lo + p) + np.clip(delta, -0.5, 0.5))
    voiced &= (fmin * 0.9 <= f0) & (f0 <= fmax * 1.1)
    return np.where(voiced, f0, 0.0), voiced


def _hnr_peak(r: np.ndarray, lag_lo: int, fs: int, f0: np.ndarray,
              voiced: np.ndarray) -> np.ndarray:
    """Best value per row of r, whose columns are lags lag_lo, lag_lo + 1,
    ...: within +-2 lags of the F0 period on voiced rows, anywhere
    otherwise."""
    has_f0 = voiced & (f0 > 0)
    lag = np.where(has_f0, np.round(fs / np.where(has_f0, f0, 1.0)),
                   0).astype(np.int64)
    first = np.maximum(0, lag - 2 - lag_lo)
    stop = np.minimum(r.shape[1], lag + 3 - lag_lo)
    cols = np.arange(r.shape[1])
    in_window = ((cols >= first[:, None]) & (cols < stop[:, None])
                 | ~(has_f0 & (stop > first))[:, None])
    return np.where(in_window, r, -np.inf).max(axis=1)


def _acf_pass(x: Signal, win_s: float = F0_WIN_S, hop_s: float = HOP_S,
              fmin: float = 60.0, fmax: float = 400.0,
              voicing_threshold: float = VOICING_THRESHOLD,
              energy_floor_dbfs: float = ENERGY_FLOOR_DBFS, *,
              hnr: bool = False, hnr_f0: LldContour | None = None):
    """One normalized-autocorrelation pass over a stream: (frame_db, f0
    contour, HNR peaks or None), per-frame scalars only.

    Frames x once and takes the ACF of each frame above the energy floor
    once, in the blocks of ``dsp._blocks``; frames below the floor are
    never transformed (they are unvoiced and carry no HNR, so their peak
    stays 0). Each block yields F0 and, with hnr, the HNR peak, whose
    search window follows hnr_f0 (cut to its length; no F0 is picked
    then) or else the F0 just picked, whose arrays are then read-only.
    """
    fs = x.sample_rate
    frames, frame_db = _frame_levels(x, win_s, hop_s)
    nf = frames.shape[0] if hnr_f0 is None else min(frames.shape[0], len(hnr_f0))
    lag_lo = max(2, int(math.floor(fs / fmax)))
    lag_hi = min(frames.shape[1] - 2, int(math.ceil(fs / fmin)))
    if nf and lag_hi <= lag_lo:
        raise ValidationError(f"window too short for fmin {fmin} Hz")
    f0, voiced = ((np.zeros(nf), np.zeros(nf, dtype=bool)) if hnr_f0 is None
                  else (hnr_f0.values[:nf], hnr_f0.voiced_mask[:nf]))
    peak = np.zeros(nf) if hnr else None
    live = np.flatnonzero(frame_db[:nf] > energy_floor_dbfs)
    for b in _blocks(len(live)):
        idx = live[b]
        block = frames[idx]
        block -= block.mean(axis=1, keepdims=True)
        # pad one lag each side for the parabolic interpolation
        r = _normalized_acf(block, lag_lo - 1, lag_hi + 1)
        if hnr_f0 is None:
            f0[idx], voiced[idx] = _pick_f0(r, lag_lo, fs, fmin, fmax,
                                            voicing_threshold)
        if hnr:
            peak[idx] = _hnr_peak(r[:, 1:-1], lag_lo, fs, f0[idx], voiced[idx])
    if hnr and hnr_f0 is None:
        # the peaks belong to this contour: an in-place edit must raise
        f0.flags.writeable = voiced.flags.writeable = False
    return frame_db[:nf], LldContour("f0", f0, voiced, frame_s=hop_s), peak


def track_f0(x: Signal, fmin: float = 60.0, fmax: float = 400.0,
             win_s: float = F0_WIN_S, hop_s: float = HOP_S,
             voicing_threshold: float = VOICING_THRESHOLD,
             energy_floor_dbfs: float = ENERGY_FLOOR_DBFS, *,
             analysis=None) -> LldContour:
    """Fundamental frequency by normalized autocorrelation.

    Candidate peaks within 90% of the best are resolved toward the
    smallest lag (halving guard), then refined by parabolic
    interpolation. Frames below the energy floor (never transformed) or
    the peak-clarity threshold are unvoiced. Peaks are picked on all
    frames of a block at once; blocks bound the autocorrelation arrays.

    analysis, a cached zero-argument call of ``_acf_pass`` that
    extract_feature_sets shares with jitter_shimmer_hnr, gives the
    contour when passed: x and every other setting are then not read.
    """
    return (analysis() if analysis is not None else _acf_pass(
        x, win_s, hop_s, fmin, fmax, voicing_threshold, energy_floor_dbfs))[1]


def _pulse_marks(samples: np.ndarray, fs: int, f0c: LldContour,
                 win_s: float, hop_s: float):
    """Peak picking at roughly one pitch period spacing inside voiced
    runs. Returns per-run lists of mark sample indices."""
    hop = int(round(hop_s * fs))
    win = int(round(win_s * fs))
    runs = []
    for i, j in zip(*_runs(f0c.voiced_mask)):
        run_f0 = f0c.values[i:j]
        run_f0 = run_f0[run_f0 > 0]
        if not run_f0.size:
            continue
        t0 = fs / float(np.median(run_f0))
        a = int(i) * hop
        b = min(len(samples), (int(j) - 1) * hop + win)
        marks = []
        lo, hi = a, min(b, a + int(1.3 * t0) + 1)
        while hi - lo >= 2:
            m = lo + int(samples[lo:hi].argmax())
            marks.append(m)
            lo = m + int(0.7 * t0)
            hi = min(b, m + int(1.3 * t0) + 1)
        if len(marks) >= 3:
            m_arr = np.array(marks)
            # a truncated search window at a run edge can land on a
            # decaying tail instead of a pulse; drop weak edge marks
            amps = np.abs(samples[m_arr])
            strong = np.flatnonzero(amps >= 0.3 * float(np.median(amps)))
            if strong.size and strong[-1] - strong[0] >= 2:
                runs.append(m_arr[strong[0]:strong[-1] + 1])
    return runs


def _pulse_series(samples: np.ndarray, fs: int, f0c: LldContour,
                  win_s: float, hop_s: float) -> list:
    """Pulse statistics pooled across voiced runs as time-sorted (t, value)
    pairs: periods at their midpoints, |period differences| at the inner
    marks, amplitudes at the marks, |amplitude differences| at all marks
    but each run's first. A run's search reaches one window past its last
    voiced frame, so marks of close runs can interleave; hence the sort."""
    pieces: list = [[], [], [], []]
    for marks in _pulse_marks(samples, fs, f0c, win_s, hop_s):
        t = marks / fs
        periods = np.diff(t)
        amps = np.abs(samples[marks])
        for acc, pair in zip(pieces, (((t[:-1] + t[1:]) / 2.0, periods),
                                      (t[1:-1], np.abs(np.diff(periods))),
                                      (t, amps),
                                      (t[1:], np.abs(np.diff(amps))))):
            acc.append(pair)
    series = []
    for acc in pieces:
        t = np.concatenate([p[0] for p in acc] or [np.zeros(0)])
        v = np.concatenate([p[1] for p in acc] or [np.zeros(0)])
        order = np.argsort(t, kind="stable")
        series.append((t[order], v[order]))
    return series


def _window_sums(series, lo: np.ndarray, hi: np.ndarray):
    """(count, sum) of the values whose time lies in [lo, hi], per frame.

    Each window is summed on its own: a difference of running totals
    would cancel away the relative accuracy of near-zero windows (the
    amplitude differences of a constant pulse train)."""
    t, v = series
    i0 = np.searchsorted(t, lo, side="left")
    i1 = np.searchsorted(t, hi, side="right")
    count = i1 - i0
    # reduceat sums v[i0:i1] at the even positions; an empty window
    # yields v[i0] there, hence the padding and the count mask
    sums = np.add.reduceat(np.append(v, 0.0),
                           np.stack([i0, i1], axis=1).ravel())[::2]
    return count, np.where(count > 0, sums, 0.0)


def jitter_shimmer_hnr(x: Signal, f0c: LldContour, win_s: float = F0_WIN_S,
                       hop_s: float = HOP_S, stat_win_s: float = 0.060, *,
                       analysis=None) -> tuple[LldContour, LldContour, LldContour]:
    """Local jitter, local shimmer, and autocorrelation HNR per frame.

    Jitter and shimmer need pulse marks: within each frame's window the
    mean absolute difference of adjacent periods (amplitudes) over their
    mean, with every frame's window located by binary search in the
    time-sorted pulse series and summed on its own. HNR needs only the
    frame autocorrelation peak (within +-2 lags of the F0 period on voiced
    frames, anywhere in the pitch range otherwise) and is defined wherever
    the frame has energy, voiced or not.

    analysis is the cached ``_acf_pass`` whose F0 contour f0c is (see
    track_f0); its frame levels and HNR peaks, taken at the F0 window and
    hop, are read as they are, so win_s and hop_s place only the jitter
    and shimmer windows. Without it, or for another contour,
    ``_acf_pass`` runs here with the search window following f0c.
    """
    fs = x.sample_rate
    frame_db, own_f0c, peak = analysis() if analysis is not None else (None, None, None)
    if own_f0c is not f0c:
        frame_db, _, peak = _acf_pass(x, win_s, hop_s, hnr=True, hnr_f0=f0c)
    nf = min(len(frame_db), len(f0c))
    voiced = f0c.voiced_mask[:nf]
    if nf == 0 or not np.any(voiced):
        return tuple(LldContour(name, np.zeros(0), np.zeros(0, dtype=bool))
                     for name in ("jitter", "shimmer", "hnr_db"))

    hop = int(round(hop_s * fs))
    win = int(round(win_s * fs))
    centers = (np.arange(nf) * hop + win / 2.0) / fs
    lo, hi = centers - stat_win_s / 2.0, centers + stat_win_s / 2.0
    (n_per, s_per), (n_dif, s_dif), (n_amp, s_amp), (n_adf, s_adf) = (
        _window_sums(s, lo, hi)
        for s in _pulse_series(x.samples, fs, f0c, win_s, hop_s))
    jit_mask = voiced & (n_per >= 3) & (n_dif >= 2)
    shim_mask = voiced & (n_amp >= 3) & (n_adf >= 2) & (s_amp > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        jit = np.where(jit_mask, (s_dif / n_dif) / (s_per / n_per), 0.0)
        shim = np.where(shim_mask, (s_adf / n_adf) / (s_amp / n_amp), 0.0)

    peak = np.clip(peak[:nf], 1e-12, 1.0 - 1e-12)
    hnr_mask = frame_db[:nf] > ENERGY_FLOOR_DBFS
    hnr = np.where(hnr_mask, np.clip(10.0 * np.log10(peak / (1.0 - peak)),
                                     HNR_MIN_DB, HNR_MAX_DB), HNR_MIN_DB)
    return (LldContour("jitter", jit, jit_mask, frame_s=hop_s),
            LldContour("shimmer", shim, shim_mask, frame_s=hop_s),
            LldContour("hnr_db", hnr, hnr_mask, frame_s=hop_s))


def spectral_slopes(x: Signal, f0c: LldContour,
                    bands=((0.0, 500.0), (500.0, 1500.0)),
                    frame_s: float = FRAME_S, hop_s: float = HOP_S
                    ) -> list[LldContour]:
    """Per-frame regression slope of the dB spectrum vs frequency (kHz)
    within each band, as separate voiced and unvoiced contours. Spectra
    are taken one block of frames at a time."""
    fs = x.sample_rate
    frames, frame_db = _frame_levels(x, frame_s, hop_s)
    nf, win = frames.shape
    freqs = np.fft.rfftfreq(win, 1.0 / fs)
    fits = []
    for lo, hi in bands:
        sel = (freqs > lo) & (freqs <= hi)
        if sel.sum() < 2:
            raise ValidationError(f"band ({lo}, {hi}] Hz has "
                                  f"{int(sel.sum())} bins at fs={fs}; need >= 2")
        f_khz = freqs[sel] / 1000.0
        fc = f_khz - f_khz.mean()
        fits.append((sel, fc, float(np.sum(fc * fc))))
    slopes = np.zeros((len(bands), nf))
    window = np.hanning(win)
    for b in _blocks(nf):
        spec_db = 20.0 * np.log10(np.abs(np.fft.rfft(frames[b] * window, axis=1))
                                  + 1e-12)
        for k, (sel, fc, denom) in enumerate(fits):
            y = spec_db[:, sel]
            slopes[k, b] = (y - y.mean(axis=1, keepdims=True)) @ fc / denom

    n_align = min(nf, len(f0c))
    voiced = np.zeros(nf, dtype=bool)
    voiced[:n_align] = f0c.voiced_mask[:n_align]
    energetic = frame_db > ENERGY_FLOOR_DBFS
    out = []
    for (lo, hi), band_slopes in zip(bands, slopes):
        tag = f"{int(lo)}_{int(hi)}"
        out.append(LldContour(f"slope_v_{tag}", band_slopes, energetic & voiced,
                              frame_s=hop_s))
        out.append(LldContour(f"slope_uv_{tag}", band_slopes, energetic & ~voiced,
                              frame_s=hop_s))
    return out


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of u with the same row of v; the same BLAS
    dot that np.dot and np.correlate use for one unit-stride pair."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _lpc(w: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Levinson-Durbin on the autocorrelation of every row of w at once.

    Returns (a, ok): a[:, 0] = 1 and ok is False for rows whose fit is
    unstable or degenerate (zero energy, a non-finite or |k| >= 1
    reflection coefficient, a non-positive prediction error); their
    coefficients are meaningless.
    """
    n = w.shape[1]
    rxx = np.stack([_row_dots(w[:, :n - k], w[:, k:])
                    for k in range(order + 1)], axis=1)
    rev = rxx[:, ::-1].copy()  # rev[:, order - i + 1:order] = rxx[:, i-1:0:-1]
    a = np.zeros((len(w), order + 1))
    a[:, 0] = 1.0
    err = rxx[:, 0].copy()
    ok = err > 0
    for i in range(1, order + 1):
        acc = rxx[:, i] + _row_dots(a[:, 1:i], rev[:, order - i + 1:order])
        with np.errstate(divide="ignore", invalid="ignore"):
            k = -acc / err
        ok &= np.isfinite(k) & (np.abs(k) < 1.0)
        k[~ok] = 0.0  # failed rows stay finite and are dropped
        a[:, 1:i + 1] = a[:, 1:i + 1] + k[:, None] * a[:, i - 1::-1][:, :i]
        err *= (1.0 - k * k)
        ok &= err > 0
    return a, ok


def _poles(a: np.ndarray) -> np.ndarray:
    """Roots of each row polynomial: the eigenvalues of the companion
    matrix np.roots builds, for all rows in one stacked eigvals call."""
    order = a.shape[1] - 1
    companion = np.zeros((len(a), order, order))
    companion[:, 1:, :-1] = np.eye(order - 1)
    companion[:, 0, :] = -a[:, 1:] / a[:, :1]
    return np.linalg.eigvals(companion)


F1_RANGE_HZ = (200.0, 1000.0)
F2_RANGE_HZ = (800.0, 2800.0)
MAX_FORMANT_BW_HZ = 400.0


def _pick_formants(roots: np.ndarray, fs: int):
    """((f1, bw1, has_f1), (f2, bw2, has_f2)) per row of LPC roots.

    Candidates are the poles above the real axis and inside the unit
    circle whose bandwidth is at most MAX_FORMANT_BW_HZ (broad poles model
    source spectrum shape, not resonances). F1 is the lowest candidate in
    its range; F2 the lowest in its range above F1's frequency, or in its
    range at all when there is no F1. (A candidate in the F2 range below
    F1 would lie in the F1 range and so be F1 itself.)
    """
    keep = (roots.imag > 1e-8) & (np.abs(roots) < 1.0)
    with np.errstate(divide="ignore"):
        freqs = np.where(keep, np.angle(roots) * fs / (2.0 * np.pi), np.inf)
        bws = -(fs / np.pi) * np.log(np.abs(roots))
    by_freq = np.argsort(freqs, axis=1)
    freqs = np.take_along_axis(freqs, by_freq, axis=1)
    bws = np.take_along_axis(bws, by_freq, axis=1)
    cand = np.take_along_axis(keep, by_freq, axis=1) & (bws <= MAX_FORMANT_BW_HZ)
    rows = np.arange(len(roots))
    in_f1 = cand & (F1_RANGE_HZ[0] <= freqs) & (freqs <= F1_RANGE_HZ[1])
    has_f1 = in_f1.any(axis=1)
    p1 = np.argmax(in_f1, axis=1)
    f1 = np.where(has_f1, freqs[rows, p1], -np.inf)
    in_f2 = (cand & (F2_RANGE_HZ[0] <= freqs) & (freqs <= F2_RANGE_HZ[1])
             & (freqs > f1[:, None]))
    p2 = np.argmax(in_f2, axis=1)
    return ((freqs[rows, p1], bws[rows, p1], has_f1),
            (freqs[rows, p2], bws[rows, p2], in_f2.any(axis=1)))


def formant_bandwidths(x: Signal, f0c: LldContour, order: int | None = None,
                       frame_s: float = FRAME_S, hop_s: float = HOP_S
                       ) -> list[LldContour]:
    """F1/F2 center frequencies and bandwidths from LPC pole angles on
    voiced frames. Unstable frames are skipped (mask False).

    Voiced frames are fitted a block at a time: a batched Levinson-Durbin
    recursion, then one stacked companion-matrix eigenvalue call.
    """
    fs = x.sample_rate
    if order is None:
        order = fs // 1000 + 2
    frames = _frame_signal(x.samples, round(frame_s * fs), round(hop_s * fs))
    nf = min(frames.shape[0], len(f0c))
    window = np.hamming(frames.shape[1])
    voiced = np.flatnonzero(f0c.voiced_mask[:nf])

    values = np.zeros((4, nf))  # f1_hz, f1_bw_hz, f2_hz, f2_bw_hz
    masks = np.zeros((4, nf), dtype=bool)
    for b in _blocks(len(voiced)):
        a, ok = _lpc(frames[voiced[b]] * window, order)
        idx = voiced[b][ok]
        for k, (f, bw, has) in enumerate(_pick_formants(_poles(a[ok]), fs)):
            values[2 * k, idx[has]] = f[has]
            values[2 * k + 1, idx[has]] = bw[has]
            masks[2 * k:2 * k + 2, idx[has]] = True
    names = ("f1_hz", "f1_bw_hz", "f2_hz", "f2_bw_hz")
    return [LldContour(n, v, m, frame_s=hop_s)
            for n, v, m in zip(names, values, masks)]


def _population_sd(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v - np.mean(v)))))


def semitones(hz, ref_hz: float = SEMITONE_REF_HZ) -> np.ndarray:
    hz = np.asarray(hz, dtype=np.float64)
    return 12.0 * np.log2(hz / ref_hz)


def apply_functionals(contours, set_tag: str = "EG_ALL") -> FeatureVector:
    """Mean and CoV (population SD / |mean|; SD alone when the mean is
    ~0 or for dB-level contours) per contour over its valid frames.

    The f0 contour is renamed f0_semitone and converted before the
    statistics. Contours with no valid frames contribute no features and
    are listed in .absent.
    """
    contours = list(contours)
    if not contours:
        raise ValidationError("need at least one contour")
    values: dict = {}
    absent = []
    for c in contours:
        v = c.valid_values()
        base = c.name
        if base == "f0":
            base = "f0_semitone"
            v = semitones(v[v > 0])
        if v.size == 0:
            absent.append(f"egx.{base}.mean")
            second = "sd" if base in _SD_ONLY else "cov"
            absent.append(f"egx.{base}.{second}")
            continue
        mean = float(np.mean(v))
        sd = _population_sd(v)
        values[f"egx.{base}.mean"] = mean
        if base in _SD_ONLY:
            values[f"egx.{base}.sd"] = sd
        else:
            values[f"egx.{base}.cov"] = sd / abs(mean) if abs(mean) > 1e-8 else sd
    return FeatureVector(set_tag=set_tag, values=values, absent=tuple(absent))


def _pause_stats(frame_db: np.ndarray, duration_s: float,
                 frame_s: float = FRAME_S, hop_s: float = HOP_S,
                 floor_dbfs: float = ENERGY_FLOOR_DBFS,
                 min_pause_s: float = 0.2) -> dict:
    """Silence-run statistics over the (temporally intact) stream, from
    its frame levels."""
    starts, stops = _runs(frame_db <= floor_dbfs)
    durations = (stops - starts) * hop_s + (frame_s - hop_s)
    durations = durations[durations >= min_pause_s]
    found = durations.size > 0
    return {
        "egx.pause.count": float(durations.size),
        "egx.pause.mean_s": float(np.mean(durations)) if found else 0.0,
        "egx.pause.max_s": float(np.max(durations)) if found else 0.0,
        "egx.pause.total_ratio": (float(np.sum(durations) / duration_s)
                                  if duration_s > 0 else 0.0),
    }


def _voicing_stats(f0c: LldContour) -> dict:
    mask = f0c.voiced_mask
    n = len(mask)
    if n == 0:
        return {"egx.voiced.ratio": 0.0, "egx.voiced_run.rate_per_s": 0.0}
    runs = len(_runs(mask)[0])
    duration = n * f0c.frame_s
    return {
        "egx.voiced.ratio": float(np.mean(mask)),
        "egx.voiced_run.rate_per_s": runs / duration if duration > 0 else 0.0,
    }


def extract_feature_sets(prosody: Signal | None, concat: Signal | None
                         ) -> tuple[FeatureVector, FeatureVector, FeatureVector]:
    """(EG_PROSODY, EG_VQUAL, EG_ALL) for one session.

    Either stream may be None (failed upstream); its features are then
    absent rather than fabricated, and EG_ALL records the gap.
    """
    if prosody is None:
        eg_prosody = FeatureVector("EG_PROSODY", {}, EG_PROSODY_NAMES)
    else:
        f0p = track_f0(prosody)
        _, frame_db = _frame_levels(prosody, FRAME_S, HOP_S)
        rms_contour = LldContour("rms_db", frame_db,
                                 frame_db > ENERGY_FLOOR_DBFS)
        fv = apply_functionals([f0p, rms_contour], set_tag="EG_PROSODY")
        found = {**fv.values, **_voicing_stats(f0p),
                 **_pause_stats(frame_db, prosody.duration_s)}
        eg_prosody = FeatureVector(
            "EG_PROSODY", {n: found[n] for n in EG_PROSODY_NAMES if n in found},
            fv.absent)

    if concat is None:
        eg_vqual = FeatureVector("EG_VQUAL", {}, EG_VQUAL_NAMES)
    else:
        # one autocorrelation pass for F0 and HNR, run inside track_f0
        acf = functools.cache(functools.partial(_acf_pass, concat, hnr=True))
        f0c = track_f0(concat, analysis=acf)
        jit, shim, hnr = jitter_shimmer_hnr(concat, f0c, analysis=acf)
        slopes = spectral_slopes(concat, f0c)
        formants = formant_bandwidths(concat, f0c)
        fv = apply_functionals([jit, shim, hnr, *slopes, *formants],
                               set_tag="EG_VQUAL")
        eg_vqual = FeatureVector(
            "EG_VQUAL", {n: fv.values[n] for n in EG_VQUAL_NAMES if n in fv.values},
            fv.absent)

    return eg_prosody, eg_vqual, FeatureVector(
        "EG_ALL", {**eg_prosody.values, **eg_vqual.values},
        eg_prosody.absent + eg_vqual.absent)


# ---------------------------------------------------------------------------
# Embedding ingestion and feature table I/O

def _embedding_records(path: str):
    """(line, session_id, declared dim, float64 frame array) of each
    record of an embedding dump: a JSON-lines object or a CSV row, decoded
    one line at a time (corpus._read_lines). A CSV line 1 whose dim cell
    is not a number is a header. A record that does not parse, a value
    that is not a number included, is an InputError naming the file and
    the line."""
    jsonl = path.endswith((".jsonl", ".json"))
    with closing(_read_lines(path)) as lines:
        for lineno, item in enumerate(lines if jsonl else csv.reader(lines), 1):
            try:
                if jsonl and item.strip():
                    obj = json.loads(item)
                    vals = obj["values"]
                    frames = vals if vals and isinstance(vals[0], list) else [vals]
                    yield (lineno, str(obj["session_id"]), float(obj["dim"]),
                           np.array(frames, dtype=np.float64))
                elif item and not jsonl:
                    sid, dim, *vals = item
                    try:
                        dim = float(dim)
                    except ValueError:
                        if lineno == 1:
                            continue  # the header
                        raise
                    yield lineno, sid, dim, np.array([[float(v) for v in vals]])
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"{path} line {lineno}: malformed record: "
                                 f"{type(exc).__name__} {exc}") from None


def load_embeddings(path, expected_dim: int) -> dict:
    """session_id -> mean-pooled FeatureVector of features emb_000,
    emb_001, ... (at least three digits).

    CSV rows: session_id, dim, v0, v1, ... JSON-lines objects:
    {"session_id", "dim", "values"} where values is one vector or a list
    of frame vectors. Every record must declare expected_dim; a session's
    frames, over all its records, are averaged.

    The file is read once. Each record is checked as it is read, and its
    frames are added in file order to its session's running float64 row
    sum, which starts from zeros as np.mean's does; memory is one row per
    session plus the record being parsed. Errors name the file, the line
    and the session.
    """
    path = str(path)
    pooled: dict = {}  # session_id -> [running row sum, frames so far]
    for lineno, sid, dim, frames in _embedding_records(path):
        where = f"{path} line {lineno}: session {sid}"
        if dim != expected_dim:
            raise InputError(f"{where}: declared dim {dim:g}, expected "
                             f"{expected_dim}")
        if frames.ndim != 2 or frames.shape[1] != expected_dim:
            raise InputError(f"{where}: got frames of shape {frames.shape[1:]}, "
                             f"expected ({expected_dim},)")
        acc = pooled.setdefault(sid, [np.zeros(expected_dim), 0])
        bad = np.argwhere(~np.isfinite(frames))
        if bad.size:
            raise InputError(f"{where}: non-finite value at frame "
                             f"{acc[1] + bad[0][0]}, dimension {bad[0][1]}")
        for row in frames:
            acc[0] += row
        acc[1] += len(frames)
    if not pooled:
        raise InputError(f"no embeddings found in {path}")
    width = max(3, len(str(expected_dim - 1)))
    names = [f"emb_{i:0{width}d}" for i in range(expected_dim)]
    return {sid: FeatureVector("EMBEDDING", dict(zip(names, (total / n).tolist())))
            for sid, (total, n) in pooled.items()}


def write_feature_csv(path, vectors: dict, names=None) -> None:
    """Feature table: session_id column then features in canonical order.
    Absent features become empty cells."""
    vectors = dict(vectors)
    if not vectors:
        raise ValidationError("no feature vectors to write")
    if names is None:
        names = list(next(iter(vectors.values())).values)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["session_id", *names])
        for sid in sorted(vectors):
            vec = vectors[sid]
            writer.writerow([sid] + [repr(vec.values[n]) if n in vec.values
                                     else "" for n in names])


def read_feature_csv(path) -> tuple[list[str], dict]:
    """Inverse of write_feature_csv: (names, session_id -> {name: value}).

    Cells follow the manifest's rule (corpus._parse_float): an empty cell
    is absent, and a cell that is not a finite number is an InputError
    naming the line and the column, as are a repeated column or session.
    The file is decoded as UTF-8 one line at a time (corpus._read_lines)."""
    with closing(_read_lines(path)) as lines:
        reader = csv.reader(lines)
        header = next(reader, None)
        if not header or header[0] != "session_id":
            raise InputError(f"{path}: first column must be session_id")
        names = header[1:]
        if len(set(names)) < len(names):
            raise InputError(f"{path}: duplicate column "
                             f"{next(n for n in names if names.count(n) > 1)!r}")
        rows: dict = {}
        for lineno, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"{path} line {lineno}: expected "
                                 f"{len(header)} cells, got {len(row)}")
            sid = row[0]
            if sid in rows:
                raise InputError(f"{path} line {lineno}: duplicate session "
                                 f"{sid}")
            try:  # the common case in one pass; the cell rule finds the fault
                cells = {n: float(v) for n, v in zip(names, row[1:]) if v != ""}
                if not math.isfinite(sum(cells.values())):
                    raise ValueError
            except ValueError:
                try:
                    cells = {n: x for n, v in zip(names, row[1:]) if
                             (x := _parse_float(v, n, lineno)) is not None}
                except ParseError as exc:
                    raise InputError(f"{path} {exc}") from None
            rows[sid] = cells
    return names, rows
