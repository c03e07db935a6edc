"""Recording-level quality control.

Four gates, all strict inequalities (a value exactly at its threshold
fails): duration > 15 s, RMS > -55 dBFS, clipping ratio < 1.5%, and
reference-free SNR > 10 dB. Metric combinations that look mutually
inconsistent (e.g. lots of speech activity but poor SNR) are routed to
manual review instead of a hard pass/fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import (RMS_FLOOR_DBFS, _BLOCK_SAMPLES, Signal, _frame_levels,
                  _rms_db)
from .errors import ValidationError

# Absolute frame-energy floor used when the signal has no level contrast
# to threshold against (continuous tone, pure silence).
ACTIVITY_FLOOR_DBFS = -60.0
_HOMOGENEOUS_SPREAD_DB = 3.0
# Framing and level quantiles of the SNR and speech-activity estimates.
_FRAME_S, _HOP_S = 0.025, 0.010
_SPEECH_Q, _NOISE_Q = 0.95, 0.15
_ACTIVITY_MARGIN_DB = 6.0


def rms_dbfs(x: Signal) -> float:
    """Full-scale-referenced RMS in dB; silence capped at -120."""
    if len(x) == 0:
        raise ValidationError("empty signal")
    return _rms_db(x.samples)


def clipping_ratio(x: Signal, clip_level: float = 0.999) -> float:
    """Fraction of samples at or beyond clip_level of full scale."""
    if len(x) == 0:
        raise ValidationError("empty signal")
    n = _BLOCK_SAMPLES
    clipped = sum(np.count_nonzero(np.abs(x.samples[lo:lo + n]) >= clip_level)
                  for lo in range(0, len(x), n))
    return float(clipped) / len(x)


def _active_frames(db: np.ndarray, noise_q: float, margin_db: float
                   ) -> np.ndarray:
    """The threshold rule of speech_activity_ratio, which also picks the
    frames of the active-scope RMS in measure_metrics."""
    lo = float(np.quantile(db, noise_q))
    hi = float(np.quantile(db, _SPEECH_Q))
    if hi - lo < _HOMOGENEOUS_SPREAD_DB:
        return db > ACTIVITY_FLOOR_DBFS
    return db > lo + margin_db


def _snr(db: np.ndarray, speech_q: float, noise_q: float) -> float:
    return float(np.quantile(db, speech_q) - np.quantile(db, noise_q))


def estimate_snr_quantile(x: Signal, frame_s: float = _FRAME_S,
                          hop_s: float = _HOP_S, speech_q: float = _SPEECH_Q,
                          noise_q: float = _NOISE_Q) -> float:
    """Reference-free SNR: spread between the speech_q and noise_q
    quantiles of framewise RMS in dB."""
    if x.duration_s < 1.0:
        raise ValidationError(f"need at least 1 s for SNR estimation, got "
                              f"{x.duration_s:.3f} s")
    _, db = _frame_levels(x, frame_s, hop_s)
    return _snr(db, speech_q, noise_q)


def speech_activity_ratio(x: Signal, frame_s: float = _FRAME_S,
                          hop_s: float = _HOP_S, noise_q: float = _NOISE_Q,
                          margin_db: float = _ACTIVITY_MARGIN_DB) -> float:
    """Fraction of frames whose RMS clears the noise quantile by margin_db.

    Level-homogeneous signals (quantile spread under 3 dB) have no noise
    floor to anchor the threshold, so they fall back to an absolute
    -60 dBFS floor: a continuous tone counts as fully active, silence as
    fully inactive.
    """
    if x.duration_s < 1.0:
        raise ValidationError(f"need at least 1 s for activity estimation, got "
                              f"{x.duration_s:.3f} s")
    _, db = _frame_levels(x, frame_s, hop_s)
    return float(np.mean(_active_frames(db, noise_q, margin_db)))


@dataclass(frozen=True)
class QcThresholds:
    min_duration_s: float = 15.0
    min_rms_dbfs: float = -55.0
    max_clip_ratio: float = 0.015
    min_snr_db: float = 10.0
    clip_level: float = 0.999

    def __post_init__(self):
        for name in ("min_duration_s", "min_rms_dbfs", "max_clip_ratio",
                     "min_snr_db", "clip_level"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not (0.0 <= self.max_clip_ratio <= 1.0):
            raise ValidationError("max_clip_ratio must be in [0, 1]")


@dataclass(frozen=True)
class QcMetrics:
    duration_s: float
    rms_dbfs: float
    clip_ratio: float
    snr_db: float
    activity_ratio: float


@dataclass(frozen=True)
class QcReport:
    metrics: QcMetrics
    flags: dict  # metric name -> bool
    overall: str  # "pass" | "fail" | "review"
    review_reasons: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "duration_s": self.metrics.duration_s,
            "rms_dbfs": self.metrics.rms_dbfs,
            "clip_ratio": self.metrics.clip_ratio,
            "snr_db": self.metrics.snr_db,
            "activity_ratio": self.metrics.activity_ratio,
            "flags": dict(self.flags),
            "overall": self.overall,
            "review_reasons": list(self.review_reasons),
        }


def _default_review_rules():
    return (
        ("high speech activity ratio with low SNR",
         lambda m, t: m.activity_ratio > 0.5 and m.snr_db <= t.min_snr_db),
        ("high SNR with very low energy",
         lambda m, t: m.snr_db > 25.0 and m.rms_dbfs <= t.min_rms_dbfs),
    )


def gate_from_metrics(m: QcMetrics, t: QcThresholds | None = None,
                      review_rules=None) -> QcReport:
    """Decision layer: a pure function of the measured metrics.

    Review takes precedence over fail; a report is always produced.
    """
    if t is None:
        t = QcThresholds()
    if review_rules is None:
        review_rules = _default_review_rules()
    flags = {
        "duration": m.duration_s > t.min_duration_s,
        "rms": m.rms_dbfs > t.min_rms_dbfs,
        "clipping": m.clip_ratio < t.max_clip_ratio,
        "snr": m.snr_db > t.min_snr_db,
    }
    reasons = tuple(reason for reason, pred in review_rules if pred(m, t))
    if reasons:
        overall = "review"
    elif all(flags.values()):
        overall = "pass"
    else:
        overall = "fail"
    return QcReport(metrics=m, flags=flags, overall=overall,
                    review_reasons=reasons)


def measure_metrics(x: Signal, t: QcThresholds | None = None,
                    rms_scope: str = "full") -> QcMetrics:
    """Compute the gate inputs. Signals under 1 s cannot support the
    frame-quantile estimates; those metrics come back NaN and fail any
    strict comparison downstream."""
    if t is None:
        t = QcThresholds()
    if rms_scope not in ("full", "active"):
        raise ValidationError(f"rms_scope must be 'full' or 'active', got "
                              f"{rms_scope!r}")
    duration = x.duration_s
    level = _rms_db(x.samples)
    clip = clipping_ratio(x, t.clip_level) if len(x) else 0.0
    if duration >= 1.0:
        # one framing for the defaults of estimate_snr_quantile and
        # speech_activity_ratio
        _, db = _frame_levels(x, _FRAME_S, _HOP_S)
        snr = _snr(db, _SPEECH_Q, _NOISE_Q)
        active = _active_frames(db, _NOISE_Q, _ACTIVITY_MARGIN_DB)
        activity = float(np.mean(active))
        if rms_scope == "active":
            level = RMS_FLOOR_DBFS
            if np.any(active):  # mean power over the active frames, in dB
                level = float(10.0 * np.log10(np.mean(10.0 ** (db[active] / 10.0))))
    else:
        snr = float("nan")
        activity = float("nan")
    return QcMetrics(duration_s=duration, rms_dbfs=level, clip_ratio=clip,
                     snr_db=snr, activity_ratio=activity)


def qc_gate(x: Signal, t: QcThresholds | None = None,
            rms_scope: str = "full") -> QcReport:
    """Measure then gate. Never raises on content; bad signals fail."""
    return gate_from_metrics(measure_metrics(x, t, rms_scope), t)
