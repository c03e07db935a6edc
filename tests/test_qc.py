"""Quality-control metrics and the strict-inequality gate."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from synth import make_sine
from cogspeech import qc
from cogspeech.dsp import Signal
from cogspeech.errors import ValidationError
from cogspeech.qc import (
    QcMetrics, QcThresholds, clipping_ratio, estimate_snr_quantile,
    gate_from_metrics, measure_metrics, qc_gate, rms_dbfs,
    speech_activity_ratio,
)

FS = 16000


def bursty(floor_dbfs, burst_dbfs, duty=0.4, dur_s=20.0, fs=FS, seed=7,
           period_s=2.0):
    """Noise floor with periodic noise bursts at a planted level."""
    rng = np.random.default_rng(seed)
    n = int(dur_s * fs)
    x = rng.standard_normal(n) * 10 ** (floor_dbfs / 20)
    burst_len = int(duty * period_s * fs)
    for start_s in np.arange(0.0, dur_s - period_s * duty, period_s):
        i = int(start_s * fs)
        x[i:i + burst_len] += (rng.standard_normal(burst_len)
                               * 10 ** (burst_dbfs / 20))
    return Signal(x, fs)


# ---------------------------------------------------------------------------
# Metric primitives

def test_rms_dbfs_analytic_cases():
    assert rms_dbfs(make_sine(440.0, 1.0, FS, peak=1.0)) == pytest.approx(
        -3.01, abs=0.01)
    square = Signal(0.5 * np.sign(np.sin(2 * np.pi * 100 * np.arange(FS) / FS)
                                  + 1e-12), FS)
    assert rms_dbfs(square) == pytest.approx(-6.02, abs=0.01)
    assert rms_dbfs(Signal(np.zeros(100), FS)) == -120.0
    with pytest.raises(ValidationError):
        rms_dbfs(Signal(np.zeros(0), FS))


def test_rms_gain_shift_monotonicity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(FS) * 0.01
    base = rms_dbfs(Signal(x, FS))
    for gain_db in (-12.0, -3.0, 7.5):
        shifted = rms_dbfs(Signal(x * 10 ** (gain_db / 20), FS))
        assert shifted - base == pytest.approx(gain_db, abs=0.01)


def test_clipping_ratio_counts():
    x = np.zeros(1000)
    x[:15] = 1.0
    x[15:30] = 0.5
    assert clipping_ratio(Signal(x, FS)) == pytest.approx(0.015)
    assert clipping_ratio(make_sine(440.0, 1.0, FS, peak=0.9)) == 0.0


def test_clipping_ratio_full_scale_sine_matches_brute_force():
    x = make_sine(441.0, 1.0, FS, peak=1.0)  # fs not a multiple of f
    ratio = clipping_ratio(x)
    brute = np.count_nonzero(np.abs(x.samples) >= 0.999) / len(x)
    assert ratio == pytest.approx(brute)
    assert ratio > 0.0


def test_clipping_ratio_invariant_below_level():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(FS) * 0.05
    assert clipping_ratio(Signal(x, FS)) == clipping_ratio(Signal(2 * x, FS)) == 0.0


def test_snr_quantile_constructions():
    assert estimate_snr_quantile(bursty(-50.0, -20.0)) == pytest.approx(30.0, abs=2.0)
    assert estimate_snr_quantile(bursty(-35.0, -20.0)) == pytest.approx(15.0, abs=2.0)
    rng = np.random.default_rng(3)
    stationary = Signal(rng.standard_normal(10 * FS) * 0.01, FS)
    assert 0.0 <= estimate_snr_quantile(stationary) <= 3.0


def test_snr_rejects_short_signal():
    with pytest.raises(ValidationError):
        estimate_snr_quantile(Signal(np.zeros(FS // 2), FS))


def test_activity_ratio_planted_duty_cycle():
    assert speech_activity_ratio(bursty(-50.0, -20.0, duty=0.4)) == pytest.approx(
        0.40, abs=0.05)


def test_activity_ratio_degenerate_signals():
    assert speech_activity_ratio(Signal(np.zeros(2 * FS), FS)) == 0.0
    tone = make_sine(220.0, 2.0, FS, peak=0.3)
    assert speech_activity_ratio(tone) >= 0.95


# ---------------------------------------------------------------------------
# Gate decision layer

def _metrics(duration_s=20.0, rms=-30.0, clip=0.0, snr=30.0, activity=0.4):
    return QcMetrics(duration_s=duration_s, rms_dbfs=rms, clip_ratio=clip,
                     snr_db=snr, activity_ratio=activity)


def test_gate_passes_clean_metrics():
    report = gate_from_metrics(_metrics())
    assert report.overall == "pass"
    assert all(report.flags.values())
    assert report.review_reasons == ()


def test_gate_strict_boundaries():
    # exactly at each threshold -> that gate fails
    # snr=20 on the rms case keeps review rule 2 (snr > 25, rms <= -55)
    # out of the way so only the gate under test is exercised
    at = {
        "duration": _metrics(duration_s=15.0),
        "rms": _metrics(rms=-55.0, snr=20.0),
        "clipping": _metrics(clip=0.015),
        "snr": _metrics(snr=10.0, activity=0.4),
    }
    for flag, m in at.items():
        report = gate_from_metrics(m)
        assert report.overall == "fail", flag
        assert report.flags[flag] is False, flag
        assert sum(not v for v in report.flags.values()) == 1, flag
    # just past each threshold -> pass again
    eps_pass = [
        _metrics(duration_s=15.0 + 1e-9),
        _metrics(rms=-55.0 + 1e-9, snr=20.0),
        _metrics(clip=0.015 - 1e-12),
        _metrics(snr=10.0 + 1e-9),
    ]
    for m in eps_pass:
        assert gate_from_metrics(m).overall == "pass"


def test_gate_is_pure_in_metrics():
    m = _metrics(duration_s=14.9)
    a = gate_from_metrics(m)
    b = gate_from_metrics(QcMetrics(**vars(m)))
    assert a.to_dict() == b.to_dict()
    assert a.overall == "fail"


def test_review_rule_activity_vs_snr():
    report = gate_from_metrics(_metrics(snr=8.0, activity=0.8))
    assert report.overall == "review"
    assert report.review_reasons == ("high speech activity ratio with low SNR",)


def test_review_rule_snr_vs_energy():
    report = gate_from_metrics(_metrics(rms=-60.0, snr=30.0))
    assert report.overall == "review"
    assert report.review_reasons == ("high SNR with very low energy",)


def test_review_takes_precedence_over_fail():
    # snr gate fails AND a review rule fires -> review, not fail
    report = gate_from_metrics(_metrics(snr=8.0, activity=0.8, duration_s=14.0))
    assert report.overall == "review"


def test_custom_review_rules():
    rules = (("always", lambda m, t: True),)
    report = gate_from_metrics(_metrics(), review_rules=rules)
    assert report.overall == "review" and report.review_reasons == ("always",)
    report2 = gate_from_metrics(_metrics(snr=8.0, activity=0.8), review_rules=())
    assert report2.overall == "fail"


# ---------------------------------------------------------------------------
# End-to-end gate on audio

def test_qc_gate_clean_signal_passes():
    report = qc_gate(bursty(-50.0, -20.0, dur_s=20.0))
    assert report.overall == "pass"
    assert report.metrics.snr_db == pytest.approx(30.0, abs=2.0)


def test_qc_gate_duration_failure():
    report = qc_gate(bursty(-50.0, -20.0, dur_s=14.9))
    assert report.overall == "fail"
    assert report.flags["duration"] is False


def test_qc_gate_review_on_audio():
    # lots of activity but compressed level contrast -> snr ~ 8, activity ~ 0.8
    report = qc_gate(bursty(-36.0, -28.0, duty=0.8, dur_s=20.0))
    assert report.metrics.snr_db <= 10.0
    assert report.metrics.activity_ratio > 0.5
    assert report.overall == "review"


def test_measure_metrics_short_signal_nan_snr():
    m = measure_metrics(Signal(np.full(FS // 2, 0.1), FS))
    assert np.isnan(m.snr_db) and np.isnan(m.activity_ratio)
    assert gate_from_metrics(m).overall == "fail"


def test_measure_metrics_active_scope_raises_level():
    sig = bursty(-50.0, -20.0, duty=0.4)
    full = measure_metrics(sig, rms_scope="full")
    active = measure_metrics(sig, rms_scope="active")
    assert active.rms_dbfs > full.rms_dbfs
    with pytest.raises(ValidationError):
        measure_metrics(sig, rms_scope="bogus")


def test_thresholds_validation():
    with pytest.raises(ValidationError):
        QcThresholds(max_clip_ratio=1.5)
    with pytest.raises(ValidationError):
        QcThresholds(min_snr_db=float("nan"))


# ---------------------------------------------------------------------------
# One framing per recording, in bounded memory


def test_measure_metrics_frames_the_recording_once():
    x = bursty(-50.0, -20.0)
    with mock.patch.object(qc, "_frame_levels",
                           wraps=qc._frame_levels) as meter:
        m = measure_metrics(x, rms_scope="active")
    assert meter.call_count == 1
    assert m.snr_db == estimate_snr_quantile(x)
    assert m.activity_ratio == speech_activity_ratio(x)


def _metrics_peak_mb(x: Signal) -> float:
    tracemalloc.start()
    try:
        measure_metrics(x, rms_scope="active")
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_measure_metrics_peak_memory_bounded_in_length():
    short = bursty(-50.0, -20.0, dur_s=30.0)
    long = bursty(-50.0, -20.0, dur_s=120.0)
    _metrics_peak_mb(short)  # one-off allocations of the first call
    growth = (_metrics_peak_mb(long) - _metrics_peak_mb(short)) / 90.0
    assert growth < 0.05, f"peak grows {growth:.3f} MB per second of audio"
