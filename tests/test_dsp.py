"""Filters, spectral gate, and loudness measurement."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from synth import make_sine
from cogspeech import dsp
from cogspeech.dsp import (
    GateConfig, PreprocessConfig, Signal, apply_filter, design_highpass,
    estimate_noise_profile, magnitude_response_db,
    measure_loudness, normalize_loudness, preprocess_chain, spectral_gate,
)
from cogspeech.errors import ConfigError, ValidationError

FS = 16000


def db(ratio):
    return 20.0 * np.log10(ratio)


# ---------------------------------------------------------------------------
# Signal type

def test_signal_validation():
    Signal(np.zeros(10), 16000)
    with pytest.raises(ValidationError):
        Signal(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValidationError):
        Signal(np.zeros((2, 5)), 16000)
    with pytest.raises(ValidationError):
        Signal(np.zeros(10), 4000)
    with pytest.raises(ValidationError):
        Signal(np.zeros(10), 200000)
    sig = Signal(np.zeros(16000), 16000)
    assert sig.duration_s == pytest.approx(1.0)
    assert len(sig) == 16000


# ---------------------------------------------------------------------------
# High-pass design

def test_highpass_reference_magnitudes():
    spec = design_highpass(6, 100.0, FS)
    resp = magnitude_response_db(spec, np.array([100.0, 50.0, 4000.0]))
    assert resp[0] == pytest.approx(-3.01, abs=0.05)
    assert resp[1] == pytest.approx(-36.06, abs=0.5)
    assert resp[2] == pytest.approx(0.0, abs=0.05)


def test_highpass_section_count_and_stability():
    for fs in (8000, 16000, 44100, 48000):
        spec = design_highpass(6, 100.0, fs)
        assert len(spec.sections) == 3  # ceil(6/2)
        assert spec.is_stable()
    odd = design_highpass(5, 100.0, FS)
    assert len(odd.sections) == 3  # ceil(5/2)


def test_highpass_rejects_nyquist_cutoff():
    for cutoff in (8000.0, 9000.0, 0.0, -50.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            design_highpass(6, cutoff, FS)


def test_apply_filter_kills_dc():
    spec = design_highpass(6, 100.0, FS)
    x = Signal(np.full(FS, 0.5), FS)
    y = apply_filter(spec, x)
    assert len(y) == len(x)
    tail = y.samples[-len(y) // 10:]
    assert abs(np.mean(tail)) < 1e-3


def test_apply_filter_linearity():
    rng = np.random.default_rng(0)
    spec = design_highpass(6, 100.0, FS)
    x = rng.standard_normal(FS) * 0.1
    y1 = apply_filter(spec, Signal(3.0 * x, FS)).samples
    y2 = 3.0 * apply_filter(spec, Signal(x, FS)).samples
    assert np.max(np.abs(y1 - y2)) <= 1e-9 * np.max(np.abs(y2))


def test_apply_filter_sine_matches_analytic_response():
    spec = design_highpass(6, 100.0, FS)
    x = make_sine(200.0, 2.0, FS, peak=0.5)
    y = apply_filter(spec, x)
    # steady-state portion only; transient decays within ~0.2 s
    core = slice(int(0.5 * FS), None)
    gain = db(np.sqrt(np.mean(y.samples[core] ** 2))
              / np.sqrt(np.mean(x.samples[core] ** 2)))
    expected = magnitude_response_db(spec, np.array([200.0]))[0]
    assert gain == pytest.approx(expected, abs=0.2)


def test_apply_filter_rate_mismatch():
    spec = design_highpass(6, 100.0, FS)
    with pytest.raises(ValidationError):
        apply_filter(spec, Signal(np.zeros(100), 8000))


# ---------------------------------------------------------------------------
# Spectral gate

def test_gate_config_validation():
    with pytest.raises(ConfigError):
        GateConfig(frame_len=400, hop=0)
    with pytest.raises(ConfigError):
        GateConfig(frame_len=400, hop=401)
    with pytest.raises(ConfigError):
        GateConfig(frame_len=400, hop=160, alpha=1.5)
    for margin in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError):  # NaN would gate nothing
            GateConfig(frame_len=400, hop=160, threshold_margin_db=margin)
    cfg = GateConfig.at_rate(FS)
    assert cfg.frame_len == 400 and cfg.hop == 160


def test_noise_profile_flat_on_white_noise():
    rng = np.random.default_rng(5)
    noise = Signal(rng.standard_normal(5 * FS) * 0.01, FS)
    profile = estimate_noise_profile(noise, GateConfig.at_rate(FS))
    inner = profile[2:-2]  # DC/Nyquist bins carry half weight
    assert db(inner.max() / inner.min()) <= 6.0


def test_noise_profile_excludes_short_lived_tone():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(10 * FS) * 10 ** (-50 / 20)
    tone = make_sine(1000.0, 0.5, FS, peak=0.1)
    x[int(4.75 * FS):int(5.25 * FS)] += tone.samples  # ~5% of frames
    cfg = GateConfig.at_rate(FS)  # quantile 0.10 sees past the tone
    profile = estimate_noise_profile(Signal(x, FS), cfg)
    bin_1k = int(round(1000 * cfg.frame_len / FS))
    neighborhood = np.median(profile[max(0, bin_1k - 8):bin_1k + 8])
    assert db(profile[bin_1k] / neighborhood) < 6.0


def test_noise_profile_zero_signal():
    profile = estimate_noise_profile(Signal(np.zeros(FS), FS), GateConfig.at_rate(FS))
    assert np.all(profile == 0.0)


def test_noise_profile_rejects_short_signal():
    with pytest.raises(ValidationError):
        estimate_noise_profile(Signal(np.zeros(100), FS), GateConfig.at_rate(FS))


def test_gate_alpha_zero_is_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2 * FS) * 0.1
    out = spectral_gate(Signal(x, FS), GateConfig.at_rate(FS, alpha=0.0))
    rel = np.sqrt(np.mean((out.samples - x) ** 2) / np.mean(x ** 2))
    assert rel < 1e-6


def test_gate_alpha_one_suppresses_stationary_noise():
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(10 * FS) * 10 ** (-50 / 20)
    cfg = GateConfig.at_rate(FS, noise_quantile=0.5, threshold_margin_db=10.0,
                             alpha=1.0)
    out = spectral_gate(Signal(noise, FS), cfg)
    reduction = 10 * np.log10(np.sum(out.samples ** 2) / np.sum(noise ** 2))
    assert reduction <= -10.0


def test_gate_preserves_tone_and_attenuates_noise_region():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(10 * FS) * 10 ** (-50 / 20)
    tone = make_sine(1000.0, 0.5, FS, peak=0.1)
    x[int(4.75 * FS):int(5.25 * FS)] += tone.samples
    cfg = GateConfig.at_rate(FS, noise_quantile=0.5, threshold_margin_db=10.0,
                             alpha=0.3)
    out = spectral_gate(Signal(x, FS), cfg)

    tone_w = slice(int(4.8 * FS), int(5.2 * FS))
    tone_change = db(np.sqrt(np.mean(out.samples[tone_w] ** 2))
                     / np.sqrt(np.mean(x[tone_w] ** 2)))
    assert abs(tone_change) < 0.5

    noise_w = slice(6 * FS, int(9.5 * FS))
    noise_change = db(np.sqrt(np.mean(out.samples[noise_w] ** 2))
                      / np.sqrt(np.mean(x[noise_w] ** 2)))
    assert noise_change == pytest.approx(db(0.7), abs=1.0)


def test_gate_rejects_gapped_hop():
    # hop == frame_len leaves w^2 gaps at Hann zero endpoints
    with pytest.raises(ConfigError):
        spectral_gate(Signal(np.ones(FS) * 0.1, FS),
                      GateConfig(frame_len=400, hop=400))


def test_gate_deterministic():
    rng = np.random.default_rng(9)
    x = Signal(rng.standard_normal(FS) * 0.05, FS)
    a = spectral_gate(x, GateConfig.at_rate(FS)).samples
    b = spectral_gate(x, GateConfig.at_rate(FS)).samples
    assert np.array_equal(a, b)


# The gate runs in blocks of dsp._BLOCK_FRAMES frames and must equal the
# whole-array reference bit for bit, at every block edge.

RATES = [8000, 11025, 16000, 44100]
GATE_BLOCKS = [3, 17, 128]


@st.composite
def gate_cases(draw):
    """(samples, rate, config, frames per block). The length lands on one
    frame, on a last block of one frame, on an exactly full last block
    (counting the gate's frames or the noise profile's), or anywhere."""
    fs = draw(st.sampled_from(RATES))
    block = draw(st.sampled_from(GATE_BLOCKS))
    shape = draw(st.sampled_from(["default", "hop_is_frame", "uneven"]))
    if shape == "default":
        cfg = GateConfig.at_rate(fs, alpha=draw(st.sampled_from([0.0, 0.3, 1.0])))
    else:
        flen = draw(st.integers(16, 600))
        hop = flen if shape == "hop_is_frame" else draw(
            st.integers(max(1, flen // 6), flen - 1).filter(lambda h: flen % h))
        cfg = GateConfig(frame_len=flen, hop=hop)
    flen, hop = cfg.frame_len, cfg.hop
    frames = draw(st.integers(0, 3)) * block + draw(st.sampled_from(
        [1, block, draw(st.integers(1, block))]))
    nudge = draw(st.integers(0, hop - 1))
    n = draw(st.sampled_from([
        flen,
        frames * hop - flen - nudge,          # frames gate frames
        flen + (frames - 1) * hop + nudge,    # frames noise-profile frames
    ]))
    n = max(n, flen)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal(n) * 0.1
    x[int(rng.integers(0, n)):][:int(rng.integers(0, n + 1))] *= 1e-3
    return x, fs, cfg, block


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=gate_cases())
def test_blocked_gate_matches_whole_array_reference(case):
    x, fs, cfg, block = case
    with mock.patch.object(dsp, "_BLOCK_FRAMES", block):
        profile = estimate_noise_profile(Signal(x, fs), cfg)
        try:
            got = spectral_gate(Signal(x, fs), cfg).samples
        except ConfigError:
            got = None
    assert np.array_equal(profile, oracles.noise_profile(x, cfg))
    try:
        want = oracles.spectral_gate(x, cfg)
    except ValueError:
        want = None
    if want is None or got is None:
        assert got is None and want is None
    else:
        assert np.array_equal(got, want)
    if cfg.hop == cfg.frame_len:
        assert got is None  # Hann zeros at every frame edge


def _peak_alloc_mb(fn, x) -> float:
    tracemalloc.start()
    try:
        fn(x)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _peak_growth_mb_per_s(fn) -> float:
    rng = np.random.default_rng(4)
    short = Signal(rng.standard_normal(30 * FS) * 0.1, FS)
    long = Signal(rng.standard_normal(120 * FS) * 0.1, FS)
    _peak_alloc_mb(fn, short)  # one-off allocations of the first call
    return (_peak_alloc_mb(fn, long) - _peak_alloc_mb(fn, short)) / 90.0


def test_spectral_gate_peak_memory_bounded_in_length():
    # the output and the noise profile's magnitudes (0.16 MB/s at 16 kHz,
    # never live at once) are the only arrays that grow with the signal
    growth = _peak_growth_mb_per_s(spectral_gate)
    assert growth <= 0.25, f"peak grows {growth:.3f} MB per second of audio"


# ---------------------------------------------------------------------------
# Loudness

def test_loudness_reference_tone():
    x = make_sine(997.0, 10.0, 48000, peak=10 ** (-20 / 20))
    result = measure_loudness(x)
    assert result.integrated_lufs == pytest.approx(-23.0, abs=0.1)
    assert result.gated_block_count > 0
    x16 = make_sine(997.0, 10.0, FS, peak=10 ** (-20 / 20))
    assert measure_loudness(x16).integrated_lufs == pytest.approx(-23.0, abs=0.1)


def test_loudness_gain_linearity():
    x = make_sine(997.0, 10.0, FS, peak=10 ** (-20 / 20))
    base = measure_loudness(x).integrated_lufs
    scaled = Signal(x.samples * 10 ** (6.02 / 20), FS)
    assert measure_loudness(scaled).integrated_lufs - base == pytest.approx(
        6.02, abs=0.05)


def test_loudness_silence_sentinel():
    result = measure_loudness(Signal(np.zeros(2 * FS), FS))
    assert result.integrated_lufs == float("-inf")
    assert result.below_gate
    # shorter than one 400 ms block: nothing to measure
    assert measure_loudness(Signal(np.ones(100) * 0.1, FS)).below_gate


def test_normalize_to_target():
    x = make_sine(997.0, 10.0, FS, peak=10 ** (-30 / 20))  # about -33 LUFS
    res = normalize_loudness(x)
    assert res.gain_db == pytest.approx(10.0, abs=0.2)
    assert res.output_lufs == pytest.approx(-23.0, abs=0.2)
    assert res.clipped_samples == 0

    again = normalize_loudness(res.signal)
    assert again.gain_db == pytest.approx(0.0, abs=0.2)


def test_normalize_reports_clipping_without_applying_it():
    x = make_sine(100.0, 2.0, FS, peak=0.9)
    loud = measure_loudness(x).integrated_lufs
    res = normalize_loudness(x, target_lufs=loud + 6.0)
    assert res.clipped_samples > 0
    assert np.max(np.abs(res.signal.samples)) > 1.0  # reported, not clamped


def test_normalize_attenuation_no_clipping():
    x = make_sine(997.0, 10.0, FS, peak=10 ** (-2 / 20))  # about -5 LUFS
    res = normalize_loudness(x)
    assert res.gain_db == pytest.approx(-18.0, abs=0.3)
    assert res.clipped_samples == 0


def test_normalize_below_gate_rejected():
    with pytest.raises(ValidationError):
        normalize_loudness(Signal(np.zeros(FS), FS))


def test_normalize_rejects_non_finite_target():
    x = make_sine(997.0, 1.0, FS, peak=0.1)
    for target in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError):
            normalize_loudness(x, target_lufs=target)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fs=st.sampled_from(RATES),
       block=st.sampled_from([128, 1000, dsp._BLOCK_SAMPLES]),
       chunks=st.integers(0, 3), tail=st.sampled_from(["none", "one", "any"]),
       data=st.data())
def test_blocked_loudness_matches_whole_array_reference(fs, block, chunks,
                                                        tail, data):
    extra = {"none": 0, "one": 1,
             "any": data.draw(st.integers(0, block - 1))}[tail]
    n = chunks * block + extra
    if n < 0.4 * fs:  # shorter than one gating block, or exactly one
        n = data.draw(st.sampled_from([n, int(round(0.4 * fs))]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal(n) * 10.0 ** data.draw(st.floats(-4.5, 0.0))
    x[int(rng.integers(0, n + 1)):][:int(rng.integers(0, n + 1))] = 0.0
    with mock.patch.object(dsp, "_BLOCK_SAMPLES", block):
        got = measure_loudness(Signal(x, fs))
        want = oracles.integrated_loudness(x, fs, dsp._k_weighting_sos(fs))
        assert (got.integrated_lufs, got.gated_block_count) == want
        if not got.below_gate:
            res = normalize_loudness(Signal(x, fs), target_lufs=-3.0)
            assert res.clipped_samples == np.count_nonzero(
                np.abs(res.signal.samples) > 1.0)


def test_measure_loudness_peak_memory_bounded_in_length():
    growth = _peak_growth_mb_per_s(measure_loudness)
    assert growth <= 0.05, f"peak grows {growth:.3f} MB per second of audio"


# ---------------------------------------------------------------------------
# Preprocess chain

def test_preprocess_chain_stage_order_and_determinism():
    rng = np.random.default_rng(2)
    x = Signal(rng.standard_normal(3 * FS) * 0.05 + 0.2, FS)
    out1, audit1 = preprocess_chain(x, PreprocessConfig())
    out2, audit2 = preprocess_chain(x, PreprocessConfig())
    assert [entry["stage"] for entry in audit1] == [
        "highpass", "spectral_gate", "loudness_normalize"]
    assert np.array_equal(out1.samples, out2.samples)
    assert out1.sample_rate == FS
    assert len(out1) == len(x)
    gain_entry = audit1[-1]
    assert "gain_db" in gain_entry and "clipped_samples" in gain_entry
    for entry in audit1:
        assert "output_rms_dbfs" in entry


def test_preprocess_chain_hits_loudness_target():
    x = make_sine(997.0, 5.0, FS, peak=0.05)
    out, audit = preprocess_chain(x, PreprocessConfig(loudness_target_lufs=-30.0))
    assert measure_loudness(out).integrated_lufs == pytest.approx(-30.0, abs=0.2)


# ---------------------------------------------------------------------------
# Level meters


@st.composite
def with_silences(draw, max_len):
    """Gaussian noise at a random level with stretches of exact zeros."""
    n = draw(st.integers(0, max_len))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    x = rng.standard_normal(n) * 10.0 ** draw(st.floats(-7.0, 0.0))
    for _ in range(draw(st.integers(0, 4))):
        start = int(rng.integers(0, n + 1))
        x[start:start + int(rng.integers(0, 3 * 4096))] = 0.0
    return x


# up to four and a half blocks of 128 frames of 25 ms at a 10 ms hop
@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=with_silences(max_len=int(4.5 * 128 * 160)),
       block=st.sampled_from([3, 17, 64, 128]))
def test_frame_levels_match_per_frame_oracle(x, block):
    with mock.patch.object(dsp, "_BLOCK_FRAMES", block):
        frames, level = dsp._frame_levels(Signal(x, FS), 0.025, 0.010)
    want = oracles._frames(x, 400, 160)
    assert frames.shape == (len(want), 400)
    assert np.array_equal(frames, np.reshape(want, (-1, 400)))
    # bitwise the levels of one unblocked pass over all frames
    with np.errstate(divide="ignore"):
        unblocked = 10.0 * np.log10(np.mean(np.square(frames), axis=1))
    assert np.array_equal(level, np.maximum(unblocked, -120.0))
    # the oracle takes math.log10, which differs from np.log10 in the last
    # bit for about 0.6% of arguments
    np.testing.assert_array_max_ulp(
        level, np.array([oracles._frame_db(f) for f in want]), maxulp=2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=with_silences(max_len=20000),
       block=st.sampled_from([128, 1000, 4096, dsp._BLOCK_SAMPLES]))
def test_rms_db_matches_whole_array_mean_square(x, block):
    # the blocked sum must form numpy's own pairwise partial sums, so the
    # level is bitwise that of one np.mean over the whole array
    with mock.patch.object(dsp, "_BLOCK_SAMPLES", block):
        got = dsp._rms_db(x)
    assert got == (oracles._frame_db(x) if len(x) else dsp.RMS_FLOOR_DBFS)


def test_rms_db_long_signal_matches_whole_array_mean_square():
    x = np.random.default_rng(5).standard_normal(5 * dsp._BLOCK_SAMPLES + 13)
    assert dsp._rms_db(x) == oracles._frame_db(x)
