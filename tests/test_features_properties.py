"""The batched descriptor pass against its per-frame oracles, and its
memory bound."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
import synth
from cogspeech import dsp, features
from cogspeech.dsp import Signal
from cogspeech.features import (extract_feature_sets, formant_bandwidths,
                                jitter_shimmer_hnr, track_f0)

FS = 16000
HOP = 160  # 10 ms frames

voiced_run = st.fixed_dictionaries({
    "f0": st.floats(80.0, 300.0),
    "dur_s": st.floats(0.08, 0.4),
    "jitter": st.floats(0.0, 0.03),
    "shimmer": st.floats(0.0, 0.2),
    "f1": st.floats(300.0, 900.0),
    "f2": st.floats(1000.0, 2500.0),
    "peak": st.floats(0.05, 0.5),
})
# after each voiced run, in samples: a silent gap of up to 3 frames (the
# frames straddling two runs of different pitch are unvoiced, and the
# pulse search of the first run can reach past the start of the next), a
# longer pause, or a noise burst
spacer = st.one_of(
    st.tuples(st.just("gap"), st.integers(0, 3 * HOP)),
    st.tuples(st.just("pause"), st.integers(5 * HOP, 20 * HOP)),
    st.tuples(st.just("noise"), st.integers(3 * HOP, 15 * HOP)),
)


@st.composite
def speechlike(draw):
    parts = draw(st.lists(st.tuples(voiced_run, spacer), min_size=1,
                          max_size=5))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    pieces = [np.zeros(int(rng.integers(0, 2 * HOP)))]
    for k, (run, (kind, n)) in enumerate(parts):
        x = synth.pulse_train(run["f0"], run["dur_s"], FS,
                              jitter_frac=run["jitter"],
                              shimmer_frac=run["shimmer"], seed=seed + k)
        x = synth.resonate(synth.resonate(x, FS, run["f1"], 90.0),
                           FS, run["f2"], 130.0)
        pieces.append(x * run["peak"] / max(np.max(np.abs(x)), 1e-12))
        pieces.append(rng.standard_normal(n) * 0.05 if kind == "noise"
                      else np.zeros(n))
    return Signal(np.concatenate(pieces), FS)


# block sizes that split the frames of a signal at arbitrary places
block_frames = st.sampled_from([3, 17, 64, dsp._BLOCK_FRAMES])


def assert_contour_matches(contour, values, mask):
    assert np.array_equal(contour.voiced_mask, mask), contour.name
    np.testing.assert_allclose(contour.values[mask], values[mask],
                               rtol=1e-9, atol=0, err_msg=contour.name)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x=speechlike(), block=block_frames)
def test_track_f0_matches_per_frame_oracle(x, block):
    with mock.patch.object(dsp, "_BLOCK_FRAMES", block):
        f0c = track_f0(x)
    values, voiced = oracles.f0_track(x.samples, FS)
    assert_contour_matches(f0c, values, voiced)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=speechlike(), block=block_frames)
def test_jitter_shimmer_hnr_match_per_frame_oracle(x, block):
    f0c = track_f0(x)
    with mock.patch.object(dsp, "_BLOCK_FRAMES", block):
        contours = jitter_shimmer_hnr(x, f0c)
    if not np.any(f0c.voiced_mask):
        assert all(len(c) == 0 for c in contours)
        return
    want = oracles.jitter_shimmer_hnr(x.samples, FS, f0c.values,
                                      f0c.voiced_mask)
    for c in contours:
        assert_contour_matches(c, *want[c.name])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x=speechlike(), block=block_frames)
def test_formants_match_per_frame_oracle(x, block):
    f0c = track_f0(x)
    with mock.patch.object(dsp, "_BLOCK_FRAMES", block):
        contours = formant_bandwidths(x, f0c)
    want = oracles.formants(x.samples, FS, f0c.voiced_mask)
    for c in contours:
        assert_contour_matches(c, *want[c.name])


def test_interleaved_pulse_marks_are_pooled_in_time_order():
    # 110 and 230 Hz runs 2.5 ms apart: the frames that straddle both are
    # unvoiced, and the first run's pulse search reaches into the second
    x = Signal(np.concatenate([
        synth.pulse_train(110.0, 0.3, FS, jitter_frac=0.01, seed=1) * 0.3,
        np.zeros(40),
        synth.pulse_train(230.0, 0.3, FS, jitter_frac=0.01, seed=2) * 0.3]), FS)
    f0c = track_f0(x)
    marks = np.concatenate(features._pulse_marks(x.samples, FS, f0c,
                                                 features.F0_WIN_S,
                                                 features.HOP_S))
    assert np.any(np.diff(marks) < 0)
    want = oracles.jitter_shimmer_hnr(x.samples, FS, f0c.values,
                                      f0c.voiced_mask)
    for c in jitter_shimmer_hnr(x, f0c):
        assert_contour_matches(c, *want[c.name])


def _stream(duration_s: float) -> Signal:
    """Alternating 2 s vowels and 0.5 s pauses over a -50 dBFS floor."""
    unit = np.concatenate([synth.vowel(150.0, 2.0, FS, jitter_frac=0.005),
                           np.zeros(FS // 2)])
    n = int(duration_s * FS)
    x = np.resize(unit, n) + synth.white_noise(duration_s, FS, -50.0)[:n]
    return Signal(x, FS)


def _extract_peak_mb(x: Signal) -> float:
    tracemalloc.start()
    try:
        extract_feature_sets(x, x)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_extraction_peak_memory_bounded_in_length():
    short, long = _stream(30.0), _stream(120.0)
    growth = (_extract_peak_mb(long) - _extract_peak_mb(short)) / 90.0
    assert growth < 1.0, f"peak grows {growth:.2f} MB per second of audio"
