"""The batched descriptor pass against its per-frame oracles, and its
memory bound."""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
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
    # fitted on the stream resampled to the analysis rate, at its order
    want = oracles.formants(features._resample(x.samples, FS),
                            features.ANALYSIS_FS, f0c.voiced_mask,
                            order=features.FORMANT_ORDER)
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


# ---------------------------------------------------------------------------
# One autocorrelation pass per stream

def test_acf_row_does_not_depend_on_its_block():
    """numpy's FFT transforms each row on its own: a frame's ACF row is
    the same bits alone, in a full block and in a subset block."""
    rng = np.random.default_rng(3)
    frames = rng.standard_normal((dsp._BLOCK_FRAMES, 640))
    frames -= frames.mean(axis=1, keepdims=True)
    full = features._normalized_acf(frames, 39, 268)
    subset = [0, 5, 17, 18, 90, dsp._BLOCK_FRAMES - 1]
    part = features._normalized_acf(frames[subset], 39, 268)
    for k, i in enumerate(subset):
        alone = features._normalized_acf(frames[i:i + 1], 39, 268)
        assert alone[0].tobytes() == full[i].tobytes() == part[k].tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x=speechlike(), edit=st.integers(0, 2 ** 16))
def test_hnr_search_window_follows_the_callers_contour(x, edit):
    """Voiced frames unvoiced by hand or given another F0 move the HNR
    search window, with or without an analysis of the tracker's own F0."""
    own = track_f0(x)
    rng = np.random.default_rng(edit)
    values, mask = own.values.copy(), own.voiced_mask.copy()
    voiced = np.flatnonzero(mask)
    unvoice = voiced[rng.random(voiced.size) < 0.3]
    values[unvoice], mask[unvoice] = 0.0, False
    rescale = voiced[rng.random(voiced.size) < 0.3]
    values[rescale] *= rng.choice([0.5, 0.8, 1.25, 2.0], rescale.size)
    values[~mask] = 0.0
    edited = features.LldContour("f0", values, mask)
    if not np.any(mask):
        return
    want = oracles.jitter_shimmer_hnr(x.samples, FS, values, mask)
    acf = lambda: features._acf_pass(x, hnr=True)  # noqa: E731
    for analysis in (None, acf):
        for c in jitter_shimmer_hnr(x, edited, analysis=analysis):
            assert_contour_matches(c, *want[c.name])


def _recording(name: str, calls: list):
    """Patch features.<name> to append each result to calls."""
    original = getattr(features, name)

    def wrapper(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]
    return mock.patch.object(features, name, wrapper)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(x=speechlike(), block=block_frames)
def test_shared_pass_equals_standalone_calls(x, block):
    f0s, vquals = [], []
    with mock.patch.object(dsp, "_BLOCK_FRAMES", block), \
            _recording("track_f0", f0s), \
            _recording("jitter_shimmer_hnr", vquals):
        extract_feature_sets(x, x)
    f0c = track_f0(x)
    for got in f0s:  # prosody, then concat
        assert got.values.tobytes() == f0c.values.tobytes()
        assert np.array_equal(got.voiced_mask, f0c.voiced_mask)
    for got, want in zip(vquals[0], jitter_shimmer_hnr(x, f0c)):
        assert got.values.tobytes() == want.values.tobytes(), got.name
        assert np.array_equal(got.voiced_mask, want.voiced_mask), got.name


def test_shared_contour_cannot_be_edited_in_place():
    """The shared pass's HNR peaks were picked around its own F0, so an
    in-place edit of that contour would leave them stale: it raises."""
    x = Signal(synth.pulse_train(150.0, 0.6, FS, seed=1) * 0.3, FS)
    acf = functools.cache(functools.partial(features._acf_pass, x, hnr=True))
    f0c = track_f0(x, analysis=acf)
    for column in (f0c.values, f0c.voiced_mask):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    assert track_f0(x).values.flags.writeable


def test_each_frame_above_the_floor_is_transformed_once():
    """One ACF row per above-floor frame of each stream: none for silent
    frames, and none twice for F0 and HNR."""
    rows = []
    original = features._normalized_acf

    def counted(frames, lag_lo, lag_hi):
        rows.append(len(frames))
        return original(frames, lag_lo, lag_hi)

    def speech(f0, seed):
        return np.concatenate([synth.pulse_train(f0, 0.6, FS, seed=seed) * 0.3,
                               np.zeros(FS // 2)])

    prosody = Signal(np.concatenate([speech(120.0, 1), speech(180.0, 2)]), FS)
    concat = Signal(speech(150.0, 3), FS)
    with mock.patch.object(features, "_normalized_acf", counted):
        extract_feature_sets(prosody, concat)
    levels = [dsp._frame_levels(s, features.F0_WIN_S, features.HOP_S)[1]
              for s in (prosody, concat)]
    above = sum(int(np.sum(db > features.ENERGY_FLOOR_DBFS)) for db in levels)
    assert above < sum(len(db) for db in levels)
    assert sum(rows) == above
