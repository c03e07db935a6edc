"""Prosody-preserved masking, cross-faded concatenation, transition audit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from synth import make_sine
from cogspeech.corpus import Segment, Timeline
from cogspeech.dsp import Signal
from cogspeech.errors import ValidationError
from cogspeech.streams import (
    audit_transitions, build_concatenated, build_prosody_preserved,
)

FS = 16000


def tl(*segs):
    return Timeline.from_segments([Segment(s, on, dur) for s, on, dur in segs])


def noise(n, seed=0, scale=0.3):
    return np.random.default_rng(seed).standard_normal(n) * scale


# ---------------------------------------------------------------------------
# Prosody-preserved stream

def test_prosody_only_participant_is_passthrough():
    x = Signal(noise(2 * FS), FS)
    out = build_prosody_preserved(x, tl(("PAR", 0.0, 2.0)), "PAR")
    assert np.array_equal(out.samples, x.samples)
    assert len(out) == len(x)


def test_prosody_masks_examiner_exactly():
    x = Signal(noise(4 * FS, seed=1), FS)
    out = build_prosody_preserved(
        x, tl(("PAR", 0.0, 2.0), ("INV", 2.0, 1.0), ("PAR", 3.0, 1.0)), "PAR")
    a, b = 2 * FS, 3 * FS
    assert np.all(out.samples[a:b] == 0.0)
    assert np.array_equal(out.samples[:a], x.samples[:a])
    assert np.array_equal(out.samples[b:], x.samples[b:])


def test_prosody_overlap_participant_priority():
    x = Signal(noise(3 * FS, seed=2), FS)
    timeline = tl(("PAR", 0.0, 2.0), ("INV", 1.0, 2.0))  # overlap [1, 2)
    out = build_prosody_preserved(x, timeline, "PAR")
    assert np.array_equal(out.samples[FS:2 * FS], x.samples[FS:2 * FS])
    assert np.all(out.samples[2 * FS:] == 0.0)
    flipped = build_prosody_preserved(x, timeline, "PAR",
                                      overlap_priority="other")
    assert np.all(flipped.samples[FS:3 * FS] == 0.0)


def test_prosody_unknown_labels_rejected():
    x = Signal(noise(FS), FS)
    with pytest.raises(ValidationError):
        build_prosody_preserved(x, tl(("PAR", 0.0, 1.0)), "NOBODY")
    with pytest.raises(ValidationError):
        build_prosody_preserved(x, tl(("PAR", 0.0, 1.0)), "PAR",
                                overlap_priority="loudest")


def test_prosody_taper_keeps_unmasked_bits():
    x = Signal(noise(4 * FS, seed=3), FS)
    timeline = tl(("PAR", 0.0, 2.0), ("INV", 2.0, 1.0), ("PAR", 3.0, 1.0))
    tapered = build_prosody_preserved(x, timeline, "PAR", taper_s=0.005)
    a, b = 2 * FS, 3 * FS
    k = int(0.005 * FS)
    # kept samples identical, deep interior of the mask still zero
    assert np.array_equal(tapered.samples[:a], x.samples[:a])
    assert np.array_equal(tapered.samples[b:], x.samples[b:])
    assert np.all(tapered.samples[a + k:b - k] == 0.0)
    # the ramp itself is strictly inside the masked region
    edge = tapered.samples[a:a + k]
    assert np.all(np.abs(edge) <= np.abs(x.samples[a:a + k]) + 1e-15)


# ---------------------------------------------------------------------------
# Concatenated stream

def test_concat_two_second_length_formula():
    x = Signal(noise(3 * FS, seed=4), FS)
    res = build_concatenated(x, tl(("PAR", 0.0, 1.0), ("PAR", 2.0, 1.0)), "PAR")
    assert len(res.signal) == 2 * FS - 160
    assert res.junctions == (FS - 160,)
    assert res.faded == (True,)
    assert res.short_segments == ()


def test_concat_length_formula_random_segmentations():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n_seg = int(rng.integers(1, 8))
        segs, t, total = [], 0.0, 0
        for _ in range(n_seg):
            t += float(rng.integers(1, 50)) / 100.0
            dur = float(rng.integers(5, 120)) / 100.0  # >= 50 ms
            segs.append(("PAR", round(t, 2), round(dur, 2)))
            t += dur
        x = Signal(noise(int((t + 1) * FS), seed=5), FS)
        res = build_concatenated(x, tl(*segs), "PAR")
        piece_total = sum(
            int(round((on + dur) * FS)) - int(round(on * FS))
            for _, on, dur in segs)
        assert len(res.signal) == piece_total - (n_seg - 1) * 160
        assert all(res.faded)


def test_concat_constant_level_through_fade():
    x = Signal(np.ones(2 * FS), FS)
    res = build_concatenated(x, tl(("PAR", 0.0, 1.0), ("PAR", 1.0, 1.0)), "PAR")
    j = res.junctions[0]
    assert np.max(np.abs(res.signal.samples[j:j + 160] - 1.0)) < 1e-12


def test_concat_dc_step_fade_midpoint():
    samples = np.concatenate([np.ones(FS), np.zeros(FS)])
    x = Signal(samples, FS)
    res = build_concatenated(x, tl(("PAR", 0.0, 1.0), ("PAR", 1.0, 1.0)), "PAR")
    j = res.junctions[0]
    fade = res.signal.samples[j:j + 160]
    assert abs(fade[80] - 0.5) <= 1e-9
    assert fade[0] == 1.0
    assert np.all(np.diff(fade) <= 0)


def test_concat_single_segment_passthrough():
    x = Signal(noise(2 * FS, seed=6), FS)
    res = build_concatenated(x, tl(("PAR", 0.25, 1.0)), "PAR")
    a = int(0.25 * FS)
    assert np.array_equal(res.signal.samples, x.samples[a:a + FS])
    assert res.junctions == ()


def test_concat_short_segment_hard_join():
    # middle segment 10 ms < 2 * fade -> joined without fades, flagged
    x = Signal(noise(3 * FS, seed=7), FS)
    res = build_concatenated(
        x, tl(("PAR", 0.0, 1.0), ("PAR", 1.5, 0.01), ("PAR", 2.0, 1.0)), "PAR")
    assert res.short_segments == (1,)
    assert res.faded == (False, False)
    assert len(res.signal) == FS + 160 + FS  # no fade shortening


def test_concat_fade_energy_bound():
    rng = np.random.default_rng(8)
    for seed in range(10):
        a = np.abs(rng.standard_normal(FS)) * 0.5  # same-sign signals
        b = np.abs(rng.standard_normal(FS)) * 0.5
        x = Signal(np.concatenate([a, b]), FS)
        res = build_concatenated(x, tl(("PAR", 0.0, 1.0), ("PAR", 1.0, 1.0)),
                                 "PAR")
        j = res.junctions[0]
        fade = res.signal.samples[j:j + 160]
        assert np.max(np.abs(fade)) <= max(a.max(), b.max()) + 1e-9


def test_concat_error_paths():
    x = Signal(noise(FS), FS)
    with pytest.raises(ValidationError):
        build_concatenated(x, tl(("INV", 0.0, 1.0)), "PAR")
    with pytest.raises(ValidationError):
        build_concatenated(x, tl(("PAR", 0.0, 1.0)), "PAR", crossfade_ms=0.01)


def test_concat_deterministic():
    x = Signal(noise(3 * FS, seed=9), FS)
    timeline = tl(("PAR", 0.0, 1.0), ("PAR", 1.4, 1.2))
    r1 = build_concatenated(x, timeline, "PAR")
    r2 = build_concatenated(x, timeline, "PAR")
    assert np.array_equal(r1.signal.samples, r2.signal.samples)


# participant turns in whole milliseconds: (gap before, duration); 1-19 ms
# turns are shorter than two 10 ms fades, so some junctions are hard
turns = st.lists(st.tuples(st.integers(0, 300), st.one_of(
    st.integers(1, 19), st.integers(20, 400))), min_size=1, max_size=12)


@given(turns=turns, crossfade_ms=st.sampled_from([1.0, 10.0, 25.0]),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_concat_matches_oracle_and_length_identity(turns, crossfade_ms, seed):
    segs, t_ms = [], 0
    for gap, dur in turns:
        t_ms += gap
        segs.append(("PAR", t_ms / 1000.0, dur / 1000.0))
        t_ms += dur
    # an examiner turn after the participant's, which must be left out
    segs.append(("INV", t_ms / 1000.0, 0.1))
    x = Signal(noise(int(round((t_ms + 200) / 1000.0 * FS)), seed=seed), FS)
    res = build_concatenated(x, tl(*segs), "PAR", crossfade_ms=crossfade_ms)

    fade = int(round(crossfade_ms / 1000.0 * FS))
    pieces = [x.samples[int(round(on * FS)):int(round((on + dur) * FS))]
              for spk, on, dur in segs if spk == "PAR"]
    samples, junctions, faded, short = oracles.concatenated(pieces, fade)
    assert np.array_equal(res.signal.samples, samples)
    assert (res.junctions, res.faded, res.short_segments) == (junctions, faded, short)
    assert len(res.signal) == sum(map(len, pieces)) - fade * sum(res.faded)


# ---------------------------------------------------------------------------
# Transition audit

def test_audit_crossfaded_junction_clean():
    x = Signal(np.concatenate([make_sine(220.0, 1.0, FS, peak=0.5).samples,
                               make_sine(220.0, 1.0, FS, peak=0.5).samples]), FS)
    res = build_concatenated(x, tl(("PAR", 0.0, 1.0), ("PAR", 1.0, 1.0)), "PAR")
    assert audit_transitions(res.signal, res.junctions) == []


def test_audit_flags_antiphase_step():
    # hard junction in the middle; level flips sign across it
    boundary = FS // 2
    x = Signal(np.concatenate([np.full(boundary, 0.9), np.full(boundary, -0.9)]),
               FS)
    flags = audit_transitions(x, [boundary])
    assert len(flags) == 1
    assert flags[0].step == pytest.approx(1.8, abs=1e-9)
    assert "sample step" in flags[0].reasons


def test_audit_silence_junction_clean():
    x = Signal(np.zeros(FS), FS)
    assert audit_transitions(x, [FS // 2]) == []


def test_audit_flags_rms_jump():
    x = Signal(np.concatenate([np.zeros(FS // 2),
                               make_sine(200.0, 0.5, FS, peak=0.5).samples]), FS)
    flags = audit_transitions(x, [FS // 2], step_threshold=10.0)
    assert len(flags) == 1
    assert flags[0].reasons == ("rms jump",)


def test_audit_boundary_bounds():
    x = Signal(np.zeros(100), FS)
    with pytest.raises(ValidationError):
        audit_transitions(x, [0])
    with pytest.raises(ValidationError):
        audit_transitions(x, [100])
