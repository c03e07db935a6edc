"""Diarization metrics against a frame-level oracle, plus the grid search."""

import json
import math
import shlex
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from cogspeech.corpus import Segment, Timeline, load_rttm, serialize_rttm
from cogspeech.diar_eval import (
    DiarizerAdapter, GridPoint, GridSplit, GridSession, ScoringConfig,
    der, expand_grid, jer, optimal_speaker_mapping, purity_coverage,
    run_grid_search, score_pair, write_grid_csv,
)
from cogspeech.dsp import Signal
from cogspeech.errors import AdapterError, ConfigError, ValidationError
from cogspeech import wavio


def tl(*segs):
    return Timeline.from_segments([Segment(s, on, dur) for s, on, dur in segs])


# ---------------------------------------------------------------------------
# Random grid-aligned instances

def random_timeline(rng, max_speakers=5, max_segments=20, grid=0.01):
    """Segments on the 10 ms grid, same-speaker overlaps impossible by
    construction (per-speaker forward walk)."""
    n_spk = int(rng.integers(1, max_speakers + 1))
    speakers = [chr(ord("A") + i) for i in range(n_spk)]
    budget = int(rng.integers(1, max_segments + 1))
    counts = np.bincount(rng.integers(0, n_spk, size=budget), minlength=n_spk)
    segs = []
    for spk, count in zip(speakers, counts):
        t = int(rng.integers(0, 80))  # grid units
        for _ in range(count):
            t += int(rng.integers(0, 120))
            dur = int(rng.integers(5, 250))
            segs.append(Segment(spk, round(t * grid, 2), round(dur * grid, 2)))
            t += dur
    if not segs:
        segs.append(Segment("A", 0.0, 1.0))
    return Timeline.from_segments(segs)


def relabel(timeline, rng):
    spks = list(timeline.speakers())
    mapped = dict(zip(spks, rng.permutation([s + "x" for s in spks])))
    return Timeline.from_segments(
        [Segment(mapped[s.speaker], s.onset, s.duration) for s in timeline])


def as_triples(timeline):
    return [(s.speaker, s.onset, s.end) for s in timeline]


def make_pair(rng):
    ref = random_timeline(rng)
    mode = rng.random()
    if mode < 0.15:
        hyp = ref
    elif mode < 0.35:
        hyp = relabel(ref, rng)
    elif mode < 0.45:
        # merge everything into one cluster (mapping ties likely)
        hyp = Timeline.from_segments(
            [Segment("Z", 0.0, max(s.end for s in ref))])
    else:
        hyp = random_timeline(rng)
    return ref, hyp


def assert_close(a, b, label, rel=1e-9):
    if isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), label
        return
    assert abs(a - b) <= rel * max(1.0, abs(a), abs(b)), (
        f"{label}: {a} vs oracle {b}")


# ---------------------------------------------------------------------------
# Worked examples

def test_mapping_single_pair():
    assert optimal_speaker_mapping(tl(("A", 0, 10)), tl(("X", 0, 10))) == {"X": "A"}


def test_mapping_prefers_larger_total():
    ref = tl(("A", 0, 6), ("B", 6, 4))
    hyp = tl(("X", 0, 4), ("Y", 4, 6))
    assert optimal_speaker_mapping(ref, hyp) == {"X": "A", "Y": "B"}


def test_mapping_is_partial_one_to_one():
    ref = tl(("A", 0, 5), ("B", 5, 5))
    hyp = tl(("X", 0, 4), ("Y", 4, 4), ("Z", 8, 2))
    mapping = optimal_speaker_mapping(ref, hyp)
    assert len(mapping) == 2
    assert len(set(mapping.values())) == 2


def test_mapping_ties_at_nine_speakers_follow_lexicographic_rule():
    """Nine ref speakers take 2 s turns; nine hyp speakers, shifted by 1 s
    around a ring, each overlap two refs by 1 s, so every cyclic shift
    ties. The pick must be the oracle's lexicographically smallest one."""
    ref = tl(*((f"R{k}", 2.0 * k, 2.0) for k in range(9)))
    names = ["H8", "H0", "H5", "H4", "H2", "H7", "H6", "H1", "H3"]
    hyp = tl(*((names[k], 2.0 * k + 1, 2.0) for k in range(8)),
             (names[8], 17.0, 1.0), (names[8], 0.0, 1.0))
    ref_f = oracles._speaker_frames(as_triples(ref), oracles.FRAME_S)
    hyp_f = oracles._speaker_frames(as_triples(hyp), oracles.FRAME_S)
    overlap = {(r, h): len(ref_f[r] & hyp_f[h]) for r in ref_f for h in hyp_f}
    want = oracles._assign(ref_f.keys(), hyp_f.keys(), overlap)
    assert optimal_speaker_mapping(ref, hyp) == want


def test_der_identity():
    ref = tl(("A", 0, 10), ("B", 3, 4))
    assert der(ref, ref, ScoringConfig(collar_s=0.25)).der == 0.0


def test_der_worked_example_no_collar():
    ref = tl(("A", 0, 10))
    hyp = tl(("A", 0, 8), ("B", 8, 2))
    b = der(ref, hyp, ScoringConfig(collar_s=0.0))
    assert b.confusion_s == pytest.approx(2.0, abs=1e-9)
    assert b.der == pytest.approx(0.20, abs=1e-9)
    assert b.missed_s == 0.0 and b.false_alarm_s == 0.0


def test_der_worked_example_with_collar():
    ref = tl(("A", 0, 10))
    hyp = tl(("A", 0, 8), ("B", 8, 2))
    b = der(ref, hyp, ScoringConfig(collar_s=0.25))
    assert b.scored_total_s == pytest.approx(9.5, abs=1e-9)
    assert b.confusion_s == pytest.approx(1.75, abs=1e-9)
    assert b.der == pytest.approx(1.75 / 9.5, abs=1e-6)
    assert b.defined


def test_der_undefined_when_collar_swallows_everything():
    ref = tl(("A", 0, 0.3))
    b = der(ref, ref, ScoringConfig(collar_s=0.25))
    assert b.scored_total_s == pytest.approx(0.0, abs=1e-12)
    assert math.isnan(b.der)
    assert not b.defined


def test_jer_examples():
    ref = tl(("A", 0, 10))
    assert jer(ref, ref) == 0.0
    assert jer(ref, tl(("A", 20, 5))) == 1.0  # disjoint supports
    assert jer(ref, tl(("H", 0, 5))) == pytest.approx(0.5, abs=1e-9)
    assert math.isnan(jer(Timeline.from_segments([]), ref))


def test_purity_coverage_examples():
    ref = tl(("A", 0, 10))
    assert purity_coverage(ref, ref) == (1.0, 1.0)
    ref2 = tl(("A", 0, 5), ("B", 5, 5))
    merged = tl(("Z", 0, 10))
    p, c = purity_coverage(ref2, merged)
    assert p == pytest.approx(0.5, abs=1e-9)
    assert c == pytest.approx(1.0, abs=1e-9)
    p_empty, c_empty = purity_coverage(ref, Timeline.from_segments([]))
    assert math.isnan(p_empty) and c_empty == 0.0


def test_purity_coverage_duality():
    rng = np.random.default_rng(42)
    for _ in range(100):
        ref, hyp = make_pair(rng)
        p1, c1 = purity_coverage(ref, hyp)
        p2, c2 = purity_coverage(hyp, ref)
        assert_close(p1, c2, "purity/coverage duality")
        assert_close(c1, p2, "coverage/purity duality")


def test_scoring_config_validation():
    with pytest.raises(ConfigError):
        ScoringConfig(collar_s=-0.1)


# ---------------------------------------------------------------------------
# Properties

def test_identity_and_permutation_properties():
    rng = np.random.default_rng(7)
    cfg = ScoringConfig(collar_s=0.25)
    for _ in range(50):
        ref = random_timeline(rng)
        assert der(ref, ref, cfg).der == 0.0
        assert jer(ref, ref) == 0.0
        hyp = random_timeline(rng)
        d1 = der(ref, hyp, cfg).der
        d2 = der(ref, relabel(hyp, rng), cfg).der
        assert_close(d1, d2, "label permutation")


def test_collar_never_grows_scored_total():
    rng = np.random.default_rng(19)
    for _ in range(30):
        ref, hyp = make_pair(rng)
        totals = [der(ref, hyp, ScoringConfig(collar_s=c)).scored_total_s
                  for c in (0.0, 0.1, 0.25, 0.5)]
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))


def test_metrics_match_frame_oracle():
    rng = np.random.default_rng(123)
    for i in range(60):
        ref, hyp = make_pair(rng)
        collar = 0.25 if i % 2 == 0 else 0.0
        got = score_pair(ref, hyp, ScoringConfig(collar_s=collar))
        want = oracles.diar_scores(as_triples(ref), as_triples(hyp),
                                   collar_s=collar)
        for key in got:
            assert_close(got[key], want[key], f"instance {i} {key}")


@st.composite
def grid_timelines(draw, names):
    """1-7 speakers, each a forward walk of turns on the 10 ms grid."""
    segs = []
    for k in range(draw(st.integers(1, 7))):
        t = draw(st.integers(0, 100))
        for _ in range(draw(st.integers(1, 3))):
            dur = draw(st.integers(1, 150))
            segs.append(Segment(f"{names}{k}", t / 100, dur / 100))
            t += dur + draw(st.integers(0, 100))
    return Timeline.from_segments(segs)


@st.composite
def scoring_cases(draw):
    ref = draw(grid_timelines("S"))
    if draw(st.booleans()):
        spks = list(ref.speakers())
        perm = dict(zip(spks, draw(st.permutations(spks))))
        hyp = Timeline.from_segments(
            [Segment(perm[s.speaker] + "h", s.onset, s.duration) for s in ref])
    else:
        hyp = draw(grid_timelines(draw(st.sampled_from(["S", "H"]))))
    return ref, hyp, draw(st.sampled_from([0.0, 0.25]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scoring_cases())
def test_score_pair_matches_frame_oracle_property(case):
    ref, hyp, collar = case
    got = score_pair(ref, hyp, ScoringConfig(collar_s=collar))
    want = oracles.diar_scores(as_triples(ref), as_triples(hyp),
                               collar_s=collar)
    for key in got:
        assert_close(got[key], want[key], key)


@st.composite
def nested_segments(draw, names):
    """0-4 speakers on a 0.5 ms grid: turns that nest in other speakers'
    turns, touch, share onsets, or repeat or overlap a turn of their own
    speaker by at most TIME_EPS_S."""
    segs = []
    for k in range(draw(st.integers(0, 4))):
        t = draw(st.integers(0, 20))
        for _ in range(draw(st.integers(1, 5))):
            dur = draw(st.integers(1, 400))
            segs.append(Segment(f"{names}{k}", t / 2000, dur / 2000))
            t += dur + draw(st.sampled_from([-2, -1, 0, 0, 1, 7, 300]))
            t = max(t, 0)
    return segs


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(nested_segments("S"), st.one_of(nested_segments("S"), nested_segments("H")),
       st.sampled_from([0.0, 0.05, 0.25, 2.0]), st.booleans())
def test_score_pair_is_bitwise_the_merge_loop_sweep(ref, hyp, collar, overlap):
    """The vectorized merge against the per-speaker merge loops it
    replaced, at a zero collar and at collars wider than every gap."""
    try:  # a 1 ms overlap may round past TIME_EPS_S
        ref_segs, hyp_segs = map(oracles.timeline_segments, (ref, hyp))
    except ValidationError:
        assume(False)
    cfg = ScoringConfig(collar_s=collar, score_overlap=overlap)
    got = score_pair(Timeline.from_segments(ref), Timeline.from_segments(hyp), cfg)
    want = oracles.score_pair(ref_segs, hyp_segs, cfg)
    assert {k: float(v).hex() for k, v in got.items()} == \
        {k: float(v).hex() for k, v in want.items()}


def test_overlap_exclusion_toggle_matches_oracle():
    rng = np.random.default_rng(321)
    for i in range(20):
        ref, hyp = make_pair(rng)
        got = score_pair(ref, hyp, ScoringConfig(collar_s=0.25,
                                                 score_overlap=False))
        want = oracles.diar_scores(as_triples(ref), as_triples(hyp),
                                   collar_s=0.25, score_overlap=False)
        for key in ("der", "missed_s", "false_alarm_s", "confusion_s",
                    "scored_total_s"):
            assert_close(got[key], want[key], f"instance {i} {key}")


# ---------------------------------------------------------------------------
# Grid plumbing

def test_expand_grid_order_and_validation():
    points = expand_grid({"gate_alpha": [0.0, 0.3],
                          "diarizer.vad": ["a", "b", "c"]})
    assert len(points) == 6
    assert [p.index for p in points] == list(range(6))
    # names sorted -> diarizer.vad varies slowest
    assert points[0].as_dict() == {"diarizer.vad": "a", "gate_alpha": 0.0}
    assert points[1].as_dict() == {"diarizer.vad": "a", "gate_alpha": 0.3}
    with pytest.raises(ConfigError):
        expand_grid({})
    with pytest.raises(ConfigError):
        expand_grid({"bogus_key": [1]})
    with pytest.raises(ConfigError):
        expand_grid({"gate_alpha": []})


def test_grid_point_splits_dsp_and_adapter_params():
    point = expand_grid({"gate_alpha": [0.5], "loudness_target_lufs": [-30.0],
                         "diarizer.threshold": [0.7]})[0]
    cfg = point.dsp_config()
    assert cfg.gate_alpha == 0.5 and cfg.loudness_target_lufs == -30.0
    assert point.adapter_params() == {"threshold": 0.7}
    assert point.dsp_key() == (("gate_alpha", 0.5),
                               ("loudness_target_lufs", -30.0))


def test_grid_split_validation():
    with pytest.raises(ValidationError):
        GridSplit(frozenset({"a"}), frozenset({"a", "b"}))
    with pytest.raises(ValidationError):
        GridSplit(frozenset(), frozenset({"b"}))


def test_adapter_error_paths(tmp_path):
    adapter = DiarizerAdapter("exit 3")
    with pytest.raises(AdapterError, match="exited 3"):
        adapter.run("in.wav", str(tmp_path / "out.rttm"), "s1", {})
    adapter = DiarizerAdapter("true")  # exits 0, writes nothing
    with pytest.raises(AdapterError, match="no output"):
        adapter.run("in.wav", str(tmp_path / "out.rttm"), "s1", {})
    adapter = DiarizerAdapter("echo {missing} > {output}")
    with pytest.raises(AdapterError, match="placeholder"):
        adapter.run("in.wav", str(tmp_path / "out.rttm"), "s1", {})
    adapter = DiarizerAdapter("echo {x:.2f} > {output}")
    with pytest.raises(AdapterError, match="format spec"):
        adapter.run("in.wav", str(tmp_path / "out.rttm"), "s1", {"x": 1.0})


def test_adapter_success_roundtrip(tmp_path):
    ref = tl(("PAR", 0.0, 2.0))
    src = tmp_path / "ref.rttm"
    src.write_text(serialize_rttm(ref, recording_id="s1"))
    adapter = DiarizerAdapter("cp " + str(src) + " {output}")
    out = adapter.run("unused.wav", str(tmp_path / "hyp.rttm"), "s1", {})
    assert score_pair(ref, out)["der"] == 0.0


ARGV_STUB = '''\
import json, sys
_, _, out, session_id, log = sys.argv
with open(log, "w") as fh:
    json.dump(sys.argv[1:], fh)
with open(out, "w") as fh:
    fh.write("SPEAKER %s 1 0.000 1.000 <NA> <NA> A <NA> <NA>\\n"
             % session_id.replace(" ", "_"))
'''


def test_adapter_shell_quotes_substituted_values(tmp_path):
    work = tmp_path / "work dir;1"
    work.mkdir()
    stub = tmp_path / "argv_stub.py"
    stub.write_text(ARGV_STUB)
    adapter = DiarizerAdapter(f"{shlex.quote(sys.executable)} "
                              f"{shlex.quote(str(stub))} "
                              "{input} {output} {session_id} {log}")
    wav, out, log = (str(work / name) for name in
                     ("in put;1.wav", "hyp; 1.rttm", "argv.json"))
    session_id = "s 1;echo x"
    hyp = adapter.run(wav, out, session_id, {"log": log})
    assert json.loads((work / "argv.json").read_text()) == [
        wav, out, session_id, log]
    assert [s.speaker for s in hyp] == ["A"]


# ---------------------------------------------------------------------------
# Grid search end to end (tiny corpus, echo adapter)

VAD_STUB = '''\
import sys
import numpy as np
from scipy.io import wavfile

wav, out = sys.argv[1], sys.argv[2]
rate, data = wavfile.read(wav)
x = data.astype(np.float64)
frame = int(0.025 * rate); hop = int(0.010 * rate)
n = 1 + max(0, (len(x) - frame) // hop)
active = []
for i in range(n):
    seg = x[i * hop:i * hop + frame]
    rms = np.sqrt(np.mean(seg ** 2)) if len(seg) else 0.0
    active.append(rms > 10 ** (-45 / 20))
lines = []
start = None
for i, a in enumerate(active + [False]):
    t = i * hop / rate
    if a and start is None:
        start = t
    elif not a and start is not None:
        lines.append("SPEAKER rec 1 %.3f %.3f <NA> <NA> SPK <NA> <NA>"
                     % (start, t - start))
        start = None
with open(out, "w") as fh:
    fh.write("\\n".join(lines) + ("\\n" if lines else ""))
'''


@pytest.fixture(scope="module")
def tiny_grid_corpus(tmp_path_factory):
    """Two 4 s sessions (one tuning subject, one validation subject) with
    single-speaker reference timelines matching the planted bursts."""
    root = tmp_path_factory.mktemp("grid")
    rng = np.random.default_rng(0)
    fs = 16000
    sessions = []
    for sid, sub in (("t1_PF", "subT"), ("v1_PF", "subV")):
        x = rng.standard_normal(4 * fs) * 10 ** (-55 / 20)
        x[int(0.5 * fs):int(2.0 * fs)] += (
            np.sin(2 * np.pi * 180 * np.arange(int(1.5 * fs)) / fs) * 0.2)
        x[int(2.5 * fs):int(3.5 * fs)] += (
            np.sin(2 * np.pi * 180 * np.arange(int(1.0 * fs)) / fs) * 0.2)
        wav = root / f"{sid}.wav"
        wavio.write_wav(wav, x, fs)
        ref = tl(("SPK", 0.5, 1.5), ("SPK", 2.5, 1.0))
        (root / f"{sid}.rttm").write_text(serialize_rttm(ref, recording_id=sid))
        sessions.append(GridSession(session_id=sid, subject_id=sub,
                                    audio_path=str(wav), reference=ref))
    stub = root / "vad_stub.py"
    stub.write_text(VAD_STUB)
    return {"root": root, "sessions": sessions, "stub": stub,
            "split": GridSplit(frozenset({"subT"}), frozenset({"subV"}))}


def test_grid_identity_adapter_scores_zero(tiny_grid_corpus, tmp_path):
    root = tiny_grid_corpus["root"]
    adapter = DiarizerAdapter("cp " + str(root) + "/{session_id}.rttm {output}")
    results = run_grid_search({"gate_alpha": [0.3]},
                              tiny_grid_corpus["sessions"], adapter,
                              tiny_grid_corpus["split"], workdir=tmp_path)
    assert len(results) == 1
    assert results[0].status == "ok"
    assert results[0].tuning["der"] == 0.0
    assert results[0].validation["der"] == 0.0
    assert results[0].validation["jer"] == 0.0


def test_grid_reads_each_session_wav_once(tiny_grid_corpus, tmp_path,
                                         monkeypatch):
    reads = []

    def counted(path):
        reads.append(path)
        return read_wav(path)

    read_wav = wavio.read_wav
    monkeypatch.setattr(wavio, "read_wav", counted)
    root = tiny_grid_corpus["root"]
    adapter = DiarizerAdapter("cp " + str(root) + "/{session_id}.rttm {output}")
    results = run_grid_search({"gate_alpha": [0.3, 0.5, 1.0]},
                              tiny_grid_corpus["sessions"], adapter,
                              tiny_grid_corpus["split"], workdir=tmp_path)
    assert [r.status for r in results] == ["ok"] * 3
    assert sorted(reads) == sorted(s.audio_path for s in tiny_grid_corpus["sessions"])


def test_grid_planted_degradation_ranks_last(tiny_grid_corpus, tmp_path):
    stub = tiny_grid_corpus["stub"]
    adapter = DiarizerAdapter(sys.executable + " " + str(stub) +
                              " {input} {output}")
    results = run_grid_search({"loudness_target_lufs": [-23.0, -80.0]},
                              tiny_grid_corpus["sessions"], adapter,
                              tiny_grid_corpus["split"], workdir=tmp_path)
    assert len(results) == 2
    top = results[0]
    assert top.point.as_dict()["loudness_target_lufs"] == -23.0
    assert top.tuning["der"] < results[1].tuning["der"]
    assert top.validation is not None and results[1].validation is None


def test_grid_failed_points_marked_and_ranked_last(tiny_grid_corpus, tmp_path):
    root = tiny_grid_corpus["root"]
    # {fail} toggles a bad command for one point only
    adapter = DiarizerAdapter(
        "{fail} && exit 9 || cp " + str(root) + "/{session_id}.rttm {output}")
    results = run_grid_search(
        {"diarizer.fail": ["false", "true"]},
        tiny_grid_corpus["sessions"], adapter, tiny_grid_corpus["split"],
        workdir=tmp_path)
    assert [r.status for r in results] == ["ok", "failed"]
    assert results[1].error


def test_grid_warns_once_per_parameter_the_template_never_names(
        tiny_grid_corpus, tmp_path):
    root = tiny_grid_corpus["root"]
    adapter = DiarizerAdapter(
        "cp " + str(root) + "/{session_id}.rttm {output} # {used}")
    with pytest.warns(UserWarning) as caught:
        results = run_grid_search(
            {"diarizer.used": [1], "diarizer.pad": [0, 1],
             "diarizer.tag": ["a", "b"]},
            tiny_grid_corpus["sessions"], adapter, tiny_grid_corpus["split"],
            workdir=tmp_path)
    messages = sorted(str(w.message) for w in caught)
    assert len(messages) == 2
    assert "'diarizer.pad'" in messages[0] and "'diarizer.tag'" in messages[1]
    assert len(results) == 4 and all(r.status == "ok" for r in results)


@dataclass(frozen=True)
class _ReferenceAdapter(DiarizerAdapter):
    """Reads its parameters in run, not through the template: variant 0
    returns the session's reference, variant 1 drops its last segment."""

    references: tuple = ()  # (session_id, Timeline) pairs

    def run(self, input_wav, output_rttm, session_id, params):
        ref = list(dict(self.references)[session_id])
        return Timeline.from_segments(ref[:len(ref) - params["variant"]])


def test_grid_warns_only_for_the_template_adapter(tiny_grid_corpus, tmp_path):
    sessions = tiny_grid_corpus["sessions"]
    adapter = _ReferenceAdapter(
        "stored", references=tuple((s.session_id, s.reference) for s in sessions))
    schema = {"diarizer.variant": [0, 1]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = run_grid_search(schema, sessions, adapter,
                                  tiny_grid_corpus["split"],
                                  workdir=tmp_path / "sub")
    assert [str(w.message) for w in caught] == []
    assert [r.tuning["der"] > 0 for r in results] == [False, True]
    root = tiny_grid_corpus["root"]
    plain = DiarizerAdapter("cp " + str(root) + "/{session_id}.rttm {output}")
    with pytest.warns(UserWarning, match="'diarizer.variant'"):
        run_grid_search(schema, sessions, plain, tiny_grid_corpus["split"],
                        workdir=tmp_path / "base")


def test_grid_all_failed_raises(tiny_grid_corpus, tmp_path):
    adapter = DiarizerAdapter("exit 7")
    with pytest.raises(AdapterError, match="every grid point failed"):
        run_grid_search({"gate_alpha": [0.0, 0.3]},
                        tiny_grid_corpus["sessions"], adapter,
                        tiny_grid_corpus["split"], workdir=tmp_path)


def test_grid_rejects_stray_sessions(tiny_grid_corpus, tmp_path):
    adapter = DiarizerAdapter("true")
    split = GridSplit(frozenset({"subT"}), frozenset({"nobody"}))
    with pytest.raises(ValidationError, match="outside both splits"):
        run_grid_search({"gate_alpha": [0.3]}, tiny_grid_corpus["sessions"],
                        adapter, split, workdir=tmp_path)


def test_grid_ranking_deterministic_across_jobs(tiny_grid_corpus, tmp_path):
    root = tiny_grid_corpus["root"]
    adapter = DiarizerAdapter("cp " + str(root) + "/{session_id}.rttm {output}")
    schema = {"gate_alpha": [0.0, 0.3], "diarizer.k": [1, 2, 3]}
    r1 = run_grid_search(schema, tiny_grid_corpus["sessions"], adapter,
                         tiny_grid_corpus["split"], workdir=tmp_path / "a",
                         jobs=1)
    r2 = run_grid_search(schema, tiny_grid_corpus["sessions"], adapter,
                         tiny_grid_corpus["split"], workdir=tmp_path / "b",
                         jobs=4)
    key = [(r.point.index, r.status, r.tuning and r.tuning["der"]) for r in r1]
    assert key == [(r.point.index, r.status, r.tuning and r.tuning["der"])
                   for r in r2]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_grid_csv(r1, p1)
    write_grid_csv(r2, p2)
    assert p1.read_text() == p2.read_text()


def test_write_grid_csv_shape(tiny_grid_corpus, tmp_path):
    root = tiny_grid_corpus["root"]
    adapter = DiarizerAdapter("cp " + str(root) + "/{session_id}.rttm {output}")
    results = run_grid_search({"gate_alpha": [0.3]},
                              tiny_grid_corpus["sessions"], adapter,
                              tiny_grid_corpus["split"], workdir=tmp_path)
    out = tmp_path / "grid.csv"
    write_grid_csv(results, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("rank,point_index,status,gate_alpha,tuning_der")
    with pytest.raises(ValidationError):
        write_grid_csv([], tmp_path / "empty.csv")
