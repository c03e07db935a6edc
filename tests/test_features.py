"""Acoustic descriptor extraction: F0, voice quality, slopes, formants,
functionals, feature-set assembly, embedding ingestion."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import sawtooth

import oracles
import synth
from synth import make_sine
from cogspeech.dsp import Signal
from cogspeech.errors import InputError, ParseError, ValidationError
from cogspeech.features import (
    EG_ALL_NAMES, EG_PROSODY_NAMES, EG_VQUAL_NAMES, FRAME_S, HOP_S,
    FeatureVector, LldContour, apply_functionals, extract_feature_sets,
    formant_bandwidths, jitter_shimmer_hnr, load_embeddings, read_feature_csv,
    semitones, spectral_slopes, track_f0, write_feature_csv,
)

FS = 16000


def steady_pulses(f0=160.0, dur_s=2.5, fs=FS, **kw):
    # 160 Hz at 16 kHz gives an exact 100-sample period; dropping eight
    # periods skips the integrator warm-up without leaving the grid
    raw = synth.pulse_train(f0, dur_s + 0.05, fs, **kw) * 0.4
    return Signal(raw[800:800 + int(dur_s * fs)], fs)


# ---------------------------------------------------------------------------
# Contour and vector containers

def test_contour_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        LldContour("f0", np.zeros(5), np.zeros(4, dtype=bool))


def test_feature_vector_validation():
    with pytest.raises(ValidationError):
        FeatureVector("NOT_A_TAG", {"a": 1.0})
    with pytest.raises(ValidationError):
        FeatureVector("EG_ALL", {"a": float("nan")})
    fv = FeatureVector("EG_ALL", {"b": 2.0, "a": 1.0})
    assert fv.names == ("b", "a")
    assert np.array_equal(fv.array(), [2.0, 1.0])


# ---------------------------------------------------------------------------
# F0 tracking

def test_f0_pure_sine():
    c = track_f0(make_sine(200.0, 2.0, FS, peak=0.5))
    assert np.mean(c.voiced_mask) >= 0.95
    v = c.valid_values()
    assert np.mean(np.abs(v - 200.0) <= 1.0) >= 0.95


def test_f0_white_noise_unvoiced():
    x = Signal(np.random.default_rng(0).standard_normal(2 * FS) * 0.2, FS)
    c = track_f0(x)
    assert np.mean(~c.voiced_mask) >= 0.95


def test_f0_sawtooth_no_octave_error():
    t = np.arange(2 * FS) / FS
    c = track_f0(Signal(sawtooth(2 * np.pi * 150.0 * t) * 0.4, FS))
    v = c.valid_values()
    assert v.size > 0
    assert abs(np.median(v) - 150.0) <= 1.0
    assert np.mean(np.abs(v - 150.0) <= 1.0) >= 0.9


def test_f0_low_rate_rejected():
    with pytest.raises(ValidationError):
        track_f0(Signal(np.zeros(4000), 4000))


def test_f0_silence_all_unvoiced():
    c = track_f0(Signal(np.zeros(FS), FS))
    assert not np.any(c.voiced_mask)


# ---------------------------------------------------------------------------
# Jitter, shimmer, HNR

def test_periodic_train_near_zero_jitter_shimmer():
    x = steady_pulses()
    f0c = track_f0(x)
    jit, shim, _ = jitter_shimmer_hnr(x, f0c)
    assert abs(float(np.mean(jit.valid_values()))) <= 1e-4
    assert abs(float(np.mean(shim.valid_values()))) <= 1e-4


def test_planted_period_perturbation_measured():
    for seed in (0, 1, 2):
        x = steady_pulses(dur_s=3.0, jitter_frac=0.02, seed=seed)
        f0c = track_f0(x)
        jit, _, _ = jitter_shimmer_hnr(x, f0c)
        assert float(np.mean(jit.valid_values())) == pytest.approx(0.02,
                                                                   abs=0.005)


def test_planted_amplitude_perturbation_measured():
    x = steady_pulses(dur_s=3.0, shimmer_frac=0.05, seed=1)
    f0c = track_f0(x)
    _, shim, _ = jitter_shimmer_hnr(x, f0c)
    assert float(np.mean(shim.valid_values())) == pytest.approx(0.05, abs=0.01)


def test_hnr_limits():
    tone = make_sine(200.0, 1.0, FS, peak=0.5)
    f0t = track_f0(tone)
    _, _, hnr = jitter_shimmer_hnr(tone, f0t)
    assert float(np.mean(hnr.valid_values())) >= 39.9  # at the 40 dB cap
    # HNR is defined on energetic frames whether voiced or not, so a short
    # tone followed by noise exposes the noise-frame behavior
    rng = np.random.default_rng(7)
    mix = np.concatenate([make_sine(200.0, 0.5, FS, peak=0.4).samples,
                          rng.standard_normal(2 * FS) * 0.2])
    x = Signal(mix, FS)
    f0c = track_f0(x)
    _, _, h = jitter_shimmer_hnr(x, f0c)
    in_noise = np.arange(len(h)) > int(0.7 / HOP_S)
    noise_hnr = h.values[in_noise & h.voiced_mask]
    assert noise_hnr.size > 50
    assert float(np.mean(noise_hnr)) <= 0.0


def test_no_voiced_frames_empty_contours():
    x = Signal(np.random.default_rng(3).standard_normal(FS) * 0.1, FS)
    f0c = track_f0(x)
    if np.any(f0c.voiced_mask):  # force the advertised edge case
        f0c = LldContour("f0", f0c.values, np.zeros(len(f0c), dtype=bool))
    jit, shim, hnr = jitter_shimmer_hnr(x, f0c)
    assert len(jit) == len(shim) == len(hnr) == 0


# ---------------------------------------------------------------------------
# Spectral slopes

def test_white_noise_slopes_flat():
    x = Signal(np.random.default_rng(0).standard_normal(4 * FS) * 0.1, FS)
    contours = spectral_slopes(x, track_f0(x))
    by_name = {c.name: c for c in contours}
    for name in ("slope_uv_0_500", "slope_uv_500_1500"):
        v = by_name[name].valid_values()
        assert v.size > 100
        assert abs(float(np.mean(v))) <= 1.0  # dB/kHz


def test_shaped_noise_slope_matches_analytic():
    # magnitude ~ 1/f is -6 dB per octave; the analytic answer is the
    # least-squares slope of 20*log10(ref/f) over the band's FFT bins
    rng = np.random.default_rng(1)
    n = 4 * FS
    spec = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, 1.0 / FS)
    shaped = np.fft.irfft(spec * np.where(f > 0, 100.0 / np.maximum(f, 1e-9),
                                          0.0), n)
    x = Signal(shaped / np.max(np.abs(shaped)) * 0.5, FS)
    contours = spectral_slopes(x, track_f0(x))
    by_name = {c.name: c for c in contours}

    win = int(round(FRAME_S * FS))
    freqs = np.fft.rfftfreq(win, 1.0 / FS)
    sel = (freqs > 500.0) & (freqs <= 1500.0)
    fk = freqs[sel] / 1000.0
    analytic = np.polyfit(fk, 20.0 * np.log10(100.0 / freqs[sel]), 1)[0]
    got = float(np.mean(by_name["slope_uv_500_1500"].valid_values()))
    assert got == pytest.approx(analytic, rel=0.15)
    assert analytic < -5.0
    # the lowest band is leakage-limited but must still be strongly negative
    assert float(np.mean(by_name["slope_uv_0_500"].valid_values())) < -20.0


def test_tone_slope_equals_regression_oracle():
    tone = make_sine(250.0, 1.0, FS, peak=0.5)
    contour = spectral_slopes(tone, track_f0(tone))[0]  # voiced 0-500
    win, hop = int(round(FRAME_S * FS)), int(round(HOP_S * FS))
    freqs = np.fft.rfftfreq(win, 1.0 / FS)
    sel = (freqs > 0.0) & (freqs <= 500.0)
    fk = freqs[sel] / 1000.0
    w = np.hanning(win)
    for i in range(len(contour)):
        frame = tone.samples[i * hop:i * hop + win]
        db = 20.0 * np.log10(np.abs(np.fft.rfft(frame * w)) + 1e-12)[sel]
        oracle = float(np.polyfit(fk, db, 1)[0])
        assert contour.values[i] == pytest.approx(oracle, abs=1e-9)


def test_slope_band_without_bins_rejected():
    x = Signal(np.random.default_rng(2).standard_normal(FS) * 0.1, FS)
    with pytest.raises(ValidationError):
        spectral_slopes(x, track_f0(x), bands=((7900.0, 7950.0),))


def test_slopes_split_by_voicing():
    x = Signal(np.concatenate([
        make_sine(200.0, 1.0, FS, peak=0.4).samples,
        np.random.default_rng(5).standard_normal(FS) * 0.2]), FS)
    contours = spectral_slopes(x, track_f0(x))
    voiced, unvoiced = contours[0], contours[1]
    assert np.array_equal(voiced.values, unvoiced.values)
    assert not np.any(voiced.voiced_mask & unvoiced.voiced_mask)


# ---------------------------------------------------------------------------
# Formants

def vowel_signal(scale=1.0, seed=3):
    formants = ((500.0 * scale, 80.0), (1500.0 * scale, 120.0))
    return Signal(synth.vowel(120.0, 2.0, FS, formants=formants, seed=seed), FS)


def test_two_resonator_recovery():
    x = vowel_signal()
    by_name = {c.name: c for c in formant_bandwidths(x, track_f0(x))}
    f1 = float(np.median(by_name["f1_hz"].valid_values()))
    f2 = float(np.median(by_name["f2_hz"].valid_values()))
    b1 = float(np.median(by_name["f1_bw_hz"].valid_values()))
    b2 = float(np.median(by_name["f2_bw_hz"].valid_values()))
    assert f1 == pytest.approx(500.0, rel=0.05)
    assert f2 == pytest.approx(1500.0, rel=0.05)
    assert b1 == pytest.approx(80.0, rel=0.25)
    assert b2 == pytest.approx(120.0, rel=0.25)


def test_scaled_resonators_track_scale():
    base = {c.name: c for c in
            formant_bandwidths(vowel_signal(), track_f0(vowel_signal()))}
    scaled = {c.name: c for c in
              formant_bandwidths(vowel_signal(1.1), track_f0(vowel_signal(1.1)))}
    for name in ("f1_hz", "f2_hz"):
        lo = float(np.median(base[name].valid_values()))
        hi = float(np.median(scaled[name].valid_values()))
        assert hi / lo == pytest.approx(1.1, rel=0.05)


def test_white_noise_formants_mostly_skipped():
    x = Signal(np.random.default_rng(9).standard_normal(2 * FS) * 0.2, FS)
    contours = formant_bandwidths(x, track_f0(x))
    for c in contours:
        assert float(np.mean(c.voiced_mask)) <= 0.1


# ---------------------------------------------------------------------------
# Functionals

def test_functionals_constant_contour():
    c = LldContour("jitter", np.full(50, 5.0), np.ones(50, dtype=bool))
    fv = apply_functionals([c])
    assert fv.values["egx.jitter.mean"] == pytest.approx(5.0)
    assert fv.values["egx.jitter.cov"] == pytest.approx(0.0, abs=1e-12)


def test_functionals_two_point_contour():
    c = LldContour("shimmer", np.array([1.0, 3.0]), np.ones(2, dtype=bool))
    fv = apply_functionals([c])
    # population SD convention: SD([1,3]) = 1, CoV = 1/2
    assert fv.values["egx.shimmer.mean"] == pytest.approx(2.0)
    assert fv.values["egx.shimmer.cov"] == pytest.approx(0.5)


def test_functionals_f0_semitone_conversion():
    c = LldContour("f0", np.full(30, 200.0), np.ones(30, dtype=bool))
    fv = apply_functionals([c])
    expected = 12.0 * math.log2(200.0 / 27.5)
    assert fv.values["egx.f0_semitone.mean"] == pytest.approx(expected,
                                                              abs=1e-9)
    assert fv.values["egx.f0_semitone.cov"] == pytest.approx(0.0, abs=1e-12)


def test_functionals_db_contour_uses_sd():
    c = LldContour("rms_db", np.array([-20.0, -30.0]), np.ones(2, dtype=bool))
    fv = apply_functionals([c])
    assert fv.values["egx.rms_db.mean"] == pytest.approx(-25.0)
    assert fv.values["egx.rms_db.sd"] == pytest.approx(5.0)
    assert "egx.rms_db.cov" not in fv.values


def test_functionals_empty_contour_recorded_absent():
    empty = LldContour("jitter", np.zeros(10), np.zeros(10, dtype=bool))
    full = LldContour("shimmer", np.ones(10), np.ones(10, dtype=bool))
    fv = apply_functionals([empty, full])
    assert "egx.jitter.mean" in fv.absent and "egx.jitter.cov" in fv.absent
    assert "egx.jitter.mean" not in fv.values
    assert "egx.shimmer.mean" in fv.values
    with pytest.raises(ValidationError):
        apply_functionals([])


def test_functionals_match_two_pass_oracle():
    rng = np.random.default_rng(17)
    for trial in range(50):
        n = int(rng.integers(2, 120))
        vals = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3), size=n)
        mask = rng.random(n) < 0.8
        if not mask.any():
            mask[0] = True
        c = LldContour("hnr_db", vals, mask)
        fv = apply_functionals([c])
        mean, cov = oracles.mean_and_cov(vals[mask])
        assert fv.values["egx.hnr_db.mean"] == pytest.approx(mean, abs=1e-9)
        assert fv.values["egx.hnr_db.cov"] == pytest.approx(cov, abs=1e-9,
                                                            rel=1e-9)


def test_semitones_closed_form():
    assert semitones(27.5)[()] == pytest.approx(0.0, abs=1e-12)
    assert semitones(55.0)[()] == pytest.approx(12.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Feature-set assembly

def session_like(seed=2):
    rng = np.random.default_rng(seed + 100)
    base = synth.vowel(130.0, 2.5, FS, seed=seed, peak=0.25)
    return base + rng.standard_normal(base.size) * 1e-4


def test_sets_are_disjoint_union():
    x = Signal(session_like(), FS)
    prosody, vqual, allset = extract_feature_sets(x, x)
    assert set(prosody.names) <= set(EG_PROSODY_NAMES)
    assert set(vqual.names) <= set(EG_VQUAL_NAMES)
    assert not set(prosody.names) & set(vqual.names)
    assert allset.names == prosody.names + vqual.names
    assert len(allset.values) == len(prosody.values) + len(vqual.values)
    assert allset.set_tag == "EG_ALL"
    assert set(EG_ALL_NAMES) == set(EG_PROSODY_NAMES) | set(EG_VQUAL_NAMES)


def test_planted_gap_reflected_in_pause_stats():
    voice = session_like()
    gapped = np.concatenate([voice[:FS], np.zeros(2 * FS), voice[:FS]])
    prosody, _, _ = extract_feature_sets(Signal(gapped, FS), None)
    assert prosody.values["egx.pause.max_s"] >= 2.0
    assert prosody.values["egx.pause.count"] >= 1.0
    assert prosody.values["egx.pause.total_ratio"] >= 0.4


def test_missing_stream_recorded_not_fabricated():
    x = Signal(session_like(), FS)
    prosody, vqual, allset = extract_feature_sets(None, x)
    assert prosody.values == {}
    assert set(prosody.absent) == set(EG_PROSODY_NAMES)
    assert vqual.values
    assert set(allset.absent) >= set(EG_PROSODY_NAMES)


def test_set_order_with_one_stream_missing():
    x = Signal(session_like(), FS)
    prosody, vqual, allset = extract_feature_sets(x, None)
    assert (prosody.names, prosody.absent) == (EG_PROSODY_NAMES, ())
    assert (vqual.names, vqual.absent) == ((), EG_VQUAL_NAMES)
    assert (allset.names, allset.absent) == (EG_PROSODY_NAMES, EG_VQUAL_NAMES)
    prosody, vqual, allset = extract_feature_sets(None, x)
    assert (prosody.names, prosody.absent) == ((), EG_PROSODY_NAMES)
    assert (vqual.names, vqual.absent) == (EG_VQUAL_NAMES, ())
    assert (allset.names, allset.absent) == (EG_VQUAL_NAMES, EG_PROSODY_NAMES)
    # silence: the contour functionals are absent, the stats that follow
    # them in EG_PROSODY_NAMES are not
    prosody, _, allset = extract_feature_sets(Signal(np.zeros(FS), FS), None)
    unvoiced = ("egx.f0_semitone.mean", "egx.f0_semitone.cov",
                "egx.rms_db.mean", "egx.rms_db.sd")
    stats = ("egx.voiced.ratio", "egx.voiced_run.rate_per_s",
             "egx.pause.count", "egx.pause.mean_s", "egx.pause.max_s",
             "egx.pause.total_ratio")
    assert (prosody.names, prosody.absent) == (stats, unvoiced)
    assert (allset.names, allset.absent) == (stats, unvoiced + EG_VQUAL_NAMES)


def test_extraction_deterministic():
    x = Signal(session_like(), FS)
    a1 = extract_feature_sets(x, x)[2]
    a2 = extract_feature_sets(x, x)[2]
    assert a1.names == a2.names
    assert np.array_equal(a1.array(), a2.array())


def test_gain_invariance_suite():
    base = session_like()
    _, _, v1 = extract_feature_sets(Signal(base, FS), Signal(base, FS))
    _, _, v2 = extract_feature_sets(Signal(base * 2.0, FS),
                                    Signal(base * 2.0, FS))
    assert v1.names == v2.names
    shift_db = 20.0 * math.log10(2.0)
    for name in v1.names:
        a, b = v1.values[name], v2.values[name]
        if name == "egx.rms_db.mean":
            assert b - a == pytest.approx(shift_db, abs=1e-6)
        else:
            assert b == pytest.approx(a, rel=1e-6, abs=1e-9), name


# ---------------------------------------------------------------------------
# Embedding ingestion

def test_embeddings_jsonl_frame_pooling(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text(json.dumps({"session_id": "s1", "dim": 2,
                             "values": [[1.0, 2.0], [3.0, 4.0]]}) + "\n")
    out = load_embeddings(p, expected_dim=2)
    assert np.array_equal(out["s1"].array(), [2.0, 3.0])
    assert out["s1"].set_tag == "EMBEDDING"
    assert out["s1"].names == ("emb_000", "emb_001")


def test_embeddings_pooled_vector_passthrough(tmp_path):
    vec = list(np.random.default_rng(0).standard_normal(768))
    p = tmp_path / "emb.jsonl"
    p.write_text(json.dumps({"session_id": "s1", "dim": 768, "values": vec})
                 + "\n")
    out = load_embeddings(p, expected_dim=768)
    assert np.allclose(out["s1"].array(), vec, atol=0)


def test_embeddings_nan_names_session_and_dim(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text(json.dumps({"session_id": "bad_one", "dim": 3,
                             "values": [[1.0, None, 3.0]]})
                 .replace("null", "NaN") + "\n")
    with pytest.raises(InputError, match=r"bad_one.*dimension 1"):
        load_embeddings(p, expected_dim=3)


def test_embeddings_dim_mismatch(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text(json.dumps({"session_id": "s1", "dim": 4,
                             "values": [1.0, 2.0, 3.0, 4.0]}) + "\n")
    with pytest.raises(InputError, match="expected 8"):
        load_embeddings(p, expected_dim=8)


def test_embeddings_csv_rows_pool_per_session(tmp_path):
    p = tmp_path / "emb.csv"
    p.write_text("session_id,dim,v0,v1\n"
                 "s1,2,1.0,2.0\n"
                 "s1,2,3.0,4.0\n"
                 "s2,2,5.0,6.0\n")
    out = load_embeddings(p, expected_dim=2)
    assert np.array_equal(out["s1"].array(), [2.0, 3.0])
    assert np.array_equal(out["s2"].array(), [5.0, 6.0])


def test_embeddings_bad_json_line_number(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text(json.dumps({"session_id": "s1", "dim": 1, "values": [1.0]})
                 + "\n{broken\n")
    with pytest.raises(InputError, match="line 2"):
        load_embeddings(p, expected_dim=1)


@pytest.mark.parametrize("name,text,line", [
    ("emb.jsonl", '{"session_id": "s1", "values": [1.0]}', 1),
    ("emb.jsonl", '{"session_id": "s1", "dim": 1, "values": [1.0]}\n[1.0]', 2),
    ("emb.jsonl", '{"session_id": "s1", "dim": null, "values": [1.0]}', 1),
    ("emb.csv", "session_id,dim,v0\ns1,one,1.0", 2),
    ("emb.csv", "s1,1,1.0\ns1,1,x", 2),
    ("emb.csv", "session_id,dim,v0\ns1", 2),
], ids=["jsonl-no-dim", "jsonl-list-line", "jsonl-null-dim", "csv-text-dim",
        "csv-text-value", "csv-no-dim"])
def test_embedding_record_fault_names_file_and_line(tmp_path, name, text,
                                                    line):
    p = tmp_path / name
    p.write_text(text + "\n")
    with pytest.raises(InputError, match=rf"{name} line {line}: malformed"):
        load_embeddings(p, expected_dim=1)


def test_embeddings_frames_must_be_vectors(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text(json.dumps({"session_id": "s1", "dim": 2,
                             "values": [[[1.0, 2.0]]]}) + "\n")
    with pytest.raises(InputError, match="s1: got frames of shape"):
        load_embeddings(p, expected_dim=2)


def test_embeddings_csv_header_is_optional(tmp_path):
    p = tmp_path / "emb.csv"
    p.write_text("s1,2,1.0,2.0\ns1,2,3.0,4.0\n")
    assert np.array_equal(load_embeddings(p, expected_dim=2)["s1"].array(),
                          [2.0, 3.0])


def test_embeddings_empty_file_rejected(tmp_path):
    p = tmp_path / "emb.csv"
    p.write_text("")
    with pytest.raises(InputError):
        load_embeddings(p, expected_dim=2)


def test_embeddings_non_finite_frame_counts_the_session_so_far(tmp_path):
    p = tmp_path / "emb.jsonl"
    p.write_text("".join(json.dumps({"session_id": sid, "dim": 2,
                                     "values": values}) + "\n"
                         for sid, values in (
                             ("s1", [[1.0, 2.0], [3.0, 4.0]]),
                             ("s2", [5.0, 6.0]),
                             ("s1", [[5.0, 6.0], [7.0, float("inf")]]))))
    with pytest.raises(InputError, match=r"emb.jsonl line 3: session s1: "
                       r"non-finite value at frame 3, dimension 1"):
        load_embeddings(p, expected_dim=2)


@pytest.mark.parametrize("name,data,line", [
    ("emb.jsonl", b'{"session_id": "s1", "dim": 1, "values": [1.0]}\n'
                  b'{"session_id": "s\xff", "dim": 1, "values": [1.0]}\n', 2),
    ("emb.csv", b"session_id,dim,v0\ns1,1,1.0\ns1,1,\xff\n", 3),
], ids=["jsonl", "csv"])
def test_embedding_dump_not_utf8_names_its_line(tmp_path, name, data, line):
    p = tmp_path / name
    p.write_bytes(data)
    at = data.index(b"\xff")
    with pytest.raises(ParseError, match=rf"line {line}: .*{name}: not UTF-8 "
                       rf"text: .* at byte {at}$"):
        load_embeddings(p, expected_dim=1)


def test_running_row_sum_is_bitwise_numpy_mean(tmp_path):
    # load_embeddings pools a session by adding its frames, in file order,
    # to a float64 row sum that starts from zeros, then dividing by the
    # frame count. That is bitwise np.mean(axis=0), and so embed-import
    # writes the bytes of a whole-matrix mean, only while numpy's axis-0
    # reduction of a C-ordered table adds its rows in order, starting from
    # 0.0: a -0.0 column pools to 0.0, where a sum started from the first
    # row would keep -0.0. (A one-column table is summed pairwise by
    # numpy, so at dim 1 the bits can differ past 8 frames.)
    rng = np.random.default_rng(0)
    tables = [rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-4, 4, (n, d))
              for n, d in ((1, 768), (2, 2), (7, 3), (9, 5), (200, 768),
                           (1000, 16), (5000, 2))]
    tables += [rng.standard_normal((int(rng.integers(1, 60)),
                                    int(rng.integers(2, 40))))
               for _ in range(40)]
    with_negative_zero = rng.standard_normal((6, 4))
    with_negative_zero[:, 1] = -0.0
    tables += [with_negative_zero, np.full((1, 3), -0.0)]
    for k, table in enumerate(tables):
        total = np.zeros(table.shape[1])
        for row in table:
            total += row
        mean = table.mean(axis=0)
        assert np.array_equal((total / len(table)).view(np.uint64),
                              mean.view(np.uint64)), k
        # through the reader, in records of one to three frames
        p = tmp_path / f"emb{k}.jsonl"
        cuts = np.cumsum(rng.integers(1, 4, len(table)))
        with open(p, "w") as fh:
            for part in np.split(table, cuts[cuts < len(table)]):
                fh.write(json.dumps({"session_id": "s", "dim": table.shape[1],
                                     "values": part.tolist()}) + "\n")
        pooled = load_embeddings(p, expected_dim=table.shape[1])["s"].array()
        assert np.array_equal(pooled.view(np.uint64), mean.view(np.uint64)), k
    assert not np.signbit(with_negative_zero.mean(axis=0)[1])


@pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
def test_embedding_memory_follows_sessions_not_frames(tmp_path, suffix):
    # 20 frames x 768 per session. The pooled result holds about 0.05 MiB
    # a session (768 floats in a dict); a reader that keeps every frame
    # until the file ends grows by about 0.53 MiB a session.
    rng = np.random.default_rng(0)

    def peak_mib(n_sessions):
        p = tmp_path / f"emb{n_sessions}{suffix}"
        with open(p, "w") as fh:
            for s in range(n_sessions):
                frames = np.round(rng.standard_normal((20, 768)), 2).tolist()
                if suffix == ".jsonl":
                    fh.write(json.dumps({"session_id": f"s{s}", "dim": 768,
                                         "values": frames}) + "\n")
                else:
                    fh.writelines(f"s{s},768,{','.join(map(repr, f))}\n"
                                  for f in frames)
        tracemalloc.start()
        try:
            load_embeddings(p, expected_dim=768)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    per_session = (peak_mib(80) - peak_mib(20)) / 60
    assert per_session < 0.1, f"{per_session:.3f} MiB per session"


# ---------------------------------------------------------------------------
# Feature table round trip

def test_feature_csv_round_trip(tmp_path):
    x = Signal(session_like(), FS)
    _, _, allset = extract_feature_sets(x, x)
    vectors = {"sess_b": allset, "sess_a": allset}
    p = tmp_path / "features.csv"
    write_feature_csv(p, vectors)
    names, rows = read_feature_csv(p)
    assert names == list(allset.names)
    assert sorted(rows) == ["sess_a", "sess_b"]
    for name in names:  # repr round trip is exact
        assert rows["sess_a"][name] == allset.values[name]


def test_feature_csv_absent_cells(tmp_path):
    full = FeatureVector("EG_ALL", {"egx.a.mean": 1.5, "egx.b.mean": 2.5})
    partial = FeatureVector("EG_ALL", {"egx.a.mean": 3.5},
                            absent=("egx.b.mean",))
    p = tmp_path / "features.csv"
    write_feature_csv(p, {"s1": full, "s2": partial},
                      names=["egx.a.mean", "egx.b.mean"])
    _, rows = read_feature_csv(p)
    assert rows["s2"] == {"egx.a.mean": 3.5}
    assert rows["s1"] == {"egx.a.mean": 1.5, "egx.b.mean": 2.5}


def test_feature_csv_read_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("id,x\ns1,1.0\n")
    with pytest.raises(InputError, match="session_id"):
        read_feature_csv(p)
    p.write_text("session_id,x\ns1,1.0,9.9\n")
    with pytest.raises(InputError, match="line 2"):
        read_feature_csv(p)
    p.write_text("session_id,x\ns1,1.0\ns1,2.0\n")
    with pytest.raises(InputError, match="duplicate"):
        read_feature_csv(p)
    with pytest.raises(ValidationError):
        write_feature_csv(tmp_path / "empty.csv", {})


def test_feature_csv_duplicate_column_rejected(tmp_path):
    p = tmp_path / "features.csv"
    p.write_text("session_id,a,a\ns1,1.0,2.0\n")
    with pytest.raises(InputError, match="duplicate column 'a'"):
        read_feature_csv(p)


@pytest.mark.parametrize("cell,wording", [("abc", "not a number: 'abc'"),
                                          ("nan", "non-finite"),
                                          ("-inf", "non-finite")])
def test_feature_csv_cell_must_be_a_finite_number(tmp_path, cell, wording):
    p = tmp_path / "features.csv"
    p.write_text(f"session_id,a,b\ns1,1.0,2.0\ns2,3.0,{cell}\n")
    with pytest.raises(InputError, match=rf"line 3: column 'b': {wording}"):
        read_feature_csv(p)


def test_feature_csv_not_utf8_names_its_line(tmp_path):
    p = tmp_path / "features.csv"
    data = b"session_id,a\ns1,1.0\ns\xff2,2.0\n"
    p.write_bytes(data)
    at = data.index(b"\xff")
    with pytest.raises(ParseError, match=rf"line 3: .*features.csv: not "
                       rf"UTF-8 text: .* at byte {at}$"):
        read_feature_csv(p)


def test_feature_csv_cells_follow_the_manifest_rule(tmp_path):
    # a blank cell is absent; finite cells whose sum overflows are kept
    p = tmp_path / "features.csv"
    p.write_text("session_id,a,b\ns1, ,2.5\ns2,1e308,1e308\n")
    assert read_feature_csv(p)[1] == {"s1": {"b": 2.5},
                                      "s2": {"a": 1e308, "b": 1e308}}
