"""Release gate: ten pinned behavioral criteria.

Each test prints exactly one verdict line (written past the capture so it
always reaches the terminal) with the measured values and its runtime
against the stated budget. Any violated bound is a release blocker.
"""

import json
import math
import sys
import textwrap
import time
from contextlib import contextmanager

import numpy as np
import pytest

import oracles
import synth
from synth import make_sine
from cogspeech.cli import main
from cogspeech.corpus import Segment, Timeline, serialize_rttm
from cogspeech.diar_eval import (
    DiarizerAdapter, GridSession, GridSplit, ScoringConfig, der,
    run_grid_search, score_pair,
)
from cogspeech.dsp import (
    Signal, design_highpass, magnitude_response_db,
    measure_loudness, normalize_loudness,
)
from cogspeech.features import (
    extract_feature_sets, formant_bandwidths, jitter_shimmer_hnr, track_f0,
)
from cogspeech.model import (
    TargetSpec, balanced_accuracy, make_fold_plan, nested_cv, pca_apply,
    pca_fit, predict_ridge, ridge_fit, svm_fit, svm_predict,
)
from cogspeech.qc import QcMetrics, estimate_snr_quantile, gate_from_metrics
from cogspeech.streams import build_concatenated, build_prosody_preserved
from cogspeech import wavio

FS = 16000


def ck(failures: list, condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


@contextmanager
def criterion(capsys, num: int, label: str, budget_s: float):
    failures: list = []
    t0 = time.perf_counter()
    try:
        yield failures
    except BaseException as exc:
        with capsys.disabled():
            print(f"criterion {num:2d}: FAIL {label} "
                  f"({type(exc).__name__}: {exc})")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed > budget_s:
        failures.append(f"runtime {elapsed:.1f}s exceeds {budget_s:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else "  [" + "; ".join(failures) + "]"
    with capsys.disabled():
        print(f"criterion {num:2d}: {status} {label} "
              f"({elapsed:.1f}s/{budget_s:.0f}s){detail}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


# ---------------------------------------------------------------------------
# 1. High-pass design analytics

def test_criterion_01_highpass_analytics(capsys):
    with criterion(capsys, 1, "high-pass magnitude response", 1.0) as bad:
        spec = design_highpass(6, 100.0, FS)
        at_100, at_50 = magnitude_response_db(spec, np.array([100.0, 50.0]))
        ck(bad, abs(at_100 - (-3.01)) <= 0.05,
           f"100 Hz response {at_100:.4f} dB outside -3.01 +- 0.05")
        ck(bad, abs(at_50 - (-36.06)) <= 0.5,
           f"50 Hz response {at_50:.4f} dB outside -36.06 +- 0.5")


# ---------------------------------------------------------------------------
# 2. Integrated loudness and normalization

def test_criterion_02_loudness(capsys):
    with criterion(capsys, 2, "loudness measure + normalize", 1.0) as bad:
        x = make_sine(997.0, 5.0, FS, peak=10 ** (-20.0 / 20.0))
        measured = measure_loudness(x).integrated_lufs
        ck(bad, abs(measured - (-23.0)) <= 0.1,
           f"997 Hz sine at -20 dBFS measured {measured:.4f} LUFS")
        first = normalize_loudness(x, target_lufs=-23.0)
        ck(bad, abs(first.output_lufs - (-23.0)) <= 0.2,
           f"normalized output re-measures {first.output_lufs:.4f} LUFS")
        second = normalize_loudness(first.signal, target_lufs=-23.0)
        ck(bad, abs(second.gain_db) <= 0.2,
           f"second pass applies {second.gain_db:.4f} dB, not idempotent")


# ---------------------------------------------------------------------------
# 3. QC gate boundaries and SNR construction

def test_criterion_03_qc_boundaries(capsys):
    with criterion(capsys, 3, "QC strict thresholds + 30 dB SNR", 5.0) as bad:
        nominal = dict(duration_s=20.0, rms_dbfs=-30.0, clip_ratio=0.0,
                       snr_db=30.0, activity_ratio=0.4)
        at_threshold = {
            "duration": dict(nominal, duration_s=15.0),
            "rms": dict(nominal, rms_dbfs=-55.0, snr_db=20.0),
            "clipping": dict(nominal, clip_ratio=0.015),
            "snr": dict(nominal, snr_db=10.0),
        }
        for gate, kwargs in at_threshold.items():
            report = gate_from_metrics(QcMetrics(**kwargs))
            ck(bad, report.overall == "fail" and report.flags[gate] is False,
               f"gate {gate} did not fail exactly at its threshold")
            others = [v for k, v in report.flags.items() if k != gate]
            ck(bad, all(others), f"gate {gate} boundary tripped other gates")

        rng = np.random.default_rng(7)
        n = 20 * FS
        floor = rng.standard_normal(n) * 10 ** (-50.0 / 20.0)
        x = floor.copy()
        burst_len = int(0.4 * 2.0 * FS)
        for start_s in np.arange(0.0, 20.0 - 0.8, 2.0):
            i = int(start_s * FS)
            x[i:i + burst_len] += (rng.standard_normal(burst_len)
                                   * 10 ** (-20.0 / 20.0))
        snr = estimate_snr_quantile(Signal(x, FS))
        ck(bad, abs(snr - 30.0) <= 2.0,
           f"constructed 30 dB SNR estimated as {snr:.2f} dB")


# ---------------------------------------------------------------------------
# 4. Diarization metrics vs frame-level oracle

def _random_timeline(rng) -> Timeline:
    n_spk = int(rng.integers(1, 6))
    speakers = [chr(ord("A") + i) for i in range(n_spk)]
    budget = int(rng.integers(1, 21))
    counts = np.bincount(rng.integers(0, n_spk, size=budget), minlength=n_spk)
    segs = []
    for spk, count in zip(speakers, counts):
        t = int(rng.integers(0, 80))  # 10 ms grid units
        for _ in range(count):
            t += int(rng.integers(0, 120))
            dur = int(rng.integers(5, 250))
            segs.append(Segment(spk, round(t * 0.01, 2), round(dur * 0.01, 2)))
            t += dur
    if not segs:
        segs.append(Segment("A", 0.0, 1.0))
    return Timeline.from_segments(segs)


def _relabel(timeline: Timeline, rng) -> Timeline:
    spks = list(timeline.speakers())
    mapped = dict(zip(spks, rng.permutation([s + "x" for s in spks])))
    return Timeline.from_segments(
        [Segment(mapped[s.speaker], s.onset, s.duration) for s in timeline])


def _triples(timeline: Timeline):
    return [(s.speaker, s.onset, s.end) for s in timeline]


def _rel_match(a: float, b: float) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_criterion_04_diar_metrics_oracle(capsys):
    with criterion(capsys, 4, "DER/JER/purity/coverage vs 10 ms oracle",
                   30.0) as bad:
        rng = np.random.default_rng(42)
        mismatches = identity = perm = 0
        for i in range(200):
            ref = _random_timeline(rng)
            mode = rng.random()
            if mode < 0.15:
                hyp = ref
            elif mode < 0.30:
                hyp = _relabel(ref, rng)
            else:
                hyp = _random_timeline(rng)
            collar = 0.25 if i % 2 == 0 else 0.0
            cfg = ScoringConfig(collar_s=collar)
            got = score_pair(ref, hyp, cfg)
            want = oracles.diar_scores(_triples(ref), _triples(hyp),
                                       collar_s=collar)
            for key in ("der", "jer", "purity", "coverage"):
                if not _rel_match(got[key], want[key]):
                    mismatches += 1
                    if mismatches <= 3:
                        bad.append(f"instance {i} {key}: {got[key]} vs "
                                   f"oracle {want[key]}")
            self_score = der(ref, ref, cfg)
            if self_score.defined and self_score.der != 0.0:
                identity += 1
            relabeled = score_pair(ref, _relabel(hyp, rng), cfg)
            if not _rel_match(got["der"], relabeled["der"]):
                perm += 1
        ck(bad, mismatches == 0, f"{mismatches} oracle mismatches")
        ck(bad, identity == 0, f"der(x,x) nonzero on {identity} instances")
        ck(bad, perm == 0, f"label permutation changed DER on {perm} instances")


# ---------------------------------------------------------------------------
# 5. Stream construction

def test_criterion_05_streams(capsys):
    with criterion(capsys, 5, "concat length/fades + masking identity",
                   10.0) as bad:
        rng = np.random.default_rng(17)
        wrong = 0
        for _ in range(100):
            n_seg = int(rng.integers(1, 8))
            segs, t = [], 0.0
            for _ in range(n_seg):
                t += float(rng.integers(1, 50)) / 100.0
                dur = float(rng.integers(5, 120)) / 100.0
                segs.append(Segment("PAR", round(t, 2), round(dur, 2)))
                t += dur
            x = Signal(rng.standard_normal(int((t + 1) * FS)) * 0.1, FS)
            res = build_concatenated(x, Timeline.from_segments(segs), "PAR")
            pieces = sum(int(round(s.end * FS)) - int(round(s.onset * FS))
                         for s in segs)
            if len(res.signal) != pieces - (n_seg - 1) * 160:
                wrong += 1
        ck(bad, wrong == 0, f"length formula off on {wrong}/100 segmentations")

        step = np.concatenate([np.ones(FS), np.zeros(FS)])
        tl = Timeline.from_segments([Segment("PAR", 0.0, 1.0),
                                     Segment("PAR", 1.0, 1.0)])
        res = build_concatenated(Signal(step, FS), tl, "PAR")
        mid = float(res.signal.samples[res.junctions[0] + 80])
        ck(bad, abs(mid - 0.5) <= 1e-9,
           f"DC cross-fade midpoint {mid!r} not 0.5 +- 1e-9")

        x = Signal(np.random.default_rng(3).standard_normal(4 * FS) * 0.1, FS)
        tl = Timeline.from_segments([
            Segment("PAR", 0.5, 0.7), Segment("INV", 1.3, 0.6),
            Segment("PAR", 2.0, 1.0), Segment("INV", 3.2, 0.6)])
        masked = np.zeros(len(x), dtype=bool)
        for seg in tl:
            if seg.speaker != "PAR":
                masked[int(round(seg.onset * FS)):int(round(seg.end * FS))] = True
        out = build_prosody_preserved(x, tl, "PAR")
        ck(bad, np.all(out.samples[masked] == 0.0),
           "masked regions are not exactly zero")
        ck(bad, np.array_equal(out.samples[~masked], x.samples[~masked]),
           "unmasked samples are not bit-identical")


# ---------------------------------------------------------------------------
# 6. Acoustic features

def _steady_pulses(dur_s: float, **kw) -> Signal:
    # 160 Hz at 16 kHz keeps pulse periods on the sample grid; drop eight
    # periods of integrator warm-up
    raw = synth.pulse_train(160.0, dur_s + 0.05, FS, **kw) * 0.4
    return Signal(raw[800:800 + int(dur_s * FS)], FS)


def test_criterion_06_features(capsys):
    with criterion(capsys, 6, "F0/jitter/formants/gain invariance", 60.0) as bad:
        c = track_f0(make_sine(200.0, 2.0, FS, peak=0.5))
        f0 = float(np.median(c.valid_values()))
        ck(bad, abs(f0 - 200.0) <= 1.0, f"200 Hz sine tracked at {f0:.3f} Hz")

        x = _steady_pulses(3.0, jitter_frac=0.02, seed=0)
        jit, _, _ = jitter_shimmer_hnr(x, track_f0(x))
        jval = float(np.mean(jit.valid_values()))
        ck(bad, abs(jval - 0.02) <= 0.005,
           f"planted 2% perturbation measured as jitter {jval:.4f}")

        v = Signal(synth.vowel(120.0, 2.0, FS, seed=3), FS)
        by_name = {c.name: c for c in formant_bandwidths(v, track_f0(v))}
        f1 = float(np.median(by_name["f1_hz"].valid_values()))
        f2 = float(np.median(by_name["f2_hz"].valid_values()))
        ck(bad, abs(f1 - 500.0) <= 0.05 * 500.0, f"F1 {f1:.1f} Hz vs 500")
        ck(bad, abs(f2 - 1500.0) <= 0.05 * 1500.0, f"F2 {f2:.1f} Hz vs 1500")

        rng = np.random.default_rng(102)
        base = synth.vowel(130.0, 2.5, FS, seed=2, peak=0.25)
        base = base + rng.standard_normal(base.size) * 1e-4
        _, _, v1 = extract_feature_sets(Signal(base, FS), Signal(base, FS))
        _, _, v2 = extract_feature_sets(Signal(base * 2.0, FS),
                                        Signal(base * 2.0, FS))
        shift = 20.0 * math.log10(2.0)
        broken = []
        for name in v1.names:
            a, b = v1.values[name], v2.values[name]
            if name == "egx.rms_db.mean":
                ok = abs((b - a) - shift) <= 1e-6
            else:
                ok = abs(b - a) <= 1e-6 * max(1.0, abs(a))
            if not ok:
                broken.append(name)
        ck(bad, not broken, f"gain invariance violated for {broken[:4]}")


# ---------------------------------------------------------------------------
# 7. Model primitives vs oracles

def test_criterion_07_models(capsys):
    with criterion(capsys, 7, "ridge/PCA oracles + separable SVM", 30.0) as bad:
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 2.0, 2.0])
        model = ridge_fit(X, y, 1.0)
        w_o, b_o = oracles.ridge_normal_equations(X, y, 1.0)
        ck(bad, abs(model.weights[0] - w_o[0]) <= 1e-9
           and abs(model.intercept - b_o) <= 1e-9,
           "ridge fixture deviates from normal-equation oracle beyond 1e-9")

        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(5, 120))
            d = int(rng.integers(1, min(30, n)))
            Xr = rng.standard_normal((n, d))
            yr = rng.standard_normal(n)
            lam = float(rng.choice([0.01, 0.1, 1.0, 10.0, 100.0]))
            m = ridge_fit(Xr, yr, lam)
            w_o, b_o = oracles.ridge_normal_equations(Xr, yr, lam)
            worst = max(worst, float(np.max(np.abs(m.weights - w_o))),
                        abs(m.intercept - b_o))
        ck(bad, worst <= 1e-6, f"random ridge max deviation {worst:.2e}")

        pca_worst = 0.0
        for _ in range(10):
            Xp = rng.standard_normal((60, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
            pm = pca_fit(Xp, 0.95)
            k, projected = oracles.pca_eigendecomposition(Xp, 0.95)
            if pm.components.shape[0] != k:
                bad.append(f"PCA kept {pm.components.shape[0]} comps, oracle {k}")
                continue
            got = pca_apply(pm, Xp)
            pca_worst = max(pca_worst, float(np.max(np.abs(
                got - oracles.match_signs(got, projected)))))
        ck(bad, pca_worst <= 1e-8, f"PCA max deviation {pca_worst:.2e}")

        rng2 = np.random.default_rng(0)
        neg = rng2.normal([-2.0, -1.0], 0.6, (20, 2))
        pos = rng2.normal([2.0, 1.0], 0.6, (20, 2))
        Xs = np.vstack([neg, pos])
        ys = np.concatenate([-np.ones(20), np.ones(20)])
        svm = svm_fit(Xs, ys, C=1.0)
        ba = balanced_accuracy(ys, svm_predict(svm, Xs))
        ck(bad, ba == 1.0, f"separable blobs trained to ba {ba:.3f}")


# ---------------------------------------------------------------------------
# 8. Nested cross-validation integrity

def test_criterion_08_harness_integrity(capsys):
    with criterion(capsys, 8, "NCV leakage/planted/permuted/jobs", 300.0) as bad:
        data = synth.planted_regression(n_subjects=100, n_features=12, seed=5)
        target = TargetSpec(3, "cerad_total", "regression")
        report, fit_log = nested_cv(data, target, seed=0, jobs=1)

        plan = make_fold_plan(data.subject_ids, seed=0)
        outer_eval = [frozenset(f) for f in plan.outer]
        overlap = cross = outer_bad = 0
        for rec in fit_log:
            if rec.train_subjects & rec.eval_subjects:
                overlap += 1
            if rec.stage == "inner":
                if (rec.train_subjects | rec.eval_subjects) & outer_eval[rec.outer_fold]:
                    cross += 1
            elif rec.eval_subjects != outer_eval[rec.outer_fold]:
                outer_bad += 1
        ck(bad, overlap == 0,
           f"{overlap}/{len(fit_log)} fits train on their own eval subjects")
        ck(bad, cross == 0,
           f"{cross} inner fits touched their outer fold's eval subjects")
        ck(bad, outer_bad == 0, f"{outer_bad} outer fits eval off-plan")
        ck(bad, len(fit_log) == 230,
           f"expected 230 instrumented fits, saw {len(fit_log)}")

        r_mean = report.summary["r"]["mean"]
        ck(bad, r_mean >= 0.9, f"planted signal recovered r {r_mean:.3f} < 0.9")

        report4, _ = nested_cv(data, target, seed=0, jobs=4)
        same = (json.dumps(report.to_dict(), sort_keys=True)
                == json.dumps(report4.to_dict(), sort_keys=True))
        ck(bad, same, "CvReport differs between jobs=1 and jobs=4")

        perm = synth.planted_classification(n_subjects=100, n_features=12,
                                            seed=3, permuted=True)
        preport, _ = nested_cv(perm, TargetSpec(3, "mci", "classification"),
                               seed=1, jobs=4)
        ba = preport.summary["balanced_accuracy"]["mean"]
        ck(bad, abs(ba - 0.5) <= 0.1, f"permuted labels scored ba {ba:.3f}")


# ---------------------------------------------------------------------------
# 9. End-to-end rehearsal on a synthetic corpus

def test_criterion_09_end_to_end(capsys, tmp_path):
    with criterion(capsys, 9, "20-session corpus through the full CLI",
                   600.0) as bad:
        corpus = synth.build_corpus(tmp_path / "corpus", n_subjects=20,
                                    seed=1, n_holdout=4)
        manifest = str(corpus["manifest"])
        pre = tmp_path / "pre"
        streams = tmp_path / "streams"
        feats = tmp_path / "features.csv"
        cv_out = tmp_path / "cv.json"
        ho_out = tmp_path / "holdout.json"
        report_dir = tmp_path / "report"

        steps = [
            ("qc", ["qc", "--manifest", manifest,
                    "--out", str(tmp_path / "qc.jsonl"), "--jobs", "2"]),
            ("preprocess", ["preprocess", "--manifest", manifest,
                            "--outdir", str(pre), "--jobs", "2"]),
            ("streams", ["streams", "--manifest", manifest,
                         "--wav-dir", str(pre),
                         "--rttm-dir", str(corpus["root"] / "rttm"),
                         "--outdir", str(streams), "--jobs", "2"]),
            ("features", ["features", "--manifest", manifest,
                          "--prosody-dir", str(streams),
                          "--concat-dir", str(streams),
                          "--set", "EG_ALL", "--out", str(feats),
                          "--jobs", "2"]),
            ("cv", ["cv", "--features", str(feats), "--manifest", manifest,
                    "--level", "3", "--target", "cerad_total",
                    "--kind", "regression", "--seed", "0",
                    "--out", str(cv_out)]),
            ("holdout", ["holdout", "--features", str(feats),
                         "--manifest", manifest, "--level", "3",
                         "--target", "cerad_total", "--kind", "regression",
                         "--config-from", str(cv_out), "--out", str(ho_out)]),
            ("report", ["report", "--cv", str(cv_out),
                        "--holdout", str(ho_out),
                        "--out-dir", str(report_dir)]),
        ]
        for name, argv in steps:
            code = main(argv)
            ck(bad, code == 0, f"step {name} exited {code}")
            if code != 0:
                return

        dev_r = json.loads(cv_out.read_text())["summary"]["r"]["mean"]
        ho_r = json.loads(ho_out.read_text())["metrics"]["r"]
        ck(bad, abs(ho_r - dev_r) <= 0.15,
           f"holdout r {ho_r:.3f} vs dev outer mean {dev_r:.3f}")
        table = (report_dir / "hierarchy_table.csv").read_text()
        ck(bad, "L3-cerad_total" in table, "report table missing the target row")


# ---------------------------------------------------------------------------
# 10. Grid-search harness

_VAD_STUB = textwrap.dedent('''
    import sys
    import numpy as np
    from cogspeech.wavio import read_wav

    wav, out, thr = sys.argv[1], sys.argv[2], float(sys.argv[3])
    x, fs = read_wav(wav)
    win, hop = int(0.025 * fs), int(0.010 * fs)
    n = 1 + max(0, (len(x) - win) // hop)
    spans = []
    start = None
    for i in range(n):
        fr = x[i * hop:i * hop + win]
        db = 20.0 * np.log10(float(np.sqrt(np.mean(fr * fr))) + 1e-12)
        t = i * hop / fs
        if db > thr and start is None:
            start = t
        elif db <= thr and start is not None:
            if t - start >= 0.2:
                spans.append((start, t - start))
            start = None
    if start is not None and n * hop / fs - start >= 0.2:
        spans.append((start, n * hop / fs - start))
    with open(out, "w") as fh:
        for onset, dur in spans:
            fh.write(f"SPEAKER s 1 {onset:.3f} {dur:.3f} "
                     "<NA> <NA> PAR <NA> <NA>\\n")
''')


def _burst_session(root, sid: str, subject: str, seed: int):
    rng = np.random.default_rng(seed)
    spans = [(0.5, 1.5), (2.0, 3.5), (4.0, 5.0)]
    x = rng.standard_normal(6 * FS) * 1e-5
    for onset, end in spans:
        i, j = int(onset * FS), int(end * FS)
        x[i:j] += rng.standard_normal(j - i) * 0.1
    wav = root / f"{sid}.wav"
    wavio.write_wav(wav, x, FS)
    tl = Timeline.from_segments(
        [Segment("PAR", onset, end - onset) for onset, end in spans])
    (root / f"{sid}.rttm").write_text(serialize_rttm(tl, recording_id=sid))
    return GridSession(session_id=sid, subject_id=subject,
                       audio_path=str(wav), reference=tl)


def _line_session(root, sid: str, subject: str):
    rng = np.random.default_rng(4)
    wav = root / f"{sid}.wav"
    wavio.write_wav(wav, rng.standard_normal(2 * FS) * 0.05, FS)
    segs = [Segment("PAR" if i % 2 == 0 else "INV", 1.0 * i, 0.8)
            for i in range(14)]
    tl = Timeline.from_segments(segs)
    (root / f"{sid}.rttm").write_text(serialize_rttm(tl, recording_id=sid))
    return GridSession(session_id=sid, subject_id=subject,
                       audio_path=str(wav), reference=tl)


def test_criterion_10_grid_search(capsys, tmp_path):
    with criterion(capsys, 10, "identity/degraded ranking + 2520-point grid",
                   600.0) as bad:
        root = tmp_path / "sessions"
        root.mkdir()
        sessions = [_burst_session(root, "sa", "SA", seed=1),
                    _burst_session(root, "sb", "SB", seed=2)]
        split = GridSplit(tuning_subjects=frozenset({"SA"}),
                          validation_subjects=frozenset({"SB"}))

        echo = DiarizerAdapter(f"cp {root}/{{session_id}}.rttm {{output}}")
        results = run_grid_search({"gate_alpha": [0.3]}, sessions, echo, split,
                                  workdir=tmp_path / "w0")
        ck(bad, results[0].tuning["der"] == 0.0
           and results[0].validation["der"] == 0.0,
           f"identity adapter scored tuning {results[0].tuning['der']}, "
           f"validation {results[0].validation['der']}")

        stub = tmp_path / "vad_stub.py"
        stub.write_text(_VAD_STUB)
        vad = DiarizerAdapter(
            f"{sys.executable} {stub} {{input}} {{output}} {{threshold_db}}")
        schema = {"loudness_target_lufs": [-23.0, -103.0],
                  "diarizer.threshold_db": [-45.0]}
        ranked = run_grid_search(schema, sessions, vad, split,
                                 workdir=tmp_path / "w1")
        top, low = ranked[0], ranked[1]
        ck(bad, dict(top.point.params)["loudness_target_lufs"] == -23.0,
           "clean preprocessing did not rank first")
        ck(bad, top.tuning["der"] <= 0.05,
           f"clean point DER {top.tuning['der']:.3f}")
        ck(bad, low.status == "ok" and low.tuning["der"] >= 0.9,
           f"-80 dB degraded point DER {low.tuning and low.tuning['der']}")

        big_root = tmp_path / "big"
        big_root.mkdir()
        big = [_line_session(big_root, "g1", "GA"),
               _line_session(big_root, "g2", "GB")]
        big_split = GridSplit(tuning_subjects=frozenset({"GA"}),
                              validation_subjects=frozenset({"GB"}))
        head = DiarizerAdapter(
            f"head -n {{keep_lines}} {big_root}/{{session_id}}.rttm "
            f"> {{output}}")
        big_schema = {
            "gate_alpha": [0.0, 1.0],
            "highpass_cutoff_hz": [65.0, 80.0, 100.0],
            "diarizer.keep_lines": [2, 4, 6, 8, 10, 12, 14],
            "diarizer.pad": [0, 1, 2, 3, 4],
            "diarizer.tag": [f"t{i:02d}" for i in range(12)],
        }
        run_a = run_grid_search(big_schema, big, head, big_split,
                                workdir=tmp_path / "wa", jobs=6)
        run_b = run_grid_search(big_schema, big, head, big_split,
                                workdir=tmp_path / "wb", jobs=2)
        ck(bad, len(run_a) == 2520, f"{len(run_a)} results, expected 2520")
        failed = sum(1 for r in run_a if r.status != "ok")
        ck(bad, failed == 0, f"{failed} grid points failed")
        sig_a = [(r.point.index, r.status,
                  None if r.tuning is None else r.tuning["der"]) for r in run_a]
        sig_b = [(r.point.index, r.status,
                  None if r.tuning is None else r.tuning["der"]) for r in run_b]
        ck(bad, sig_a == sig_b, "ranking differs between jobs=6 and jobs=2")
        top_params = dict(run_a[0].point.params)
        ck(bad, top_params["diarizer.keep_lines"] == 14,
           f"top point keeps {top_params['diarizer.keep_lines']} lines")
        ck(bad, run_a[0].validation["der"] == 0.0,
           f"top point validation DER {run_a[0].validation['der']}")
