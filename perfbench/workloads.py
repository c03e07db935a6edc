"""The four benchmark workloads.

Each workload has two halves. The benchmark process synthesizes inputs
from the seed and checks outputs (``synthesize``, ``check``); the
workload process loads the inputs through cogspeech's own loaders and
runs timed passes over them (``load``, ``run_pass``, ``finish``). The
workload half imports cogspeech lazily, so that set-up time starts from a
bare interpreter.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import time
from pathlib import Path

import numpy as np

FS = 16000
PARTICIPANT = "PAR"
FADE_SAMPLES = 160          # cogspeech.streams' 10 ms cross-fade at 16 kHz
PLANTED_F1_HZ, PLANTED_F2_HZ = 500.0, 1500.0
SEMITONE_REF_HZ = 27.5
CV_SEED = 1                 # fold-plan seed handed to nested_cv
COLLAR_S = 0.25
REL_TOL = 1e-9              # oracle agreement for DER/JER/purity/coverage

# Check thresholds (README, "Checks"). The per-session F1 bound is wider
# than the corpus-level one: LPC formants are pulled toward the nearest
# F0 harmonic, measured at up to 6.2% for a single session.
F0_TOL_ST = 0.25
FORMANT_TOL = 0.05
F1_SESSION_TOL = 0.10
CV_MIN_R = 0.9
HOLDOUT_MAX_GAP = 0.15
RIDGE_MIN_R = 0.5
SVM_MIN_BA = 0.6


def semitones(hz: float) -> float:
    return 12.0 * math.log2(hz / SEMITONE_REF_HZ)


def rel_match(a: float, b: float) -> bool:
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _write_manifest(path: Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# domain_range = 40, 160\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _manifest_row(session_id, subject_id, split, audio_path, **labels) -> dict:
    row = {"session_id": session_id, "subject_id": subject_id,
           "group": "MCI" if labels.get("mci", 0) else "HC", "task": "MMSE",
           "split": split, "audio_path": audio_path, "sample_rate": FS,
           "pf": 15.0, "vf": 18.0, "rl": 50.0, "rw": 45.0, "bnt": 13.0,
           "mmse": 27.0, "lan": 100.0, "mem": 100.0, "exe": 100.0,
           "vis": 100.0, "cerad_total": 90.0, "cerad_binary": 1, "mci": 0}
    row.update(labels)
    return row


def _rttm_spans(path) -> list[tuple[str, float, float]]:
    """(speaker, onset, end) from RTTM text, parsed without cogspeech."""
    out = []
    for line in Path(path).read_text().splitlines():
        f = line.split()
        if f and f[0] == "SPEAKER":
            onset, dur = float(f[3]), float(f[4])
            out.append((f[7], onset, onset + dur))
    return out


def expected_concat_length(spans, n_samples: int) -> int:
    """Participant samples spliced with one fade per faded junction;
    a junction fades when both pieces are at least two fades long."""
    pieces = []
    for spk, onset, end in sorted(spans, key=lambda s: (s[1], s[2], s[0])):
        if spk != PARTICIPANT:
            continue
        a = max(0, int(round(onset * FS)))
        b = min(n_samples, int(round(end * FS)))
        if b > a:
            pieces.append(b - a)
    faded = sum(1 for p, q in zip(pieces, pieces[1:])
                if p >= 2 * FADE_SAMPLES and q >= 2 * FADE_SAMPLES)
    return sum(pieces) - FADE_SAMPLES * faded


def read_feature_table(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {r["session_id"]: {k: float(v) for k, v in r.items()
                              if k != "session_id" and v != ""}
            for r in rows}


class Workload:
    name = ""
    ops_per_pass = 0
    # per-layer metric names this workload's traced pass produces
    provides: frozenset = frozenset()

    def synthesize(self, inputs: Path, seed: int, size: str) -> dict:
        raise NotImplementedError

    def load(self, inputs: Path, plan: dict):
        raise NotImplementedError

    def run_pass(self, ctx, out: Path, tracer) -> tuple[list, dict]:
        """Timed body. Returns (one error string or None per operation,
        payload for ``finish``)."""
        raise NotImplementedError

    def finish(self, ctx, out: Path, payload: dict) -> str:
        """Untimed: persist what the checks need; return the digest that
        must repeat across passes."""
        raise NotImplementedError

    def trace_values(self, ctx, out: Path, payloads: list) -> dict:
        """Untimed per-layer values beyond span times."""
        return {}

    def check(self, inputs: Path, plan: dict, out: Path) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Audio through the CLI: corpus-short and long-recording

AUDIO_STAGES = ("qc", "preprocess", "streams", "features")
_AUDIO_LAYERS = frozenset({
    "cli.qc_s", "cli.preprocess_s", "cli.streams_s", "cli.features_s",
    "corpus.load_manifest_s", "corpus.load_rttm_s", "wavio.read_s",
    "wavio.write_s", "qc.qc_gate_s", "dsp.highpass_s", "dsp.spectral_gate_s",
    "dsp.loudness_s", "dsp.spectral_gate_peak_alloc_mb", "streams.prosody_s",
    "streams.concat_s", "streams.audit_s", "features.track_f0_s",
    "features.jitter_shimmer_hnr_s", "features.spectral_slopes_s",
    "features.formants_s", "features.extract_s",
    "features.extract_peak_alloc_mb", "audio_rtf",
})


class AudioWorkload(Workload):
    stages: tuple = AUDIO_STAGES
    provides = _AUDIO_LAYERS
    max_jobs = 1

    def jobs(self) -> int:
        """The CLI's --jobs: never more than the usable cores."""
        return max(1, min(self.max_jobs, len(os.sched_getaffinity(0))))

    def load(self, inputs: Path, plan: dict):
        from cogspeech import corpus, wavio
        manifest_path = inputs / "manifest.csv"
        manifest = corpus.load_manifest(manifest_path)
        audio_s = 0.0
        for rec in manifest.records:
            samples, rate = wavio.read_wav(inputs / rec.audio_path)
            audio_s += len(samples) / rate
            corpus.load_rttm(inputs / "rttm" / f"{rec.session_id}.rttm")
        return {"manifest": str(manifest_path), "rttm": str(inputs / "rttm"),
                "audio_s": audio_s,
                "sessions": [r.session_id for r in manifest.records]}

    def argv(self, ctx, out: Path) -> list:
        m, j = ctx["manifest"], str(self.jobs())
        streams = str(out / "streams")
        return [
            ("qc", ["qc", "--manifest", m, "--out", str(out / "qc" / "qc.jsonl"),
                    "--jobs", j]),
            ("preprocess", ["preprocess", "--manifest", m,
                            "--outdir", str(out / "pre"), "--jobs", j]),
            ("streams", ["streams", "--manifest", m, "--wav-dir", str(out / "pre"),
                         "--rttm-dir", ctx["rttm"], "--outdir", streams,
                         "--jobs", j]),
            ("features", ["features", "--manifest", m, "--prosody-dir", streams,
                          "--concat-dir", streams, "--set", "EG_ALL",
                          "--out", str(out / "features" / "features.csv"),
                          "--jobs", j]),
        ]

    def run_pass(self, ctx, out, tracer):
        from cogspeech import cli
        errors, stage_s = [], {}
        for name, argv in self.argv(ctx, out):
            t0 = time.perf_counter()
            with tracer.span(f"cli.{name}"):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a crashed stage is a failed operation
                    code = f"{type(exc).__name__}: {exc}"
            stage_s[name] = time.perf_counter() - t0
            errors.append(None if code == 0 else f"{name} exited {code}")
        return errors, {"stage_s": stage_s}

    def digest_files(self, out: Path) -> list:
        return [out / "features" / "features.csv"]

    def finish(self, ctx, out, payload):
        h = hashlib.sha256()
        for path in self.digest_files(out):
            h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()

    def audio_rtf(self, ctx, payload) -> float:
        busy = sum(payload["stage_s"][s] for s in AUDIO_STAGES)
        return ctx["audio_s"] / busy

    def trace_values(self, ctx, out, payloads):
        """tracemalloc peak around one spectral_gate and one feature
        extraction call on the first session; RTF from the passes."""
        import tracemalloc
        from cogspeech import dsp, features, wavio
        sid = ctx["sessions"][0]
        values = {"audio_rtf": float(np.median(
            [self.audio_rtf(ctx, p) for p in payloads]))}
        calls = (
            ("dsp.spectral_gate_peak_alloc_mb", lambda: dsp.spectral_gate(
                dsp.Signal(*wavio.read_wav(out / "pre" / f"{sid}.wav")))),
            ("features.extract_peak_alloc_mb", lambda: features.extract_feature_sets(
                dsp.Signal(*wavio.read_wav(out / "streams" / f"{sid}.prosody.wav")),
                dsp.Signal(*wavio.read_wav(out / "streams" / f"{sid}.concat.wav")))),
        )
        for metric, call in calls:
            tracemalloc.start()
            try:
                call()
                values[metric] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()
        return values

    def check(self, inputs, plan, out):
        bad = []
        sessions = plan["sessions"]
        qc_lines = [json.loads(line) for line in
                    (out / "qc" / "qc.jsonl").read_text().splitlines()]
        if len(qc_lines) != len(sessions):
            bad.append(f"qc reported {len(qc_lines)} of {len(sessions)} sessions")
        bad += [f"qc: {q['session_id']} is {q['overall']}" for q in qc_lines
                if q["overall"] != "pass"]

        from scipy.io import wavfile
        for sid in sessions:
            n_in = wavfile.read(inputs / "audio" / f"{sid}.wav")[1].shape[0]
            got = wavfile.read(out / "streams" / f"{sid}.concat.wav")[1].shape[0]
            want = expected_concat_length(
                _rttm_spans(inputs / "rttm" / f"{sid}.rttm"), n_in)
            if got != want:
                bad.append(f"{sid}: concatenated stream has {got} samples, "
                           f"RTTM spans give {want}")

        bad += check_features(read_feature_table(out / "features" / "features.csv"),
                              plan["planted_f0_st"])
        return bad


def check_features(table: dict, planted_f0_st: dict) -> list[str]:
    """Planted pitch per session; planted formants per session and over
    the workload."""
    bad = []
    if sorted(table) != sorted(planted_f0_st):
        return [f"feature table sessions {sorted(table)} != "
                f"{sorted(planted_f0_st)}"]
    f1s, f2s = [], []
    for sid, want_st in planted_f0_st.items():
        row = table[sid]
        got_st = row.get("egx.f0_semitone.mean", float("nan"))
        if not abs(got_st - want_st) <= F0_TOL_ST:
            bad.append(f"{sid}: f0 {got_st:.3f} st vs planted {want_st:.3f} st")
        f1 = row.get("egx.f1_hz.mean", float("nan"))
        f2 = row.get("egx.f2_hz.mean", float("nan"))
        if not abs(f1 - PLANTED_F1_HZ) <= F1_SESSION_TOL * PLANTED_F1_HZ:
            bad.append(f"{sid}: F1 {f1:.1f} Hz vs planted {PLANTED_F1_HZ}")
        if not abs(f2 - PLANTED_F2_HZ) <= FORMANT_TOL * PLANTED_F2_HZ:
            bad.append(f"{sid}: F2 {f2:.1f} Hz vs planted {PLANTED_F2_HZ}")
        f1s.append(f1)
        f2s.append(f2)
    for label, vals, planted in (("F1", f1s, PLANTED_F1_HZ),
                                 ("F2", f2s, PLANTED_F2_HZ)):
        mean = float(np.mean(vals))
        if not abs(mean - planted) <= FORMANT_TOL * planted:
            bad.append(f"mean {label} {mean:.1f} Hz vs planted {planted}")
    return bad


class CorpusShort(AudioWorkload):
    """Many short sessions through every CLI stage at --jobs 2."""

    name = "corpus-short"
    stages = AUDIO_STAGES + ("cv", "holdout", "report")
    ops_per_pass = len(stages)
    provides = _AUDIO_LAYERS | {"cli.cv_s", "cli.holdout_s", "cli.report_s"}
    # 16 development subjects give every outer fold three or four test
    # subjects. With 10, each fold's Pearson r is +-1 and one swapped pair
    # of neighbouring subjects fails cv r >= 0.9 (2 of 20 seeds did).
    N_SUBJECTS, N_HOLDOUT = 20, 4
    max_jobs = 2

    def synthesize(self, inputs, seed, size):
        import synth
        built = synth.build_corpus(inputs, n_subjects=self.N_SUBJECTS, seed=seed,
                                   n_holdout=self.N_HOLDOUT)
        truth = built["truth"]
        return {"sessions": sorted(t["session_id"] for t in truth.values()),
                "planted_f0_st": {t["session_id"]: semitones(140.0 + 20.0 * t["z"])
                                  for t in truth.values()}}

    def argv(self, ctx, out):
        m, feats = ctx["manifest"], str(out / "features" / "features.csv")
        cv_json, ho_json = str(out / "cv" / "cv.json"), str(out / "holdout" / "holdout.json")
        target = ["--level", "3", "--target", "cerad_total", "--kind", "regression"]
        return super().argv(ctx, out) + [
            ("cv", ["cv", "--features", feats, "--manifest", m, *target,
                    "--seed", "0", "--jobs", str(self.jobs()), "--out", cv_json]),
            ("holdout", ["holdout", "--features", feats, "--manifest", m, *target,
                         "--config-from", cv_json, "--out", ho_json]),
            ("report", ["report", "--cv", cv_json, "--holdout", ho_json,
                        "--out-dir", str(out / "report")]),
        ]

    def digest_files(self, out):
        return super().digest_files(out) + [out / "cv" / "cv.json"]

    def check(self, inputs, plan, out):
        bad = super().check(inputs, plan, out)
        cv_r = json.loads((out / "cv" / "cv.json").read_text())["summary"]["r"]["mean"]
        ho_r = json.loads((out / "holdout" / "holdout.json").read_text())["metrics"]["r"]
        if not cv_r >= CV_MIN_R:
            bad.append(f"cv r {cv_r:.3f} < {CV_MIN_R}")
        if not abs(ho_r - cv_r) <= HOLDOUT_MAX_GAP:
            bad.append(f"holdout r {ho_r:.3f} vs cv r {cv_r:.3f}")
        return bad


class LongRecording(AudioWorkload):
    """One recording made of synthetic sessions laid end to end, through
    the audio stages at --jobs 1."""

    name = "long-recording"
    ops_per_pass = len(AUDIO_STAGES)
    N_SESSIONS = {"full": 6, "smoke": 1}

    def synthesize(self, inputs, seed, size):
        import synth
        from cogspeech import wavio
        n = self.N_SESSIONS[size]
        z = np.linspace(-1.5, 1.5, n)
        np.random.default_rng(seed).shuffle(z)
        pieces, lines, offset = [], [], 0
        for k, zk in enumerate(z):
            x, tl = synth.render_session(float(zk), FS, seed=seed * 1000 + k)
            for s in tl:
                lines.append(f"SPEAKER LONG 1 {s.onset + offset / FS:.3f} "
                             f"{s.duration:.3f} <NA> <NA> {s.speaker} <NA> <NA>")
            pieces.append(x)
            offset += len(x)
        sid = "LONG_MMSE"
        (inputs / "rttm").mkdir(parents=True)
        (inputs / "rttm" / f"{sid}.rttm").write_text("\n".join(lines) + "\n")
        wavio.write_wav(inputs / "audio" / f"{sid}.wav", np.concatenate(pieces), FS)
        _write_manifest(inputs / "manifest.csv", [
            _manifest_row(sid, "LONG", "development", f"audio/{sid}.wav")])
        # every session has the same participant layout, so the recording's
        # mean pitch in semitones is the mean over its sessions
        planted = float(np.mean([semitones(140.0 + 20.0 * v) for v in z]))
        return {"sessions": [sid], "planted_f0_st": {sid: planted}}


# ---------------------------------------------------------------------------
# cv-hierarchy: nested CV over a synthetic 32-column table


CV_TARGETS = (
    # key, level, name, kind, span
    ("L1-MMSE", 1, "MMSE", "regression", "model.nested_cv_ridge"),
    ("L2-MEM", 2, "MEM", "regression", "model.nested_cv_ridge"),
    ("L3-cerad_total", 3, "cerad_total", "regression", "model.nested_cv_ridge"),
    ("L3-cerad_binary", 3, "cerad_binary", "classification", "model.nested_cv_svm"),
    ("L3-mci-permuted", 3, "mci", "classification", "model.nested_cv_svm_null"),
)


class CvHierarchy(Workload):
    """model.nested_cv at jobs=1: ridge targets at levels 1-3, a planted
    SVM target and a permuted-label SVM target."""

    name = "cv-hierarchy"
    ops_per_pass = len(CV_TARGETS)
    provides = frozenset({"model.nested_cv_ridge_s", "model.nested_cv_svm_s",
                          "model.nested_cv_svm_null_s", "model.svm_fit_s",
                          "model.ridge_fit_s", "model.pca_fit_s", "model.fits",
                          "model.svm_iterations", "model.svm_not_converged"})
    N_SUBJECTS, N_TRAITS, NOISE = 30, 3, 1.0
    # The table is one fixed draw: 32 noisy mixtures of three latent
    # traits, as acoustic features co-vary with a few underlying factors.
    # The seed draws the ridge targets on those traits. Both SVM targets
    # are fixed with the table: SMO's cost depends on the labels, so this
    # keeps most of a pass the same on every seed, and the permuted
    # target's check cannot fail by chance on some seed.
    TABLE_SEED = 3
    # Under permuted labels balanced accuracy has a sampling SD near
    # 0.5 / sqrt(n); the check allows three of them around chance.
    NULL_BA_BAND = 3 * 0.5 / math.sqrt(N_SUBJECTS)

    def synthesize(self, inputs, seed, size):
        from cogspeech.features import EG_ALL_NAMES
        n, d = self.N_SUBJECTS, len(EG_ALL_NAMES)
        fixed = np.random.default_rng(self.TABLE_SEED)
        traits = fixed.standard_normal((n, self.N_TRAITS))
        X = (traits @ fixed.normal(size=(self.N_TRAITS, d))
             + self.NOISE * fixed.standard_normal((n, d)))

        def planted(rng, offset, scale, var_snr=10.0):
            signal = traits @ rng.normal(size=self.N_TRAITS)
            y = signal + rng.normal(0.0, signal.std() / math.sqrt(var_snr), n)
            return offset + scale * y / y.std()

        binary = (planted(fixed, 0.0, 1.0) > 0).astype(int)
        mci = fixed.permutation(np.arange(n) % 2)
        rng = np.random.default_rng(seed)
        mmse, mem, total = (planted(rng, 24.0, 2.0), planted(rng, 100.0, 10.0),
                            planted(rng, 85.0, 8.0))
        targets = {"L1-MMSE": mmse, "L2-MEM": mem, "L3-cerad_total": total,
                   "L3-cerad_binary": np.where(binary > 0, 1.0, -1.0),
                   "L3-mci-permuted": np.where(mci > 0, 1.0, -1.0)}

        subjects = [f"C{i:03d}" for i in range(n)]
        rows = [_manifest_row(f"{s}_MMSE", s, "development", f"audio/{s}_MMSE.wav",
                              mmse=round(float(mmse[i]), 6),
                              mem=round(float(mem[i]), 6),
                              cerad_total=round(float(total[i]), 6),
                              cerad_binary=int(binary[i]), mci=int(mci[i]))
                for i, s in enumerate(subjects)]
        inputs.mkdir(parents=True, exist_ok=True)
        _write_manifest(inputs / "manifest.csv", rows)
        with open(inputs / "features.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["session_id", *EG_ALL_NAMES])
            for i, s in enumerate(subjects):
                writer.writerow([f"{s}_MMSE", *(repr(float(x)) for x in X[i])])
        # rounded as written, so the checks see what the program reads
        targets = {k: [round(float(t), 6) for t in y] for k, y in targets.items()}
        return {"subjects": subjects, "X": X.tolist(), "targets": targets}

    def load(self, inputs, plan):
        from cogspeech import corpus, features, model
        manifest = corpus.load_manifest(inputs / "manifest.csv")
        names, rows = features.read_feature_csv(inputs / "features.csv")
        recs = sorted(manifest.records, key=lambda r: r.session_id)
        datasets = []
        for key, level, name, kind, span in CV_TARGETS:
            spec = model.TargetSpec(level=level, name=name, kind=kind)
            data = model.Dataset(
                X=np.array([[rows[r.session_id][f] for f in names] for r in recs]),
                y=np.array([model.extract_target(r.labels, spec) for r in recs]),
                subject_ids=tuple(r.subject_id for r in recs),
                session_ids=tuple(r.session_id for r in recs),
                feature_names=tuple(names))
            datasets.append((key, spec, data, span))
        return datasets

    def run_pass(self, ctx, out, tracer):
        from cogspeech import model
        errors, results = [], {}
        for key, spec, data, span in ctx:
            with tracer.span(span):
                try:
                    results[key] = model.nested_cv(data, spec, seed=CV_SEED, jobs=1)
                except Exception as exc:  # a failed target is a failed operation
                    results[key] = None
                    errors.append(f"{key}: {type(exc).__name__}: {exc}")
                    continue
            errors.append(None)
        return errors, results

    def finish(self, ctx, out, payload):
        doc = {}
        for key, res in payload.items():
            if res is None:
                doc[key] = None
                continue
            report, fit_log = res
            doc[key] = {"report": report.to_dict(), "fit_log": [
                [r.stage, r.outer_fold, r.inner_fold, r.config_index,
                 sorted(r.train_subjects), sorted(r.eval_subjects)]
                for r in fit_log]}
        text = json.dumps(doc, sort_keys=True)
        out.mkdir(parents=True, exist_ok=True)
        (out / "cv_reports.json").write_text(text)
        return hashlib.sha256(text.encode()).hexdigest()

    def trace_values(self, ctx, out, payloads):
        """Replay every fit of the first pass through make_fold_plan and
        fit_pipeline, counting fits and SMO outcomes."""
        from cogspeech import errors as cs_errors, model
        fits = iterations = not_converged = 0
        for key, spec, data, _ in ctx:
            report, _ = payloads[0][key]
            labels = (dict(zip(data.subject_ids, data.y.tolist()))
                      if spec.kind == "classification" else None)
            plan = model.make_fold_plan(data.subject_ids, seed=CV_SEED, labels=labels)
            grid = model.default_grid(spec.kind)
            units = [(plan.outer_train_subjects(f) - set(inner), grid[c])
                     for f in range(len(plan.outer))
                     for c in range(len(grid)) for inner in plan.inner[f]]
            units += [(plan.outer_train_subjects(f), fold.best_config)
                      for f, fold in enumerate(report.folds)]
            for train, config in units:
                rows = data.rows_for(train)
                try:
                    pipe = model.fit_pipeline(data.X[rows], data.y[rows], config)
                except cs_errors.ValidationError:
                    continue
                fits += 1
                if isinstance(pipe.model, model.SvmModel):
                    iterations += pipe.model.iterations
                    not_converged += not pipe.model.converged
        return {"model.fits": fits, "model.svm_iterations": iterations,
                "model.svm_not_converged": not_converged}

    def check(self, inputs, plan, out):
        doc = json.loads((out / "cv_reports.json").read_text())
        X = np.array(plan["X"])
        bad = []
        for key, level, name, kind, _ in CV_TARGETS:
            entry = doc.get(key)
            if entry is None:
                bad.append(f"{key}: no result")
                continue
            y = np.array(plan["targets"][key])
            bad += check_fit_log(entry["fit_log"], plan["subjects"], y, kind)
            summary = entry["report"]["summary"]
            if kind == "regression":
                r = summary["r"]["mean"]
                if not r >= RIDGE_MIN_R:
                    bad.append(f"{key}: planted target recovered at r {r:.3f} "
                               f"< {RIDGE_MIN_R}")
                bad += check_refit_ridge(key, X, y,
                                         entry["report"]["majority_vote_config_params"])
            elif key.endswith("permuted"):
                ba = summary["balanced_accuracy"]["mean"]
                if not abs(ba - 0.5) <= self.NULL_BA_BAND:
                    bad.append(f"{key}: balanced accuracy {ba:.3f} outside "
                               f"0.5 +- {self.NULL_BA_BAND:.3f}")
            else:
                ba = summary["balanced_accuracy"]["mean"]
                if not ba >= SVM_MIN_BA:
                    bad.append(f"{key}: planted target recovered at balanced "
                               f"accuracy {ba:.3f} < {SVM_MIN_BA}")
        return bad


def check_fit_log(fit_log, subjects, y, kind) -> list[str]:
    """Disjoint train/eval sets that match the fold plan recomputed from
    the subjects, and the expected number of fits."""
    from cogspeech import model
    labels = dict(zip(subjects, y.tolist())) if kind == "classification" else None
    plan = model.make_fold_plan(subjects, seed=CV_SEED, labels=labels)
    everyone = set(subjects)
    if sorted(s for fold in plan.outer for s in fold) != sorted(everyone):
        return ["outer folds do not partition the subjects"]
    n_grid = len(model.default_grid(kind))
    want = len(plan.outer) * len(plan.inner[0]) * n_grid + len(plan.outer)
    bad = []
    if len(fit_log) != want:
        bad.append(f"{len(fit_log)} fits logged, expected {want}")
    for stage, outer, inner, _, train, ev in fit_log:
        train, ev = set(train), set(ev)
        if train & ev:
            bad.append(f"{stage} fit (outer {outer}, inner {inner}) trains on "
                       f"its eval subjects {sorted(train & ev)}")
            continue
        if stage == "inner":
            want_ev = set(plan.inner[outer][inner])
            want_train = everyone - set(plan.outer[outer]) - want_ev
        else:
            want_ev = set(plan.outer[outer])
            want_train = everyone - want_ev
        if (train, ev) != (want_train, want_ev):
            bad.append(f"{stage} fit (outer {outer}, inner {inner}) is off the "
                       f"fold plan")
    return bad


def check_refit_ridge(key, X, y, params) -> list[str]:
    import oracles
    from cogspeech import model
    config = model.config_from_dict(params)
    pipe = model.fit_pipeline(X, y, config)
    w, b = oracles.ridge_normal_equations(pipe.transform(X), y, config.lam)
    gap = max(float(np.max(np.abs(pipe.model.weights - w))),
              abs(pipe.model.intercept - b))
    if gap > 1e-6:
        return [f"{key}: refit ridge deviates from the normal equations by {gap:.2e}"]
    return []


# ---------------------------------------------------------------------------
# diar-scoring: score_pair ladder and one grid search

DIAR_LADDER = {
    # key: (segments, speakers) at full size, smoke size
    "100seg": ((100, 2), (40, 2)),
    "400seg": ((400, 2), (80, 2)),
    "1600seg": ((1600, 2), (160, 2)),
    "8spk": ((400, 8), (60, 8)),
    "9spk": ((400, 9), (60, 9)),
}
GRID_SCHEMA = {"diarizer.variant": [0, 1, 2, 3], "gate_alpha": [0.3, 0.5]}
GRID_SESSIONS = (("GA", "tuning"), ("GB", "tuning"), ("GC", "validation"))
GRID_SEGMENTS = {"full": 400, "smoke": 60}


def random_timeline(rng, n_segments: int, n_speakers: int, prefix: str) -> list:
    """(speaker, onset, end) in 10 ms frames; cross-speaker overlap
    allowed, same-speaker overlap never."""
    speakers = [f"{prefix}{k}" for k in range(n_speakers)]
    free_at = dict.fromkeys(speakers, 0)
    segs, t, prev = [], int(rng.integers(0, 50)), None
    for i in range(n_segments):
        if i < n_speakers:
            spk = speakers[i]  # every speaker appears
        else:
            spk = speakers[int(rng.integers(n_speakers))]
            if spk == prev:
                spk = speakers[(speakers.index(spk) + 1) % n_speakers]
        onset = t
        if segs and rng.random() < 0.15:
            onset = t - int(rng.integers(5, 60))  # overlap the previous turn
        onset = max(onset, free_at[spk], 0)
        end = onset + int(rng.integers(30, 300))
        segs.append((spk, onset, end))
        free_at[spk] = end
        t, prev = max(t, end) + int(rng.integers(0, 80)), spk
    return segs


def perturb(rng, segs, mapping: dict, jitter: int, p_drop: float,
            p_confuse: float, p_false_alarm: float) -> list:
    """A hypothesis: relabelled speakers, boundary jitter in frames,
    dropped turns, confused labels and short false alarms."""
    labels = sorted(set(mapping.values()))
    out = []
    for spk, onset, end in segs:
        if rng.random() < p_drop:
            continue
        label = mapping[spk]
        if len(labels) > 1 and rng.random() < p_confuse:
            label = labels[(labels.index(label) + 1) % len(labels)]
        a = max(0, onset + int(rng.integers(-jitter, jitter + 1)))
        b = end + int(rng.integers(-jitter, jitter + 1))
        if b - a >= 5:
            out.append((label, a, b))
        if rng.random() < p_false_alarm:
            fa = end + int(rng.integers(5, 40))
            out.append((labels[int(rng.integers(len(labels)))], fa,
                        fa + int(rng.integers(10, 50))))
    by_speaker: dict = {}
    for label, a, b in sorted(out, key=lambda s: (s[1], s[2])):
        if label in by_speaker and a < by_speaker[label][-1][1]:
            a = by_speaker[label][-1][1]  # keep each speaker's turns disjoint
        if b - a >= 5:
            by_speaker.setdefault(label, []).append((a, b))
    return sorted(((lab, a, b) for lab, spans in by_speaker.items() for a, b in spans),
                  key=lambda s: (s[1], s[2], s[0]))


def write_rttm(path: Path, segs, recording: str) -> None:
    path.write_text("".join(
        f"SPEAKER {recording} 1 {a / 100:.3f} {(b - a) / 100:.3f} "
        f"<NA> <NA> {spk} <NA> <NA>\n" for spk, a, b in segs))


def frames_to_seconds(segs) -> list:
    return [(spk, a / 100, b / 100) for spk, a, b in segs]


def _stored_hypotheses_adapter(store: str):
    """Grid adapter that copies a stored hypothesis RTTM instead of
    starting a diarizer process, so a grid point costs scoring alone."""
    from dataclasses import dataclass
    from cogspeech import corpus, diar_eval

    @dataclass(frozen=True)
    class StoredHypotheses(diar_eval.DiarizerAdapter):
        store: str = ""

        def run(self, input_wav, output_rttm, session_id, params):
            src = Path(self.store) / f"{session_id}.v{params['variant']}.rttm"
            shutil.copyfile(src, output_rttm)
            return corpus.load_rttm(output_rttm)

    return StoredHypotheses(command_template="stored", store=store)


class DiarScoring(Workload):
    """score_pair over a segment/speaker ladder plus one grid search."""

    name = "diar-scoring"
    ops_per_pass = len(DIAR_LADDER) + 1
    provides = frozenset({f"diar_eval.score_pair_{k}_s" for k in DIAR_LADDER}
                         | {"diar_eval.grid_search_s", "diar_eval.grid_points"})

    def synthesize(self, inputs, seed, size):
        from cogspeech import wavio
        rng = np.random.default_rng(seed)
        pick = 0 if size == "full" else 1
        (inputs / "ladder").mkdir(parents=True)
        ladder = {}
        for key, sizes in DIAR_LADDER.items():
            n_seg, n_spk = sizes[pick]
            ref = random_timeline(rng, n_seg, n_spk, "spk")
            names = [f"hyp{k}" for k in rng.permutation(n_spk)]
            mapping = {f"spk{k}": names[k] for k in range(n_spk)}
            hyp = perturb(rng, ref, mapping, jitter=20, p_drop=0.05,
                          p_confuse=0.1, p_false_alarm=0.05)
            write_rttm(inputs / "ladder" / f"{key}.ref.rttm", ref, key)
            write_rttm(inputs / "ladder" / f"{key}.hyp.rttm", hyp, key)
            ladder[key] = {"ref": ref, "hyp": hyp}

        (inputs / "grid" / "hyp").mkdir(parents=True)
        (inputs / "grid" / "rttm").mkdir()
        rows = []
        for subject, split in GRID_SESSIONS:
            sid = f"{subject}_MMSE"
            ref = random_timeline(rng, GRID_SEGMENTS[size], 2, "spk")
            mapping = {"spk0": "spk0", "spk1": "spk1"}
            variants = [
                ref,
                perturb(rng, ref, mapping, 10, 0.02, 0.05, 0.02),
                perturb(rng, ref, mapping, 40, 0.10, 0.20, 0.10),
                [(spk, a + 30, b + 30) for spk, a, b in ref],
            ]
            write_rttm(inputs / "grid" / "rttm" / f"{sid}.rttm", ref, sid)
            for v, segs in enumerate(variants):
                write_rttm(inputs / "grid" / "hyp" / f"{sid}.v{v}.rttm", segs, sid)
            wavio.write_wav(inputs / "grid" / f"{sid}.wav",
                            rng.standard_normal(FS // 2) * 0.05, FS)
            rows.append(_manifest_row(sid, subject, "development", f"{sid}.wav"))
        _write_manifest(inputs / "grid" / "manifest.csv", rows)
        return {"ladder": ladder}

    def load(self, inputs, plan):
        from cogspeech import corpus, diar_eval
        pairs = [(key, corpus.load_rttm(inputs / "ladder" / f"{key}.ref.rttm"),
                  corpus.load_rttm(inputs / "ladder" / f"{key}.hyp.rttm"))
                 for key in DIAR_LADDER]
        grid_dir = inputs / "grid"
        manifest = corpus.load_manifest(grid_dir / "manifest.csv")
        sessions = [diar_eval.GridSession(
            session_id=r.session_id, subject_id=r.subject_id,
            audio_path=str(grid_dir / r.audio_path),
            reference=corpus.load_rttm(grid_dir / "rttm" / f"{r.session_id}.rttm"))
            for r in manifest.records]
        split = diar_eval.GridSplit(
            tuning_subjects=frozenset(s for s, role in GRID_SESSIONS if role == "tuning"),
            validation_subjects=frozenset(s for s, role in GRID_SESSIONS
                                          if role == "validation"))
        return {"pairs": pairs, "sessions": sessions, "split": split,
                "adapter": _stored_hypotheses_adapter(str(grid_dir / "hyp")),
                "scoring": diar_eval.ScoringConfig(collar_s=COLLAR_S)}

    def run_pass(self, ctx, out, tracer):
        from cogspeech import diar_eval
        errors, scores, grid = [], {}, None
        for key, ref, hyp in ctx["pairs"]:
            with tracer.span(f"diar_eval.score_pair_{key}"):
                try:
                    scores[key] = diar_eval.score_pair(ref, hyp, ctx["scoring"])
                except Exception as exc:  # a failed pair is a failed operation
                    errors.append(f"{key}: {type(exc).__name__}: {exc}")
                    continue
            errors.append(None)
        with tracer.span("diar_eval.grid_search"):
            try:
                grid = diar_eval.run_grid_search(
                    GRID_SCHEMA, ctx["sessions"], ctx["adapter"], ctx["split"],
                    scoring=ctx["scoring"], workdir=out / "grid", jobs=1)
            except Exception as exc:  # the search as a whole failed
                errors.append(f"grid: {type(exc).__name__}: {exc}")
        if grid is not None:
            failed = [r.point.index for r in grid if r.status != "ok"]
            errors.append(f"grid points failed: {failed}" if failed else None)
        return errors, {"scores": scores, "grid": grid}

    def finish(self, ctx, out, payload):
        grid = payload["grid"]
        doc = {"scores": payload["scores"], "grid": None if grid is None else [
            {"index": r.point.index, "params": r.point.as_dict(),
             "status": r.status, "tuning": r.tuning, "validation": r.validation}
            for r in grid]}
        text = json.dumps(doc, sort_keys=True)
        out.mkdir(parents=True, exist_ok=True)
        (out / "diar_scores.json").write_text(text)
        return hashlib.sha256(text.encode()).hexdigest()

    def trace_values(self, ctx, out, payloads):
        grid = payloads[0]["grid"]
        return {"diar_eval.grid_points": len(grid) if grid is not None else 0}

    def check(self, inputs, plan, out):
        doc = json.loads((out / "diar_scores.json").read_text())
        bad = []
        for key, pair in plan["ladder"].items():
            got = doc["scores"].get(key)
            if got is None:
                bad.append(f"{key}: not scored")
                continue
            bad += check_pair(key, pair["ref"], pair["hyp"], got)
        grid = doc["grid"]
        if not grid:
            return bad + ["grid search returned nothing"]
        top = grid[0]
        if top["params"]["diarizer.variant"] != 0:
            bad.append(f"grid ranked {top['params']} first, not the reference copy")
        for split in ("tuning", "validation"):
            der = (top[split] or {}).get("der")
            if der != 0.0:
                bad.append(f"top grid point {split} DER {der}, expected 0")
        return bad


def check_pair(key, ref, hyp, got: dict) -> list[str]:
    """Program scores against the 10 ms frame oracle, DER(ref, ref) = 0,
    and invariance under relabelling the hypothesis speakers."""
    import oracles
    from cogspeech import diar_eval
    from cogspeech.corpus import Segment, Timeline

    def timeline(segs):
        return Timeline.from_segments(
            [Segment(spk, a / 100, (b - a) / 100) for spk, a, b in segs])

    bad = []
    want = oracles.diar_scores(frames_to_seconds(ref), frames_to_seconds(hyp),
                               collar_s=COLLAR_S)
    cfg = diar_eval.ScoringConfig(collar_s=COLLAR_S)
    relabelled = diar_eval.score_pair(
        timeline(ref), timeline([(f"x{spk[::-1]}", a, b) for spk, a, b in hyp]), cfg)
    for metric in ("der", "jer", "purity", "coverage"):
        if not rel_match(got[metric], want[metric]):
            bad.append(f"{key}: {metric} {got[metric]!r} vs frame oracle "
                       f"{want[metric]!r}")
        if not rel_match(got[metric], relabelled[metric]):
            bad.append(f"{key}: relabelling hypothesis speakers moved {metric} "
                       f"from {got[metric]!r} to {relabelled[metric]!r}")
    self_der = diar_eval.score_pair(timeline(ref), timeline(ref), cfg)["der"]
    if self_der != 0.0:
        bad.append(f"{key}: DER(ref, ref) = {self_der!r}")
    return bad


WORKLOADS = {w.name: w for w in (CorpusShort(), LongRecording(), CvHierarchy(),
                                 DiarScoring())}


# ---------------------------------------------------------------------------
# Metrics

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("cli.import_s", "s"),
    *((f"cli.{stage}_s", "s") for stage in CorpusShort.stages),
    ("corpus.load_manifest_s", "s"), ("corpus.load_rttm_s", "s"),
    ("wavio.read_s", "s"), ("wavio.write_s", "s"),
    ("qc.qc_gate_s", "s"),
    ("dsp.highpass_s", "s"), ("dsp.spectral_gate_s", "s"), ("dsp.loudness_s", "s"),
    ("dsp.spectral_gate_peak_alloc_mb", "MB"),
    ("streams.prosody_s", "s"), ("streams.concat_s", "s"), ("streams.audit_s", "s"),
    ("features.track_f0_s", "s"), ("features.jitter_shimmer_hnr_s", "s"),
    ("features.spectral_slopes_s", "s"), ("features.formants_s", "s"),
    ("features.extract_s", "s"), ("features.extract_peak_alloc_mb", "MB"),
    ("audio_rtf", "s/s"),
    ("model.nested_cv_ridge_s", "s"), ("model.nested_cv_svm_s", "s"),
    ("model.nested_cv_svm_null_s", "s"), ("model.svm_fit_s", "s"),
    ("model.ridge_fit_s", "s"), ("model.pca_fit_s", "s"),
    ("model.fits", "count"), ("model.svm_iterations", "count"),
    ("model.svm_not_converged", "count"),
    *((f"diar_eval.score_pair_{key}_s", "s") for key in DIAR_LADDER),
    ("diar_eval.grid_search_s", "s"), ("diar_eval.grid_points", "count"),
    ("trace.overhead_s", "s"),
)


def companions(own: str, have: set) -> list[str]:
    """Other workloads whose traced pass supplies per-layer metrics that
    ``own`` does not produce."""
    missing = {name for name, _ in PER_LAYER} - have
    chosen = []
    for name, wl in WORKLOADS.items():
        if name != own and wl.provides & missing:
            chosen.append(name)
            missing -= wl.provides
    return chosen
