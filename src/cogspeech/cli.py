"""Command line front end.

Subcommands cover the pipeline end to end: qc, preprocess, streams,
features, embed-import, diar-metrics, grid-search, cv, holdout,
importance, report. A JSON config file supplies defaults; explicit
flags win. Every run drops a run-manifest (tool version, resolved
arguments, SHA-256 of the file inputs) next to its outputs so any
artifact can be reproduced bit for bit.

Exit codes: 0 ok, 2 gate failures, 3 config error, 4 input error,
5 adapter failure.

The per-session stages (qc, preprocess, streams, features) finish every
session they can: a session whose input cannot be read or processed is
recorded in a failures.jsonl next to the outputs (session id, stage,
message), the other sessions are written as usual, and the run exits
with the input error code. A clean run writes no failures.jsonl.

qc, cv and holdout print each label-hierarchy issue of the manifest
(corpus.validate_hierarchy) to stderr as a warning. cv writes the log of
its executed fits, the record the leakage check reads, to fit_log.jsonl
next to its report: one sorted-key JSON line per fit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, corpus, diar_eval, dsp, features, model, qc, streams, wavio
from .errors import (AdapterError, CogspeechError, ConfigError, InputError,
                     ParseError, ValidationError)
from .parallel import pmap

EXIT_OK = 0
EXIT_GATE_FAILURES = 2
EXIT_CONFIG = 3
EXIT_INPUT = 4
EXIT_ADAPTER = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through our exit-code scheme."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_run_manifest(outdir, command: str, args: dict, inputs) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = {
        "tool": "cogspeech",
        "version": __version__,
        "command": command,
        "arguments": {k: v for k, v in sorted(args.items())
                      if isinstance(v, (str, int, float, bool, list,
                                        type(None)))},
        "input_hashes": {str(p): _sha256(p) for p in sorted(map(str, inputs))
                         if Path(p).is_file()},
    }
    with open(outdir / "run_manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path, what: str):
    """Parsed content of a JSON input; InputError if the file cannot be
    read, ConfigError if it is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")


def _read_json_object(path, what: str) -> dict:
    payload = _read_json(path, what)
    if not isinstance(payload, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return payload


def _resolve(base: Path, p: str) -> str:
    path = Path(p)
    return str(path if path.is_absolute() else base / path)


def _read_signal(path) -> dsp.Signal:
    samples, rate = wavio.read_wav(path)
    return dsp.Signal(samples, rate)


def _read_record_signal(base: Path, rec: corpus.SessionRecord) -> dsp.Signal:
    """A manifest session's audio, its header rate checked against the
    manifest's sample_rate."""
    path = _resolve(base, rec.audio_path)
    sig = _read_signal(path)
    if sig.sample_rate != rec.sample_rate:
        raise InputError(f"session {rec.session_id}: manifest sample_rate "
                         f"{rec.sample_rate} Hz, but {path} is "
                         f"{sig.sample_rate} Hz")
    return sig


def _map_sessions(fn, items, jobs: int, stage: str, session_id):
    """pmap that keeps going past a failed session.

    A session whose input cannot be read or processed (an OSError or a
    package error other than ConfigError, which concerns every session)
    becomes a failure record. Returns (results of the sessions that
    succeeded, failure records), both in input order.
    """
    def guarded(item):
        try:
            return fn(item), None
        except ConfigError:
            raise
        except (CogspeechError, OSError) as exc:
            return None, {"session_id": session_id(item), "stage": stage,
                          "message": str(exc)}

    outcomes = pmap(guarded, items, jobs)
    return ([r for r, failure in outcomes if failure is None],
            [failure for _, failure in outcomes if failure is not None])


def _warn_hierarchy(manifest: corpus.Manifest) -> None:
    """Print each label-hierarchy issue of the manifest as a warning."""
    for issue in corpus.validate_hierarchy(manifest):
        where = issue.session_id or issue.subject_id
        print(f"warning: {where}: {issue.code}: {issue.message}",
              file=sys.stderr)


def _report_failures(outdir, failures) -> bool:
    """Write failures.jsonl when any session failed; True if one did."""
    if not failures:
        return False
    path = Path(outdir) / "failures.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for failure in failures:
            fh.write(json.dumps(failure) + "\n")
    print(f"{len(failures)} session(s) failed; see {path}", file=sys.stderr)
    return True


# ---------------------------------------------------------------------------
# qc


def _cmd_qc(args) -> int:
    manifest = corpus.load_manifest(args.manifest)
    _warn_hierarchy(manifest)
    base = Path(args.manifest).parent
    thresholds = qc.QcThresholds()

    def one(rec):
        return rec, qc.qc_gate(_read_record_signal(base, rec), thresholds)

    results, failures = _map_sessions(one, manifest.records, args.jobs, "qc",
                                      lambda rec: rec.session_id)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    any_fail = False
    with open(out, "w") as fh:
        for rec, report in results:
            line = {"session_id": rec.session_id, "subject_id": rec.subject_id}
            line.update(report.to_dict())
            fh.write(json.dumps(line) + "\n")
            any_fail = any_fail or report.overall == "fail"
    if args.summary:
        with open(args.summary, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["session_id", "overall", "duration_s", "rms_dbfs",
                        "clip_ratio", "snr_db", "activity_ratio",
                        "review_reasons"])
            for rec, report in results:
                m = report.metrics
                w.writerow([rec.session_id, report.overall,
                            f"{m.duration_s:.3f}", f"{m.rms_dbfs:.2f}",
                            f"{m.clip_ratio:.5f}", f"{m.snr_db:.2f}",
                            f"{m.activity_ratio:.3f}",
                            "; ".join(report.review_reasons)])
    _write_run_manifest(out.parent, "qc", vars(args), [args.manifest])
    if _report_failures(out.parent, failures):
        return EXIT_INPUT
    if any_fail:
        print("gate failures present", file=sys.stderr)
        return EXIT_GATE_FAILURES
    return EXIT_OK


# ---------------------------------------------------------------------------
# preprocess


def _preprocess_config(args) -> dsp.PreprocessConfig:
    cfg = ({} if args.config in (None, "default")
           else _read_json_object(args.config, "config"))
    allowed = {f for f in dsp.PreprocessConfig.__dataclass_fields__}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown preprocess config keys: {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")
    merged = dict(cfg)
    for flag, key in (("loudness_target", "loudness_target_lufs"),
                      ("gate_alpha", "gate_alpha"),
                      ("highpass_cutoff", "highpass_cutoff_hz")):
        v = getattr(args, flag)
        if v is not None:
            merged[key] = v
    return dsp.PreprocessConfig(**merged)


def _cmd_preprocess(args) -> int:
    manifest = corpus.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    cfg = _preprocess_config(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def one(rec):
        processed, audit = dsp.preprocess_chain(_read_record_signal(base, rec),
                                                cfg)
        wavio.write_wav(outdir / f"{rec.session_id}.wav",
                        processed.samples, processed.sample_rate)
        return rec.session_id, audit

    results, failures = _map_sessions(one, manifest.records, args.jobs,
                                      "preprocess", lambda rec: rec.session_id)
    with open(outdir / "audit.jsonl", "w") as fh:
        for session_id, audit in results:
            for entry in audit:
                fh.write(json.dumps({"session_id": session_id, **entry}) + "\n")
    _write_run_manifest(outdir, "preprocess", vars(args),
                        [args.manifest] + ([args.config] if args.config
                                           and args.config != "default" else []))
    return EXIT_INPUT if _report_failures(outdir, failures) else EXIT_OK


# ---------------------------------------------------------------------------
# streams


def _stream_one(session_id: str, wav_path, rttm_path, participant: str,
                outdir: Path) -> list[dict]:
    sig = _read_signal(wav_path)
    tl = corpus.load_rttm(rttm_path)
    prosody = streams.build_prosody_preserved(sig, tl, participant)
    concat = streams.build_concatenated(sig, tl, participant)
    wavio.write_wav(outdir / f"{session_id}.prosody.wav", prosody.samples,
                    prosody.sample_rate)
    wavio.write_wav(outdir / f"{session_id}.concat.wav", concat.signal.samples,
                    concat.signal.sample_rate)
    flags = streams.audit_transitions(concat.signal, concat.junctions)
    lines = [{"session_id": session_id, "junctions": len(concat.junctions),
              "short_segments": list(concat.short_segments),
              "flagged": len(flags)}]
    for f in flags:
        lines.append({"session_id": session_id, "boundary": f.boundary,
                      "reasons": list(f.reasons), "step": round(f.step, 6),
                      "rms_jump_db": round(f.rms_jump_db, 2)})
    return lines


def _cmd_streams(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs_inputs = []
    hash_inputs = []
    if args.manifest:
        manifest = corpus.load_manifest(args.manifest)
        base = Path(args.manifest).parent
        wav_dir = Path(args.wav_dir) if args.wav_dir else None
        rttm_dir = Path(args.rttm_dir) if args.rttm_dir else base
        for rec in manifest.records:
            wav = (wav_dir / f"{rec.session_id}.wav" if wav_dir
                   else Path(_resolve(base, rec.audio_path)))
            jobs_inputs.append((rec.session_id, wav,
                                rttm_dir / f"{rec.session_id}.rttm"))
        hash_inputs.append(args.manifest)
    else:
        if not (args.wav and args.rttm):
            raise ConfigError("need either --manifest or both --wav and --rttm")
        session_id = args.session_id or Path(args.wav).stem
        jobs_inputs.append((session_id, Path(args.wav), Path(args.rttm)))
        hash_inputs += [args.wav, args.rttm]

    def one(item):
        sid, wav, rttm = item
        if not Path(wav).exists():
            raise InputError(f"missing wav {wav}")
        if not Path(rttm).exists():
            raise InputError(f"missing rttm {rttm}")
        return _stream_one(sid, wav, rttm, args.participant, outdir)

    results, failures = _map_sessions(one, jobs_inputs, args.jobs, "streams",
                                      lambda item: item[0])
    with open(outdir / "transitions.jsonl", "w") as fh:
        for lines in results:
            for line in lines:
                fh.write(json.dumps(line) + "\n")
    _write_run_manifest(outdir, "streams", vars(args), hash_inputs)
    return EXIT_INPUT if _report_failures(outdir, failures) else EXIT_OK


# ---------------------------------------------------------------------------
# features


def _cmd_features(args) -> int:
    manifest = corpus.load_manifest(args.manifest)
    prosody_dir = Path(args.prosody_dir)
    concat_dir = Path(args.concat_dir)
    set_names = {"EG_PROSODY": features.EG_PROSODY_NAMES,
                 "EG_VQUAL": features.EG_VQUAL_NAMES,
                 "EG_ALL": features.EG_ALL_NAMES}
    if args.set not in set_names:
        raise ConfigError(f"--set must be one of {sorted(set_names)}")

    def one(rec):
        p_path = prosody_dir / f"{rec.session_id}.prosody.wav"
        c_path = concat_dir / f"{rec.session_id}.concat.wav"
        prosody = _read_signal(p_path) if p_path.exists() else None
        concat = _read_signal(c_path) if c_path.exists() else None
        if prosody is None and concat is None:
            raise InputError(f"no streams found for {rec.session_id} under "
                             f"{prosody_dir} / {concat_dir}")
        trio = features.extract_feature_sets(prosody, concat)
        by_tag = {v.set_tag: v for v in trio}
        return rec.session_id, by_tag[args.set]

    results, failures = _map_sessions(one, manifest.records, args.jobs,
                                      "features", lambda rec: rec.session_id)
    vectors = dict(results)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if vectors:
        features.write_feature_csv(out, vectors, names=list(set_names[args.set]))
    absent = {sid: list(vec.absent) for sid, vec in vectors.items() if vec.absent}
    if absent:
        with open(out.with_suffix(".absent.json"), "w") as fh:
            json.dump(absent, fh, indent=2, sort_keys=True)
    _write_run_manifest(out.parent, "features", vars(args), [args.manifest])
    return EXIT_INPUT if _report_failures(out.parent, failures) else EXIT_OK


def _cmd_embed_import(args) -> int:
    vectors = features.load_embeddings(args.infile, args.dim)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    features.write_feature_csv(out, vectors)
    _write_run_manifest(out.parent, "embed-import", vars(args), [args.infile])
    return EXIT_OK


# ---------------------------------------------------------------------------
# diarization metrics and grid search


def _cmd_diar_metrics(args) -> int:
    ref = corpus.load_rttm(args.ref)
    hyp = corpus.load_rttm(args.hyp)
    cfg = diar_eval.ScoringConfig(collar_s=args.collar,
                                  score_overlap=not args.no_overlap)
    scores = diar_eval.score_pair(ref, hyp, cfg)
    text = json.dumps(scores, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _write_run_manifest(Path(args.out).parent, "diar-metrics", vars(args),
                            [args.ref, args.hyp])
    else:
        print(text)
    return EXIT_OK


def _parse_subjects(raw: str) -> frozenset:
    vals = frozenset(s.strip() for s in raw.split(",") if s.strip())
    if not vals:
        raise ConfigError(f"empty subject list {raw!r}")
    return vals


def _cmd_grid_search(args) -> int:
    schema = _read_json_object(args.grid, "grid file")
    manifest = corpus.load_manifest(args.manifest)
    base = Path(args.manifest).parent
    rttm_dir = Path(args.rttm_dir)
    sessions = []
    for rec in manifest.records:
        rttm = rttm_dir / f"{rec.session_id}.rttm"
        if not rttm.exists():
            raise InputError(f"missing reference rttm {rttm}")
        sessions.append(diar_eval.GridSession(
            session_id=rec.session_id, subject_id=rec.subject_id,
            audio_path=_resolve(base, rec.audio_path),
            reference=corpus.load_rttm(rttm)))
    split = diar_eval.GridSplit(
        tuning_subjects=_parse_subjects(args.tuning_subjects),
        validation_subjects=_parse_subjects(args.validation_subjects))
    adapter = diar_eval.DiarizerAdapter(command_template=args.adapter)
    workdir = args.workdir or os.environ.get("COGSPEECH_TMPDIR")
    scoring = diar_eval.ScoringConfig(collar_s=args.collar)
    results = diar_eval.run_grid_search(schema, sessions, adapter, split,
                                        scoring=scoring, workdir=workdir,
                                        jobs=args.jobs)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    diar_eval.write_grid_csv(results, out)
    _write_run_manifest(out.parent, "grid-search", vars(args),
                        [args.grid, args.manifest])
    failed = sum(1 for r in results if r.status == "failed")
    if failed:
        print(f"{failed} grid point(s) failed", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# modeling commands


def _target_from_args(args) -> model.TargetSpec:
    return model.TargetSpec(level=args.level, name=args.target, kind=args.kind)


def _build_dataset(manifest: corpus.Manifest, names, rows, target,
                   split: str) -> model.Dataset:
    kept, skipped = [], []
    for rec in manifest.records:
        if rec.split != split:
            continue
        feats = rows.get(rec.session_id)
        if feats is None or any(n not in feats for n in names):
            skipped.append(rec.session_id)
            continue
        y = model.extract_target(rec.labels, target)
        if y is None:
            skipped.append(rec.session_id)
            continue
        kept.append((rec.session_id, rec.subject_id,
                     [feats[n] for n in names], y))
    if skipped:
        print(f"skipping {len(skipped)} session(s) without complete "
              f"features/labels: {', '.join(sorted(skipped)[:5])}"
              f"{'...' if len(skipped) > 5 else ''}", file=sys.stderr)
    if not kept:
        raise InputError(f"no usable sessions in split {split!r}")
    kept.sort(key=lambda t: t[0])
    return model.Dataset(
        X=np.array([k[2] for k in kept]),
        y=np.array([k[3] for k in kept]),
        subject_ids=tuple(k[1] for k in kept),
        session_ids=tuple(k[0] for k in kept),
        feature_names=tuple(names),
    )


def _load_grid_file(path):
    if path is None:
        return None
    raw = _read_json(path, "grid file")
    if not isinstance(raw, list):
        raise ConfigError(f"grid file {path} must hold a JSON list")
    return [model.config_from_dict(d) for d in raw]


def _cmd_cv(args) -> int:
    target = _target_from_args(args)
    manifest = corpus.load_manifest(args.manifest)
    _warn_hierarchy(manifest)
    names, rows = features.read_feature_csv(args.features)
    data = _build_dataset(manifest, names, rows, target, args.split)
    grid = _load_grid_file(args.grid)
    report, fit_log = model.nested_cv(data, target, grid=grid,
                                      seed=args.seed, jobs=args.jobs)
    model.assert_no_leakage(fit_log)
    payload = report.to_dict()
    payload["feature_set_label"] = args.feature_set_label
    payload["input_test_label"] = args.input_test_label
    payload["n_sessions"] = len(data.y)
    payload["n_subjects"] = len(data.subjects)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out.parent / "fit_log.jsonl", "w") as fh:
        for record in fit_log:
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
    _write_run_manifest(out.parent, "cv", vars(args),
                        [args.manifest, args.features]
                        + ([args.grid] if args.grid else []))
    metric = "r" if target.kind == "regression" else "balanced_accuracy"
    s = report.summary[metric]
    print(f"{target.name} (level {target.level}): {metric} = "
          f"{s['mean']:.3f} +- {s['sd']:.3f} over {len(report.folds)} folds")
    return EXIT_OK


def _read_voted_config(path) -> tuple[dict, model.PipelineConfig]:
    """A cv report and the majority-vote config it names."""
    payload = _read_json_object(path, "cv report")
    if "majority_vote_config_params" not in payload:
        raise ConfigError(f"cv report {path} has no majority_vote_config_params")
    return payload, model.config_from_dict(payload["majority_vote_config_params"])


def _cmd_holdout(args) -> int:
    target = _target_from_args(args)
    manifest = corpus.load_manifest(args.manifest)
    _warn_hierarchy(manifest)
    names, rows = features.read_feature_csv(args.features)
    dev = _build_dataset(manifest, names, rows, target, "development")
    holdout = _build_dataset(manifest, names, rows, target, "holdout")
    cv_payload, config = _read_voted_config(args.config_from)
    result, record = model.holdout_eval(dev, holdout, config, target)
    model.assert_no_leakage([record])
    result["dev_summary"] = cv_payload.get("summary")
    result["feature_set_label"] = cv_payload.get("feature_set_label")
    result["input_test_label"] = cv_payload.get("input_test_label")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_run_manifest(out.parent, "holdout", vars(args),
                        [args.manifest, args.features, args.config_from])
    print(json.dumps(result["metrics"], sort_keys=True))
    return EXIT_OK


def _cmd_importance(args) -> int:
    target = _target_from_args(args)
    if target.kind != "classification":
        raise ConfigError("importance ranking needs a classification target")
    manifest = corpus.load_manifest(args.manifest)
    names, rows = features.read_feature_csv(args.features)
    data = _build_dataset(manifest, names, rows, target, args.split)
    if args.config_from:
        _, config = _read_voted_config(args.config_from)
    else:
        config = model.PipelineConfig(estimator="linear_svm", C=args.C,
                                      pca="passthrough")
    pipe = model.fit_pipeline(data.X, data.y, config)
    ranking = model.svm_feature_importance(pipe, data.feature_names)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "feature", "weight"])
        for rank, (name, weight) in enumerate(ranking, 1):
            w.writerow([rank, name, repr(weight)])
    _write_run_manifest(out.parent, "importance", vars(args),
                        [args.manifest, args.features])
    return EXIT_OK


def _cmd_report(args) -> int:
    cv_payloads = [_read_json_object(path, "cv report") for path in args.cv]
    ho_payloads = [_read_json_object(path, "holdout result")
                   for path in args.holdout or []]

    def key(p):
        return (p.get("input_test_label"), p["target"]["level"],
                p["target"]["name"], p.get("feature_set_label"))

    rows = []
    try:
        ho_by_key = {key(p): p for p in ho_payloads}
        for p in cv_payloads:
            kind = p["target"]["kind"]
            metric = "r" if kind == "regression" else "balanced_accuracy"
            s = p["summary"][metric]
            ho = ho_by_key.get(key(p))
            ho_value = ho["metrics"][metric] if ho else None
            rows.append({
                "level_target": f"L{p['target']['level']}-{p['target']['name']}",
                "input_test": p.get("input_test_label", ""),
                "feature": p.get("feature_set_label", ""),
                "metric": metric,
                "dev_mean": s["mean"], "dev_sd": s["sd"],
                "holdout": ho_value,
                "level": p["target"]["level"],
                "target": p["target"]["name"],
            })
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed cv report or holdout result: "
                          f"{type(exc).__name__} {exc}") from None
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    header = ("Level-Target", "Input Test", "Feature", "Metric", "DEV Set",
              "HO Set")
    table = [(r["level_target"], r["input_test"], r["feature"], r["metric"],
              f"{r['dev_mean']:.3f} +- {r['dev_sd']:.3f}",
              "" if r["holdout"] is None else f"{r['holdout']:.3f}")
             for r in rows]
    with open(outdir / "hierarchy_table.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(table)
    with open(outdir / "per_level_lines.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["input_test", "level", "target", "dev_mean", "holdout"])
        for r in sorted(rows, key=lambda r: (r["input_test"], r["level"])):
            w.writerow([r["input_test"], r["level"], r["target"],
                        f"{r['dev_mean']:.4f}",
                        "" if r["holdout"] is None else f"{r['holdout']:.4f}"])
    _write_run_manifest(outdir, "report", vars(args),
                        list(args.cv) + list(args.holdout or []))
    widths = (16, 12, 10, 18, 22, 8)
    for cells in (header, *table):
        print("  ".join(str(c).ljust(w) for c, w in zip(cells, widths)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="cogspeech",
                     description="speech-based cognitive scoring pipeline")
    parser.add_argument("--version", action="version",
                        version=f"cogspeech {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qc", help="quality-control gate over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="per-session JSON-lines report")
    p.add_argument("--summary", help="optional summary CSV")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_qc)

    p = sub.add_parser("preprocess", help="run the conditioning chain")
    p.add_argument("--manifest", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--config", help="JSON config file or 'default'")
    p.add_argument("--loudness-target", type=float, dest="loudness_target")
    p.add_argument("--gate-alpha", type=float, dest="gate_alpha")
    p.add_argument("--highpass-cutoff", type=float, dest="highpass_cutoff")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_preprocess)

    p = sub.add_parser("streams", help="build prosody/concatenated streams")
    p.add_argument("--manifest")
    p.add_argument("--wav-dir", dest="wav_dir",
                   help="directory of <session>.wav (e.g. preprocess output)")
    p.add_argument("--rttm-dir", dest="rttm_dir")
    p.add_argument("--wav", help="single-session input wav")
    p.add_argument("--rttm", help="single-session reference rttm")
    p.add_argument("--session-id", dest="session_id")
    p.add_argument("--participant", default="PAR")
    p.add_argument("--outdir", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_streams)

    p = sub.add_parser("features", help="extract hand-crafted feature sets")
    p.add_argument("--manifest", required=True)
    p.add_argument("--prosody-dir", dest="prosody_dir", required=True)
    p.add_argument("--concat-dir", dest="concat_dir", required=True)
    p.add_argument("--set", default="EG_ALL",
                   choices=["EG_PROSODY", "EG_VQUAL", "EG_ALL"])
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_features)

    p = sub.add_parser("embed-import", help="ingest external embeddings")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_embed_import)

    p = sub.add_parser("diar-metrics", help="score one hypothesis against "
                                            "a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--collar", type=float, default=0.250)
    p.add_argument("--no-overlap", action="store_true",
                   help="exclude overlapped reference speech from scoring")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_diar_metrics)

    p = sub.add_parser("grid-search", help="preprocessing grid search against "
                                           "an external diarizer")
    p.add_argument("--grid", required=True, help="JSON: name -> value list")
    p.add_argument("--manifest", required=True)
    p.add_argument("--rttm-dir", dest="rttm_dir", required=True)
    p.add_argument("--adapter", required=True,
                   help="command template with {input} and {output}")
    p.add_argument("--tuning-subjects", dest="tuning_subjects", required=True)
    p.add_argument("--validation-subjects", dest="validation_subjects",
                   required=True)
    p.add_argument("--collar", type=float, default=0.250)
    p.add_argument("--workdir")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_grid_search)

    def add_target_args(p):
        p.add_argument("--level", type=int, required=True, choices=[1, 2, 3])
        p.add_argument("--target", required=True)
        p.add_argument("--kind", required=True,
                       choices=["regression", "classification"])

    p = sub.add_parser("cv", help="nested cross-validation on one target")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    add_target_args(p)
    p.add_argument("--split", default="development",
                   choices=list(corpus.SPLITS))
    p.add_argument("--grid", help="JSON list of pipeline configs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--feature-set-label", dest="feature_set_label",
                   default="EG_ALL")
    p.add_argument("--input-test-label", dest="input_test_label", default="ALL")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_cv)

    p = sub.add_parser("holdout", help="freeze the voted config and score "
                                       "the holdout split")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    add_target_args(p)
    p.add_argument("--config-from", dest="config_from", required=True,
                   help="cv report JSON providing the majority-vote config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_holdout)

    p = sub.add_parser("importance", help="SVM weight-based feature ranking")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    add_target_args(p)
    p.add_argument("--split", default="development",
                   choices=list(corpus.SPLITS))
    p.add_argument("--config-from", dest="config_from")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_importance)

    p = sub.add_parser("report", help="hierarchy table + per-level lines from "
                                      "cv/holdout outputs")
    p.add_argument("--cv", nargs="+", required=True)
    p.add_argument("--holdout", nargs="*")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AdapterError as exc:
        print(f"adapter failure: {exc}", file=sys.stderr)
        return EXIT_ADAPTER
    except (InputError, ParseError, ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CogspeechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
