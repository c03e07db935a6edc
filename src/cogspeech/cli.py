"""Command line front end.

Subcommands cover the pipeline end to end: qc, preprocess, streams,
features, embed-import, diar-metrics, grid-search, cv, holdout,
importance, report. A JSON config file supplies defaults; explicit
flags win. --jobs, where a subcommand takes it, must be >= 1.

Exit codes: 0 ok, 2 gate failures, 3 config error, 4 input error,
5 adapter failure.

Every subcommand runs in one stage frame. Its JSON and JSON-lines
outputs go through _write_json and _write_jsonl, and it ends in _finish,
the one writer of the run manifest (tool version, command, resolved
arguments, SHA-256 of the file inputs) next to the outputs, so any
artifact can be reproduced bit for bit. diar-metrics without --out only
prints its scores and writes no manifest.

The per-session stages (qc, preprocess, streams, features) map their
sessions through _map_sessions, which finishes every session it can: a
session whose input cannot be read or processed becomes a failure record
(session id, stage, message), the other sessions are written as usual,
and _finish writes the records to failures.jsonl and returns the input
error code. A clean run writes no failures.jsonl.

cv, holdout and importance read their labelled table through _dataset,
which, like qc, prints each label-hierarchy issue of the manifest
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

_FEATURE_SETS = {"EG_PROSODY": features.EG_PROSODY_NAMES,
                 "EG_VQUAL": features.EG_VQUAL_NAMES,
                 "EG_ALL": features.EG_ALL_NAMES}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through our exit-code scheme."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _count(text: str) -> int:
    """A --jobs or --dim value: an int >= 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    return count


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _create(path, newline=None):
    """path opened for writing text, its directory made first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline=newline)


def _write_json(path, payload) -> None:
    with _create(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_jsonl(path, records, sort_keys: bool = False) -> None:
    with _create(path) as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=sort_keys) + "\n")


def _finish(args, outdir, inputs, failures=()) -> int:
    """Write the run manifest of args.command, hashing the inputs that are
    files, and any failure records (failures.jsonl) into outdir; EXIT_INPUT
    when a session failed, else EXIT_OK."""
    outdir = Path(outdir)
    _write_json(outdir / "run_manifest.json", {
        "tool": "cogspeech",
        "version": __version__,
        "command": args.command,
        "arguments": {k: v for k, v in sorted(vars(args).items())
                      if isinstance(v, (str, int, float, bool, list,
                                        type(None)))},
        "input_hashes": {p: _sha256(p) for p in
                         sorted(str(p) for p in inputs if p is not None)
                         if Path(p).is_file()},
    })
    if not failures:
        return EXIT_OK
    path = outdir / "failures.jsonl"
    _write_jsonl(path, failures)
    print(f"{len(failures)} session(s) failed; see {path}", file=sys.stderr)
    return EXIT_INPUT


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


def _map_sessions(args, fn, pairs):
    """fn(session_id, item) over (session_id, item) pairs, on args.jobs
    threads, going on past a failed session.

    A session whose input cannot be read or processed (an OSError or a
    package error other than ConfigError, which concerns every session)
    becomes a failure record of stage args.command. Returns (results of
    the sessions that succeeded, failure records), both in input order.
    """
    def guarded(pair):
        try:
            return fn(*pair), None
        except ConfigError:
            raise
        except (CogspeechError, OSError) as exc:
            return None, {"session_id": pair[0], "stage": args.command,
                          "message": str(exc)}

    outcomes = pmap(guarded, pairs, args.jobs)
    return ([r for r, failure in outcomes if failure is None],
            [failure for _, failure in outcomes if failure is not None])


def _warn_hierarchy(manifest: corpus.Manifest) -> None:
    """Print each label-hierarchy issue of the manifest as a warning."""
    for issue in corpus.validate_hierarchy(manifest):
        where = issue.session_id or issue.subject_id
        print(f"warning: {where}: {issue.code}: {issue.message}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# qc


def _cmd_qc(args) -> int:
    manifest = corpus.load_manifest(args.manifest)
    _warn_hierarchy(manifest)
    base = Path(args.manifest).parent
    thresholds = qc.QcThresholds()

    def one(_, rec):
        return rec, qc.qc_gate(_read_record_signal(base, rec), thresholds)

    results, failures = _map_sessions(
        args, one, [(rec.session_id, rec) for rec in manifest.records])
    _write_jsonl(args.out, ({"session_id": rec.session_id,
                             "subject_id": rec.subject_id, **report.to_dict()}
                            for rec, report in results))
    if args.summary:
        with _create(args.summary, newline="") as fh:
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
    code = _finish(args, Path(args.out).parent, [args.manifest], failures)
    if code == EXIT_OK and any(r.overall == "fail" for _, r in results):
        print("gate failures present", file=sys.stderr)
        return EXIT_GATE_FAILURES
    return code


# ---------------------------------------------------------------------------
# preprocess


def _preprocess_config(args, path) -> dsp.PreprocessConfig:
    cfg = {} if path is None else _read_json_object(path, "config")
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
    config = None if args.config == "default" else args.config
    cfg = _preprocess_config(args, config)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def one(session_id, rec):
        processed, audit = dsp.preprocess_chain(_read_record_signal(base, rec),
                                                cfg)
        wavio.write_wav(outdir / f"{session_id}.wav",
                        processed.samples, processed.sample_rate)
        return [{"session_id": session_id, **entry} for entry in audit]

    results, failures = _map_sessions(
        args, one, [(rec.session_id, rec) for rec in manifest.records])
    _write_jsonl(outdir / "audit.jsonl",
                 (entry for entries in results for entry in entries))
    return _finish(args, outdir, [args.manifest, config], failures)


# ---------------------------------------------------------------------------
# streams


def _stream_one(session_id: str, wav_path, rttm_path, participant: str,
                outdir: Path) -> list[dict]:
    for kind, path in (("wav", wav_path), ("rttm", rttm_path)):
        if not Path(path).exists():
            raise InputError(f"missing {kind} {path}")
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
    if args.manifest:
        manifest = corpus.load_manifest(args.manifest)
        base = Path(args.manifest).parent
        wav_dir = Path(args.wav_dir) if args.wav_dir else None
        rttm_dir = Path(args.rttm_dir) if args.rttm_dir else base
        pairs = [(rec.session_id,
                  (wav_dir / f"{rec.session_id}.wav" if wav_dir
                   else Path(_resolve(base, rec.audio_path)),
                   rttm_dir / f"{rec.session_id}.rttm"))
                 for rec in manifest.records]
        inputs = [args.manifest]
    elif args.wav and args.rttm:
        pairs = [(args.session_id or Path(args.wav).stem,
                  (Path(args.wav), Path(args.rttm)))]
        inputs = [args.wav, args.rttm]
    else:
        raise ConfigError("need either --manifest or both --wav and --rttm")
    results, failures = _map_sessions(
        args, lambda session_id, paths: _stream_one(
            session_id, *paths, args.participant, outdir), pairs)
    _write_jsonl(outdir / "transitions.jsonl",
                 (line for lines in results for line in lines))
    return _finish(args, outdir, inputs, failures)


# ---------------------------------------------------------------------------
# features


def _cmd_features(args) -> int:
    manifest = corpus.load_manifest(args.manifest)
    prosody_dir = Path(args.prosody_dir)
    concat_dir = Path(args.concat_dir)

    def one(session_id, _):
        p_path = prosody_dir / f"{session_id}.prosody.wav"
        c_path = concat_dir / f"{session_id}.concat.wav"
        prosody = _read_signal(p_path) if p_path.exists() else None
        concat = _read_signal(c_path) if c_path.exists() else None
        if prosody is None and concat is None:
            raise InputError(f"no streams found for {session_id} under "
                             f"{prosody_dir} / {concat_dir}")
        trio = features.extract_feature_sets(prosody, concat)
        by_tag = {v.set_tag: v for v in trio}
        return session_id, by_tag[args.set]

    results, failures = _map_sessions(
        args, one, [(rec.session_id, rec) for rec in manifest.records])
    vectors = dict(results)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if vectors:
        features.write_feature_csv(out, vectors,
                                   names=list(_FEATURE_SETS[args.set]))
    absent = {sid: list(vec.absent) for sid, vec in vectors.items() if vec.absent}
    if absent:  # no trailing newline, as every release has written it
        out.with_suffix(".absent.json").write_text(
            json.dumps(absent, indent=2, sort_keys=True))
    return _finish(args, out.parent, [args.manifest], failures)


def _cmd_embed_import(args) -> int:
    vectors = features.load_embeddings(args.infile, args.dim)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    features.write_feature_csv(out, vectors)
    return _finish(args, out.parent, [args.infile])


# ---------------------------------------------------------------------------
# diarization metrics and grid search


def _cmd_diar_metrics(args) -> int:
    ref = corpus.load_rttm(args.ref)
    hyp = corpus.load_rttm(args.hyp)
    cfg = diar_eval.ScoringConfig(collar_s=args.collar,
                                  score_overlap=not args.no_overlap)
    scores = diar_eval.score_pair(ref, hyp, cfg)
    if not args.out:
        print(json.dumps(scores, indent=2, sort_keys=True))
        return EXIT_OK
    _write_json(args.out, scores)
    return _finish(args, Path(args.out).parent, [args.ref, args.hyp])


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
    failed = sum(1 for r in results if r.status == "failed")
    if failed:
        print(f"{failed} grid point(s) failed", file=sys.stderr)
    return _finish(args, out.parent, [args.grid, args.manifest])


# ---------------------------------------------------------------------------
# modeling commands


def _dataset(args, *splits):
    """The target that --level/--target/--kind name, then one Dataset per
    split: the --manifest sessions of that split with a complete row in
    the --features table and a label for the target. The manifest's
    label-hierarchy issues are printed once, and a warning for each split
    whose kept sessions span more than one task or sample rate."""
    target = model.TargetSpec(level=args.level, name=args.target, kind=args.kind)
    manifest = corpus.load_manifest(args.manifest)
    _warn_hierarchy(manifest)
    names, rows = features.read_feature_csv(args.features)
    datasets = []
    for split in splits:
        kept, skipped = [], []
        for rec in manifest.records:
            if rec.split != split:
                continue
            feats = rows.get(rec.session_id)
            y = (None if feats is None or any(n not in feats for n in names)
                 else model.extract_target(rec.labels, target))
            if y is None:
                skipped.append(rec.session_id)
            else:
                kept.append((rec, [feats[n] for n in names], y))
        if skipped:
            print(f"skipping {len(skipped)} session(s) without complete "
                  f"features/labels: {', '.join(sorted(skipped)[:5])}"
                  f"{'...' if len(skipped) > 5 else ''}", file=sys.stderr)
        if not kept:
            raise InputError(f"no usable sessions in split {split!r}")
        for field, what in (("task", "tasks"), ("sample_rate", "sample rates")):
            values = sorted({getattr(rec, field) for rec, _, _ in kept})
            if len(values) > 1:
                print(f"warning: split {split!r} pools {len(values)} {what}: "
                      f"{', '.join(map(str, values))}", file=sys.stderr)
        kept.sort(key=lambda t: t[0].session_id)
        datasets.append(model.Dataset(
            X=np.array([k[1] for k in kept]),
            y=np.array([k[2] for k in kept]),
            subject_ids=tuple(k[0].subject_id for k in kept),
            session_ids=tuple(k[0].session_id for k in kept),
            feature_names=tuple(names),
        ))
    return (target, *datasets)


def _load_grid_file(path):
    if path is None:
        return None
    raw = _read_json(path, "grid file")
    if not isinstance(raw, list):
        raise ConfigError(f"grid file {path} must hold a JSON list")
    return [model.config_from_dict(d) for d in raw]


def _cmd_cv(args) -> int:
    target, data = _dataset(args, args.split)
    grid = _load_grid_file(args.grid)
    report, fit_log = model.nested_cv(data, target, grid=grid,
                                      seed=args.seed, jobs=args.jobs)
    model.assert_no_leakage(fit_log)
    _write_json(args.out, dict(
        report.to_dict(), feature_set_label=args.feature_set_label,
        input_test_label=args.input_test_label, n_sessions=len(data.y),
        n_subjects=len(data.subjects)))
    outdir = Path(args.out).parent
    _write_jsonl(outdir / "fit_log.jsonl",
                 (record.to_dict() for record in fit_log), sort_keys=True)
    code = _finish(args, outdir, [args.manifest, args.features, args.grid])
    metric = _METRIC[target.kind]
    s = report.summary[metric]
    print(f"{target.name} (level {target.level}): {metric} = "
          f"{s['mean']:.3f} +- {s['sd']:.3f} over {len(report.folds)} folds")
    return code


_METRIC = {"regression": "r", "classification": "balanced_accuracy"}
_VOTED = "majority_vote_config_params"


def _read_result(path, what: str, part: str) -> dict:
    """A cv report or holdout result, checked before a reader takes part
    from it.

    Labels must be strings where present (null counts as absent). Part
    _VOTED must be a pipeline config; it is parsed in place into a
    PipelineConfig. Part "summary" or "metrics" needs a target (an int
    level from 1 to 3, a string name, kind regression or classification)
    and that kind's metric: its mean and SD in the summary, its value in
    the metrics, each a number (NaN too, as pearson_r writes it). A bad
    key is a ConfigError naming the file and the key."""
    payload = _read_json_object(path, what)

    def check(keys, test, wording):
        value = payload
        for key in keys:
            value = value.get(key) if isinstance(value, dict) else None
        if not test(value):
            raise ConfigError(f"{'.'.join(keys)} must be {wording}, "
                              f"got {value!r}")
        return value

    try:
        for label in ("input_test_label", "feature_set_label"):
            check((label,), lambda v: v is None or isinstance(v, str),
                  "a string")
        if part == _VOTED:
            payload[part] = model.config_from_dict(
                check((part,), lambda v: isinstance(v, dict), "an object"))
            return payload
        check(("target", "level"), lambda v: type(v) is int and 1 <= v <= 3,
              "an int from 1 to 3")
        check(("target", "name"), lambda v: isinstance(v, str), "a string")
        metric = _METRIC[check(("target", "kind"), lambda v: v in tuple(_METRIC),
                               "regression or classification")]
        for keys in ([(part, metric, "mean"), (part, metric, "sd")]
                     if part == "summary" else [(part, metric)]):
            check(keys, lambda v: type(v) in (int, float), "a number")
    except ConfigError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from None
    return payload


def _cmd_holdout(args) -> int:
    target, dev, holdout = _dataset(args, "development", "holdout")
    cv = _read_result(args.config_from, "cv report", _VOTED)
    result, record = model.holdout_eval(dev, holdout, cv[_VOTED], target)
    model.assert_no_leakage([record])
    result.update(dev_summary=cv.get("summary"),
                  feature_set_label=cv.get("feature_set_label"),
                  input_test_label=cv.get("input_test_label"))
    _write_json(args.out, result)
    code = _finish(args, Path(args.out).parent,
                   [args.manifest, args.features, args.config_from])
    print(json.dumps(result["metrics"], sort_keys=True))
    return code


def _cmd_importance(args) -> int:
    if args.kind != "classification":
        raise ConfigError("importance ranking needs a classification target")
    _, data = _dataset(args, args.split)
    if args.config_from:
        config = _read_result(args.config_from, "cv report", _VOTED)[_VOTED]
    else:
        config = model.PipelineConfig(estimator="linear_svm", C=args.C,
                                      pca="passthrough")
    pipe = model.fit_pipeline(data.X, data.y, config)
    ranking = model.svm_feature_importance(pipe, data.feature_names)
    with _create(args.out, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rank", "feature", "weight"])
        for rank, (name, weight) in enumerate(ranking, 1):
            w.writerow([rank, name, repr(weight)])
    return _finish(args, Path(args.out).parent,
                   [args.manifest, args.features, args.config_from])


def _cmd_report(args) -> int:
    def key(p):  # a holdout result scores the same target as its cv report
        return (p.get("input_test_label") or "", p["target"]["level"],
                p["target"]["name"], p.get("feature_set_label") or "",
                _METRIC[p["target"]["kind"]])

    results = [(path, _read_result(path, "holdout result", "metrics"))
               for path in args.holdout or []]
    holdouts, sources = {}, {}
    for path, p in results:
        k = key(p)
        if k in sources:
            print(f"warning: holdout results {sources[k]} and {path} score "
                  f"the same target; only {path} is reported", file=sys.stderr)
        sources[k], holdouts[k] = path, p["metrics"][k[-1]]
    reports = [_read_result(path, "cv report", "summary") for path in args.cv]
    rows = [(*key(p), p["summary"][key(p)[-1]], holdouts.get(key(p)))
            for p in reports]
    for path, p in results:
        if key(p) not in map(key, reports):
            print(f"warning: holdout result {path} pairs with no cv report "
                  f"and is not reported", file=sys.stderr)
    outdir = Path(args.out_dir)
    header = ("Level-Target", "Input Test", "Feature", "Metric", "DEV Set",
              "HO Set")
    table = [(f"L{level}-{name}", test, feature, metric,
              f"{s['mean']:.3f} +- {s['sd']:.3f}",
              "" if ho is None else f"{ho:.3f}")
             for test, level, name, feature, metric, s, ho in rows]
    with _create(outdir / "hierarchy_table.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(table)
    with _create(outdir / "per_level_lines.csv", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["input_test", "level", "target", "dev_mean", "holdout"])
        for test, level, name, _, _, s, ho in sorted(rows, key=lambda r: r[:2]):
            w.writerow([test, level, name, f"{s['mean']:.4f}",
                        "" if ho is None else f"{ho:.4f}"])
    code = _finish(args, outdir, [*args.cv, *(args.holdout or [])])
    widths = (16, 12, 10, 18, 22, 8)
    for cells in (header, *table):
        print("  ".join(str(c).ljust(w) for c, w in zip(cells, widths)))
    return code


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="cogspeech",
                     description="speech-based cognitive scoring pipeline")
    parser.add_argument("--version", action="version",
                        version=f"cogspeech {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p

    def add_jobs(p):
        p.add_argument("--jobs", type=_count, default=1)

    def add_target_args(p):
        p.add_argument("--level", type=int, required=True, choices=[1, 2, 3])
        p.add_argument("--target", required=True)
        p.add_argument("--kind", required=True,
                       choices=["regression", "classification"])

    p = command("qc", _cmd_qc, "quality-control gate over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="per-session JSON-lines report")
    p.add_argument("--summary", help="optional summary CSV")
    add_jobs(p)

    p = command("preprocess", _cmd_preprocess, "run the conditioning chain")
    p.add_argument("--manifest", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--config", help="JSON config file or 'default'")
    p.add_argument("--loudness-target", type=float, dest="loudness_target")
    p.add_argument("--gate-alpha", type=float, dest="gate_alpha")
    p.add_argument("--highpass-cutoff", type=float, dest="highpass_cutoff")
    add_jobs(p)

    p = command("streams", _cmd_streams, "build prosody/concatenated streams")
    p.add_argument("--manifest")
    p.add_argument("--wav-dir", dest="wav_dir",
                   help="directory of <session>.wav (e.g. preprocess output)")
    p.add_argument("--rttm-dir", dest="rttm_dir")
    p.add_argument("--wav", help="single-session input wav")
    p.add_argument("--rttm", help="single-session reference rttm")
    p.add_argument("--session-id", dest="session_id")
    p.add_argument("--participant", default="PAR")
    p.add_argument("--outdir", required=True)
    add_jobs(p)

    p = command("features", _cmd_features, "extract hand-crafted feature sets")
    p.add_argument("--manifest", required=True)
    p.add_argument("--prosody-dir", dest="prosody_dir", required=True)
    p.add_argument("--concat-dir", dest="concat_dir", required=True)
    p.add_argument("--set", default="EG_ALL", choices=list(_FEATURE_SETS))
    p.add_argument("--out", required=True)
    add_jobs(p)

    p = command("embed-import", _cmd_embed_import, "ingest external embeddings")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dim", type=_count, required=True)
    p.add_argument("--out", required=True)

    p = command("diar-metrics", _cmd_diar_metrics,
                "score one hypothesis against a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--collar", type=float, default=0.250)
    p.add_argument("--no-overlap", action="store_true",
                   help="exclude overlapped reference speech from scoring")
    p.add_argument("--out")

    p = command("grid-search", _cmd_grid_search,
                "preprocessing grid search against an external diarizer")
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
    add_jobs(p)

    p = command("cv", _cmd_cv, "nested cross-validation on one target")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    add_target_args(p)
    p.add_argument("--split", default="development",
                   choices=list(corpus.SPLITS))
    p.add_argument("--grid", help="JSON list of pipeline configs")
    p.add_argument("--seed", type=int, default=0)
    add_jobs(p)
    p.add_argument("--feature-set-label", dest="feature_set_label",
                   default="EG_ALL")
    p.add_argument("--input-test-label", dest="input_test_label", default="ALL")
    p.add_argument("--out", required=True)

    p = command("holdout", _cmd_holdout,
                "freeze the voted config and score the holdout split")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    add_target_args(p)
    p.add_argument("--config-from", dest="config_from", required=True,
                   help="cv report JSON providing the majority-vote config")
    p.add_argument("--out", required=True)

    p = command("importance", _cmd_importance, "SVM weight-based feature ranking")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True)
    add_target_args(p)
    p.add_argument("--split", default="development",
                   choices=list(corpus.SPLITS))
    p.add_argument("--config-from", dest="config_from")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = command("report", _cmd_report,
                "hierarchy table + per-level lines from cv/holdout outputs")
    p.add_argument("--cv", nargs="+", required=True)
    p.add_argument("--holdout", nargs="*")
    p.add_argument("--out-dir", dest="out_dir", required=True)

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
