"""End-to-end checks of the command-line interface and its exit codes."""

import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import synth
from cogspeech import wavio
from cogspeech.cli import main
from cogspeech.features import EG_ALL_NAMES, read_feature_csv


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return synth.build_corpus(root, n_subjects=12, seed=0, n_holdout=3)


@pytest.fixture(scope="module")
def preprocessed(corpus, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("pre")
    code = main(["preprocess", "--manifest", str(corpus["manifest"]),
                 "--outdir", str(outdir), "--jobs", "2"])
    assert code == 0
    return outdir


@pytest.fixture(scope="module")
def stream_dir(corpus, preprocessed, tmp_path_factory):
    outdir = tmp_path_factory.mktemp("streams")
    code = main(["streams", "--manifest", str(corpus["manifest"]),
                 "--wav-dir", str(preprocessed),
                 "--rttm-dir", str(corpus["root"] / "rttm"),
                 "--outdir", str(outdir), "--jobs", "2"])
    assert code == 0
    return outdir


@pytest.fixture(scope="module")
def feature_csv(corpus, stream_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("feat") / "features.csv"
    code = main(["features", "--manifest", str(corpus["manifest"]),
                 "--prosody-dir", str(stream_dir),
                 "--concat-dir", str(stream_dir),
                 "--set", "EG_ALL", "--out", str(out), "--jobs", "2"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cv_json(corpus, feature_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("cv") / "cv_cerad.json"
    code = main(["cv", "--features", str(feature_csv),
                 "--manifest", str(corpus["manifest"]),
                 "--level", "3", "--target", "cerad_total",
                 "--kind", "regression", "--seed", "0", "--out", str(out)])
    assert code == 0
    return out


def session_count(corpus):
    return len(corpus["truth"])


# ---------------------------------------------------------------------------
# qc

def test_qc_clean_corpus_passes(corpus, tmp_path):
    out = tmp_path / "qc.jsonl"
    summary = tmp_path / "qc.csv"
    code = main(["qc", "--manifest", str(corpus["manifest"]),
                 "--out", str(out), "--summary", str(summary)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == session_count(corpus)
    assert all(l["overall"] == "pass" for l in lines)
    with open(summary, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "session_id"
    assert len(rows) == session_count(corpus) + 1
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["command"] == "qc"
    assert str(corpus["manifest"]) in manifest["input_hashes"]


def test_qc_summary_into_missing_directory(corpus, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["qc", "--manifest", str(corpus["manifest"]),
                 "--out", "o/qc.jsonl", "--summary", "missing/s.csv"])
    assert code == 0
    assert len((tmp_path / "missing" / "s.csv").read_text().splitlines()) == \
        session_count(corpus) + 1
    assert json.loads((tmp_path / "o" / "run_manifest.json").read_text())[
        "command"] == "qc"


def one_row_manifest(corpus, dest: Path, audio_path: Path) -> Path:
    text = corpus["manifest"].read_text().splitlines()
    header_at = 1 if text[0].startswith("#") else 0
    reader = csv.DictReader(text[header_at:])
    row = next(iter(reader))
    row["audio_path"] = str(audio_path)
    with open(dest, "w", newline="") as fh:
        fh.write("# domain_range = 40, 160\n")
        writer = csv.DictWriter(fh, fieldnames=reader.fieldnames)
        writer.writeheader()
        writer.writerow(row)
    return dest


def test_qc_short_recording_exits_gate_code(corpus, tmp_path):
    sid = next(iter(corpus["truth"].values()))["session_id"]
    samples, rate = wavio.read_wav(corpus["root"] / "audio" / f"{sid}.wav")
    short = tmp_path / "short.wav"
    wavio.write_wav(short, samples[:14 * rate], rate)
    manifest = one_row_manifest(corpus, tmp_path / "m.csv", short)
    code = main(["qc", "--manifest", str(manifest),
                 "--out", str(tmp_path / "qc.jsonl")])
    assert code == 2
    line = json.loads((tmp_path / "qc.jsonl").read_text().splitlines()[0])
    assert line["overall"] == "fail"
    assert line["flags"]["duration"] is False  # the gate that tripped


# ---------------------------------------------------------------------------
# fail-soft batches and cross-checked inputs

@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    return synth.build_corpus(root, n_subjects=6, seed=1, n_holdout=1)


def session_ids(corpus):
    return sorted(info["session_id"] for info in corpus["truth"].values())


def read_failures(outdir: Path) -> list:
    return [json.loads(l) for l in
            (outdir / "failures.jsonl").read_text().splitlines()]


def _alaw(wav: bytes) -> bytes:  # the fmt chunk's format tag set to A-law (6)
    return wav[:20] + b"\x06\x00" + wav[22:]


def _pcm8(wav: bytes) -> bytes:  # 8-bit PCM, as scipy writes uint8
    from scipy.io import wavfile
    out = io.BytesIO()
    wavfile.write(out, 16000, np.full(1600, 128, dtype=np.uint8))
    return out.getvalue()


# each WAV fault: (how it turns the session's float32 WAV into the bad
# file, what the failure record says)
WAV_FAULTS = {
    "garbage": (lambda wav: b"not a wav file" * 100, "cannot decode"),
    "cut_in_riff_header": (lambda wav: wav[:10], "RIFF header cut short"),
    "cut_in_fmt": (lambda wav: wav[:30], "fmt chunk cut short"),
    "no_data_chunk": (lambda wav: wav[:50], "no data chunk"),
    "data_past_eof": (lambda wav: wav[:len(wav) // 2], "runs past the end"),
    "unknown_format": (_alaw, "Unknown wave file format"),
    "pcm_8bit": (_pcm8, "8-bit PCM is not supported"),
}


@pytest.mark.parametrize("fault", WAV_FAULTS)
def test_corrupt_wav_fails_its_session_not_the_batch(small_corpus, tmp_path,
                                                     fault):
    sids = session_ids(small_corpus)
    bad = sids[2]
    corrupt = tmp_path / "corpus"
    shutil.copytree(small_corpus["root"], corrupt)
    wav = corrupt / "audio" / f"{bad}.wav"
    spoil, says = WAV_FAULTS[fault]
    wav.write_bytes(spoil(wav.read_bytes()))
    manifest = str(corrupt / "manifest.csv")
    good = [s for s in sids if s != bad]

    assert main(["qc", "--manifest", manifest,
                 "--out", str(tmp_path / "qc" / "qc.jsonl")]) == 4
    lines = [json.loads(l) for l in
             (tmp_path / "qc" / "qc.jsonl").read_text().splitlines()]
    assert [l["session_id"] for l in lines] == good
    [failure] = read_failures(tmp_path / "qc")
    assert failure["session_id"] == bad and failure["stage"] == "qc"
    assert says in failure["message"] and str(wav) in failure["message"]

    pre, streams = tmp_path / "pre", tmp_path / "streams"
    assert main(["preprocess", "--manifest", manifest,
                 "--outdir", str(pre), "--jobs", "2"]) == 4
    assert sorted(p.stem for p in pre.glob("*.wav")) == good
    assert [f["session_id"] for f in read_failures(pre)] == [bad]

    # downstream stages record the missing session the same way
    assert main(["streams", "--manifest", manifest, "--wav-dir", str(pre),
                 "--rttm-dir", str(corrupt / "rttm"),
                 "--outdir", str(streams)]) == 4
    assert [(f["session_id"], f["stage"]) for f in read_failures(streams)] \
        == [(bad, "streams")]
    out = tmp_path / "feat" / "features.csv"
    assert main(["features", "--manifest", manifest, "--prosody-dir",
                 str(streams), "--concat-dir", str(streams),
                 "--out", str(out), "--jobs", "2"]) == 4
    assert sorted(read_feature_csv(out)[1]) == good
    assert [f["session_id"] for f in read_failures(out.parent)] == [bad]


def test_clean_batch_writes_no_failures_file(small_corpus, tmp_path):
    assert main(["qc", "--manifest", str(small_corpus["manifest"]),
                 "--out", str(tmp_path / "qc.jsonl")]) == 0
    assert not (tmp_path / "failures.jsonl").exists()


def test_manifest_sample_rate_checked_against_wav(small_corpus, tmp_path):
    sids = session_ids(small_corpus)
    text = small_corpus["manifest"].read_text()
    rows = text.splitlines()
    at = next(i for i, line in enumerate(rows) if line.startswith(sids[0]))
    rows[at] = rows[at].replace(",16000,", ",22050,")
    manifest = small_corpus["root"] / "rate_mismatch.csv"
    manifest.write_text("\n".join(rows) + "\n")
    for argv, outdir in (
            (["qc", "--out", str(tmp_path / "qc" / "qc.jsonl")], tmp_path / "qc"),
            (["preprocess", "--outdir", str(tmp_path / "pre")], tmp_path / "pre")):
        assert main(argv + ["--manifest", str(manifest)]) == 4
        [failure] = read_failures(outdir)
        assert failure["session_id"] == sids[0]
        assert "22050" in failure["message"] and "16000" in failure["message"]
    assert sorted(p.stem for p in (tmp_path / "pre").glob("*.wav")) == sids[1:]


# ---------------------------------------------------------------------------
# preprocess

def test_preprocess_outputs_and_audit(corpus, preprocessed):
    wavs = sorted(preprocessed.glob("*.wav"))
    assert len(wavs) == session_count(corpus)
    entries = [json.loads(l) for l in
               (preprocessed / "audit.jsonl").read_text().splitlines()]
    by_session = {}
    for e in entries:
        by_session.setdefault(e["session_id"], []).append(e["stage"])
    for stages in by_session.values():
        assert stages == ["highpass", "spectral_gate", "loudness_normalize"]
    assert (preprocessed / "run_manifest.json").exists()


def test_preprocess_flag_overrides_config(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loudness_target_lufs": -26.0}))
    outdir = tmp_path / "pre"
    code = main(["preprocess", "--manifest", str(corpus["manifest"]),
                 "--outdir", str(outdir), "--config", str(cfg),
                 "--loudness-target", "-24.0"])
    assert code == 0
    entries = [json.loads(l) for l in
               (outdir / "audit.jsonl").read_text().splitlines()]
    targets = {e["params"]["target_lufs"] for e in entries
               if e["stage"] == "loudness_normalize"}
    assert targets == {-24.0}


def test_preprocess_unknown_config_key_is_config_error(corpus, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_knob": 1.0}))
    code = main(["preprocess", "--manifest", str(corpus["manifest"]),
                 "--outdir", str(tmp_path / "pre"), "--config", str(cfg)])
    assert code == 3


def test_preprocess_replay_is_byte_identical(corpus, tmp_path):
    manifest = one_row_manifest(
        corpus, tmp_path / "m.csv",
        corpus["root"] / "audio" /
        (next(iter(corpus["truth"].values()))["session_id"] + ".wav"))
    dirs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        assert main(["preprocess", "--manifest", str(manifest),
                     "--outdir", str(outdir)]) == 0
        dirs.append(outdir)
    wav_a = sorted(dirs[0].glob("*.wav"))[0]
    wav_b = dirs[1] / wav_a.name
    assert wav_a.read_bytes() == wav_b.read_bytes()
    assert (dirs[0] / "audit.jsonl").read_bytes() == \
        (dirs[1] / "audit.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# streams + features

def test_streams_outputs(corpus, stream_dir):
    for info in corpus["truth"].values():
        sid = info["session_id"]
        assert (stream_dir / f"{sid}.prosody.wav").exists()
        assert (stream_dir / f"{sid}.concat.wav").exists()
    lines = [json.loads(l) for l in
             (stream_dir / "transitions.jsonl").read_text().splitlines()]
    per_session = [l for l in lines if "junctions" in l]
    assert len(per_session) == session_count(corpus)


def test_streams_single_session_form(corpus, preprocessed, tmp_path):
    sid = next(iter(corpus["truth"].values()))["session_id"]
    code = main(["streams", "--wav", str(preprocessed / f"{sid}.wav"),
                 "--rttm", str(corpus["root"] / "rttm" / f"{sid}.rttm"),
                 "--outdir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / f"{sid}.prosody.wav").exists()


def test_streams_missing_rttm_is_input_error(corpus, preprocessed, tmp_path):
    sid = next(iter(corpus["truth"].values()))["session_id"]
    code = main(["streams", "--wav", str(preprocessed / f"{sid}.wav"),
                 "--rttm", str(tmp_path / "nope.rttm"),
                 "--outdir", str(tmp_path)])
    assert code == 4


def test_features_table_shape(corpus, feature_csv):
    names, rows = read_feature_csv(feature_csv)
    assert names == list(EG_ALL_NAMES)
    assert len(rows) == session_count(corpus)
    for values in rows.values():
        assert len(values) == len(EG_ALL_NAMES)  # nothing absent


def test_features_unknown_set_is_config_error(corpus, stream_dir, tmp_path):
    code = main(["features", "--manifest", str(corpus["manifest"]),
                 "--prosody-dir", str(stream_dir),
                 "--concat-dir", str(stream_dir),
                 "--set", "EG_EVERYTHING", "--out", str(tmp_path / "f.csv")])
    assert code == 3


# ---------------------------------------------------------------------------
# embed-import and diar-metrics

def test_embed_import_round_trip(tmp_path):
    src = tmp_path / "emb.jsonl"
    src.write_text(
        json.dumps({"session_id": "s1", "dim": 3,
                    "values": [[1.0, 2.0, 3.0], [3.0, 4.0, 5.0]]}) + "\n")
    out = tmp_path / "emb.csv"
    assert main(["embed-import", "--in", str(src), "--dim", "3",
                 "--out", str(out)]) == 0
    names, rows = read_feature_csv(out)
    assert names == ["emb_000", "emb_001", "emb_002"]
    assert rows["s1"] == {"emb_000": 2.0, "emb_001": 3.0, "emb_002": 4.0}


def test_embed_import_dimension_error(tmp_path):
    src = tmp_path / "emb.jsonl"
    src.write_text(json.dumps({"session_id": "s1", "dim": 3,
                               "values": [1.0, 2.0, 3.0]}) + "\n")
    assert main(["embed-import", "--in", str(src), "--dim", "5",
                 "--out", str(tmp_path / "o.csv")]) == 4


def test_diar_metrics_identity(corpus, tmp_path, capsys, monkeypatch):
    sid = next(iter(corpus["truth"].values()))["session_id"]
    rttm = corpus["root"] / "rttm" / f"{sid}.rttm"
    out = tmp_path / "scores.json"
    assert main(["diar-metrics", "--ref", str(rttm), "--hyp", str(rttm),
                 "--out", str(out)]) == 0
    scores = json.loads(out.read_text())
    assert scores["der"] == 0.0
    assert scores["jer"] == 0.0
    # without --out the scores go to stdout, and no file is written
    written = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    assert main(["diar-metrics", "--ref", str(rttm), "--hyp", str(rttm)]) == 0
    assert json.loads(capsys.readouterr().out)["der"] == 0.0
    assert sorted(tmp_path.rglob("*")) == written


@pytest.mark.parametrize("collar", ["nan", "inf", "-0.1"])
def test_non_finite_or_negative_collar_is_config_error(corpus, tmp_path,
                                                       capsys, collar):
    rttm = str(corpus["root"] / "rttm" /
               f"{next(iter(corpus['truth'].values()))['session_id']}.rttm")
    assert_config_error(["diar-metrics", "--ref", rttm, "--hyp", rttm,
                         "--collar", collar], capsys)
    tuning, validation = subject_split(corpus)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"gate_alpha": [0.3]}))
    assert_config_error(
        ["grid-search", "--grid", str(grid), "--manifest", str(corpus["manifest"]),
         "--rttm-dir", str(corpus["root"] / "rttm"), "--adapter", "false",
         "--tuning-subjects", tuning, "--validation-subjects", validation,
         "--workdir", str(tmp_path / "work"), "--out", str(tmp_path / "grid.csv"),
         "--collar", collar], capsys)
    assert not list(tmp_path.rglob("*.wav"))  # refused before any session


UNDECODABLE = b"\xff\xfe\x00garbage"


def test_undecodable_rttm_fails_its_session_not_the_batch(tmp_path, capsys):
    corpus = synth.build_corpus(tmp_path / "c", n_subjects=3, seed=2, n_holdout=1)
    sids = session_ids(corpus)
    rttm_dir = corpus["root"] / "rttm"
    (rttm_dir / f"{sids[1]}.rttm").write_bytes(UNDECODABLE)
    out = tmp_path / "streams"
    assert main(["streams", "--manifest", str(corpus["manifest"]),
                 "--rttm-dir", str(rttm_dir), "--outdir", str(out)]) == 4
    [failure] = read_failures(out)
    assert failure["session_id"] == sids[1] and "UTF-8" in failure["message"]
    assert (out / "run_manifest.json").is_file()
    assert sorted(p.name.split(".")[0] for p in out.glob("*.concat.wav")) \
        == [sids[0], sids[2]]
    good = str(rttm_dir / f"{sids[0]}.rttm")
    bad = str(rttm_dir / f"{sids[1]}.rttm")
    capsys.readouterr()
    assert main(["diar-metrics", "--ref", good, "--hyp", bad]) == 4
    err = capsys.readouterr().err
    assert "line 1" in err and "UTF-8" in err and "Traceback" not in err


def test_undecodable_manifest_is_input_error(corpus, tmp_path, capsys):
    bad = tmp_path / "m.csv"
    bad.write_bytes(corpus["manifest"].read_bytes() + UNDECODABLE + b"\n")
    assert main(["qc", "--manifest", str(bad),
                 "--out", str(tmp_path / "qc.jsonl")]) == 4
    err = capsys.readouterr().err
    assert "UTF-8" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# grid-search

def subject_split(corpus):
    subjects = sorted(corpus["truth"])
    return ",".join(subjects[:8]), ",".join(subjects[8:])


def test_grid_search_cli_identity_adapter(corpus, tmp_path, monkeypatch):
    rttm_dir = corpus["root"] / "rttm"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"gate_alpha": [0.0, 1.0]}))
    work = tmp_path / "scratch"
    monkeypatch.setenv("COGSPEECH_TMPDIR", str(work))
    tuning, validation = subject_split(corpus)
    out = tmp_path / "grid.csv"
    code = main(["grid-search", "--grid", str(grid),
                 "--manifest", str(corpus["manifest"]),
                 "--rttm-dir", str(rttm_dir),
                 "--adapter", f"cp {rttm_dir}/{{session_id}}.rttm {{output}}",
                 "--tuning-subjects", tuning,
                 "--validation-subjects", validation,
                 "--out", str(out), "--jobs", "2"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["tuning_der"]) == 0.0
    assert rows[0]["validation_der"] != ""
    # temp-dir override is honored: preprocessed cache lives under it
    assert any(work.rglob("*.wav"))


def test_grid_search_all_points_failing_exits_adapter_code(corpus, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"gate_alpha": [1.0]}))
    tuning, validation = subject_split(corpus)
    code = main(["grid-search", "--grid", str(grid),
                 "--manifest", str(corpus["manifest"]),
                 "--rttm-dir", str(corpus["root"] / "rttm"),
                 "--adapter", "false",
                 "--tuning-subjects", tuning,
                 "--validation-subjects", validation,
                 "--workdir", str(tmp_path / "w"),
                 "--out", str(tmp_path / "grid.csv")])
    assert code == 5


# ---------------------------------------------------------------------------
# cv / holdout / importance / report

def test_cv_report_schema(corpus, cv_json):
    payload = json.loads(cv_json.read_text())
    assert payload["target"] == {"level": 3, "name": "cerad_total",
                                 "kind": "regression"}
    assert len(payload["folds"]) == 5
    assert set(payload["summary"]) == {"r", "r2"}
    assert payload["n_sessions"] == 9  # development split only
    assert payload["majority_vote_config"].startswith("ridge")
    assert (cv_json.parent / "run_manifest.json").exists()


def test_cv_custom_grid_file(corpus, feature_csv, tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"estimator": "ridge", "lam": 1.0}]))
    out = tmp_path / "cv.json"
    code = main(["cv", "--features", str(feature_csv),
                 "--manifest", str(corpus["manifest"]),
                 "--level", "1", "--target", "MMSE", "--kind", "regression",
                 "--grid", str(grid), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["majority_vote_config"] == "ridge(lam=1.0), pca=passthrough"


def _outputs(directory: Path) -> dict:
    """Every file a stage wrote, by name, except the run manifest (which
    records the --jobs argument)."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file() and p.name != "run_manifest.json"}


def test_audio_stages_replay_across_jobs(corpus, preprocessed, stream_dir,
                                         feature_csv, tmp_path):
    pre, streams = tmp_path / "pre", tmp_path / "streams"
    feats = tmp_path / "feat" / "features.csv"
    assert main(["preprocess", "--manifest", str(corpus["manifest"]),
                 "--outdir", str(pre), "--jobs", "1"]) == 0
    assert main(["streams", "--manifest", str(corpus["manifest"]),
                 "--wav-dir", str(pre),
                 "--rttm-dir", str(corpus["root"] / "rttm"),
                 "--outdir", str(streams), "--jobs", "1"]) == 0
    assert main(["features", "--manifest", str(corpus["manifest"]),
                 "--prosody-dir", str(streams), "--concat-dir", str(streams),
                 "--set", "EG_ALL", "--out", str(feats), "--jobs", "1"]) == 0
    for one, two in ((pre, preprocessed), (streams, stream_dir),
                     (feats.parent, feature_csv.parent)):
        got, want = _outputs(one), _outputs(two)
        assert sorted(got) == sorted(want)
        assert [n for n in want if got[n] != want[n]] == []
    assert "audit.jsonl" in _outputs(pre) and "features.csv" in _outputs(feats.parent)


def test_cv_fit_log_replays_across_jobs(corpus, feature_csv, tmp_path):
    logs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}" / "cv.json"
        code = main(["cv", "--features", str(feature_csv),
                     "--manifest", str(corpus["manifest"]),
                     "--level", "3", "--target", "cerad_total",
                     "--kind", "regression", "--seed", "0",
                     "--jobs", jobs, "--out", str(out)])
        assert code == 0
        logs.append((out.parent / "fit_log.jsonl").read_bytes())
    assert logs[0] == logs[1]
    lines = logs[0].decode().splitlines()
    assert len(lines) == 230  # 5 outer x 3 inner x 15 ridge configs + 5 refits
    for line in lines:
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True)
        assert rec["train_subjects"] == sorted(rec["train_subjects"])
        assert rec["eval_subjects"] == sorted(rec["eval_subjects"])
        assert not set(rec["train_subjects"]) & set(rec["eval_subjects"])
    assert [json.loads(l)["stage"] for l in lines[-5:]] == ["outer"] * 5


def test_qc_warns_on_broken_label_hierarchy(corpus, feature_csv, cv_json,
                                           tmp_path, capsys):
    assert main(["qc", "--manifest", str(corpus["manifest"]),
                 "--out", str(tmp_path / "clean" / "qc.jsonl")]) == 0
    assert "warning" not in capsys.readouterr().err
    text = corpus["manifest"].read_text().splitlines()
    header_at = 1 if text[0].startswith("#") else 0
    reader = csv.DictReader(text[header_at:])
    rows = list(reader)
    rows[0]["cerad_binary"] = str(1 - int(rows[0]["cerad_binary"]))
    for row in rows:  # the copy lives elsewhere; keep the audio reachable
        row["audio_path"] = str(corpus["manifest"].parent / row["audio_path"])
    broken = tmp_path / "m.csv"
    with open(broken, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in text[:header_at])
        writer = csv.DictWriter(fh, fieldnames=reader.fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    code = main(["qc", "--manifest", str(broken),
                 "--out", str(tmp_path / "qc.jsonl")])
    assert code == 0  # a warning, not a gate failure
    warning = f"warning: {rows[0]['session_id']}: binary_threshold_mismatch"
    err = capsys.readouterr().err
    assert warning in err and err.count("warning") == 1
    # the modeling commands read the same labels and warn once each,
    # holdout too, although it builds two datasets
    table = ["--features", str(feature_csv), "--manifest", str(broken),
             "--level", "3"]
    for argv in (["importance", *table, "--target", "mci",
                  "--kind", "classification"],
                 ["holdout", *table, "--target", "cerad_total",
                  "--kind", "regression", "--config-from", str(cv_json)]):
        assert main(argv + ["--out", str(tmp_path / argv[0] / "out")]) == 0
        err = capsys.readouterr().err
        assert warning in err and err.count("warning") == 1, argv[0]


def test_holdout_uses_voted_config(corpus, feature_csv, cv_json, tmp_path):
    out = tmp_path / "ho.json"
    code = main(["holdout", "--features", str(feature_csv),
                 "--manifest", str(corpus["manifest"]),
                 "--level", "3", "--target", "cerad_total",
                 "--kind", "regression", "--config-from", str(cv_json),
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["n_holdout_sessions"] == 3
    assert "r" in payload["metrics"]
    assert payload["config"] == json.loads(
        cv_json.read_text())["majority_vote_config"]


def test_importance_ranking_csv(corpus, feature_csv, tmp_path):
    out = tmp_path / "imp.csv"
    code = main(["importance", "--features", str(feature_csv),
                 "--manifest", str(corpus["manifest"]),
                 "--level", "3", "--target", "mci", "--kind", "classification",
                 "--C", "1.0", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    mags = [abs(float(r["weight"])) for r in rows]
    assert mags == sorted(mags, reverse=True)
    assert {r["feature"] for r in rows} <= set(EG_ALL_NAMES)


def test_importance_hashes_its_config_from_report(corpus, feature_csv,
                                                 tmp_path):
    report = tmp_path / "cv.json"
    report.write_text(json.dumps({"majority_vote_config_params": {
        "estimator": "linear_svm", "C": 1.0, "pca": "passthrough"}}))
    code = main(["importance", "--features", str(feature_csv),
                 "--manifest", str(corpus["manifest"]),
                 "--level", "3", "--target", "mci", "--kind", "classification",
                 "--config-from", str(report),
                 "--out", str(tmp_path / "o" / "imp.csv")])
    assert code == 0
    record = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
    assert record["input_hashes"][str(report)] == \
        hashlib.sha256(report.read_bytes()).hexdigest()
    assert len(record["input_hashes"]) == 3


def test_importance_needs_classification(corpus, feature_csv, tmp_path):
    code = main(["importance", "--features", str(feature_csv),
                 "--manifest", str(corpus["manifest"]),
                 "--level", "3", "--target", "cerad_total",
                 "--kind", "regression", "--out", str(tmp_path / "i.csv")])
    assert code == 3


def test_report_table(corpus, feature_csv, cv_json, tmp_path, capsys):
    ho = tmp_path / "ho.json"
    assert main(["holdout", "--features", str(feature_csv),
                 "--manifest", str(corpus["manifest"]),
                 "--level", "3", "--target", "cerad_total",
                 "--kind", "regression", "--config-from", str(cv_json),
                 "--out", str(ho)]) == 0
    outdir = tmp_path / "report"
    assert main(["report", "--cv", str(cv_json), "--holdout", str(ho),
                 "--out-dir", str(outdir)]) == 0
    with open(outdir / "hierarchy_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["Level-Target", "Input Test", "Feature", "Metric",
                       "DEV Set", "HO Set"]
    assert rows[1][0] == "L3-cerad_total"
    assert rows[1][5] != ""  # holdout column filled
    assert (outdir / "per_level_lines.csv").exists()
    assert "L3-cerad_total" in capsys.readouterr().out


def test_report_warns_of_a_holdout_result_without_its_cv_report(
        cv_json, tmp_path, capsys):
    other = _holdout_result(target=_target(name="mmse"))
    files = [tmp_path / "ho_cerad.json", tmp_path / "ho_mmse.json"]
    files[0].write_text(json.dumps(_holdout_result()))
    files[1].write_text(json.dumps(other))
    outdir = tmp_path / "report"
    assert main(["report", "--cv", str(cv_json), "--holdout", *map(str, files),
                 "--out-dir", str(outdir)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if "warning" in line]
    assert len(warnings) == 1 and str(files[1]) in warnings[0], warnings
    with open(outdir / "hierarchy_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(r[0], r[5]) for r in rows] == [("L3-cerad_total", "0.500")]


def test_report_warns_when_two_holdout_results_share_a_target(
        cv_json, tmp_path, capsys):
    files = [tmp_path / "ho_a.json", tmp_path / "ho_b.json"]
    files[0].write_text(json.dumps(_holdout_result()))
    files[1].write_text(json.dumps(_holdout_result(metrics={"r": 0.123})))
    outdir = tmp_path / "report"
    assert main(["report", "--cv", str(cv_json), "--holdout", *map(str, files),
                 "--out-dir", str(outdir)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if "warning" in line]
    assert len(warnings) == 1, warnings
    assert all(str(f) in warnings[0] for f in files), warnings
    with open(outdir / "hierarchy_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(r[0], r[5]) for r in rows] == [("L3-cerad_total", "0.123")]


def test_split_spanning_tasks_or_rates_warns(corpus, feature_csv, tmp_path,
                                            capsys):
    manifest = tmp_path / "manifest.csv"
    text = corpus["manifest"].read_text()
    dev = [t["session_id"] for t in corpus["truth"].values()
           if t["split"] == "development"]
    lines = [line.replace(",MMSE,", ",RW,") if line.startswith(dev[0] + ",")
             else line.replace(",16000,", ",8000,")
             if line.startswith(dev[1] + ",") else line
             for line in text.splitlines()]
    manifest.write_text("\n".join(lines) + "\n")
    argv = ["cv", "--features", str(feature_csv), "--level", "3",
            "--target", "cerad_total", "--kind", "regression"]
    capsys.readouterr()
    assert main([*argv, "--manifest", str(corpus["manifest"]),
                 "--out", str(tmp_path / "one" / "cv.json")]) == 0
    assert "warning" not in capsys.readouterr().err
    assert main([*argv, "--manifest", str(manifest),
                 "--out", str(tmp_path / "mixed" / "cv.json")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if "warning" in line]
    assert warnings == [
        "warning: split 'development' pools 2 tasks: MMSE, RW",
        "warning: split 'development' pools 2 sample rates: 8000, 16000"]


# ---------------------------------------------------------------------------
# both arms: hand-crafted features and embeddings of one corpus

def test_both_arms_run_every_modelling_stage(corpus, feature_csv, tmp_path,
                                            capsys):
    # the EG_ALL table and a planted 768-wide embedding table of the same
    # corpus, through cv, holdout and importance on one fold seed, then
    # into one report
    dump = synth.write_embedding_dump(corpus, tmp_path / "frames.jsonl")
    tables = {"EG_ALL": feature_csv, "EMBEDDING": tmp_path / "emb.csv"}
    assert main(["embed-import", "--in", str(dump), "--dim", "768",
                 "--out", str(tables["EMBEDDING"])]) == 0
    cvs, holdouts = [], []
    for label, table in tables.items():
        out = tmp_path / label
        common = ["--features", str(table), "--manifest",
                  str(corpus["manifest"]), "--level", "3"]
        regression = [*common, "--target", "cerad_total", "--kind",
                      "regression"]
        cvs.append(str(out / "cv.json"))
        holdouts.append(str(out / "holdout.json"))
        assert main(["cv", *regression, "--seed", "0", "--feature-set-label",
                     label, "--out", cvs[-1]]) == 0
        assert main(["holdout", *regression, "--config-from", cvs[-1],
                     "--out", holdouts[-1]]) == 0
        assert main(["importance", *common, "--target", "mci", "--kind",
                     "classification", "--out", str(out / "imp.csv")]) == 0
        names, _ = read_feature_csv(table)
        with open(out / "imp.csv", newline="") as fh:
            assert sorted(r["feature"] for r in csv.DictReader(fh)) == \
                sorted(names)
    reports = [json.loads(Path(p).read_text()) for p in cvs]
    assert reports[0]["n_sessions"] == reports[1]["n_sessions"] == 9
    # the embedding arm carries the planted latent to the held-out subjects
    assert json.loads(Path(holdouts[1]).read_text())["metrics"]["r"] > 0.9
    outdir = tmp_path / "report"
    assert main(["report", "--cv", *cvs, "--holdout", *holdouts,
                 "--out-dir", str(outdir)]) == 0
    assert "warning" not in capsys.readouterr().err
    with open(outdir / "hierarchy_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(r[0], r[2]) for r in rows] == [("L3-cerad_total", "EG_ALL"),
                                            ("L3-cerad_total", "EMBEDDING")]
    assert all(r[5] != "" for r in rows)


# ---------------------------------------------------------------------------
# run manifests

COMMANDS = ("qc", "preprocess", "streams", "features", "embed-import",
            "diar-metrics", "grid-search", "cv", "holdout", "importance",
            "report")


@pytest.mark.parametrize("command", COMMANDS)
def test_one_run_manifest_names_command_and_hashes_inputs(
        command, corpus, preprocessed, stream_dir, feature_csv, cv_json,
        tmp_path):
    manifest, features = str(corpus["manifest"]), str(feature_csv)
    rttm_dir = corpus["root"] / "rttm"
    ref, hyp = (str(rttm_dir / f"{sid}.rttm") for sid in session_ids(corpus)[:2])
    emb, grid = tmp_path / "emb.jsonl", tmp_path / "grid.json"
    emb.write_text(json.dumps({"session_id": "s1", "dim": 1,
                               "values": [1.0]}) + "\n")
    grid.write_text(json.dumps({"gate_alpha": [0.3]}))
    tuning, validation = subject_split(corpus)
    target = ["--features", features, "--manifest", manifest, "--level", "3"]
    out = tmp_path / "out"
    # the audio stages and cv ran in the module fixtures
    runs = {
        "qc": (["--manifest", manifest, "--out", str(out / "qc.jsonl")],
               [manifest]),
        "preprocess": (preprocessed, [manifest]),
        "streams": (stream_dir, [manifest]),
        "features": (feature_csv.parent, [manifest]),
        "embed-import": (["--in", str(emb), "--dim", "1",
                          "--out", str(out / "emb.csv")], [str(emb)]),
        "diar-metrics": (["--ref", ref, "--hyp", hyp,
                          "--out", str(out / "scores.json")], [ref, hyp]),
        "grid-search": (["--grid", str(grid), "--manifest", manifest,
                         "--rttm-dir", str(rttm_dir),
                         "--adapter", f"cp {rttm_dir}/{{session_id}}.rttm "
                                      f"{{output}}",
                         "--tuning-subjects", tuning,
                         "--validation-subjects", validation,
                         "--workdir", str(tmp_path / "work"),
                         "--out", str(out / "grid.csv")],
                        [str(grid), manifest]),
        "cv": (cv_json.parent, [manifest, features]),
        "holdout": ([*target, "--target", "cerad_total", "--kind",
                     "regression", "--config-from", str(cv_json),
                     "--out", str(out / "ho.json")],
                    [manifest, features, str(cv_json)]),
        "importance": ([*target, "--target", "mci", "--kind", "classification",
                        "--out", str(out / "imp.csv")], [manifest, features]),
        "report": (["--cv", str(cv_json), "--out-dir", str(out)],
                   [str(cv_json)]),
    }
    argv, inputs = runs[command]
    if isinstance(argv, list):
        assert main([command, *argv]) == 0
    outdir = out if isinstance(argv, list) else argv
    [found] = outdir.rglob("run_manifest.json")
    record = json.loads(found.read_text())
    assert record["command"] == command
    assert record["input_hashes"] == {
        p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}


# ---------------------------------------------------------------------------
# exit-code scheme

def test_bad_flag_and_subcommand_are_config_errors(tmp_path):
    assert main(["qc", "--manifest", "m.csv", "--out", "o", "--nope"]) == 3
    assert main(["frobnicate"]) == 3


def test_jobs_below_one_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    required = {
        "qc": ["--manifest", "m.csv", "--out", "o"],
        "preprocess": ["--manifest", "m.csv", "--outdir", "o"],
        "streams": ["--manifest", "m.csv", "--outdir", "o"],
        "features": ["--manifest", "m.csv", "--prosody-dir", "p",
                     "--concat-dir", "c", "--out", "o"],
        "grid-search": ["--grid", "g.json", "--manifest", "m.csv",
                        "--rttm-dir", "r", "--adapter", "false",
                        "--tuning-subjects", "a", "--validation-subjects", "b",
                        "--out", "o"],
        "cv": ["--features", "f.csv", "--manifest", "m.csv", "--level", "1",
               "--target", "MMSE", "--kind", "regression", "--out", "o"],
    }
    for command, argv in required.items():
        for jobs in ("0", "-1"):
            assert main([command, *argv, "--jobs", jobs]) == 3
            err = capsys.readouterr().err
            assert "argument --jobs: must be >= 1" in err, (command, err)
    assert list(tmp_path.iterdir()) == []  # refused before anything ran


def test_missing_manifest_is_input_error(tmp_path):
    assert main(["qc", "--manifest", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "o.jsonl")]) == 4


def test_malformed_manifest_header_is_input_error(corpus, tmp_path, capsys):
    bad = tmp_path / "m.csv"
    bad.write_text("# domain_range=abc\n" + corpus["manifest"].read_text())
    assert main(["qc", "--manifest", str(bad),
                 "--out", str(tmp_path / "qc.jsonl")]) == 4
    err = capsys.readouterr().err
    assert "line 1" in err and "Traceback" not in err


def test_reversed_domain_range_is_input_error(corpus, tmp_path, capsys):
    bad = tmp_path / "m.csv"
    bad.write_text(corpus["manifest"].read_text().replace(
        "# domain_range = 40, 160", "# domain_range = 160, 40"))
    assert main(["qc", "--manifest", str(bad),
                 "--out", str(tmp_path / "qc.jsonl")]) == 4
    err = capsys.readouterr().err
    assert "line 1" in err and "out_of_range" not in err


NOT_JSON = "{not json"


def assert_config_error(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_preprocess_malformed_config_is_config_error(corpus, tmp_path,
                                                     capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(NOT_JSON)
    assert_config_error(["preprocess", "--manifest", str(corpus["manifest"]),
                         "--outdir", str(tmp_path / "o"),
                         "--config", str(cfg)], capsys)


BAD_PREPROCESS_VALUES = [("gate_margin_db", float("nan")),
                         ("highpass_order", 6.5), ("highpass_order", "6"),
                         ("highpass_order", True), ("gate_alpha", 1.5),
                         ("gate_frame_s", float("nan")),
                         ("gate_hop_s", float("inf"))]


def test_preprocess_out_of_range_values_are_config_errors(corpus, tmp_path,
                                                         capsys):
    manifest = one_row_manifest(
        corpus, tmp_path / "m.csv",
        corpus["root"] / "audio" /
        (next(iter(corpus["truth"].values()))["session_id"] + ".wav"))
    extras = [["--highpass-cutoff", "0"], ["--highpass-cutoff", "nan"],
              ["--loudness-target", "nan"]]
    for i, (key, value) in enumerate(BAD_PREPROCESS_VALUES):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(json.dumps({key: value}))  # json writes and reads NaN
        extras.append(["--config", str(cfg)])
    for extra in extras:
        assert_config_error(["preprocess", "--manifest", str(manifest),
                             "--outdir", str(tmp_path / "o"), *extra], capsys)
        assert not (tmp_path / "o").exists(), extra  # refused before any session


def test_grid_search_malformed_grid_is_config_error(corpus, tmp_path, capsys):
    tuning, validation = subject_split(corpus)
    points = [json.dumps({"gate_alpha": [0.3], key: [value]})
              for key, value in BAD_PREPROCESS_VALUES
              if key in ("highpass_order", "gate_alpha")]
    for text in (NOT_JSON, "[1, 2]", *points):
        grid = tmp_path / "grid.json"
        grid.write_text(text)
        assert_config_error(
            ["grid-search", "--grid", str(grid),
             "--manifest", str(corpus["manifest"]),
             "--rttm-dir", str(corpus["root"] / "rttm"), "--adapter", "false",
             "--tuning-subjects", tuning, "--validation-subjects", validation,
             "--workdir", str(tmp_path / "work"),
             "--out", str(tmp_path / "grid.csv")], capsys)
        # refused before any session is preprocessed
        assert not list(tmp_path.rglob("*.wav")), text
        assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("text", [NOT_JSON, '[{"lam": 1.0}]', '["ridge"]',
                                  '[{"estimator": "ridge", "lam": 1.0, '
                                  '"pca": "half"}]',
                                  '[{"estimator": "ridge", "lam": "x"}]',
                                  '[{"estimator": "ridge", "lam": NaN}]',
                                  '[{"estimator": "ridge", "lam": Infinity}]',
                                  '[{"estimator": "ridge", "lam": 1.0, '
                                  '"pca": 1.5}]',
                                  '[{"estimator": "ridge", "lam": true}]',
                                  '[{"estimator": "ridge", "lam": 1.0, '
                                  '"pca": true}]'])
def test_cv_malformed_grid_is_config_error(corpus, feature_csv, tmp_path,
                                           capsys, text):
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    assert_config_error(["cv", "--features", str(feature_csv),
                         "--manifest", str(corpus["manifest"]),
                         "--level", "1", "--target", "MMSE",
                         "--kind", "regression", "--grid", str(grid),
                         "--out", str(tmp_path / "cv.json")], capsys)


@pytest.mark.parametrize("text", [NOT_JSON, '{"summary": {}}'])
def test_holdout_malformed_config_from_is_config_error(
        corpus, feature_csv, tmp_path, capsys, text):
    cfg = tmp_path / "cv.json"
    cfg.write_text(text)
    assert_config_error(["holdout", "--features", str(feature_csv),
                         "--manifest", str(corpus["manifest"]),
                         "--level", "3", "--target", "cerad_total",
                         "--kind", "regression", "--config-from", str(cfg),
                         "--out", str(tmp_path / "ho.json")], capsys)


@pytest.mark.parametrize("text", [NOT_JSON, '{"summary": {}}'])
def test_importance_malformed_config_from_is_config_error(
        corpus, feature_csv, tmp_path, capsys, text):
    cfg = tmp_path / "cv.json"
    cfg.write_text(text)
    assert_config_error(["importance", "--features", str(feature_csv),
                         "--manifest", str(corpus["manifest"]),
                         "--level", "3", "--target", "mci",
                         "--kind", "classification", "--config-from", str(cfg),
                         "--out", str(tmp_path / "imp.csv")], capsys)


@pytest.mark.parametrize("text", [NOT_JSON, '{"summary": {}}',
                                  '{"target": 3, "summary": {}}'])
def test_report_malformed_cv_is_config_error(tmp_path, capsys, text):
    cv = tmp_path / "cv.json"
    cv.write_text(text)
    assert_config_error(["report", "--cv", str(cv),
                         "--out-dir", str(tmp_path / "report")], capsys)


# Every malformed input of embed-import, of the feature table and of the
# cv/holdout result files, as (command, fault) cases. Each must exit 3 or 4
# with a stderr line naming the bad file (or flag), no traceback and no
# output written.
EMBED_FAULTS = {
    "jsonl-no-dim": ('{"session_id": "s1", "values": [1.0, 2.0]}', ".jsonl"),
    "jsonl-text-dim": ('{"session_id": "s1", "dim": "two", '
                       '"values": [1.0, 2.0]}', ".jsonl"),
    "jsonl-text-value": ('{"session_id": "s1", "dim": 2, '
                         '"values": [1.0, "x"]}', ".jsonl"),
    "jsonl-list-line": ("[1.0, 2.0]", ".jsonl"),
    "csv-no-dim": ("session_id,dim,v0,v1\ns1", ".csv"),
    "csv-text-dim": ("session_id,dim,v0,v1\ns1,two,1.0,2.0", ".csv"),
    "csv-text-value": ("session_id,dim,v0,v1\ns1,2,1.0,x", ".csv"),
    "dim-zero": ('{"session_id": "s1", "dim": 2, "values": [1.0, 2.0]}',
                 ".jsonl", "0"),
    "dim-negative": ("session_id,dim,v0,v1\ns1,2,1.0,2.0", ".csv", "-1"),
    "jsonl-not-utf8": (b'{"session_id": "s1", "dim": 2, "values": [1.0, 2.0]}'
                       b'\n{"session_id": "s\xff2", "dim": 2, '
                       b'"values": [1.0, 2.0]}', ".jsonl"),
    "csv-not-utf8": (b"session_id,dim,v0,v1\ns1,2,1.0,\xff2.0", ".csv"),
}
TABLE_FAULTS = ("text-cell", "nan-cell", "inf-cell", "duplicate-column",
                "not-utf8")


def _target(level=3, name="cerad_total", kind="regression"):
    return {"level": level, "name": name, "kind": kind}


def _holdout_result(**change):
    return {"target": _target(), "metrics": {"r": 0.5, "r2": 0.1},
            "input_test_label": "ALL", "feature_set_label": "EG_ALL",
            **change}


# (file kind, payload edit): each read by report; the cv reports also by
# holdout and importance through --config-from
RESULT_FAULTS = {
    "cv-level-text": ("cv", {"target": _target(level="2")}),
    "cv-level-four": ("cv", {"target": _target(level=4)}),
    "cv-level-float": ("cv", {"target": _target(level=3.0)}),
    "cv-name-number": ("cv", {"target": _target(name=7)}),
    "cv-kind-unknown": ("cv", {"target": _target(kind="ranking")}),
    "cv-no-target": ("cv", {"target": None}),
    "cv-mean-text": ("cv", {"summary": {"r": {"mean": "0.9", "sd": 0.1}}}),
    "cv-sd-bool": ("cv", {"summary": {"r": {"mean": 0.9, "sd": True}}}),
    "cv-no-metric": ("cv", {"summary": {"balanced_accuracy": {
        "mean": 0.9, "sd": 0.1}}}),
    "cv-label-list": ("cv", {"feature_set_label": ["EG_ALL"]}),
    "cv-voted-config-text": ("cv", {"majority_vote_config_params": "ridge"}),
    "cv-voted-config-lam-text": ("cv", {"majority_vote_config_params": {
        "estimator": "ridge", "lam": "x", "pca": "passthrough"}}),
    "holdout-metric-text": ("holdout", _holdout_result(metrics={"r": "0.5"})),
    "holdout-level-text": ("holdout", _holdout_result(
        target=_target(level="3"))),
    "holdout-no-metrics": ("holdout", _holdout_result(metrics=None)),
    "holdout-label-number": ("holdout", _holdout_result(input_test_label=1)),
}
# holdout and importance read a cv report's labels and voted config;
# report reads no voted config
VOTED_CONFIG_FAULTS = ("cv-voted-config-text", "cv-voted-config-lam-text")
CONFIG_FROM_FAULTS = ("cv-label-list", *VOTED_CONFIG_FAULTS)
INPUT_FAULTS = (
    [("embed-import", fault) for fault in EMBED_FAULTS]
    + [(command, fault) for command in ("cv", "holdout", "importance")
       for fault in TABLE_FAULTS]
    + [(command, fault) for command in ("holdout", "importance")
       for fault in CONFIG_FROM_FAULTS]
    + [("report", fault) for fault in RESULT_FAULTS
       if fault not in VOTED_CONFIG_FAULTS])


def _bad_table(feature_csv: Path, fault: str, dest: Path) -> Path:
    lines = feature_csv.read_text().splitlines()
    header, first = lines[0].split(","), lines[1].split(",")
    if fault == "not-utf8":
        dest.write_bytes(feature_csv.read_bytes().replace(b"\n", b"\n\xff", 1))
        return dest
    if fault == "duplicate-column":
        header[2] = header[1]
    else:
        first[3] = {"text-cell": "abc", "nan-cell": "nan",
                    "inf-cell": "inf"}[fault]
    dest.write_text("\n".join([",".join(header), ",".join(first),
                               *lines[2:]]) + "\n")
    return dest


@pytest.mark.parametrize("command,fault", INPUT_FAULTS,
                         ids=[f"{c}-{f}" for c, f in INPUT_FAULTS])
def test_malformed_input_exits_naming_its_file(command, fault, corpus,
                                               feature_csv, cv_json, tmp_path,
                                               capsys):
    out = tmp_path / "out"
    features, config_from = str(feature_csv), str(cv_json)
    if command == "embed-import":
        text, suffix, *dim = EMBED_FAULTS[fault]
        bad = tmp_path / f"emb{suffix}"
        bad.write_bytes((text if isinstance(text, bytes) else text.encode())
                        + b"\n")
        named = "--dim" if dim else str(bad)
        argv = ["embed-import", "--in", str(bad), "--dim", *(dim or ["2"]),
                "--out", str(out / "emb.csv")]
    elif fault in TABLE_FAULTS:
        features = named = str(_bad_table(feature_csv, fault,
                                          tmp_path / "features.csv"))
    else:
        kind, edit = RESULT_FAULTS[fault]
        payload = json.loads(cv_json.read_text()) if kind == "cv" else {}
        payload.update(edit)
        bad = tmp_path / f"{kind}.json"
        bad.write_text(json.dumps(payload))
        named = config_from = str(bad)
        if command == "report":
            argv = ["report", "--cv", str(cv_json),
                    *([str(bad)] if kind == "cv" else ["--holdout", str(bad)]),
                    "--out-dir", str(out)]
    if command in ("cv", "holdout", "importance"):
        argv = [command, "--features", features,
                "--manifest", str(corpus["manifest"]), "--level", "3",
                *{"cv": ["--target", "cerad_total", "--kind", "regression"],
                  "holdout": ["--target", "cerad_total", "--kind",
                              "regression", "--config-from", config_from],
                  "importance": ["--target", "mci", "--kind", "classification",
                                 "--config-from", config_from]}[command],
                "--out", str(out / "result")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (3, 4), err
    assert "Traceback" not in err
    assert any(named in line for line in err.splitlines()), err
    assert not out.exists()


def test_report_pairs_holdout_results_by_target_kind(cv_json, tmp_path):
    # one target run both as a regression and as a classification: each
    # cv report takes the holdout result of its own kind
    reg = json.loads(cv_json.read_text())
    cls = dict(reg, target={**reg["target"], "kind": "classification"},
               summary={"balanced_accuracy": {"mean": 0.75, "sd": 0.05}})
    files = []
    for name, payload in (("cv_reg", reg), ("cv_cls", cls),
                          ("ho_reg", _holdout_result(metrics={"r": 0.5})),
                          ("ho_cls", _holdout_result(
                              target=cls["target"],
                              metrics={"balanced_accuracy": 0.625}))):
        files.append(str(tmp_path / f"{name}.json"))
        Path(files[-1]).write_text(json.dumps(payload))
    outdir = tmp_path / "report"
    assert main(["report", "--cv", *files[:2], "--holdout", *files[2:],
                 "--out-dir", str(outdir)]) == 0
    with open(outdir / "hierarchy_table.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(r[3], r[5]) for r in rows] == [("r", "0.500"),
                                            ("balanced_accuracy", "0.625")]


def test_unreadable_json_input_is_input_error(tmp_path, capsys):
    assert main(["report", "--cv", str(tmp_path / "missing.json"),
                 "--out-dir", str(tmp_path / "report")]) == 4
    assert "cannot read cv report" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# start-up

def _modules_loaded_by(code: str, names) -> dict:
    """{name: loaded?} in a fresh interpreter after running code."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([n in sys.modules for n in {list(names)!r}]))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    return dict(zip(names, json.loads(out.stdout.splitlines()[-1])))


def test_cli_import_loads_every_traced_module():
    """perfbench/tracing.LAYER_FUNCTIONS wraps functions of these modules
    and finds them in sys.modules after only `import cogspeech.cli`, so
    the CLI must keep importing them at module level."""
    names = [f"cogspeech.{m}" for m in ("corpus", "wavio", "qc", "dsp", "streams",
                                        "features", "model", "diar_eval")]
    loaded = _modules_loaded_by("import cogspeech.cli", names)
    assert all(loaded.values()), loaded


def test_cli_help_leaves_heavy_scipy_subpackages_unloaded():
    code = ("import cogspeech.cli\n"
            "try:\n    cogspeech.cli.main(['cv', '--help'])\n"
            "except SystemExit:\n    pass")
    loaded = _modules_loaded_by(code, ["scipy.signal", "scipy.optimize",
                                       "scipy.stats", "scipy.io"])
    assert not any(loaded.values()), loaded


def _scipy_modules_after(code: str) -> list:
    """The scipy modules loaded in a fresh interpreter after running code."""
    probe = (f"{code}\nimport json, sys\nprint(json.dumps(sorted("
             f"m for m in sys.modules if m.startswith('scipy'))))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_qc_streams_and_features_load_no_scipy(small_corpus, tmp_path):
    # the WAV codec is numpy only; the audio stages other than
    # preprocess use nothing else of scipy
    root, out = small_corpus["root"], tmp_path
    runs = [
        ["qc", "--manifest", str(small_corpus["manifest"]),
         "--out", str(out / "qc" / "qc.jsonl")],
        ["streams", "--manifest", str(small_corpus["manifest"]),
         "--wav-dir", str(root / "audio"), "--rttm-dir", str(root / "rttm"),
         "--outdir", str(out / "streams")],
        ["features", "--manifest", str(small_corpus["manifest"]),
         "--prosody-dir", str(out / "streams"),
         "--concat-dir", str(out / "streams"),
         "--out", str(out / "features" / "features.csv")],
    ]
    code = "from cogspeech.cli import main\n" + "".join(
        f"assert main({argv!r}) == 0\n" for argv in runs)
    assert _scipy_modules_after(code) == []


def test_preprocess_loads_scipy_signal_but_not_scipy_io(small_corpus, tmp_path):
    code = ("from cogspeech.cli import main\n"
            f"assert main(['preprocess', '--manifest', "
            f"{str(small_corpus['manifest'])!r}, '--outdir', "
            f"{str(tmp_path / 'pre')!r}]) == 0")
    loaded = _modules_loaded_by(code, ["scipy.signal", "scipy.io"])
    assert loaded == {"scipy.signal": True, "scipy.io": False}
