"""Tests of the benchmark itself. From the root of a checkout:

    python3 -m pytest perfbench -q

The smoke runs take about two minutes together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        workloads.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_passes_its_checks(name):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % workloads.WORKLOADS[name].ops_per_pass == 0
    assert set(result["metrics"]) == {n for n, _ in workloads.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "long-recording", "--seed", "3", "--seconds", "1",
                     "--trace", "1", "--size", "smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [n for n, _ in workloads.PER_LAYER]
    assert result["metrics"]["model.fits"]["value"] == 3 * 230 + 2 * 365


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "diar-scoring", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
        time.sleep(0.01)
    s = tracer.summary()
    assert s["outer"]["total_s"] >= s["inner"]["total_s"] + 0.009
    assert s["outer"]["self_s"] == pytest.approx(
        s["outer"]["total_s"] - s["inner"]["total_s"], abs=1e-6)


# ---------------------------------------------------------------------------
# Each check rejects a wrong output


def _diar_pair(seed=5):
    rng = np.random.default_rng(seed)
    ref = workloads.random_timeline(rng, 30, 2, "spk")
    hyp = workloads.perturb(rng, ref, {"spk0": "a", "spk1": "b"}, 20, 0.05, 0.1, 0.05)
    return ref, hyp


def _program_scores(hyp_frames, ref_frames):
    from cogspeech import diar_eval
    from cogspeech.corpus import Segment, Timeline

    def tl(segs):
        return Timeline.from_segments(
            [Segment(s, a / 100, (b - a) / 100) for s, a, b in segs])
    return diar_eval.score_pair(tl(ref_frames), tl(hyp_frames),
                                diar_eval.ScoringConfig(collar_s=workloads.COLLAR_S))


def test_der_off_by_one_frame_is_rejected():
    ref, hyp = _diar_pair()
    got = _program_scores(hyp, ref)
    assert workloads.check_pair("p", ref, hyp, got) == []
    # one 10 ms frame more of error than the oracle counts
    got["der"] += 0.010 / got["scored_total_s"]
    assert any("der" in line for line in workloads.check_pair("p", ref, hyp, got))


def test_f0_shifted_by_a_semitone_is_rejected():
    planted = {"S1": 27.0, "S2": 29.0}
    table = {sid: {"egx.f0_semitone.mean": st, "egx.f1_hz.mean": 500.0,
                   "egx.f2_hz.mean": 1500.0} for sid, st in planted.items()}
    assert workloads.check_features(table, planted) == []
    table["S2"]["egx.f0_semitone.mean"] += 1.0
    assert any("S2: f0" in line for line in workloads.check_features(table, planted))


def test_fit_record_that_leaks_a_subject_is_rejected():
    import synth
    from cogspeech import model
    data = synth.planted_regression(n_subjects=20, n_features=3, seed=1)
    _, fit_log = model.nested_cv(data, model.TargetSpec(3, "cerad_total", "regression"),
                                 seed=workloads.CV_SEED)
    log = [[r.stage, r.outer_fold, r.inner_fold, r.config_index,
            sorted(r.train_subjects), sorted(r.eval_subjects)] for r in fit_log]
    subjects = list(data.subject_ids)
    assert workloads.check_fit_log(log, subjects, data.y, "regression") == []
    log[7][4] = sorted(log[7][4] + [log[7][5][0]])
    assert any("trains on its eval subjects" in line
               for line in workloads.check_fit_log(log, subjects, data.y, "regression"))
