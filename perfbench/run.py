"""cogspeech benchmark: one workload, one run, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It synthesizes the workload's inputs from the seed, times set-up in
fresh interpreters, runs the workload process (warm-up pass, then timed
passes for about S seconds), checks the outputs, and prints as its last
line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
BLAS and OpenMP run single-threaded; the only parallelism is the CLI's
--jobs, which never exceeds the usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import workloads  # noqa: E402  (after the thread settings, which numpy reads)

SETUP_SAMPLES = 3        # cold starts per run, the workload process included
RUN_LIMIT_S = 170.0      # the whole run must end within 180 s
ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: the smallest inputs that pass the checks (tests)")
    args = p.parse_args()
    started = time.monotonic()

    missing = [str(ROOT / rel) for rel in ("src/cogspeech/cli.py", "tests/synth.py",
                                           "tests/oracles.py")
               if not (ROOT / rel).is_file()]
    if missing:
        print(f"not a cogspeech checkout (run from its root): missing {missing}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    wl = workloads.WORKLOADS[args.workload]
    state = ROOT / ".perfbench"
    workdir = state / "runs" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    env = dict(os.environ, TMPDIR=str(state / "tmp"))
    (state / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        plan = synthesize(wl, workdir, args.seed, args.size)
        if args.trace:
            for name in workloads.companions(wl.name, set()):
                synthesize(workloads.WORKLOADS[name], workdir / "companions" / name,
                           args.seed, "full")
        setup = [] if args.trace else [
            spawn(wl, workdir, args, env, started, setup_only=True)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        result = spawn(wl, workdir, args, env, started, setup_only=False)
        setup.append(result["setup_s"])
        try:
            problems = wl.check(workdir / "inputs", plan, workdir / "passes" / "p0")
        except Exception as exc:  # e.g. an output a failed stage never wrote
            problems = [f"checks could not run: {type(exc).__name__}: {exc}"]
        report = summarize(wl, args, result, setup, problems)
        keep(state, wl.name, args, result, setup, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def synthesize(wl, workdir: Path, seed: int, size: str) -> dict:
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True)
    plan = wl.synthesize(inputs, seed, size)
    (inputs / "plan.json").write_text(json.dumps(plan))
    return plan


def spawn(wl, workdir: Path, args, env: dict, started: float,
          setup_only: bool) -> dict:
    """One workload process; set-up time runs from just before it starts
    to the moment it reports its inputs loaded."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", wl.name,
           "--workdir", str(workdir), "--seconds", str(args.seconds)]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--trace"] if args.trace else []
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, budget))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited {proc.returncode}")
    out = json.loads((workdir / ("setup.json" if setup_only else "result.json"))
                     .read_text())
    out["setup_s"] = out["setup_done"] - t0
    return out


def summarize(wl, args, result: dict, setup: list, problems: list) -> dict:
    passes = result["passes"]
    errors = [e for p in passes for e in p["errors"]]
    failed = sum(e is not None for e in errors)
    digests = {p["digest"] for p in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree: {len(digests)} distinct output digests")
    problems += sorted({e for e in errors if e is not None})
    if args.trace:
        values = result["trace"]["values"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in workloads.PER_LAYER}
    else:
        timed = [p["wall_s"] for p in passes[1:]]
        values = {"wall_s": statistics.median(timed),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in workloads.END_TO_END}
    return {"correct": not problems, "attempted": len(errors), "failed": failed,
            "metrics": metrics}


def keep(state: Path, name: str, args, result: dict, setup: list,
         problems: list) -> None:
    """Keep the run's details (and under --trace its spans) beside the
    checkout's other generated files."""
    tag = f"{name}-s{args.seed}-t{args.trace}"
    (state / "results").mkdir(parents=True, exist_ok=True)
    detail = {k: v for k, v in result.items() if k != "trace"}
    detail.update(setup_samples=setup, problems=problems)
    if "trace" in result:
        trace = result["trace"]
        (state / "traces").mkdir(parents=True, exist_ok=True)
        (state / "traces" / f"{tag}.json").write_text(json.dumps(trace))
        detail["trace"] = {k: trace[k] for k in ("values", "sources", "summaries")}
    (state / "results" / f"{tag}.json").write_text(json.dumps(detail, indent=1))


if __name__ == "__main__":
    sys.exit(main())
