"""Workload process: set-up, a warm-up pass, then timed passes.

Started by run.py in a fresh interpreter, from the root of a checkout:

    python3 perfbench/worker.py --workload NAME --workdir DIR --seconds S
        [--trace] [--setup-only]

Set-up is importing cogspeech and loading the inputs through its own
loaders; the moment it ends is reported on CLOCK_MONOTONIC so run.py can
time it from before the process was started. Results go to
DIR/result.json (or DIR/setup.json with --setup-only).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import NullTracer, Tracer, layer_spans
from workloads import WORKLOADS, companions


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    wl = WORKLOADS[args.workload]
    inputs = args.workdir / "inputs"
    plan = json.loads((inputs / "plan.json").read_text())

    t0 = time.perf_counter()
    import cogspeech.cli  # noqa: F401  (the import is what is timed)
    import_s = time.perf_counter() - t0
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        with layer_spans(tracer):
            ctx = wl.load(inputs, plan)
    else:
        ctx = wl.load(inputs, plan)
    setup_done = time.monotonic()
    if args.setup_only:
        (args.workdir / "setup.json").write_text(
            json.dumps({"setup_done": setup_done}))
        return 0

    passes, payloads = [], []

    def one_pass(traced: bool, out: Path) -> None:
        gc.collect()  # no pass pays for garbage an earlier one left
        start = time.perf_counter()
        if traced:
            with layer_spans(tracer):
                errors, payload = wl.run_pass(ctx, out, tracer)
        else:
            errors, payload = wl.run_pass(ctx, out, NullTracer())
        wall = time.perf_counter() - start
        passes.append({"wall_s": wall, "traced": traced, "errors": errors,
                       "digest": wl.finish(ctx, out, payload)})
        if not traced:
            payloads.append(payload)

    # p0 is the warm-up pass; its outputs stay for the checks
    p0 = args.workdir / "passes" / "p0"
    one_pass(False, p0)
    # Timed passes (untraced, or untraced/traced pairs under --trace) until
    # one more round would overrun --seconds; at least one round.
    kinds = (False, True) if args.trace else (False,)
    while True:
        for traced in kinds:
            out = args.workdir / "passes" / f"p{len(passes)}"
            one_pass(traced, out)
            shutil.rmtree(out, ignore_errors=True)
        timed = [p["wall_s"] for p in passes[1:]]
        if sum(timed) + statistics.median(timed) * len(kinds) > args.seconds:
            break

    result = {"setup_done": setup_done, "passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if args.trace:
        result["trace"] = trace_report(wl, ctx, p0, passes, payloads, tracer,
                                       import_s, args.workdir)
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


def trace_report(wl, ctx, p0: Path, passes: list, payloads: list,
                 tracer: Tracer, import_s: float, workdir: Path) -> dict:
    """Per-layer values for this workload. Layers it never calls are
    filled from one traced pass of the companion workloads that do."""
    values = span_values(tracer)
    values.update(wl.trace_values(ctx, p0, payloads))
    values["cli.import_s"] = import_s
    walls = {kind: statistics.median(p["wall_s"] for p in passes[1:]
                                     if p["traced"] == kind)
             for kind in (False, True)}
    values["trace.overhead_s"] = walls[True] - walls[False]
    sources = dict.fromkeys(values, wl.name)
    tracers = {wl.name: tracer}
    for name in companions(wl.name, set(values)):
        cwl = WORKLOADS[name]
        cdir = workdir / "companions" / name
        cplan = json.loads((cdir / "inputs" / "plan.json").read_text())
        ctracer = tracers[name] = Tracer()
        with layer_spans(ctracer):
            cctx = cwl.load(cdir / "inputs", cplan)
            _, cpayload = cwl.run_pass(cctx, cdir / "pass", ctracer)
        cwl.finish(cctx, cdir / "pass", cpayload)
        cvalues = span_values(ctracer)
        cvalues.update(cwl.trace_values(cctx, cdir / "pass", [cpayload]))
        for metric, value in cvalues.items():
            if metric not in values:
                values[metric], sources[metric] = value, name
        shutil.rmtree(cdir / "pass", ignore_errors=True)
    return {"values": values, "sources": sources,
            "summaries": {n: t.summary() for n, t in tracers.items()},
            "spans": {n: t.spans for n, t in tracers.items()}}


def span_values(tracer: Tracer) -> dict:
    """Mean inclusive seconds per call, as '<span name>_s'."""
    return {f"{name}_s": e["total_s"] / e["calls"]
            for name, e in tracer.summary().items()}


if __name__ == "__main__":
    sys.exit(main())
