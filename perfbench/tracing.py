"""Spans recorded by the benchmark around its calls into cogspeech layers.

A span is (name, start, end, parent). Spans live in memory and are
written out when the run ends. Calls the program makes internally are
reached by swapping the public function for a timing wrapper in every
cogspeech module that binds it, only while a traced pass runs.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Span recorder; safe to use from the CLI's worker threads.

    A span opened in a pool thread with nothing open on that thread gets
    the main thread's innermost open span as its parent.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def summary(self) -> dict:
        """name -> {calls, total_s, self_s}; self time is a span's
        duration minus the union of its children's intervals."""
        children: dict[int, list] = {}
        for idx, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out: dict = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return out


class NullTracer:
    """Stand-in for untraced passes: spans cost one call and record nothing."""

    def span(self, name: str):
        return nullcontext()


# (module, public function, span name): the layer boundaries the traced
# run times inside the program's own call tree.
LAYER_FUNCTIONS = (
    ("corpus", "load_manifest", "corpus.load_manifest"),
    ("corpus", "load_rttm", "corpus.load_rttm"),
    ("wavio", "read_wav", "wavio.read"),
    ("wavio", "write_wav", "wavio.write"),
    ("qc", "qc_gate", "qc.qc_gate"),
    ("dsp", "apply_filter", "dsp.highpass"),
    ("dsp", "spectral_gate", "dsp.spectral_gate"),
    ("dsp", "normalize_loudness", "dsp.loudness"),
    ("streams", "build_prosody_preserved", "streams.prosody"),
    ("streams", "build_concatenated", "streams.concat"),
    ("streams", "audit_transitions", "streams.audit"),
    ("features", "track_f0", "features.track_f0"),
    ("features", "jitter_shimmer_hnr", "features.jitter_shimmer_hnr"),
    ("features", "spectral_slopes", "features.spectral_slopes"),
    ("features", "formant_bandwidths", "features.formants"),
    ("features", "extract_feature_sets", "features.extract"),
    ("model", "svm_fit", "model.svm_fit"),
    ("model", "ridge_fit", "model.ridge_fit"),
    ("model", "pca_fit", "model.pca_fit"),
    ("diar_eval", "score_pair", "diar_eval.score_pair"),
)


@contextmanager
def layer_spans(tracer: Tracer):
    """Wrap every LAYER_FUNCTIONS entry for the duration of the block.

    Each binding of the original function in any loaded cogspeech module
    (``module.fn`` as well as ``from .module import fn``) is replaced, and
    all are restored on exit.
    """
    modules = [m for n, m in list(sys.modules.items())
               if n == "cogspeech" or n.startswith("cogspeech.")]
    swapped = []
    for mod_name, fn_name, span_name in LAYER_FUNCTIONS:
        original = getattr(sys.modules[f"cogspeech.{mod_name}"], fn_name)
        wrapper = _timed(original, span_name, tracer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    swapped.append((mod, attr, original))
    try:
        yield
    finally:
        for mod, attr, original in reversed(swapped):
            setattr(mod, attr, original)


def _timed(fn, span_name: str, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(span_name):
            return fn(*args, **kwargs)
    return wrapper
