"""Diarization scoring and the preprocessing grid search.

Metrics: DER with a collar excluded around reference boundaries (md-eval
convention), JER, cluster purity and coverage. Every metric reads one
exact interval sweep, not frame sampling: the segments of each ref and
hyp speaker and the collar zones around the ref boundaries are merged
into disjoint intervals in one vectorized pass over the timelines'
columns (a lexsort by group and start, then a running max of the ends),
and each elementary span between the merged boundaries carries its
duration and which ref speakers, hyp speakers and collar zones are
active. Speaker totals and (ref, hyp) overlaps are sums of the same span
durations, so identical timelines score exactly 0 and 1.

The speaker mapping is the overlap-maximizing one-to-one partial
assignment. Among equally good assignments (within a 1e-9 s tie margin)
the lexicographically smallest by (hyp label, ref label) is chosen, at
every speaker count, so results never depend on solver internals.

The grid search drives an external diarizer through a subprocess adapter
(command template with {input} and {output} placeholders, RTTM output,
nonzero exit marks the point failed) and ranks points by tuning-split
DER, breaking ties by JER then purity then point index.
"""

from __future__ import annotations

import csv
import itertools
import re
import shlex
import string
import subprocess
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Timeline, load_rttm, running_max
from .dsp import _NON_NEGATIVE, PreprocessConfig, Signal, _check, preprocess_chain
from .errors import AdapterError, ConfigError, ValidationError
from .parallel import pmap
from . import wavio

_TIE_EPS = 1e-9


@dataclass(frozen=True)
class ScoringConfig:
    collar_s: float = 0.250
    score_overlap: bool = True

    def __post_init__(self):
        _check("collar_s", self.collar_s, *_NON_NEGATIVE)


@dataclass(frozen=True)
class DerBreakdown:
    missed_s: float
    false_alarm_s: float
    confusion_s: float
    scored_total_s: float
    der: float  # NaN when scored_total_s == 0

    @property
    def defined(self) -> bool:
        return self.scored_total_s > 0.0


def _union(groups: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """Union of the [start, end] intervals of each group, as (group, start,
    end) columns sorted by group then start: one lexsort, then a running
    max of the ends. Touching intervals join."""
    order = np.lexsort((starts, groups))
    groups, starts, ends = groups[order], starts[order], ends[order]
    reach = running_max(groups, ends)
    first = np.ones(groups.size, dtype=bool)
    first[1:] = (groups[1:] != groups[:-1]) | (starts[1:] > reach[:-1])
    # a merged interval ends at the reach of its last row
    return groups[first], starts[first], reach[np.roll(first, -1)]


def _activity(mid: np.ndarray, groups, starts, ends, n_groups: int) -> np.ndarray:
    """(group, span) mask: span midpoint inside [start, end) of one of the
    group's disjoint intervals. The midpoints are sorted, so each interval
    covers one run of spans: +1 where it starts, -1 where it ends, summed."""
    width = mid.size + 1
    marks = (np.bincount(groups * width + np.searchsorted(mid, starts),
                         minlength=n_groups * width)
             - np.bincount(groups * width + np.searchsorted(mid, ends),
                           minlength=n_groups * width))
    return np.cumsum(marks.reshape(n_groups, width), axis=1)[:, :-1] > 0


class _Sweep:
    """Elementary spans between all ref, hyp and collar boundaries.

    ``ref``/``hyp`` are (speaker, span) activity masks with speakers in
    sorted label order; ``collar`` marks spans inside a collar zone.
    Totals and overlaps sum the same span durations (no matmul, whose
    summation order differs), so a speaker's overlap with an identical
    speaker equals its total exactly.
    """

    def __init__(self, ref: Timeline, hyp: Timeline, collar_s: float = 0.0):
        # one group per ref speaker, per hyp speaker, and for the collar zones
        n_ref, n_hyp = len(ref.labels), len(hyp.labels)
        ref_ends = ref.onsets + ref.durations
        columns = [(ref.codes, ref.onsets, ref_ends),
                   (hyp.codes + n_ref, hyp.onsets, hyp.onsets + hyp.durations)]
        if collar_s > 0:
            bounds = np.concatenate([ref.onsets, ref_ends])
            columns.append((np.full(bounds.size, n_ref + n_hyp),
                            bounds - collar_s, bounds + collar_s))
        groups, starts, ends = _union(*map(np.concatenate, zip(*columns)))
        edges = np.unique(np.concatenate([starts, ends]))
        mid = (edges[:-1] + edges[1:]) / 2.0
        self.dur = np.diff(edges)
        self.ref_spks = list(ref.labels)
        self.hyp_spks = list(hyp.labels)
        active = _activity(mid, groups, starts, ends, n_ref + n_hyp + 1)
        self.ref, self.hyp, self.collar = (active[:n_ref], active[n_ref:-1],
                                           active[-1])
        self.ref_total = np.array([self.dur[r].sum() for r in self.ref])
        self.hyp_total = np.array([self.dur[h].sum() for h in self.hyp])

    def overlap(self, keep=None) -> np.ndarray:
        """(hyp, ref) co-active duration over the kept spans."""
        hyp = self.hyp if keep is None else self.hyp & keep
        return np.array([[self.dur[h & r].sum() for r in self.ref]
                         for h in hyp]).reshape(len(hyp), len(self.ref))


def _best_assignment(overlap: np.ndarray) -> list:
    """(hyp, ref) index pairs of the overlap-maximizing one-to-one
    assignment; rows are hyp and columns ref speakers in label order.

    Candidates are the maximal assignments (every speaker on the smaller
    side is paired). Among those within _TIE_EPS of the best total, the
    lexicographically smallest sorted pair list wins, at every speaker
    count: hyps are taken in order, and each fixes the first free ref for
    which the fixed total plus a Hungarian completion of the remaining
    rows and columns still reaches the optimum (a hyp with no such ref
    stays unpaired). Zero-overlap pairs take part in the tie-break and
    are dropped only from the result; they change no metric.
    """
    # imported here: scipy.optimize costs 0.33-0.48 s of start-up (2-core
    # x86-64 VM, numpy loaded)
    from scipy.optimize import linear_sum_assignment

    def best(rows, cols) -> float:
        sub = overlap[np.ix_(rows, cols)]
        r, c = linear_sum_assignment(sub, maximize=True)
        return float(sub[r, c].sum())

    n_hyp, n_ref = overlap.shape
    target = best(range(n_hyp), range(n_ref)) - _TIE_EPS
    pairs, fixed, free = [], 0.0, list(range(n_ref))
    for i in range(n_hyp):
        rest = range(i + 1, n_hyp)
        for j in free:
            others = [c for c in free if c != j]
            if fixed + overlap[i, j] + best(rest, others) >= target:
                pairs.append((i, j))
                fixed += overlap[i, j]
                free = others
                break
    return [(i, j) for i, j in pairs if overlap[i, j] > 0.0]


def optimal_speaker_mapping(ref: Timeline, hyp: Timeline) -> dict:
    """One-to-one partial hyp-speaker -> ref-speaker mapping maximizing
    total (uncollared) overlap duration."""
    sw = _Sweep(ref, hyp)
    return {sw.hyp_spks[i]: sw.ref_spks[j]
            for i, j in _best_assignment(sw.overlap())}


def _der(sw: _Sweep, score_overlap: bool) -> DerBreakdown:
    n_ref = sw.ref.sum(axis=0)
    n_hyp = sw.hyp.sum(axis=0)
    keep = ~sw.collar
    if not score_overlap:
        keep &= n_ref < 2
    pairs = _best_assignment(sw.overlap(keep))
    hits = np.zeros(sw.dur.size, dtype=np.int64)
    for i, j in pairs:
        hits += sw.hyp[i] & sw.ref[j]
    d, nr, nh, hits = sw.dur[keep], n_ref[keep], n_hyp[keep], hits[keep]
    scored_total = float((nr * d).sum())
    missed = float((np.maximum(nr - nh, 0) * d).sum())
    fa = float((np.maximum(nh - nr, 0) * d).sum())
    # per-span confusion: never negative, exactly zero for hyp == ref
    confusion = float(((np.minimum(nr, nh) - hits) * d).sum())
    if scored_total > 0:
        value = (missed + fa + confusion) / scored_total
    else:
        value = float("nan")
    return DerBreakdown(missed_s=missed, false_alarm_s=fa, confusion_s=confusion,
                        scored_total_s=scored_total, der=value)


def _jer(sw: _Sweep, overlap: np.ndarray) -> float:
    if not sw.ref_spks:
        return float("nan")
    errors = np.ones(len(sw.ref_spks))  # unmapped reference speakers
    for i, j in _best_assignment(overlap):
        union = sw.ref_total[j] + sw.hyp_total[i] - overlap[i, j]
        errors[j] = 1.0 - overlap[i, j] / union
    return float(np.mean(errors))


def _purity_coverage(sw: _Sweep, overlap: np.ndarray) -> tuple[float, float]:
    hyp_total = float(sw.hyp_total.sum())
    ref_total = float(sw.ref_total.sum())
    purity = (float(overlap.max(axis=1, initial=0.0).sum()) / hyp_total
              if hyp_total > 0 else float("nan"))
    coverage = (float(overlap.max(axis=0, initial=0.0).sum()) / ref_total
                if ref_total > 0 else float("nan"))
    return purity, coverage


def der(ref: Timeline, hyp: Timeline, cfg: ScoringConfig | None = None
        ) -> DerBreakdown:
    """Collar-excluded diarization error rate via the interval sweep.

    The speaker mapping is optimized on collar-excluded overlap, which
    makes the DER value independent of how overlap ties are broken (DER
    depends on the mapping only through its total).
    """
    if cfg is None:
        cfg = ScoringConfig()
    return _der(_Sweep(ref, hyp, cfg.collar_s), cfg.score_overlap)


def jer(ref: Timeline, hyp: Timeline) -> float:
    """Mean per-reference-speaker Jaccard error under the optimal
    (uncollared) mapping; unmapped reference speakers score 1."""
    sw = _Sweep(ref, hyp)
    return _jer(sw, sw.overlap())


def purity_coverage(ref: Timeline, hyp: Timeline) -> tuple[float, float]:
    """Cluster purity (hyp side) and coverage (ref side), mapping-free."""
    sw = _Sweep(ref, hyp)
    return _purity_coverage(sw, sw.overlap())


def score_pair(ref: Timeline, hyp: Timeline, cfg: ScoringConfig | None = None
               ) -> dict:
    """All four metrics plus the DER components, as a flat dict, from one
    sweep."""
    if cfg is None:
        cfg = ScoringConfig()
    sw = _Sweep(ref, hyp, cfg.collar_s)
    breakdown = _der(sw, cfg.score_overlap)
    overlap = sw.overlap()
    p, c = _purity_coverage(sw, overlap)
    return {
        "der": breakdown.der,
        "jer": _jer(sw, overlap),
        "purity": p,
        "coverage": c,
        "missed_s": breakdown.missed_s,
        "false_alarm_s": breakdown.false_alarm_s,
        "confusion_s": breakdown.confusion_s,
        "scored_total_s": breakdown.scored_total_s,
    }


# ---------------------------------------------------------------------------
# Grid search

# PreprocessConfig fields a grid may set; anything else must be
# prefixed "diarizer." and is forwarded to the adapter template
_DSP_KEYS = ("highpass_order", "highpass_cutoff_hz", "gate_alpha",
             "gate_noise_quantile", "gate_margin_db", "loudness_target_lufs")
_DIARIZER_PREFIX = "diarizer."


@dataclass(frozen=True)
class GridPoint:
    index: int
    params: tuple  # sorted (name, value) pairs

    def as_dict(self) -> dict:
        return dict(self.params)

    def dsp_config(self) -> PreprocessConfig:
        return PreprocessConfig(**dict(self.dsp_key()))

    def dsp_key(self) -> tuple:
        return tuple((n, v) for n, v in self.params if n in _DSP_KEYS)

    def adapter_params(self) -> dict:
        return {name[len(_DIARIZER_PREFIX):]: value for name, value in self.params
                if name.startswith(_DIARIZER_PREFIX)}


@dataclass(frozen=True)
class GridResult:
    point: GridPoint
    status: str  # "ok" | "failed"
    error: str | None = None
    tuning: dict | None = None
    validation: dict | None = None


@dataclass(frozen=True)
class GridSession:
    session_id: str
    subject_id: str
    audio_path: str
    reference: Timeline


@dataclass(frozen=True)
class GridSplit:
    tuning_subjects: frozenset
    validation_subjects: frozenset

    def __post_init__(self):
        shared = self.tuning_subjects & self.validation_subjects
        if shared:
            raise ValidationError(f"tuning/validation subjects overlap: "
                                  f"{sorted(shared)}")
        if not self.tuning_subjects or not self.validation_subjects:
            raise ValidationError("both splits need at least one subject")


@dataclass(frozen=True)
class DiarizerAdapter:
    """Subprocess contract: template with {input} and {output} (and
    optionally {session_id} plus bare diarizer parameter names); the
    command must write RTTM to {output} and exit 0.

    Every substituted value is shell-quoted, so the template must not
    wrap placeholders in quotes or give them format specs."""

    command_template: str
    timeout_s: float = 600.0

    def run(self, input_wav: str, output_rttm: str, session_id: str,
            params: dict) -> Timeline:
        values = dict(params, input=input_wav, output=output_rttm,
                      session_id=session_id)
        try:
            cmd = self.command_template.format(
                **{k: shlex.quote(str(v)) for k, v in values.items()})
        except KeyError as exc:
            raise AdapterError(f"template placeholder {exc} has no value")
        except ValueError as exc:
            raise AdapterError(f"template placeholders take no format spec "
                               f"(values are shell-quoted strings): {exc}")
        try:
            proc = subprocess.run(cmd, shell=True, capture_output=True,
                                  text=True, timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            raise AdapterError(f"adapter timed out after {self.timeout_s:g} s "
                               f"for {session_id}") from None
        if proc.returncode != 0:
            raise AdapterError(f"adapter exited {proc.returncode} for "
                               f"{session_id}: {proc.stderr.strip()[:500]}")
        if not Path(output_rttm).exists():
            raise AdapterError(f"adapter wrote no output for {session_id}")
        return load_rttm(output_rttm)


def expand_grid(schema: dict) -> list[GridPoint]:
    """Cartesian product over sorted parameter names; point index is the
    enumeration order and is the final ranking tie-break."""
    if not schema:
        raise ConfigError("empty grid schema")
    for name, values in schema.items():
        known = name in _DSP_KEYS or name.startswith(_DIARIZER_PREFIX)
        if not known:
            raise ConfigError(f"unknown grid parameter {name!r}; dsp keys: "
                              f"{sorted(_DSP_KEYS)}, or prefix with "
                              f"'{_DIARIZER_PREFIX}'")
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"grid parameter {name!r} needs a nonempty list")
    names = sorted(schema)
    points = []
    for idx, combo in enumerate(itertools.product(*(schema[n] for n in names))):
        points.append(GridPoint(index=idx, params=tuple(zip(names, combo))))
    return points


def unreferenced_parameters(schema: dict, template: str) -> list[str]:
    """The diarizer.* grid parameters, sorted, that an adapter command
    template never names: str.format drops them, so all their values run
    the same command."""
    try:
        fields = {re.split(r"[.\[]", name)[0]
                  for _, name, _, _ in string.Formatter().parse(template) if name}
    except ValueError:  # malformed template: every point's run reports it
        return []
    return [name for name in sorted(schema)
            if name.startswith(_DIARIZER_PREFIX)
            and name[len(_DIARIZER_PREFIX):] not in fields]


def _aggregate(per_session: list[dict]) -> dict:
    """Pool session scores: DER from summed components; JER, purity and
    coverage as plain session means (NaN sessions skipped)."""
    missed = sum(s["missed_s"] for s in per_session)
    fa = sum(s["false_alarm_s"] for s in per_session)
    conf = sum(s["confusion_s"] for s in per_session)
    total = sum(s["scored_total_s"] for s in per_session)
    der_value = (missed + fa + conf) / total if total > 0 else float("nan")
    jers = [s["jer"] for s in per_session if not np.isnan(s["jer"])]
    purities = [s["purity"] for s in per_session if not np.isnan(s["purity"])]
    coverages = [s["coverage"] for s in per_session if not np.isnan(s["coverage"])]
    return {
        "der": der_value,
        "jer": float(np.mean(jers)) if jers else float("nan"),
        "purity": float(np.mean(purities)) if purities else float("nan"),
        "coverage": float(np.mean(coverages)) if coverages else float("nan"),
    }


def _preprocess_sessions(sessions, points, workdir: Path) -> dict:
    """Preprocessed wav path for each (session id, dsp key) of the grid,
    written before the parallel phase so adapter workers only read."""
    configs = {}
    for p in points:
        configs.setdefault(p.dsp_key(), p.dsp_config())
    wavs = {}
    for sess in sessions:
        signal = Signal(*wavio.read_wav(sess.audio_path))
        for key_idx, (dsp_key, cfg) in enumerate(configs.items()):
            processed, _ = preprocess_chain(signal, cfg)
            out = workdir / f"pp_{key_idx}_{sess.session_id}.wav"
            wavio.write_wav(out, processed.samples, processed.sample_rate)
            wavs[(sess.session_id, dsp_key)] = str(out)
    return wavs


def _evaluate_point(point: GridPoint, sessions, wavs: dict,
                    adapter: DiarizerAdapter, scoring: ScoringConfig,
                    workdir: Path) -> list[dict]:
    scores = []
    for sess in sessions:
        wav = wavs[(sess.session_id, point.dsp_key())]
        out = workdir / f"hyp_{point.index}_{sess.session_id}.rttm"
        hyp = adapter.run(wav, str(out), sess.session_id, point.adapter_params())
        scores.append(score_pair(sess.reference, hyp, scoring))
    return scores


def run_grid_search(schema: dict, sessions, adapter: DiarizerAdapter,
                    split: GridSplit, scoring: ScoringConfig | None = None,
                    workdir=None, jobs: int = 1) -> list[GridResult]:
    """Evaluate every grid point on the tuning split, rank, and score the
    winner on the validation split.

    Returns results in rank order (failed points last, by index). Points
    whose adapter invocation fails are marked and skipped; if every point
    fails the search itself fails.
    """
    if scoring is None:
        scoring = ScoringConfig()
    points = expand_grid(schema)
    tuning = [s for s in sessions if s.subject_id in split.tuning_subjects]
    validation = [s for s in sessions if s.subject_id in split.validation_subjects]
    stray = [s.session_id for s in sessions
             if s.subject_id not in split.tuning_subjects
             and s.subject_id not in split.validation_subjects]
    if stray:
        raise ValidationError(f"sessions outside both splits: {stray}")
    if not tuning or not validation:
        raise ValidationError("need sessions on both sides of the split")

    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="gridsearch_")
        workdir = own_tmp.name
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    try:
        wavs = _preprocess_sessions(sessions, points, workdir)

        def work(point: GridPoint) -> GridResult:
            try:
                scores = _evaluate_point(point, tuning, wavs, adapter,
                                         scoring, workdir)
            except Exception as exc:  # any per-point failure: mark, move on
                return GridResult(point=point, status="failed", error=str(exc))
            return GridResult(point=point, status="ok",
                              tuning=_aggregate(scores))

        results = pmap(work, points, jobs)

        ok = [r for r in results if r.status == "ok"]
        failed = [r for r in results if r.status == "failed"]
        if not ok:
            raise AdapterError("every grid point failed")

        def rank_key(r: GridResult):
            t = r.tuning
            der_v = t["der"] if not np.isnan(t["der"]) else float("inf")
            jer_v = t["jer"] if not np.isnan(t["jer"]) else float("inf")
            pur_v = t["purity"] if not np.isnan(t["purity"]) else 0.0
            return (der_v, jer_v, -pur_v, r.point.index)

        ok.sort(key=rank_key)
        top = ok[0]
        val_scores = _evaluate_point(top.point, validation, wavs, adapter,
                                     scoring, workdir)
        ok[0] = replace(top, validation=_aggregate(val_scores))
        return ok + sorted(failed, key=lambda r: r.point.index)
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def write_grid_csv(results, path) -> None:
    """One row per point, rank order preserved."""
    results = list(results)
    if not results:
        raise ValidationError("no results to write")
    param_names = [n for n, _ in results[0].point.params]
    metric_cols = ["der", "jer", "purity", "coverage"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "point_index", "status", *param_names,
                         *(f"tuning_{m}" for m in metric_cols),
                         *(f"validation_{m}" for m in metric_cols), "error"])
        for rank, r in enumerate(results):
            row = [rank, r.point.index, r.status]
            row += [r.point.as_dict()[n] for n in param_names]
            for block in (r.tuning, r.validation):
                row += ["" if block is None else f"{block[m]:.6f}"
                        for m in metric_cols]
            row.append(r.error or "")
            writer.writerow(row)
