"""Session manifests, hierarchical score labels, and RTTM timelines.

The manifest is a CSV with one row per recording session. Optional comment
lines of the form ``# key=value`` may precede the header; the recognized key
``domain_range`` declares the valid range of the domain composite scores
(e.g. ``# domain_range=0,1``). Absent scores are empty cells, never zeros.

A Timeline holds its segments as columns: onsets, durations and speaker
codes, sorted by (onset, end, speaker). RTTM text is split once and its
time columns converted in bulk; the sort and the same-speaker overlap
check are array operations. RTTM files and manifests are read as UTF-8.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

TASKS = ("MMSE", "RW", "BNT", "RL", "VF", "PF")
DOMAINS = ("LAN", "MEM", "EXE", "VIS")
GROUPS = ("HC", "MCI")
SPLITS = ("development", "holdout")

CERAD_BINARY_THRESHOLD = 85.0
MMSE_MAX = 30.0

# Time comparisons happen at 1 ms resolution, below the 10 ms scoring frame.
TIME_EPS_S = 1e-3

MANIFEST_COLUMNS = (
    "session_id", "subject_id", "group", "task", "split", "audio_path",
    "sample_rate", "pf", "vf", "rl", "rw", "bnt", "mmse",
    "lan", "mem", "exe", "vis", "cerad_total", "cerad_binary", "mci",
)

_TASK_COLUMNS = {"pf": "PF", "vf": "VF", "rl": "RL", "rw": "RW",
                 "bnt": "BNT", "mmse": "MMSE"}
_DOMAIN_COLUMNS = {"lan": "LAN", "mem": "MEM", "exe": "EXE", "vis": "VIS"}


@dataclass(frozen=True)
class Segment:
    """Speaker-attributed time interval in seconds."""

    speaker: str
    onset: float
    duration: float

    def __post_init__(self):
        if not (math.isfinite(self.onset) and math.isfinite(self.duration)):
            raise ValidationError(f"non-finite segment times: {self}")
        if self.onset < 0:
            raise ValidationError(f"negative onset: {self.onset}")
        if self.duration <= 0:
            raise ValidationError(f"non-positive duration: {self.duration}")

    @property
    def end(self) -> float:
        return self.onset + self.duration


@dataclass(frozen=True, eq=False)
class Timeline:
    """Segments of one recording, held as columns sorted by (onset, end,
    speaker).

    ``onsets`` and ``durations`` are read-only float64 columns; ``codes``
    gives each row's speaker as an index into ``labels``, the distinct
    speaker labels in sorted order. Segments of the same speaker must not
    overlap (cross-speaker overlap is allowed). Segment objects are built
    only when the timeline is iterated.
    """

    onsets: np.ndarray
    durations: np.ndarray
    codes: np.ndarray
    labels: tuple[str, ...]

    @classmethod
    def from_segments(cls, segments) -> "Timeline":
        segs = list(segments)
        onsets = np.array([s.onset for s in segs], dtype=np.float64)
        durations = np.array([s.duration for s in segs], dtype=np.float64)
        return cls._from_columns(onsets, durations, [s.speaker for s in segs])

    @classmethod
    def _from_columns(cls, onsets, durations, speakers) -> "Timeline":
        """The timeline of these rows, sorted by (onset, end, speaker);
        same-speaker overlap is rejected at the first offending row in
        that order."""
        labels = tuple(sorted(set(speakers)))
        index = {label: k for k, label in enumerate(labels)}
        codes = np.fromiter(map(index.__getitem__, speakers), np.intp, len(speakers))
        ends = onsets + durations
        order = np.lexsort((codes, ends, onsets))
        onsets, durations, codes, ends = (a[order] for a in (onsets, durations,
                                                             codes, ends))
        # each row against the latest end of its speaker's earlier rows
        by = np.argsort(codes, kind="stable")
        spk, start = codes[by], onsets[by]
        latest = running_max(spk, ends[by])[:-1]
        bad = np.flatnonzero((spk[1:] == spk[:-1]) & (start[1:] < latest - TIME_EPS_S))
        if bad.size:
            k = bad[np.argmin(by[bad + 1])]  # the first offending row in time order
            raise ValidationError(
                f"same-speaker overlap for {labels[spk[k + 1]]!r}: "
                f"segment at {start[k + 1]:.3f}s starts before {latest[k]:.3f}s")
        for a in (onsets, durations, codes):
            a.flags.writeable = False
        return cls(onsets, durations, codes, labels)

    def speakers(self) -> tuple[str, ...]:
        """Labels in order of first appearance."""
        return tuple(dict.fromkeys(map(self.labels.__getitem__, self.codes.tolist())))

    def for_speaker(self, speaker: str) -> tuple[Segment, ...]:
        return tuple(s for s in self if s.speaker == speaker)

    def __len__(self) -> int:
        return len(self.onsets)

    def __iter__(self):
        return map(Segment, map(self.labels.__getitem__, self.codes.tolist()),
                   self.onsets.tolist(), self.durations.tolist())

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


def running_max(groups: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running maximum of values, restarted wherever groups (non-negative,
    non-decreasing integers) changes. Exact: it runs on the ranks of the
    values, offset per group."""
    distinct, rank = np.unique(values, return_inverse=True)
    shift = groups * len(distinct)
    return distinct[np.maximum.accumulate(shift + rank) - shift]


@dataclass(frozen=True)
class LabelHierarchy:
    """Three-level score labels attached to a session.

    level1 maps task id to raw score, level2 maps cognitive domain to its
    composite score, level3 holds the global targets. Absent scores are
    simply missing keys / None, never coerced to numbers.
    """

    level1: dict[str, float] = field(default_factory=dict)
    level2: dict[str, float] = field(default_factory=dict)
    cerad_total: float | None = None
    cerad_binary: int | None = None
    mci: int | None = None


@dataclass(frozen=True)
class SessionRecord:
    """One recording session with identity, audio location, and labels."""

    session_id: str
    subject_id: str
    group: str
    task: str
    audio_path: str
    sample_rate: int
    labels: LabelHierarchy
    split: str

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValidationError(f"unknown group {self.group!r}")
        if self.task not in TASKS:
            raise ValidationError(f"unknown task {self.task!r}")
        if self.split not in SPLITS:
            raise ValidationError(f"unknown split {self.split!r}")
        if self.sample_rate <= 0:
            raise ValidationError(f"sample_rate must be positive: {self.sample_rate}")


@dataclass
class Manifest:
    """Loaded manifest: the session records plus header declarations."""

    records: list[SessionRecord]
    domain_range: tuple[float, float] | None = None

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]


@dataclass(frozen=True)
class Issue:
    """One finding from label validation."""

    code: str
    message: str
    session_id: str | None = None
    subject_id: str | None = None


def parse_rttm(text: str) -> Timeline:
    """Parse RTTM SPEAKER lines into a Timeline.

    Field 4 is the onset, field 5 the duration, field 8 the speaker label
    (1-indexed). Times are kept at millisecond precision. Comment lines
    (starting with ';') and blank lines are skipped. The lines are split
    once and their time columns converted in bulk; only text with a bad
    line is read again line by line, to name the first one.
    """
    rows = [f for f in map(str.split, text.splitlines()) if f and f[0][0] != ";"]
    try:  # IndexError: a row of fewer than 9 fields; ValueError: no rows, bad time
        kinds, onsets, durations, speakers, _ = zip(
            *map(itemgetter(0, 3, 4, 7, 8), rows))
        onsets, durations = _round_ms(onsets), _round_ms(durations)
    except (IndexError, ValueError):
        return _parse_lines(text)
    if kinds.count("SPEAKER") < len(kinds) or not np.all(
            np.isfinite(onsets) & np.isfinite(durations) & (onsets >= 0) & (durations > 0)):
        return _parse_lines(text)
    return Timeline._from_columns(onsets, durations, speakers)


def _round_ms(fields) -> np.ndarray:
    """round(float(f), 3) for each field, bitwise. rint(x * 1000) / 1000
    is round()'s result unless the rounded product lands exactly on a half
    (the exact one may lie on either side of it) or x * 1000 passes 2**51;
    those few go through round() itself."""
    x = np.fromiter(map(float, fields), np.float64, len(fields))
    small = np.abs(x) < 2.0 ** 41  # so x * 1000 < 2**51
    y = np.where(small, x, 0.0) * 1000.0
    out = np.rint(y) / 1000.0
    odd = ~small | (y - np.floor(y) == 0.5)
    if odd.any():
        out[odd] = [round(v, 3) for v in x[odd].tolist()]
    return out


def _parse_lines(text: str) -> Timeline:
    """parse_rttm one line at a time: raises for the first bad line."""
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == ";":
            continue
        if len(fields) < 9:
            raise ParseError(f"expected >= 9 fields, got {len(fields)}", lineno)
        if fields[0] != "SPEAKER":
            raise ParseError(f"expected SPEAKER record, got {fields[0]!r}", lineno)
        try:
            onset = round(float(fields[3]), 3)
            duration = round(float(fields[4]), 3)
        except ValueError as exc:
            raise ParseError(f"bad time field: {exc}", lineno) from None
        try:
            segments.append(Segment(fields[7], onset, duration))
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {exc}") from None
    return Timeline.from_segments(segments)


def serialize_rttm(timeline: Timeline, recording_id: str = "rec",
                   channel: int = 1) -> str:
    """Render a Timeline as RTTM text, times at millisecond precision."""
    lines = []
    for seg in timeline:
        lines.append(
            f"SPEAKER {recording_id} {channel} {seg.onset:.3f} {seg.duration:.3f} "
            f"<NA> <NA> {seg.speaker} <NA> <NA>"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def load_rttm(path) -> Timeline:
    return parse_rttm(_read_text(path))


def _decode(data: bytes, path, lineno: int = 1, offset: int = 0) -> str:
    """data, which starts at line lineno and byte offset of path, as UTF-8
    text; ParseError at the line of the first byte that does not decode."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{offset + exc.start}",
                         lineno + data.count(b"\n", 0, exc.start)) from None


def _read_text(path) -> str:
    """The file as UTF-8 text (see _decode)."""
    return _decode(Path(path).read_bytes(), path)


def _read_lines(path):
    """The file's lines as UTF-8 text, decoded one line at a time so that
    only one line is held (see _decode)."""
    with open(path, "rb") as fh:
        offset = 0
        for lineno, raw in enumerate(fh, 1):
            yield _decode(raw, path, lineno, offset)
            offset += len(raw)


def _parse_float(value: str, column: str, lineno: int) -> float | None:
    value = value.strip()
    if value == "":
        return None
    try:
        out = float(value)
    except ValueError:
        raise ParseError(f"column {column!r}: not a number: {value!r}", lineno) from None
    if not math.isfinite(out):
        raise ParseError(f"column {column!r}: non-finite value", lineno)
    return out


def _parse_binary(value: str, column: str, lineno: int) -> int | None:
    out = _parse_float(value, column, lineno)
    if out is None:
        return None
    if out not in (0.0, 1.0):
        raise ParseError(f"column {column!r}: expected 0 or 1, got {value!r}", lineno)
    return int(out)


def load_manifest(path) -> Manifest:
    """Load a session manifest CSV.

    cerad_binary is derived from cerad_total (threshold 85) when the cell is
    empty; a binary cell that disagrees with the total is kept as-is and left
    to validate_hierarchy, never silently overwritten. A row whose group
    contradicts its mci label is rejected outright.
    """
    path = Path(path)
    domain_range = None
    with io.StringIO(_read_text(path), newline="") as fh:
        header_meta = []
        pos = fh.tell()
        line = fh.readline()
        while line.startswith("#"):
            header_meta.append(line[1:].strip())
            pos = fh.tell()
            line = fh.readline()
        fh.seek(pos)
        for lineno, meta in enumerate(header_meta, start=1):
            if "=" not in meta:
                continue
            key, _, value = meta.partition("=")
            if key.strip() == "domain_range":
                try:
                    lo, hi = map(float, value.split(","))
                except ValueError:
                    raise ParseError(f"domain_range must be two numbers 'lo,hi', "
                                     f"got {value.strip()!r}", lineno) from None
                if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                    raise ParseError(f"domain_range needs finite lo < hi, "
                                     f"got {value.strip()!r}", lineno)
                domain_range = (lo, hi)
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError("empty manifest: no header row")
        missing = [c for c in MANIFEST_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise ParseError(f"missing required columns: {', '.join(missing)}")

        records = []
        seen_ids = set()
        for lineno, row in enumerate(reader, start=2 + len(header_meta)):
            sid = row["session_id"].strip()
            if not sid:
                raise ParseError("empty session_id", lineno)
            if sid in seen_ids:
                raise ValidationError(f"line {lineno}: duplicate session_id {sid!r}")
            seen_ids.add(sid)

            task = row["task"].strip().upper()
            if task not in TASKS:
                raise ParseError(f"unknown task token {task!r}", lineno)
            group = row["group"].strip().upper()
            if group not in GROUPS:
                raise ParseError(f"unknown group token {row['group']!r}", lineno)
            split = row["split"].strip().lower()
            if split not in SPLITS:
                raise ParseError(f"unknown split token {row['split']!r}", lineno)

            level1 = {}
            for col, tname in _TASK_COLUMNS.items():
                val = _parse_float(row[col], col, lineno)
                if val is not None:
                    level1[tname] = val
            level2 = {}
            for col, dname in _DOMAIN_COLUMNS.items():
                val = _parse_float(row[col], col, lineno)
                if val is not None:
                    level2[dname] = val

            cerad_total = _parse_float(row["cerad_total"], "cerad_total", lineno)
            cerad_binary = _parse_binary(row["cerad_binary"], "cerad_binary", lineno)
            mci = _parse_binary(row["mci"], "mci", lineno)

            if cerad_binary is None and cerad_total is not None:
                cerad_binary = int(cerad_total >= CERAD_BINARY_THRESHOLD)

            if mci is not None and ((group == "HC") != (mci == 0)):
                raise ValidationError(
                    f"line {lineno}: session {sid!r}: group {group} contradicts mci={mci}"
                )

            try:
                sample_rate = int(row["sample_rate"].strip())
            except ValueError:
                raise ParseError(f"bad sample_rate {row['sample_rate']!r}", lineno) from None

            records.append(SessionRecord(
                session_id=sid,
                subject_id=row["subject_id"].strip(),
                group=group,
                task=task,
                audio_path=row["audio_path"].strip(),
                sample_rate=sample_rate,
                labels=LabelHierarchy(
                    level1=level1, level2=level2,
                    cerad_total=cerad_total, cerad_binary=cerad_binary, mci=mci,
                ),
                split=split,
            ))
    return Manifest(records=records, domain_range=domain_range)


def validate_hierarchy(records, domain_range=None) -> list[Issue]:
    """Report label-consistency issues. Pure report, never raises.

    Checks: binary/threshold agreement, score ranges (task scores are
    non-negative, MMSE capped at 30, domain scores inside the declared
    range), and subjects leaking across the development/holdout split.
    """
    if isinstance(records, Manifest):
        if domain_range is None:
            domain_range = records.domain_range
        records = records.records

    issues = []
    subject_splits: dict[str, set[str]] = {}
    for rec in records:
        lab = rec.labels
        subject_splits.setdefault(rec.subject_id, set()).add(rec.split)

        if lab.cerad_total is not None and lab.cerad_binary is not None:
            expected = int(lab.cerad_total >= CERAD_BINARY_THRESHOLD)
            if lab.cerad_binary != expected:
                issues.append(Issue(
                    "binary_threshold_mismatch",
                    f"cerad_binary={lab.cerad_binary} but cerad_total="
                    f"{lab.cerad_total} (threshold {CERAD_BINARY_THRESHOLD})",
                    session_id=rec.session_id, subject_id=rec.subject_id,
                ))
        for task, score in lab.level1.items():
            if score < 0:
                issues.append(Issue(
                    "out_of_range", f"{task} score {score} below 0",
                    session_id=rec.session_id, subject_id=rec.subject_id,
                ))
            if task == "MMSE" and score > MMSE_MAX:
                issues.append(Issue(
                    "out_of_range", f"MMSE score {score} above {MMSE_MAX}",
                    session_id=rec.session_id, subject_id=rec.subject_id,
                ))
        if domain_range is not None:
            lo, hi = domain_range
            for dom, score in lab.level2.items():
                if not (lo <= score <= hi):
                    issues.append(Issue(
                        "out_of_range",
                        f"{dom} score {score} outside declared range [{lo}, {hi}]",
                        session_id=rec.session_id, subject_id=rec.subject_id,
                    ))
        if lab.mci is not None and ((rec.group == "HC") != (lab.mci == 0)):
            issues.append(Issue(
                "group_mci_conflict",
                f"group {rec.group} contradicts mci={lab.mci}",
                session_id=rec.session_id, subject_id=rec.subject_id,
            ))

    for subject, splits in sorted(subject_splits.items()):
        if len(splits) > 1:
            issues.append(Issue(
                "split_leakage",
                f"subject {subject!r} appears in both development and holdout",
                subject_id=subject,
            ))
    return issues
