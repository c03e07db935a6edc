"""Builds the two analysis streams from a diarized recording.

Prosody-preserved: everything the participant did not say is zeroed in
place, so pause structure and timing survive. Concatenated: participant
segments are spliced together with short linear cross-fades for dense
voice-quality analysis.

In overlapped speech the participant wins by default (their samples are
kept); set overlap_priority="other" to mask overlaps instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Timeline
from .dsp import Signal, _rms_db, _runs
from .errors import ValidationError

CROSSFADE_MS_DEFAULT = 10.0


def _sample_span(onset_s: float, end_s: float, fs: int, n: int) -> tuple[int, int]:
    a = max(0, int(round(onset_s * fs)))
    b = min(n, int(round(end_s * fs)))
    return a, b


def build_prosody_preserved(x: Signal, tl: Timeline, participant: str,
                            overlap_priority: str = "participant",
                            taper_s: float = 0.0) -> Signal:
    """Zero all non-participant speech, leave the rest bit-identical.

    taper_s > 0 applies a cosine ramp inside each masked region's edges
    (kept samples stay untouched either way); default off so masked
    regions are exactly zero.
    """
    if participant not in tl.speakers():
        raise ValidationError(f"participant {participant!r} not among timeline "
                              f"speakers {list(tl.speakers())}")
    if overlap_priority not in ("participant", "other"):
        raise ValidationError(f"overlap_priority must be 'participant' or "
                              f"'other', got {overlap_priority!r}")
    n = len(x)
    fs = x.sample_rate
    masked = np.zeros(n, dtype=bool)
    for seg in tl:
        if seg.speaker == participant:
            continue
        a, b = _sample_span(seg.onset, seg.end, fs, n)
        masked[a:b] = True
    if overlap_priority == "participant":
        for seg in tl.for_speaker(participant):
            a, b = _sample_span(seg.onset, seg.end, fs, n)
            masked[a:b] = False

    if taper_s <= 0.0:
        out = np.where(masked, 0.0, x.samples)
        return Signal(out, fs)

    gain = np.where(masked, 0.0, 1.0)
    taper_n = int(round(taper_s * fs))
    for a, b in zip(*_runs(masked)):
        k = min(taper_n, (b - a) // 2)
        if k <= 0:
            continue
        ramp = 0.5 * (1.0 + np.cos(np.pi * np.arange(1, k + 1) / k))
        gain[a:a + k] = ramp          # fade out into the masked region
        gain[b - k:b] = ramp[::-1]    # fade back in at its end
    return Signal(x.samples * gain, fs)


@dataclass(frozen=True)
class ConcatResult:
    signal: Signal
    junctions: tuple[int, ...]      # output sample index where each join begins
    faded: tuple[bool, ...]          # per junction: cross-faded or hard
    short_segments: tuple[int, ...]  # participant-segment indices too short to fade


def build_concatenated(x: Signal, tl: Timeline, participant: str,
                       crossfade_ms: float = CROSSFADE_MS_DEFAULT) -> ConcatResult:
    """Splice participant segments with linear cross-fades.

    Ramps are k/L and 1 - k/L, which sum to one, so equal DC levels pass
    through a fade unchanged. A junction is faded only when both sides
    are at least twice the fade length; otherwise it is a hard join and
    the short segment is flagged rather than rejected.
    """
    if participant not in tl.speakers():
        raise ValidationError(f"participant {participant!r} not among timeline "
                              f"speakers {list(tl.speakers())}")
    fs = x.sample_rate
    fade = int(round(crossfade_ms / 1000.0 * fs))
    if fade < 1:
        raise ValidationError(f"crossfade of {crossfade_ms} ms is shorter than "
                              f"one sample at {fs} Hz")
    pieces = []
    for seg in tl.for_speaker(participant):
        a, b = _sample_span(seg.onset, seg.end, fs, len(x))
        if b > a:
            pieces.append(x.samples[a:b])
    if not pieces:
        raise ValidationError(f"no participant segments for {participant!r}")

    short = tuple(i for i, p in enumerate(pieces) if len(p) < 2 * fade)
    fade_flags = tuple(len(prev) >= 2 * fade and len(nxt) >= 2 * fade
                       for prev, nxt in zip(pieces, pieces[1:]))
    # every faded junction overlaps its two pieces by one fade
    out = np.empty(sum(map(len, pieces)) - fade * sum(fade_flags))
    end = len(pieces[0])
    out[:end] = pieces[0]
    junctions = []
    ramp = np.arange(fade) / fade
    for nxt, can_fade in zip(pieces[1:], fade_flags):
        start = end - fade if can_fade else end
        if can_fade:
            out[start:end] = out[start:end] * (1.0 - ramp) + nxt[:fade] * ramp
        out[end:start + len(nxt)] = nxt[end - start:]
        junctions.append(start)
        end = start + len(nxt)
    return ConcatResult(signal=Signal(out, fs), junctions=tuple(junctions),
                        faded=fade_flags, short_segments=short)


@dataclass(frozen=True)
class TransitionFlag:
    boundary: int
    reasons: tuple[str, ...]
    step: float
    rms_jump_db: float


def audit_transitions(x: Signal, boundaries, step_threshold: float = 0.2,
                      rms_win_s: float = 0.010, rms_jump_db: float = 20.0
                      ) -> list[TransitionFlag]:
    """Flag junctions with a sample step above step_threshold or a local
    RMS jump above rms_jump_db. Returns only the flagged boundaries."""
    n = len(x)
    fs = x.sample_rate
    w = max(1, int(round(rms_win_s * fs)))
    flags = []
    for b in boundaries:
        if not (0 < b < n):
            raise ValidationError(f"boundary {b} outside signal (length {n})")
        step = abs(float(x.samples[b] - x.samples[b - 1]))
        left = x.samples[max(0, b - w):b]
        right = x.samples[b:min(n, b + w)]
        jump = abs(_rms_db(right) - _rms_db(left))
        reasons = []
        if step > step_threshold:
            reasons.append("sample step")
        if jump > rms_jump_db:
            reasons.append("rms jump")
        if reasons:
            flags.append(TransitionFlag(boundary=int(b), reasons=tuple(reasons),
                                        step=step, rms_jump_db=jump))
    return flags

