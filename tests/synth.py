"""Synthetic audio and corpus builders for the test suite.

The corpus generator plants a monotone relation between a subject-level
latent value and both the audio (pitch, pause lengths) and the scores,
so the whole pipeline can be rehearsed end to end with a known answer.
"""

import csv
import json
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from cogspeech import wavio
from cogspeech.corpus import Segment, Timeline, serialize_rttm
from cogspeech.dsp import Signal


def make_sine(freq_hz: float, duration_s: float, sample_rate: int,
              peak: float = 1.0, phase: float = 0.0) -> Signal:
    """Reference tone."""
    t = np.arange(int(round(duration_s * sample_rate))) / sample_rate
    return Signal(peak * np.sin(2 * np.pi * freq_hz * t + phase), sample_rate)


def pulse_train(f0: float, dur_s: float, fs: int, jitter_frac: float = 0.0,
                shimmer_frac: float = 0.0, seed: int = 0,
                alternate: bool = False) -> np.ndarray:
    """Glottal-ish excitation: unit pulses at (possibly perturbed) period
    marks, smoothed by a leaky integrator.

    jitter_frac perturbs each period by +/- that fraction; random signs
    by default (expected cycle-to-cycle period change = jitter_frac),
    strictly alternating signs when alternate=True (expected change =
    2 * jitter_frac).
    """
    rng = np.random.default_rng(seed)
    n = int(round(dur_s * fs))
    base_period = fs / f0
    marks = []
    t = base_period
    i = 0
    while t < n - 2:
        marks.append(t)
        if alternate:
            sign = 1.0 if i % 2 == 0 else -1.0
        else:
            sign = rng.choice((-1.0, 1.0))
        t += base_period * (1.0 + jitter_frac * sign)
        i += 1
    x = np.zeros(n)
    amps = np.ones(len(marks))
    if shimmer_frac > 0:
        amps *= 1.0 + shimmer_frac * rng.choice((-1.0, 1.0), size=len(marks))
    x[np.round(marks).astype(int)] = amps
    return lfilter([1.0], [1.0, -0.95], x)


def resonate(x: np.ndarray, fs: int, freq_hz: float, bw_hz: float) -> np.ndarray:
    r = np.exp(-np.pi * bw_hz / fs)
    theta = 2.0 * np.pi * freq_hz / fs
    return lfilter([1.0], [1.0, -2.0 * r * np.cos(theta), r * r], x)


def vowel(f0: float, dur_s: float, fs: int,
          formants=((500.0, 80.0), (1500.0, 120.0)),
          jitter_frac: float = 0.0, seed: int = 0,
          peak: float = 0.3) -> np.ndarray:
    """Two-resonator sustained vowel, normalized to the requested peak."""
    x = pulse_train(f0, dur_s, fs, jitter_frac=jitter_frac, seed=seed)
    for freq_hz, bw_hz in formants:
        x = resonate(x, fs, freq_hz, bw_hz)
    top = np.max(np.abs(x))
    return x * (peak / top) if top > 0 else x


def white_noise(dur_s: float, fs: int, rms_dbfs: float, seed: int = 0
                ) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(int(round(dur_s * fs)))
    return x * (10.0 ** (rms_dbfs / 20.0))


# ---------------------------------------------------------------------------
# Synthetic clinical corpus

PAR, INV = "PAR", "INV"


def _session_layout(z: float):
    """Segment plan for one session: (speaker, onset, duration) tuples.

    The inter-utterance gap shrinks as z grows, so pause features track z
    alongside pitch.
    """
    gap = 0.8 - 0.2 * z  # 0.5 .. 1.1 s
    plan = [(INV, 0.5, 1.5)]
    t = 2.0 + 0.4
    for _ in range(6):
        plan.append((PAR, round(t, 2), 2.2))
        t += 2.2 + gap
    plan.append((INV, round(t, 2), 1.0))
    return plan, t + 1.0 + 0.5  # trailing silence


def render_session(z: float, fs: int, seed: int) -> tuple[np.ndarray, Timeline]:
    """Audio plus ground-truth timeline for one synthetic session."""
    plan, total_s = _session_layout(z)
    n = int(round(total_s * fs))
    x = white_noise(total_s, fs, rms_dbfs=-50.0, seed=seed)[:n]
    f0_par = 140.0 + 20.0 * z
    for k, (spk, onset, dur) in enumerate(plan):
        if spk == PAR:
            seg = vowel(f0_par, dur, fs, jitter_frac=0.005,
                        seed=seed * 97 + k, peak=0.30)
        else:
            seg = vowel(95.0, dur, fs, formants=((400.0, 90.0), (1200.0, 140.0)),
                        jitter_frac=0.005, seed=seed * 97 + k, peak=0.24)
        # 5 ms raised-cosine edges keep segment boundaries click-free
        edge = int(0.005 * fs)
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
        seg[:edge] *= ramp
        seg[-edge:] *= ramp[::-1]
        i0 = int(round(onset * fs))
        x[i0:i0 + len(seg)] += seg
    timeline = Timeline.from_segments(
        [Segment(spk, onset, dur) for spk, onset, dur in plan])
    return x, timeline


def build_corpus(root, n_subjects: int = 20, fs: int = 16000, seed: int = 0,
                 n_holdout: int = 4) -> dict:
    """Write wav/rttm/manifest for a planted-score corpus; one session per
    subject, task MMSE. Returns paths and the planted latent per subject."""
    root = Path(root)
    (root / "audio").mkdir(parents=True, exist_ok=True)
    (root / "rttm").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    z_values = np.linspace(-1.5, 1.5, n_subjects)
    rng.shuffle(z_values)
    holdout_idx = set(np.argsort(z_values)[:: max(1, n_subjects // n_holdout)][:n_holdout])

    rows = []
    truth = {}
    for i, z in enumerate(z_values):
        subject = f"S{i + 1:03d}"
        sid = f"{subject}_MMSE"
        x, timeline = render_session(float(z), fs, seed=seed * 1000 + i)
        wav_path = root / "audio" / f"{sid}.wav"
        wavio.write_wav(wav_path, x, fs)
        with open(root / "rttm" / f"{sid}.rttm", "w") as fh:
            fh.write(serialize_rttm(timeline, recording_id=sid))

        cerad_total = 85.0 + 8.0 * z + float(rng.normal(0.0, 0.4))
        mci = int(z < -0.5)
        group = "MCI" if mci else "HC"
        split = "holdout" if i in holdout_idx else "development"
        domain = {d: round(100.0 + 10.0 * z + float(rng.normal(0.0, 0.8)), 3)
                  for d in ("lan", "mem", "exe", "vis")}
        rows.append({
            "session_id": sid, "subject_id": subject, "group": group,
            "task": "MMSE", "split": split,
            "audio_path": f"audio/{sid}.wav", "sample_rate": fs,
            "pf": round(15.0 + 5.0 * z, 3), "vf": round(18.0 + 5.0 * z, 3),
            "rl": round(50.0 + 6.0 * z, 3), "rw": round(45.0 + 6.0 * z, 3),
            "bnt": round(13.0 + 2.0 * z, 3),
            "mmse": round(min(30.0, 24.0 + 4.0 * z), 3),
            **{k: v for k, v in domain.items()},
            "cerad_total": round(cerad_total, 3),
            "cerad_binary": int(cerad_total >= 85.0), "mci": mci,
        })
        truth[subject] = {"z": float(z), "split": split, "session_id": sid}

    manifest = root / "manifest.csv"
    with open(manifest, "w", newline="") as fh:
        fh.write("# domain_range = 40, 160\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return {"root": root, "manifest": manifest, "truth": truth}


def write_embedding_dump(corpus: dict, path, dim: int = 768, k: int = 3,
                         n_frames: int = 20, seed: int = 0) -> Path:
    """Write a planted frame-level embedding dump for a build_corpus
    corpus: JSON lines (one object per session) for a .jsonl path, else
    CSV (a header, then one row per frame).

    A subject's latent vector is its planted z followed by k - 1 nuisance
    values drawn per subject. Each frame is that vector through one fixed
    random dim x k projection plus unit Gaussian noise, so the pooled
    embedding carries z and k - 1 directions unrelated to the scores.
    Both formats write the same floats for the same arguments."""
    path = Path(path)
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((dim, k))
    with open(path, "w", newline="") as fh:
        writer = None if path.suffix == ".jsonl" else csv.writer(fh)
        if writer:
            writer.writerow(["session_id", "dim", *(f"v{i}" for i in range(dim))])
        for subject in sorted(corpus["truth"]):
            truth = corpus["truth"][subject]
            latent = np.concatenate([[truth["z"]], rng.standard_normal(k - 1)])
            frames = (projection @ latent
                      + rng.standard_normal((n_frames, dim))).tolist()
            if writer:
                writer.writerows([truth["session_id"], dim, *map(repr, f)]
                                 for f in frames)
            else:
                fh.write(json.dumps({"session_id": truth["session_id"],
                                     "dim": dim, "values": frames}) + "\n")
    return path


def planted_regression(n_subjects: int = 100, n_features: int = 12,
                       seed: int = 0, var_snr: float = 10.0):
    """Tabular dataset with a linear target at the given variance SNR."""
    from cogspeech.model import Dataset

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_subjects, n_features))
    w = rng.normal(size=n_features)
    signal = X @ w
    noise_sd = float(np.std(signal)) / np.sqrt(var_snr)
    y = signal + rng.normal(0.0, noise_sd, n_subjects)
    subjects = tuple(f"S{i:03d}" for i in range(n_subjects))
    return Dataset(X=X, y=y, subject_ids=subjects,
                   session_ids=tuple(f"{s}_T" for s in subjects),
                   feature_names=tuple(f"f{j}" for j in range(n_features)))


def planted_classification(n_subjects: int = 100, n_features: int = 12,
                           seed: int = 0, permuted: bool = False):
    """Separable-ish binary dataset (-1/+1); permuted=True breaks the
    feature-label link for null-distribution checks."""
    from cogspeech.model import Dataset

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n_subjects, n_features))
    y = np.where(X[:, 0] + 0.4 * rng.standard_normal(n_subjects) > 0,
                 1.0, -1.0)
    if permuted:
        y = rng.permutation(y)
    subjects = tuple(f"S{i:03d}" for i in range(n_subjects))
    return Dataset(X=X, y=y, subject_ids=subjects,
                   session_ids=tuple(f"{s}_T" for s in subjects),
                   feature_names=tuple(f"f{j}" for j in range(n_features)))
