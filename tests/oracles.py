"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the dumb way: frame-by-frame
counting for diarization scores, explicit normal equations for ridge,
covariance eigendecomposition for PCA, one np.concatenate per junction
for the concatenated stream, sequential minimal optimization
(one pair of dual variables per step) for the linear SVM and the
interior-point solver as first written (separate arrays, concatenated
copies for the step length) as its bitwise reference, one frame
at a time for the acoustic descriptors (direct autocorrelation, a full
scan of the pulses per frame, a scalar Levinson-Durbin fit and np.roots
per frame), and whole-signal arrays for the spectral gate and the
loudness meter. Slow and obvious beats fast and clever for an oracle.
"""

import itertools
import math

import numpy as np

FRAME_S = 0.010


# ---------------------------------------------------------------------------
# Frame-level diarization scoring

def _frame_range(segments, collar_s, frame_s):
    lo = min(s[1] for s in segments) - collar_s - frame_s
    hi = max(s[2] for s in segments) + collar_s + frame_s
    return int(math.floor(lo / frame_s)) - 1, int(math.ceil(hi / frame_s)) + 1


def _frames_in(lo_t: float, hi_t: float, frame_s: float):
    """Frame indices whose midpoint lies in [lo_t, hi_t)."""
    first = int(math.floor(lo_t / frame_s)) - 1
    last = int(math.ceil(hi_t / frame_s)) + 1
    out = []
    for i in range(first, last + 1):
        mid = (i + 0.5) * frame_s
        if lo_t <= mid < hi_t:
            out.append(i)
    return out


def _speaker_frames(segments, frame_s):
    frames = {}
    for spk, onset, end in segments:
        frames.setdefault(spk, set()).update(_frames_in(onset, end, frame_s))
    return frames


def _assign(ref_spks, hyp_spks, overlap):
    """Overlap-maximizing injective hyp->ref mapping.

    Candidates are the maximal mappings (every speaker on the smaller side
    is paired); ties on total overlap go to the lexicographically smallest
    sorted (hyp, ref) pair tuple; zero-overlap pairs are dropped at the
    end. Overlap counts are integers here, so ties are exact.
    """
    ref_spks = sorted(ref_spks)
    hyp_spks = sorted(hyp_spks)
    if not ref_spks or not hyp_spks:
        return {}
    k = min(len(ref_spks), len(hyp_spks))
    best = None  # (negative total, pairs)
    if len(hyp_spks) <= len(ref_spks):
        candidates = ((tuple(sorted(zip(hyp_spks, refs))))
                      for refs in itertools.permutations(ref_spks, k))
    else:
        candidates = ((tuple(sorted(zip(hyps, ref_spks))))
                      for hyps in itertools.permutations(hyp_spks, k))
    for pairs in candidates:
        total = sum(overlap.get((r, h), 0) for h, r in pairs)
        key = (-total, pairs)
        if best is None or key < best:
            best = key
    return {h: r for h, r in best[1] if overlap.get((r, h), 0) > 0}


def diar_scores(ref_segments, hyp_segments, collar_s=0.0, frame_s=FRAME_S,
                score_overlap=True):
    """Frame-counting DER/JER/purity/coverage.

    Segments are (speaker, onset, end) triples. Everything should sit on
    the frame grid for the counts to represent the intervals exactly.
    """
    if not ref_segments and not hyp_segments:
        nan = float("nan")
        return {"der": nan, "jer": nan, "purity": nan, "coverage": nan,
                "missed_s": 0.0, "false_alarm_s": 0.0, "confusion_s": 0.0,
                "scored_total_s": 0.0}
    ref_f = _speaker_frames(ref_segments, frame_s)
    hyp_f = _speaker_frames(hyp_segments, frame_s) if hyp_segments else {}

    collar_frames = set()
    if collar_s > 0:
        for _, onset, end in ref_segments:
            for b in (onset, end):
                collar_frames.update(
                    _frames_in(b - collar_s, b + collar_s, frame_s))

    lo, hi = _frame_range(list(ref_segments) + list(hyp_segments),
                          collar_s, frame_s)
    missed = fa = mintot = scored = 0
    scored_overlap = {}
    for i in range(lo, hi + 1):
        if i in collar_frames:
            continue
        active_r = [r for r, fr in ref_f.items() if i in fr]
        active_h = [h for h, fr in hyp_f.items() if i in fr]
        if not score_overlap and len(active_r) >= 2:
            continue
        nr, nh = len(active_r), len(active_h)
        scored += nr
        missed += max(0, nr - nh)
        fa += max(0, nh - nr)
        mintot += min(nr, nh)
        for r in active_r:
            for h in active_h:
                scored_overlap[(r, h)] = scored_overlap.get((r, h), 0) + 1

    mapping = _assign(ref_f.keys(), hyp_f.keys(), scored_overlap)
    correct = sum(scored_overlap.get((r, h), 0) for h, r in mapping.items())
    confusion = max(0, mintot - correct)
    der = (missed + fa + confusion) / scored if scored > 0 else float("nan")

    # JER on raw (uncollared) frame counts
    raw_overlap = {}
    for r, rf in ref_f.items():
        for h, hf in hyp_f.items():
            raw_overlap[(r, h)] = len(rf & hf)
    raw_map = _assign(ref_f.keys(), hyp_f.keys(), raw_overlap)
    to_hyp = {r: h for h, r in raw_map.items()}
    jer_terms = []
    for r, rf in ref_f.items():
        h = to_hyp.get(r)
        if h is None:
            jer_terms.append(1.0)
            continue
        inter = raw_overlap[(r, h)]
        union = len(rf) + len(hyp_f[h]) - inter
        jer_terms.append(1.0 - inter / union if union > 0 else 1.0)
    jer = float(np.mean(jer_terms)) if jer_terms else float("nan")

    hyp_total = sum(len(f) for f in hyp_f.values())
    ref_total = sum(len(f) for f in ref_f.values())
    purity = (sum(max((raw_overlap[(r, h)] for r in ref_f), default=0)
                  for h in hyp_f) / hyp_total if hyp_total else float("nan"))
    coverage = (sum(max((raw_overlap[(r, h)] for h in hyp_f), default=0)
                    for r in ref_f) / ref_total if ref_total else float("nan"))

    return {
        "der": der,
        "jer": jer,
        "purity": purity,
        "coverage": coverage,
        "missed_s": missed * frame_s,
        "false_alarm_s": fa * frame_s,
        "confusion_s": confusion * frame_s,
        "scored_total_s": scored * frame_s,
    }


# ---------------------------------------------------------------------------
# Concatenated stream

def concatenated(pieces, fade):
    """(samples, junctions, faded, short_segments) of the cross-faded
    splice, growing the output by one np.concatenate per junction."""
    short = tuple(i for i, p in enumerate(pieces) if len(p) < 2 * fade)
    out = np.array(pieces[0], dtype=np.float64)
    junctions = []
    fade_flags = []
    ramp = np.arange(fade) / fade
    for i in range(1, len(pieces)):
        nxt = pieces[i]
        can_fade = len(pieces[i - 1]) >= 2 * fade and len(nxt) >= 2 * fade
        if can_fade:
            junctions.append(len(out) - fade)
            out[-fade:] = out[-fade:] * (1.0 - ramp) + nxt[:fade] * ramp
            out = np.concatenate([out, nxt[fade:]])
        else:
            junctions.append(len(out))
            out = np.concatenate([out, nxt])
        fade_flags.append(can_fade)
    return out, tuple(junctions), tuple(fade_flags), short


# ---------------------------------------------------------------------------
# Linear-model oracles

def ridge_normal_equations(X, y, lam):
    """Ridge with unpenalized intercept via the augmented system."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    penalty = np.diag(np.concatenate([np.full(d, float(lam)), [0.0]]))
    sol = np.linalg.solve(Xa.T @ Xa + penalty, Xa.T @ y)
    return sol[:d], float(sol[d])


def pca_eigendecomposition(X, threshold):
    """(k, projected) from the covariance eigendecomposition."""
    X = np.asarray(X, dtype=np.float64)
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / X.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    ratio = np.cumsum(evals) / evals.sum()
    k = int(np.searchsorted(ratio, threshold - 1e-12) + 1)
    k = max(1, min(k, len(evals)))
    return k, Xc @ evecs[:, :k]


def match_signs(candidate, reference):
    """Flip reference columns so both matrices agree in sign per column."""
    reference = reference.copy()
    for j in range(reference.shape[1]):
        col = candidate[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] * reference[pivot, j] < 0:
            reference[:, j] *= -1.0
    return reference


def smo_svm(X, y, C, class_weighting="balanced", tol=1e-6, max_iter=None):
    """Linear soft-margin SVM via SMO on the dual: (weights, bias,
    iterations, converged).

    Working pair by maximal KKT violation; per-sample box caps C_i carry
    the class weights (n / (2 * n_class) under "balanced"). Stops when
    the violation gap falls below tol.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if class_weighting == "balanced":
        n_pos = int(np.sum(y > 0))
        n_neg = n - n_pos
        scale = np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))
    else:
        scale = np.ones(n)
    cap = C * scale

    K = X @ X.T
    alpha = np.zeros(n)
    G = -np.ones(n)  # gradient of the dual objective
    if max_iter is None:
        max_iter = max(20000, 200 * n)

    it = 0
    converged = False
    while it < max_iter:
        it += 1
        yG = -y * G
        up = ((y > 0) & (alpha < cap - 1e-14)) | ((y < 0) & (alpha > 1e-14))
        low = ((y < 0) & (alpha < cap - 1e-14)) | ((y > 0) & (alpha > 1e-14))
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.flatnonzero(up)[np.argmax(yG[up])])
        j = int(np.flatnonzero(low)[np.argmin(yG[low])])
        m, M = yG[i], yG[j]
        if m - M <= tol:
            converged = True
            break
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 1e-12:
            quad = 1e-12
        t = (m - M) / quad
        bound_i = cap[i] - alpha[i] if y[i] > 0 else alpha[i]
        bound_j = alpha[j] if y[j] > 0 else cap[j] - alpha[j]
        t = min(t, bound_i, bound_j)
        if t <= 0:
            converged = True
            break
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        G += t * y * (K[:, i] - K[:, j])

    w = X.T @ (alpha * y)
    free = (alpha > 1e-10) & (alpha < cap - 1e-10)
    if free.any():
        b = float(np.mean(-y[free] * G[free]))
    else:
        yG = -y * G
        up = ((y > 0) & (alpha < cap - 1e-14)) | ((y < 0) & (alpha > 1e-14))
        low = ((y < 0) & (alpha < cap - 1e-14)) | ((y > 0) & (alpha > 1e-14))
        hi = yG[up].max() if up.any() else 0.0
        lo = yG[low].min() if low.any() else 0.0
        b = float((hi + lo) / 2.0)
    return w, b, it, converged


def _max_step(v, dv) -> float:
    """Largest step that keeps every v + step * dv >= 0 (inf if any
    step does)."""
    neg = dv < 0.0
    return float(np.min(v[neg] / -dv[neg])) if neg.any() else math.inf


def ipm_svm(X, y, C, class_weighting="balanced", tol=1e-11, max_iter=100):
    """The interior-point solver as first written, with separate
    alpha/slack/z/s arrays and the step length from concatenated copies:
    (weights, bias, iterations, converged). `cogspeech.model.svm_fit` must
    take the same number of Newton steps and reach the same weights and
    bias to a tolerance."""
    from scipy.linalg import lapack
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    if class_weighting == "balanced":
        n_pos = int(np.sum(y > 0))
        n_neg = n - n_pos
        scale = np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))
    else:
        scale = np.ones(n)
    cap = C * scale

    Yx = X * y[:, None]
    Q = Yx @ Yx.T
    # the dual residual is judged against the size of the terms in Q @ a
    Q_abs = np.abs(Q)
    # interior start; z and s make the start dual feasible
    alpha = cap / 2.0
    slack = cap - alpha  # updated on its own, so it stays > 0 near a = C
    nu = 0.0
    grad = Q @ alpha - 1.0
    z = np.maximum(grad, 0.0) + 1.0  # multipliers of a >= 0
    s = np.maximum(-grad, 0.0) + 1.0  # multipliers of a <= C
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, n] = kkt[n, :n] = y
    diag = np.arange(n)
    rhs = np.zeros(n + 1)

    it = 0
    while True:
        grad = Q @ alpha - 1.0
        r_dual = grad + nu * y - z + s
        r_eq = float(y @ alpha)
        gap = float(alpha @ z + slack @ s)
        objective = 0.5 * float(alpha @ (grad - 1.0))
        converged = (gap <= tol * (1.0 + abs(objective))
                     and abs(r_eq) <= tol * (1.0 + cap.max())
                     and np.abs(r_dual).max()
                     <= tol * (1.0 + (Q_abs @ alpha).max()))
        if converged or it >= max_iter:
            break
        it += 1
        kkt[:n, :n] = Q
        kkt[diag, diag] += z / alpha + s / slack
        lu, piv, _ = lapack.dgetrf(kkt)

        def newton(r_z, r_s):
            # step with a*dz + z*da = r_z and slack*ds - s*da = r_s
            rhs[:n] = r_z / alpha - r_s / slack - r_dual
            rhs[n] = -r_eq
            sol = lapack.dgetrs(lu, piv, rhs)[0]
            da = sol[:n]
            dz = (r_z - z * da) / alpha
            ds = (r_s + s * da) / slack
            step = _max_step(np.concatenate((alpha, slack, z, s)),
                             np.concatenate((da, -da, dz, ds)))
            return da, sol[n], dz, ds, step

        da, _, dz, ds, step = newton(-alpha * z, -slack * s)  # predictor
        step = min(1.0, step)
        mu = gap / (2 * n)
        mu_aff = float((alpha + step * da) @ (z + step * dz)
                       + (slack - step * da) @ (s + step * ds)) / (2 * n)
        target = (mu_aff / mu) ** 3 * mu
        da, dnu, dz, ds, step = newton(target - alpha * z - da * dz,
                                       target - slack * s + da * ds)
        step = min(1.0, 0.995 * step)  # stay inside the box
        alpha = alpha + step * da
        slack = slack - step * da
        nu += step * dnu
        z = z + step * dz
        s = s + step * ds

    w = X.T @ (alpha * y)
    grad = Q @ alpha - 1.0
    lower = alpha < cap * z
    upper = slack < cap * s
    free = ~(lower | upper)
    if free.any():
        b = float(np.mean(-y[free] * grad[free]))
    else:
        yG = -y * grad
        up = np.where(y > 0, ~upper, ~lower)
        low = np.where(y > 0, ~lower, ~upper)
        hi = yG[up].max() if up.any() else 0.0
        lo = yG[low].min() if low.any() else 0.0
        b = float((hi + lo) / 2.0)
    return w, b, it, converged


def balanced_accuracy(y, yhat):
    """Mean per-class recall, one boolean mask per class in np.unique's
    order."""
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    recalls = []
    for cls in np.unique(y):
        sel = y == cls
        recalls.append(float(np.mean(yhat[sel] == cls)))
    return float(np.mean(recalls))


# ---------------------------------------------------------------------------
# Functional oracle

def mean_and_cov(values):
    """Two-pass mean and population coefficient of variation."""
    values = np.asarray(values, dtype=np.float64)
    mean = values.sum() / values.size
    sd = math.sqrt(np.sum((values - mean) ** 2) / values.size)
    cov = sd / abs(mean) if abs(mean) >= 1e-8 else sd
    return float(mean), float(cov)


# ---------------------------------------------------------------------------
# Acoustic descriptor oracles: one frame at a time, lags by direct
# correlation, one LPC fit and one np.roots call per frame.

def _frames(samples, win, hop):
    return [samples[s:s + win] for s in range(0, len(samples) - win + 1, hop)]


def _frame_db(frame):
    ms = float(np.mean(np.square(frame)))
    return max(10.0 * math.log10(ms), -120.0) if ms > 0 else -120.0


def _normalized_acf(frame, lag_lo, lag_hi):
    """r[tau - lag_lo] = sum x[t] x[t + tau] / sqrt(lead * trail energy),
    the sums taken by direct correlation of the frame with itself."""
    n = len(frame)
    taus = np.arange(lag_lo, lag_hi + 1)
    acf = np.correlate(frame, frame, mode="full")[n - 1 + taus]
    energy = np.cumsum(np.square(frame))
    lead = energy[n - 1 - taus]
    trail = energy[-1] - energy[taus - 1]
    return acf / np.sqrt(np.maximum(lead * trail, 1e-300))


def f0_track(samples, fs, fmin=60.0, fmax=400.0, win_s=0.040, hop_s=0.010,
             voicing_threshold=0.45, energy_floor_dbfs=-60.0):
    """(values, voiced) per frame; the per-frame peak pick of track_f0."""
    win, hop = int(round(win_s * fs)), int(round(hop_s * fs))
    frames = _frames(samples, win, hop)
    lag_lo = max(2, int(math.floor(fs / fmax)))
    lag_hi = min(win - 2, int(math.ceil(fs / fmin)))
    values = np.zeros(len(frames))
    voiced = np.zeros(len(frames), dtype=bool)
    for i, frame in enumerate(frames):
        if _frame_db(frame) <= energy_floor_dbfs:
            continue
        ri = _normalized_acf(frame - frame.mean(), lag_lo - 1, lag_hi + 1)
        inner = ri[1:-1]  # lags lag_lo..lag_hi
        peaks = np.flatnonzero((inner > ri[:-2]) & (inner >= ri[2:]))
        if peaks.size == 0:
            continue
        best = float(inner[peaks].max())
        if best < voicing_threshold:
            continue
        cand = peaks[inner[peaks] >= 0.9 * best] if best > 0 else peaks
        p = int(cand.min())
        a, b, c = ri[p], ri[p + 1], ri[p + 2]
        denom = a - 2 * b + c
        delta = 0.5 * (a - c) / denom if abs(denom) > 1e-12 else 0.0
        f0 = fs / ((lag_lo + p) + float(np.clip(delta, -0.5, 0.5)))
        if fmin * 0.9 <= f0 <= fmax * 1.1:
            values[i] = f0
            voiced[i] = True
    return values, voiced


def pulse_marks(samples, fs, f0_values, voiced, win_s=0.040, hop_s=0.010):
    """Per-run arrays of pulse mark indices, runs found by walking the mask."""
    hop, win = int(round(hop_s * fs)), int(round(win_s * fs))
    runs = []
    i = 0
    while i < len(voiced):
        if not voiced[i]:
            i += 1
            continue
        j = i
        while j < len(voiced) and voiced[j]:
            j += 1
        run_f0 = f0_values[i:j]
        run_f0 = run_f0[run_f0 > 0]
        if run_f0.size:
            t0 = fs / float(np.median(run_f0))
            a, b = i * hop, min(len(samples), (j - 1) * hop + win)
            marks = []
            lo, hi = a, min(b, a + int(1.3 * t0) + 1)
            while hi - lo >= 2:
                m = lo + int(np.argmax(samples[lo:hi]))
                marks.append(m)
                lo = m + int(0.7 * t0)
                hi = min(b, m + int(1.3 * t0) + 1)
            if len(marks) >= 3:
                m_arr = np.array(marks)
                amps = np.abs(samples[m_arr])
                med = float(np.median(amps))
                lo_i, hi_i = 0, len(m_arr)
                while hi_i > lo_i and amps[hi_i - 1] < 0.3 * med:
                    hi_i -= 1
                while hi_i > lo_i and amps[lo_i] < 0.3 * med:
                    lo_i += 1
                if hi_i - lo_i >= 3:
                    runs.append(m_arr[lo_i:hi_i])
        i = j
    return runs


def jitter_shimmer_hnr(samples, fs, f0_values, voiced, win_s=0.040,
                       hop_s=0.010, stat_win_s=0.060, energy_floor_dbfs=-60.0,
                       hnr_range=(-20.0, 40.0)):
    """{"jitter", "shimmer", "hnr_db"} -> (values, mask): every frame
    scans all pulses for its window, then searches its own HNR lag."""
    hop, win = int(round(hop_s * fs)), int(round(win_s * fs))
    frames = _frames(samples, win, hop)
    nf = min(len(frames), len(voiced))
    per_t, per_val, dif_t, dif_val = [], [], [], []
    amp_t, amp_val, adf_t, adf_val = [], [], [], []
    for marks in pulse_marks(samples, fs, f0_values, voiced, win_s, hop_s):
        t = marks / fs
        periods = np.diff(t)
        amps = np.abs(samples[marks])
        per_t.extend((t[:-1] + t[1:]) / 2.0)
        per_val.extend(periods)
        dif_t.extend(t[1:-1])
        dif_val.extend(np.abs(np.diff(periods)))
        amp_t.extend(t)
        amp_val.extend(amps)
        adf_t.extend(t[1:])
        adf_val.extend(np.abs(np.diff(amps)))
    per_t, per_val = np.array(per_t), np.array(per_val)
    dif_t, dif_val = np.array(dif_t), np.array(dif_val)
    amp_t, amp_val = np.array(amp_t), np.array(amp_val)
    adf_t, adf_val = np.array(adf_t), np.array(adf_val)

    out = {name: (np.zeros(nf), np.zeros(nf, dtype=bool))
           for name in ("jitter", "shimmer", "hnr_db")}
    out["hnr_db"][0][:] = hnr_range[0]
    lag_lo = max(2, int(math.floor(fs / 400.0)))
    lag_hi = min(win - 2, int(math.ceil(fs / 60.0)))
    for i in range(nf):
        center = (i * hop + win / 2.0) / fs
        lo, hi = center - stat_win_s / 2.0, center + stat_win_s / 2.0
        if voiced[i]:
            psel = (per_t >= lo) & (per_t <= hi)
            dsel = (dif_t >= lo) & (dif_t <= hi)
            if psel.sum() >= 3 and dsel.sum() >= 2:
                out["jitter"][0][i] = np.mean(dif_val[dsel]) / np.mean(per_val[psel])
                out["jitter"][1][i] = True
            asel = (amp_t >= lo) & (amp_t <= hi)
            adsel = (adf_t >= lo) & (adf_t <= hi)
            if asel.sum() >= 3 and adsel.sum() >= 2 and np.mean(amp_val[asel]) > 0:
                out["shimmer"][0][i] = np.mean(adf_val[adsel]) / np.mean(amp_val[asel])
                out["shimmer"][1][i] = True
        if _frame_db(frames[i]) <= energy_floor_dbfs:
            continue
        r = _normalized_acf(frames[i] - frames[i].mean(), lag_lo, lag_hi)
        if voiced[i] and f0_values[i] > 0:
            lag = int(round(fs / f0_values[i]))
            a, b = max(0, lag - 2 - lag_lo), min(len(r), lag + 3 - lag_lo)
            peak = float(r[a:b].max()) if b > a else float(r.max())
        else:
            peak = float(r.max())
        peak = min(max(peak, 1e-12), 1.0 - 1e-12)
        out["hnr_db"][0][i] = min(max(10.0 * math.log10(peak / (1.0 - peak)),
                                      hnr_range[0]), hnr_range[1])
        out["hnr_db"][1][i] = True
    return out


def levinson(rxx, order):
    """Scalar Levinson-Durbin; None when the fit is unstable or degenerate."""
    a = np.zeros(order + 1)
    a[0] = 1.0
    err = rxx[0]
    if err <= 0:
        return None
    for i in range(1, order + 1):
        acc = rxx[i] + np.dot(a[1:i], rxx[i - 1:0:-1])
        k = -acc / err
        if not np.isfinite(k) or abs(k) >= 1.0:
            return None
        a[1:i + 1] = a[1:i + 1] + k * a[i - 1::-1][:i]
        err *= (1.0 - k * k)
        if err <= 0:
            return None
    return a


def formants(samples, fs, voiced, order=None, frame_s=0.025, hop_s=0.010,
             f1_range=(200.0, 1000.0), f2_range=(800.0, 2800.0),
             max_bw=400.0):
    """{"f1_hz", "f1_bw_hz", "f2_hz", "f2_bw_hz"} -> (values, mask): one
    LPC fit and np.roots per voiced frame, poles walked in frequency order."""
    order = fs // 1000 + 2 if order is None else order
    win, hop = int(round(frame_s * fs)), int(round(hop_s * fs))
    frames = _frames(samples, win, hop)
    nf = min(len(frames), len(voiced))
    window = np.hamming(win)
    out = {name: (np.zeros(nf), np.zeros(nf, dtype=bool))
           for name in ("f1_hz", "f1_bw_hz", "f2_hz", "f2_bw_hz")}
    for i in range(nf):
        if not voiced[i]:
            continue
        w = frames[i] * window
        rxx = np.correlate(w, w, mode="full")[win - 1:win + order]
        a = levinson(rxx, order)
        if a is None:
            continue
        roots = np.roots(a)
        roots = roots[(roots.imag > 1e-8) & (np.abs(roots) < 1.0)]
        freqs = np.angle(roots) * fs / (2.0 * np.pi)
        bws = -(fs / np.pi) * np.log(np.abs(roots))
        f1 = f2 = None
        for f, bw in sorted(zip(freqs, bws)):
            if bw > max_bw:
                continue
            if f1 is None and f1_range[0] <= f <= f1_range[1]:
                f1 = (f, bw)
                continue
            if f2 is None and f2_range[0] <= f <= f2_range[1]:
                if f1 is None or f > f1[0]:
                    f2 = (f, bw)
        for tag, found in (("f1", f1), ("f2", f2)):
            if found is not None:
                for name, v in zip((f"{tag}_hz", f"{tag}_bw_hz"), found):
                    out[name][0][i] = v
                    out[name][1][i] = True
    return out


# ---------------------------------------------------------------------------
# Conditioning oracles: the spectral gate and the loudness meter on
# whole-signal arrays, with a frame-by-frame overlap-add.

def _stft_mags(samples, frame_len, hop):
    frames = np.lib.stride_tricks.sliding_window_view(samples, frame_len)[::hop]
    return np.abs(np.fft.rfft(frames * np.hanning(frame_len), axis=1))


def noise_profile(samples, cfg):
    """The noise_quantile of every frame's STFT magnitude, per bin."""
    return np.quantile(_stft_mags(samples, cfg.frame_len, cfg.hop),
                       cfg.noise_quantile, axis=0)


def spectral_gate(samples, cfg):
    """Gated samples; raises ValueError where the frames leave a sample
    of the signal with zero window weight."""
    threshold = noise_profile(samples, cfg) * 10.0 ** (cfg.threshold_margin_db / 20.0)
    n, pad, flen = len(samples), cfg.frame_len, cfg.frame_len
    padded = np.concatenate([np.zeros(pad), samples, np.zeros(pad + flen)])
    win = np.hanning(flen)
    frames = np.lib.stride_tricks.sliding_window_view(padded, flen)[::cfg.hop]
    spec = np.fft.rfft(frames * win, axis=1)
    gain = np.where(np.abs(spec) < threshold[None, :], 1.0 - cfg.alpha, 1.0)
    recon = np.fft.irfft(spec * gain, n=flen, axis=1)
    out = np.zeros(len(padded))
    norm = np.zeros(len(padded))
    for m in range(frames.shape[0]):
        lo = m * cfg.hop
        out[lo:lo + flen] += recon[m] * win
        norm[lo:lo + flen] += win * win
    covered = norm > 1e-12
    if not np.all(covered[pad:pad + n]):
        raise ValueError("frames leave gaps")
    out[covered] /= norm[covered]
    return out[pad:pad + n]


def integrated_loudness(samples, fs, sos):
    """(LUFS, gated block count) from one K-weighted array and one
    running sum of squares; sos is the K-weighting filter at fs."""
    from scipy import signal as sps
    block, step = int(round(0.4 * fs)), int(round(0.1 * fs))
    if len(samples) < block:
        return float("-inf"), 0
    weighted = sps.sosfilt(sos, samples)
    css = np.concatenate([[0.0], np.cumsum(np.square(weighted))])
    starts = step * np.arange(1 + (len(samples) - block) // step)
    powers = (css[starts + block] - css[starts]) / block
    with np.errstate(divide="ignore"):
        levels = -0.691 + 10.0 * np.log10(powers)
    abs_pass = levels > -70.0
    if not np.any(abs_pass):
        return float("-inf"), 0
    rel = -0.691 + 10.0 * np.log10(np.mean(powers[abs_pass])) - 10.0
    gated = abs_pass & (levels > rel)
    if not np.any(gated):
        return float("-inf"), 0
    return (float(-0.691 + 10.0 * np.log10(np.mean(powers[gated]))),
            int(np.count_nonzero(gated)))
