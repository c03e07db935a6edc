"""Prediction harness: preprocessing, estimators, metrics, and the
subject-disjoint nested cross-validation protocol.

Every fit is logged with the subject sets that fed it and the subject
sets it was evaluated on, so leakage is something the test suite can
prove about executed fits rather than trust from the fold plan. Each
training set fits the scaler once and one SVD, which each PCA mode and
every ridge lambda read. The SVM's (C, weighting) problems of a whole
nested-CV stage, every training set and PCA mode of it, run in one
Newton loop: one svm_fit batch call for the inner splits (per jobs
chunk) and one for the outer refits.

Estimators are deliberately small and closed over: ridge by the SVD of
its centred rows, the linear SVM by a primal-dual interior-point method
on the dual, which reaches the optimum to a relative tolerance in about
ten dense Newton steps. Inner-loop selection uses R^2 for regression
and balanced accuracy for classification; Pearson r is always recorded
as the headline regression metric.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product

import numpy as np

from .corpus import LabelHierarchy
from .errors import ConfigError, ValidationError
from .parallel import pmap

# ---------------------------------------------------------------------------
# Preprocessing


@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    sd: np.ndarray
    constant_columns: tuple[int, ...]


def zscore_fit(X) -> Scaler:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValidationError(f"need a nonempty 2-D matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValidationError("non-finite entries in feature matrix")
    mean = X.mean(axis=0)
    sd = X.std(axis=0)  # population SD
    # Identical values can still give a mean one ulp off and an SD of
    # rounding noise (2.2e-16 for twenty 1.495s), so test the range.
    constant = tuple(int(i) for i in np.flatnonzero(np.ptp(X, axis=0) == 0.0))
    return Scaler(mean=mean, sd=sd, constant_columns=constant)


def zscore_apply(scaler: Scaler, X) -> np.ndarray:
    constant = list(scaler.constant_columns)
    safe_sd = scaler.sd.copy()
    safe_sd[constant] = 1.0
    out = (np.asarray(X, dtype=np.float64) - scaler.mean) / safe_sd
    out[:, constant] = 0.0
    return out


@dataclass(frozen=True)
class PcaModel:
    mode: object  # "passthrough" or variance-fraction threshold
    mean: np.ndarray | None = None
    components: np.ndarray | None = None  # k x d
    explained_ratio: np.ndarray | None = None

    @property
    def passthrough(self) -> bool:
        return self.mode == "passthrough"


def _svd(X, svd):
    """svd checked against X, or the economy SVD of X's centred rows."""
    if svd is None:
        return np.linalg.svd(X - X.mean(axis=0), full_matrices=False)
    u, s, vt = svd
    n, d = X.shape
    r = min(n, d)
    if (u.shape, s.shape, vt.shape) != ((n, r), (r,), (r, d)):
        raise ValidationError(f"SVD shapes {u.shape}, {s.shape}, {vt.shape} "
                              f"do not match X {X.shape}")
    return u, s, vt


def _signs(vt):
    """Per row of vt, the sign making its largest-|loading| entry > 0."""
    pivots = vt[np.arange(len(vt)), np.argmax(np.abs(vt), axis=1)]
    return np.where(pivots < 0, -1.0, 1.0)


def pca_fit(X, mode, *, svd=None) -> PcaModel:
    """mode: "passthrough", or a cumulative explained-variance threshold.
    Keeps the smallest k reaching the threshold, never fewer than one.
    svd: the economy SVD of X's centred rows, if already taken (read only).
    """
    if mode == "passthrough":
        return PcaModel(mode=mode)
    threshold = float(mode)
    if not (0.0 < threshold <= 1.0):
        raise ConfigError(f"variance threshold must be in (0, 1], got {mode}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValidationError(f"need >= 2 rows for PCA, got shape {X.shape}")
    _, s, vt = _svd(X, svd)
    mean = X.mean(axis=0)
    var = s ** 2
    total = var.sum()
    if total <= 0.0:  # all rows identical: keep one arbitrary axis
        return PcaModel(mode=threshold, mean=mean,
                        components=np.eye(1, X.shape[1]),
                        explained_ratio=np.array([1.0]))
    ratio = var / total
    k = int(np.searchsorted(np.cumsum(ratio), threshold - 1e-12) + 1)
    k = max(1, min(k, len(s)))
    return PcaModel(mode=threshold, mean=mean,
                    components=vt[:k] * _signs(vt[:k])[:, None],
                    explained_ratio=ratio[:k])


def pca_apply(model: PcaModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if model.passthrough:
        return X.copy()
    return (X - model.mean) @ model.components.T


# ---------------------------------------------------------------------------
# Estimators


@dataclass(frozen=True)
class RidgeModel:
    weights: np.ndarray
    intercept: float
    lam: float


def ridge_fit(X, y, lam: float, *, path=(), svd=None):
    """min ||y - Xw - b||^2 + lam ||w||^2, intercept unpenalized: with
    U diag(s) Vt the economy SVD of X's centred rows (svd, if already
    taken), w = V diag(s / (s^2 + lam)) Ut (y - mean y). Singular values
    under the least-squares cutoff count as zero, so lam = 0 gives the
    minimum-norm fit.

    path: more lambdas, all read from the same SVD. With a non-empty path
    the result is the list of models for lam and then each path entry;
    each is bitwise the one ridge_fit gives for its lambda alone.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValidationError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if X.shape[0] < 2:
        raise ValidationError("need at least 2 rows")
    lams = (lam, *path)
    for value in lams:
        if not 0.0 <= value < math.inf:
            raise ConfigError(f"lam must be finite and >= 0, got {value}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValidationError("non-finite inputs")
    u, s, vt = _svd(X, svd)
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    kept = s > np.finfo(np.float64).eps * max(X.shape) * s.max(initial=0.0)
    gains = np.divide(s, s * s + np.array(lams)[:, None], where=kept,
                      out=np.zeros((len(lams), len(s))))
    # one row product per lambda, so a path entry is bitwise its solo fit
    W = ((gains * (u.T @ (y - y_mean)))[:, None, :] @ vt)[:, 0]
    models = [RidgeModel(weights=w, intercept=y_mean - float(x_mean @ w),
                         lam=value) for w, value in zip(W, lams)]
    return models if len(models) > 1 else models[0]


def predict_ridge(model: RidgeModel, X) -> np.ndarray:
    return np.asarray(X, dtype=np.float64) @ model.weights + model.intercept


@dataclass(frozen=True)
class SvmModel:
    weights: np.ndarray
    bias: float
    C: float
    class_weighting: str
    iterations: int
    converged: bool


# Problems of equal n share the Newton loop in blocks of at most
# _BLOCK_PROBLEMS problems whose stacked (n+1)^2 KKT matrices hold at most
# _KKT_BLOCK entries, and at least one problem. The first cap bounds the
# per-step state where n is small (64 problems share each step's call
# overhead nearly as well as hundreds do); the second bounds the stacks
# of Q, of the KKT matrices and of the transient |Q| where n is large: a
# whole 8-problem grid up to n = 361, one problem from n = 724.
_BLOCK_PROBLEMS = 64
_KKT_BLOCK = 1 << 20


def _svm_set(X, y):
    """One training set's X and y as float arrays and each row's weight
    under "balanced", n / (2 * n_class); ValidationError if the set
    cannot be fitted."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ValidationError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if not np.all(np.isfinite(X)):
        raise ValidationError("non-finite inputs")
    n_pos = int(np.count_nonzero(y == 1.0))
    n_neg = int(np.count_nonzero(y == -1.0))
    if n_pos + n_neg != y.size:
        raise ValidationError("labels must be -1/+1")
    if not (n_pos and n_neg):
        raise ValidationError("single-class training labels")
    return X, y, np.where(y > 0, y.size / (2.0 * n_pos), y.size / (2.0 * n_neg))


def svm_fit(X, y, C: float, class_weighting: str = "balanced",
            tol: float = 1e-11, max_iter: int = 100, *, path=(), batch=()):
    """Linear soft-margin SVM by a primal-dual interior-point method on
    the dual (Mehrotra predictor-corrector; Ferris & Munson 2002).

    The dual is min 1/2 a'Qa - 1'a with Q = (y y') * (X X'), subject to
    y'a = 0 and 0 <= a_i <= C_i; the per-sample caps C_i carry the class
    weights (n / (2 * n_class) under "balanced"). Each Newton step
    factors one (n+1) x (n+1) KKT system, Q + diag(z/a + s/(C-a))
    bordered by y, and solves it for the predictor and the corrector.
    Converged means the duality gap is within tol of 1 + |objective|,
    |y'a| within tol of 1 + max C_i, and the stationarity residual within
    tol of 1 + max_i sum_j |Q_ij| a_j; after max_iter Newton steps the
    current iterate comes back with converged=False. `iterations` counts
    Newton steps.

    path: more (C, class_weighting) pairs to solve on the same (X, y).
    With a non-empty path the result is the list of models for
    (C, class_weighting) and then each path entry, in order.

    batch: more training sets, each an (X, y, pairs) triple whose pairs
    are the (C, class_weighting) problems to solve on it. With a
    non-empty batch the result is one list of models per training set,
    the call's own (X, y) first, each list in its pairs' order. Every set
    is validated before any problem is solved.

    Every problem of the call, whatever its set, runs in one Newton loop:
    problems of equal n, in order, share it in consecutive blocks of at
    most _BLOCK_PROBLEMS problems and _KKT_BLOCK stacked KKT entries, each
    row of a block's state one problem with its own copy of its set's Q
    and y. A problem leaves the loop at the step where it converges, so
    its `iterations` and `converged` are those of a solo fit. Every
    reduction is a matmul over the stack, which works row by row, and
    each problem's KKT system is factored and solved by its own LAPACK
    calls, so each model is bitwise the one svm_fit gives for its pair
    and set alone. A problem whose KKT factor is exactly singular stops
    at that step with converged=False; the others go on. Memory follows
    the block size, not the number of problems.

    The iterate of a problem is one vector u = (a, slack, z, s), where
    slack = C - a is kept on its own so it stays > 0 near a = C, and z, s
    are the multipliers of a >= 0 and a <= C. Its step is
    du = (da, -da, dz, ds), so the box half (a, slack) pairs with the
    multiplier half (z, s): the complementarity products, the Newton
    right-hand sides, the step to the boundary and the update are each
    one or two array operations on the halves, and only the KKT diagonal
    changes from step to step.

    The bias is the mean of -y * gradient over the free support vectors,
    or the midpoint of the feasible interval when none is free. a_i is
    at its lower bound when a_i / C_i < z_i (its bound multiplier), and
    at C_i when (C_i - a_i) / C_i < s_i.
    """
    from scipy.linalg import lapack  # loaded by the first fit, not on import

    data = []  # (X, y) per training set
    problems = []  # (its set, C, weighting, caps) per problem
    sets = ((X, y, ((C, class_weighting), *path)), *batch)
    for owner, (X_s, y_s, pairs) in enumerate(sets):
        X_s, y_s, balanced = _svm_set(X_s, y_s)
        pairs = list(pairs)
        for C_j, weighting in pairs:
            if not 0.0 < C_j < math.inf:
                raise ConfigError(f"C must be finite and > 0, got {C_j}")
            if weighting not in CLASS_WEIGHTINGS:
                raise ConfigError(f"class_weighting must be one of "
                                  f"{CLASS_WEIGHTINGS}, got {weighting!r}")
        data.append((X_s, y_s))
        problems += [(owner, C_j, weighting,
                      C_j * (balanced if weighting == "balanced"
                             else np.ones(y_s.size)))
                     for C_j, weighting in pairs]
    same_n = {}  # n -> positions in problems, set by set
    for p, (owner, *_) in enumerate(problems):
        same_n.setdefault(data[owner][1].size, []).append(p)
    finished = [None] * len(problems)
    for n, members in same_n.items():
        size = max(1, min(_BLOCK_PROBLEMS, _KKT_BLOCK // (n + 1) ** 2))
        for start in range(0, len(members), size):
            block = members[start:start + size]
            owners = np.array([problems[p][0] for p in block])
            Q = np.empty((len(block), n, n))
            for owner in np.unique(owners):
                X_s, y_s = data[owner]
                Yx = X_s * y_s[:, None]
                Q[owners == owner] = Yx @ Yx.T
            done = _newton(Q, np.array([data[o][1] for o in owners]),
                           np.array([problems[p][3] for p in block]),
                           tol, max_iter, lapack)
            for p, result in zip(block, done):
                finished[p] = result

    fitted = [[] for _ in sets]
    for (owner, C_j, weighting, cap), (u_j, grad, iterations, converged) in zip(
            problems, finished):
        X_s, y_s = data[owner]
        n = y_s.size
        alpha, slack, z, s = u_j[:n], u_j[n:2 * n], u_j[2 * n:3 * n], u_j[3 * n:]
        w = X_s.T @ (alpha * y_s)
        lower = alpha < cap * z
        upper = slack < cap * s
        free = ~(lower | upper)
        if free.any():
            b = float(np.mean(-y_s[free] * grad[free]))
        else:
            yG = -y_s * grad
            up = np.where(y_s > 0, ~upper, ~lower)
            low = np.where(y_s > 0, ~lower, ~upper)
            hi = yG[up].max() if up.any() else 0.0
            lo = yG[low].min() if low.any() else 0.0
            b = float((hi + lo) / 2.0)
        fitted[owner].append(SvmModel(weights=w, bias=b, C=C_j,
                                      class_weighting=weighting,
                                      iterations=iterations,
                                      converged=converged))
    if batch:
        return fitted
    return fitted[0] if len(fitted[0]) > 1 else fitted[0][0]


def _newton(Q, y, caps, tol, max_iter, lapack) -> list:
    """svm_fit's Newton loop over a block of k problems of equal n: Q is
    the (k, n, n) stack of their Q matrices, which the loop overwrites,
    y and caps the (k, n) stacks of their labels and caps. Per problem,
    in order: its final iterate u, its gradient Q a - 1, its Newton steps
    and whether it converged."""
    k, n = caps.shape
    m = 2 * n

    def rows_times(v, A):
        """v[j] @ A[j] for each row j of the (k, n) stack v."""
        return np.matmul(v[:, None, :], A)[:, 0]

    def row_dots(a, b):
        """a[j] . b[j] for each row j."""
        return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]

    # the state of the problems still running, one row each
    ids = np.arange(k)
    u = np.empty((k, 2 * m))
    u[:, :n] = caps / 2.0  # interior start
    u[:, n:m] = caps - u[:, :n]
    grad = rows_times(u[:, :n], Q) - 1.0
    u[:, m:m + n] = np.maximum(grad, 0.0) + 1.0  # z, s: dual feasible start
    u[:, m + n:] = np.maximum(-grad, 0.0) + 1.0
    nu = np.zeros(k)
    singular = np.zeros(k, dtype=bool)
    # a KKT matrix per running problem, refilled from Q and y every step;
    # each kkt[j] is Fortran-ordered, so LAPACK factors it in place
    kkt = np.empty((n + 1, n + 1, k), order="F").transpose(2, 0, 1)
    kkt_diag = np.einsum("kii->ki", kkt)[:, :n]
    finished = [None] * k

    def newton(r):
        """Fill du from the right-hand side r = (r_z, r_s) of
        a*dz + z*da = r_z and slack*ds - s*da = r_s; return dnu and the
        largest step that keeps u + step * du >= 0 (inf if none is
        limited). A singular problem gets du = 0."""
        q = r / box
        rhs = np.empty((len(u), n + 1))
        rhs[:, :n] = q[:, :n] - q[:, n:] - r_dual
        rhs[:, n] = -r_eq
        sol = np.array([lapack.dgetrs(lu, piv, b)[0]
                        for (lu, piv, _), b in zip(factors, rhs)])
        sol[singular] = 0.0
        du[:, :n] = sol[:, :n]
        du[:, n:m] = -sol[:, :n]
        du[:, m:] = (r - mult * du[:, :m]) / box
        du[singular] = 0.0
        falling = du < 0.0
        np.divide(u, du, out=ratio, where=falling)
        return sol[:, n], -ratio.max(axis=1, where=falling, initial=-math.inf)

    it = 0
    while True:
        alpha, z, s = u[:, :n], u[:, m:m + n], u[:, m + n:]
        box, mult = u[:, :m], u[:, m:]
        grad = rows_times(alpha, Q) - 1.0
        r_dual = grad + nu[:, None] * y - z + s
        r_eq = row_dots(alpha, y)
        gap = row_dots(box, mult)
        objective = 0.5 * row_dots(alpha, grad - 1.0)
        converged = ((gap <= tol * (1.0 + np.abs(objective)))
                     & (np.abs(r_eq) <= tol * (1.0 + caps.max(axis=1))))
        if converged.any():
            # the dual residual is judged against the size of the terms
            # in Q @ a, |Q| taken for the rows that got this far only
            near = np.flatnonzero(converged)
            Q_abs = Q[near]
            np.abs(Q_abs, out=Q_abs)
            converged[near] = (np.abs(r_dual[near]).max(axis=1) <= tol * (
                1.0 + rows_times(alpha[near], Q_abs).max(axis=1)))
            del Q_abs  # freed before Q is compacted below
        stop = converged | singular | (it >= max_iter)
        if stop.any():
            for j in np.flatnonzero(stop):
                # copies, so that the stack they come from can be freed
                finished[ids[j]] = (u[j].copy(), grad[j].copy(), it,
                                    bool(converged[j]))
            going = ~stop
            if not going.any():
                break
            ids, u, nu, caps, singular, y = (
                a[going] for a in (ids, u, nu, caps, singular, y))
            Q[:len(ids)] = Q[going]  # in place, like kkt: no second stack
            Q, kkt, kkt_diag = (a[:len(ids)] for a in (Q, kkt, kkt_diag))
            continue  # retest the rest: no row's values depend on another's
        it += 1
        q = mult / box
        # Q is exactly symmetric (X X' comes from BLAS syrk), so its
        # transpose fills the Fortran-ordered kkt[j] in memory order
        kkt[:, :n, :n] = Q.transpose(0, 2, 1)
        kkt[:, :n, n] = kkt[:, n, :n] = y
        kkt[:, n, n] = 0.0
        kkt_diag += q[:, :n] + q[:, n:]
        factors = [lapack.dgetrf(a, overwrite_a=True) for a in kkt]
        singular |= np.array([info > 0 for _, _, info in factors])
        du, ratio = np.empty_like(u), np.empty_like(u)

        comp = box * mult
        _, step = newton(-comp)  # predictor
        step = np.minimum(1.0, step)
        mu = gap / m
        trial = u + step[:, None] * du
        mu_aff = row_dots(trial[:, :m], trial[:, m:]) / m
        sigma = mu_aff / mu
        target = sigma * sigma * sigma * mu
        corrector = target[:, None] - comp - du[:, :m] * du[:, m:]
        dnu, step = newton(corrector)
        step = np.minimum(1.0, 0.995 * step)  # stay inside the box
        u += step[:, None] * du
        nu += step * dnu
    return finished


def svm_decision(model: SvmModel, X) -> np.ndarray:
    return np.asarray(X, dtype=np.float64) @ model.weights + model.bias


def svm_predict(model: SvmModel, X) -> np.ndarray:
    return np.where(svm_decision(model, X) >= 0.0, 1.0, -1.0)


# ---------------------------------------------------------------------------
# Metrics


def _aligned(y, yhat, dtype=np.float64):
    y, yhat = np.asarray(y, dtype=dtype), np.asarray(yhat, dtype=dtype)
    if y.shape != yhat.shape:
        raise ValidationError("length mismatch")
    return y, yhat


def pearson_r(y, yhat) -> float:
    y, yhat = _aligned(y, yhat)
    yc = y - y.mean()
    pc = yhat - yhat.mean()
    denom = math.sqrt(float(yc @ yc) * float(pc @ pc))
    if denom == 0.0:
        return float("nan")
    return float(yc @ pc / denom)


def r2(y, yhat) -> float:
    y, yhat = _aligned(y, yhat)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return float("nan")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


def balanced_accuracy(y, yhat) -> float:
    y, yhat = _aligned(y, yhat, dtype=None)
    # per class (in sorted order): rows predicted as their own class over
    # rows of the class, the same division np.mean of a mask performs
    total = Counter(y.ravel().tolist())
    hits = Counter(y[y == yhat].tolist())
    return float(np.mean([hits[c] / total[c] for c in sorted(total)]))


# ---------------------------------------------------------------------------
# Targets and datasets


@dataclass(frozen=True)
class TargetSpec:
    level: int
    name: str
    kind: str  # "regression" | "classification"

    def __post_init__(self):
        if self.level not in (1, 2, 3):
            raise ConfigError(f"level must be 1, 2, or 3, got {self.level}")
        if self.kind not in ("regression", "classification"):
            raise ConfigError(f"kind must be regression or classification")


def _ci_get(mapping: dict, name: str):
    # task/domain ids are acronyms; accept any case on lookup
    wanted = name.lower()
    for key, value in mapping.items():
        if key.lower() == wanted:
            return value
    return None


def extract_target(labels: LabelHierarchy, spec: TargetSpec):
    """Target value for one session, or None when the label is absent.
    Classification targets come back as -1/+1 (positive = impaired)."""
    if spec.level < 3:
        value = _ci_get(labels.level1 if spec.level == 1 else labels.level2,
                        spec.name)
    elif spec.name in ("cerad_total", "cerad_binary", "mci"):
        value = getattr(labels, spec.name)
    else:
        raise ConfigError(f"unknown level-3 target {spec.name!r}")
    if value is None:
        return None
    if spec.kind == "classification":
        return 1.0 if float(value) >= 0.5 else -1.0
    return float(value)


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray
    subject_ids: tuple[str, ...]
    session_ids: tuple[str, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.X) == len(self.y) == len(self.subject_ids)
                == len(self.session_ids)):
            raise ValidationError("dataset rows misaligned")

    @property
    def subjects(self) -> frozenset:
        return frozenset(self.subject_ids)

    def rows_for(self, subjects) -> np.ndarray:
        subjects = set(subjects)
        return np.array([s in subjects for s in self.subject_ids])


# ---------------------------------------------------------------------------
# Fold plan


@dataclass(frozen=True)
class FoldPlan:
    outer: tuple[tuple[str, ...], ...]
    inner: tuple[tuple[tuple[str, ...], ...], ...]
    seed: int

    def outer_train_subjects(self, fold: int) -> frozenset:
        test = set(self.outer[fold])
        return frozenset(s for grp in self.outer for s in grp) - test


def _deal(subjects, k: int, rng, labels=None) -> list[list[str]]:
    """Round-robin deal, within-class when labels are given, so folds are
    balanced by subject count first and class ratio second."""
    order = sorted(subjects)
    classes = [order] if labels is None else [
        [s for s in order if labels[s] == cls]
        for cls in sorted({labels[s] for s in order}, key=repr)]
    dealt = []
    for members in classes:
        rng.shuffle(members)
        dealt += members
    return [dealt[i::k] for i in range(k)]


def make_fold_plan(subject_ids, k_outer: int = 5, k_inner: int = 3,
                   seed: int = 0, labels=None) -> FoldPlan:
    """Subject-level fold construction; all of a subject's sessions stay
    together because membership is decided per subject."""
    subjects = sorted(set(subject_ids))
    if len(subjects) < k_outer:
        raise ValidationError(f"{len(subjects)} subjects cannot fill "
                              f"{k_outer} outer folds")
    rng = np.random.default_rng(seed)
    outer = _deal(subjects, k_outer, rng, labels)
    inner_all = []
    for f, test_grp in enumerate(outer):
        train = sorted(set(subjects) - set(test_grp))
        if len(train) < k_inner:
            raise ValidationError(f"outer fold {f} leaves {len(train)} "
                                  f"subjects for {k_inner} inner folds")
        inner_rng = np.random.default_rng([seed, f])
        inner = _deal(train, k_inner, inner_rng, labels)
        inner_all.append(tuple(tuple(g) for g in inner))
    return FoldPlan(outer=tuple(tuple(g) for g in outer),
                    inner=tuple(inner_all), seed=seed)


# ---------------------------------------------------------------------------
# Pipeline configs


PCA_MODES = ("passthrough", 0.95, 0.99)
RIDGE_LAMBDAS = (0.01, 0.1, 1.0, 10.0, 100.0)
SVM_CS = (0.01, 0.1, 1.0, 10.0)
CLASS_WEIGHTINGS = ("balanced", "none")


@dataclass(frozen=True)
class PipelineConfig:
    estimator: str  # "ridge" | "linear_svm"
    pca: object = "passthrough"
    lam: float | None = None
    C: float | None = None
    class_weighting: str = "balanced"

    def __post_init__(self):
        if isinstance(self.lam, bool) or isinstance(self.C, bool):
            raise ConfigError("lam and C must be numbers, not booleans")
        if self.estimator == "ridge":
            if (self.lam is None or not 0.0 <= self.lam < math.inf
                    or self.C is not None):
                raise ConfigError("ridge config needs a finite lam >= 0 "
                                  "and no C")
        elif self.estimator == "linear_svm":
            if (self.C is None or not 0.0 < self.C < math.inf
                    or self.lam is not None):
                raise ConfigError("linear_svm config needs a finite C > 0 "
                                  "and no lam")
        else:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.pca != "passthrough" and not (isinstance(self.pca, float)
                                              and 0.0 < self.pca <= 1.0):
            raise ConfigError("pca must be 'passthrough' or a fraction in "
                              "(0, 1]")
        if self.class_weighting not in CLASS_WEIGHTINGS:
            raise ConfigError(f"class_weighting must be one of "
                              f"{CLASS_WEIGHTINGS}, got {self.class_weighting!r}")

    def describe(self) -> str:
        if self.estimator == "ridge":
            head = f"ridge(lam={self.lam})"
        else:
            head = f"linear_svm(C={self.C}, weighting={self.class_weighting})"
        return f"{head}, pca={self.pca}"


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {"estimator": cfg.estimator, "pca": cfg.pca, "lam": cfg.lam,
            "C": cfg.C, "class_weighting": cfg.class_weighting}


def config_from_dict(d: dict) -> PipelineConfig:
    """Pipeline config from its JSON form; ConfigError if malformed."""
    try:
        pca = d.get("pca", "passthrough")
        return PipelineConfig(estimator=d["estimator"],
                              pca=pca if pca == "passthrough"
                              or isinstance(pca, bool) else float(pca),
                              lam=d.get("lam"), C=d.get("C"),
                              class_weighting=d.get("class_weighting", "balanced"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed pipeline config {d!r}: "
                          f"{type(exc).__name__} {exc}") from None


def default_grid(kind: str) -> list[PipelineConfig]:
    configs = []
    if kind == "regression":
        for pca in PCA_MODES:
            for lam in RIDGE_LAMBDAS:
                configs.append(PipelineConfig(estimator="ridge", pca=pca,
                                              lam=lam))
    else:
        for pca in PCA_MODES:
            for c in SVM_CS:
                for weighting in CLASS_WEIGHTINGS:
                    configs.append(PipelineConfig(estimator="linear_svm",
                                                  pca=pca, C=c,
                                                  class_weighting=weighting))
    return configs


@dataclass(frozen=True)
class FittedPipeline:
    config: PipelineConfig
    scaler: Scaler
    pca: PcaModel
    model: object  # RidgeModel | SvmModel

    def transform(self, X) -> np.ndarray:
        return pca_apply(self.pca, zscore_apply(self.scaler, X))

    def predict(self, X) -> np.ndarray:
        return self.predict_transformed(self.transform(X))

    def predict_transformed(self, Z) -> np.ndarray:
        """Predictions for rows that have been through transform()."""
        if self.config.estimator == "ridge":
            return predict_ridge(self.model, Z)
        return svm_predict(self.model, Z)


def _fitter(sets) -> list:
    """Fit each training set's configs, sets being (X, y, configs)
    triples: per set the z-scaler once, one SVD of the scaled rows if a
    PCA mode or ridge reads it, each PCA mode once, and each (PCA mode,
    ridge) group of configs in one ridge_fit path call; every SVM group
    of every set goes into one svm_fit batch call. Per set, per config in
    order: its FittedPipeline, or the ValidationError that stopped its
    group."""
    fitted = [[None] * len(configs) for _, _, configs in sets]
    svm_groups = []  # (results, configs, members, scaler, pca, Zp, y, pairs)
    for out, (X, y, configs) in zip(fitted, sets):
        try:
            scaler = zscore_fit(X)
        except ValidationError as exc:
            out[:] = [exc] * len(configs)
            continue
        Z = zscore_apply(scaler, X)
        groups = {}  # (PCA mode, estimator) -> positions in configs
        for i, config in enumerate(configs):
            groups.setdefault((config.pca, config.estimator), []).append(i)
        passthrough_svm = set(groups) == {("passthrough", "linear_svm")}
        svd = None if passthrough_svm else _svd(Z, None)
        reduced = {}  # PCA mode -> (PcaModel, projected Z)
        for (mode, estimator), members in groups.items():
            head, *rest = (configs[i] for i in members)
            try:
                if mode not in reduced:
                    pca = pca_fit(Z, mode, svd=svd)
                    reduced[mode] = pca, pca_apply(pca, Z)
                pca, Zp = reduced[mode]
                if estimator == "ridge":
                    u, s, vt = svd
                    if not pca.passthrough:  # Zp = U_k diag(s_k) D
                        k = len(pca.components)
                        u, s, vt = u[:, :k], s[:k], np.diag(_signs(vt[:k]))
                    models = ridge_fit(Zp, y, head.lam, svd=(u, s, vt),
                                       path=[c.lam for c in rest])
                else:
                    _svm_set(Zp, y)  # a set svm_fit would refuse fails here
                    svm_groups.append((out, configs, members, scaler, pca,
                                       Zp, y, [(c.C, c.class_weighting)
                                               for c in (head, *rest)]))
                    continue
            except ValidationError as exc:
                for i in members:
                    out[i] = exc
                continue
            for i, model in zip(members, models if rest else [models]):
                out[i] = FittedPipeline(config=configs[i], scaler=scaler,
                                        pca=pca, model=model)
    if svm_groups:
        (*_, Zp, y, (head, *path)), *more = svm_groups
        models = svm_fit(Zp, y, *head, path=path,
                         batch=[(Zp, y, pairs) for *_, Zp, y, pairs in more])
        if not more:
            models = [models if path else [models]]
        for (out, configs, members, scaler, pca, *_), group in zip(
                svm_groups, models):
            for i, model in zip(members, group):
                out[i] = FittedPipeline(config=configs[i], scaler=scaler,
                                        pca=pca, model=model)
    return fitted


def fit_pipeline(X, y, config: PipelineConfig) -> FittedPipeline:
    ((pipe,),) = _fitter([(X, y, [config])])
    if isinstance(pipe, ValidationError):
        raise pipe
    return pipe


# ---------------------------------------------------------------------------
# Nested cross-validation


@dataclass(frozen=True)
class FitRecord:
    """Provenance of one executed fit: which subjects trained it, which
    subjects it was scored on."""

    stage: str  # "inner" | "outer" | "holdout"
    outer_fold: int
    inner_fold: int | None
    config_index: int | None
    train_subjects: frozenset
    eval_subjects: frozenset

    def to_dict(self) -> dict:
        return {"stage": self.stage, "outer_fold": self.outer_fold,
                "inner_fold": self.inner_fold,
                "config_index": self.config_index,
                "train_subjects": sorted(self.train_subjects),
                "eval_subjects": sorted(self.eval_subjects)}


@dataclass(frozen=True)
class FoldOutcome:
    fold: int
    best_config_index: int
    best_config: PipelineConfig
    test_metrics: dict
    inner_scores: tuple  # per config: mean inner metric (nan if invalid)


@dataclass(frozen=True)
class CvReport:
    target: TargetSpec
    folds: tuple[FoldOutcome, ...]
    summary: dict  # metric -> {"mean": float, "sd": float}
    majority_vote_index: int
    majority_vote_config: PipelineConfig
    warnings: tuple[str, ...]
    seed: int

    def to_dict(self) -> dict:
        return {
            "target": {"level": self.target.level, "name": self.target.name,
                       "kind": self.target.kind},
            "seed": self.seed,
            "folds": [
                {"fold": f.fold, "best_config_index": f.best_config_index,
                 "best_config": f.best_config.describe(),
                 "test_metrics": {k: v for k, v in f.test_metrics.items()},
                 "inner_scores": list(f.inner_scores)}
                for f in self.folds
            ],
            "summary": self.summary,
            "majority_vote_index": self.majority_vote_index,
            "majority_vote_config": self.majority_vote_config.describe(),
            "majority_vote_config_params": config_to_dict(
                self.majority_vote_config),
            "warnings": list(self.warnings),
        }


def _eval_metrics(kind: str, y_true, y_pred) -> dict:
    if kind == "regression":
        return {"r": pearson_r(y_true, y_pred), "r2": r2(y_true, y_pred)}
    return {"balanced_accuracy": balanced_accuracy(y_true, y_pred)}


def _inner_metric(kind: str, metrics: dict) -> float:
    return metrics["r2"] if kind == "regression" else metrics["balanced_accuracy"]


def nested_cv(data: Dataset, target: TargetSpec, grid=None,
              plan: FoldPlan | None = None, seed: int = 0, jobs: int = 1
              ) -> tuple[CvReport, list[FitRecord]]:
    """Outer loop for assessment, inner loop for config selection.

    Scaler and PCA fits happen inside each inner/outer training set only.
    Inner config-fold pairs that cannot be scored (single-class inner
    training data) are excluded from that config's mean with a warning;
    every SVM fit that stops at max_iter gets a warning too, and so does
    every outer fold whose test metric is NaN.

    The inner splits are cut into min(jobs, splits) contiguous chunks,
    each fitted by one _fitter call on the executor; then every fold's
    refit of its selected config is one more _fitter call. No fit's
    floats depend on the fits batched with it, and results are reduced
    by (fold, config, inner) index, so the report is identical for any
    jobs value.
    """
    if grid is None:
        grid = default_grid(target.kind)
    grid = list(grid)
    if not grid:
        raise ConfigError("empty config grid")
    for cfg in grid:
        wants = "regression" if cfg.estimator == "ridge" else "classification"
        if wants != target.kind:
            raise ConfigError(f"config {cfg.describe()} does not fit a "
                              f"{target.kind} target")
    if plan is None:
        labels = None
        if target.kind == "classification":
            labels = {s: float(v) for s, v in zip(data.subject_ids, data.y)}
        plan = make_fold_plan(data.subject_ids, seed=seed, labels=labels)

    def fit_splits(splits) -> list:
        """Fit grid[c], c in indices, for each (fold, inner, indices) of
        splits on fold's outer training set less inner fold `inner` (if
        any), every split in one _fitter call, and score on the held-out
        subjects: per split, (FitRecord, metrics or None, warning or
        None) per c."""
        sides, sets = [], []
        for fold, inner, indices in splits:
            held = frozenset(plan.outer[fold] if inner is None
                             else plan.inner[fold][inner])
            train = plan.outer_train_subjects(fold) - held
            tr, te = data.rows_for(train), data.rows_for(held)
            fit = inner is None or (tr.any() and te.any())
            sides.append((train, held, te, fit))
            if fit:
                sets.append((data.X[tr], data.y[tr], [grid[c] for c in indices]))
        fitted = iter(_fitter(sets))
        out = []
        for (fold, inner, indices), (train, held, te, fit) in zip(splits, sides):
            pipes = (next(fitted) if fit
                     else [ValidationError("empty side")] * len(indices))
            X_held, y_held = data.X[te], data.y[te]
            stage = "outer" if inner is None else "inner"
            tag = stage if inner is None else f"inner {inner}"
            held_z = {}  # PCA mode -> held-out rows through the shared transform
            units = []
            for c, pipe in zip(indices, pipes):
                record = FitRecord(stage=stage, outer_fold=fold,
                                   inner_fold=inner, config_index=c,
                                   train_subjects=train, eval_subjects=held)
                where = f"fold {fold} config {c} {tag}"
                if isinstance(pipe, ValidationError):
                    if inner is None:
                        raise pipe
                    units.append((record, None, f"{where} skipped: {pipe}"))
                    continue
                note = None
                if isinstance(pipe.model, SvmModel) and not pipe.model.converged:
                    note = (f"{where}: SVM did not converge after "
                            f"{pipe.model.iterations} iterations")
                mode = grid[c].pca
                if mode not in held_z:
                    held_z[mode] = pipe.transform(X_held)
                metrics = _eval_metrics(target.kind, y_held,
                                        pipe.predict_transformed(held_z[mode]))
                units.append((record, metrics, note))
            out.append(units)
        return out

    n_outer, n_inner = len(plan.outer), len(plan.inner[0])
    every = range(len(grid))
    pairs = [(f, i) for f in range(n_outer) for i in range(n_inner)]
    # one _fitter call per contiguous chunk of the inner splits
    chunks = max(1, min(jobs, len(pairs)))
    bounds = [k * len(pairs) // chunks for k in range(chunks + 1)]
    chunked = pmap(fit_splits, [[(f, i, every) for f, i in pairs[a:b]]
                                for a, b in zip(bounds, bounds[1:])], jobs)
    fitted = dict(zip(pairs, (split for chunk in chunked for split in chunk)))

    # the inner fits in (fold, config, inner) order; outer refits follow
    units = [fitted[f, i][c]
             for f, c, i in product(range(n_outer), every, range(n_inner))]
    scores = np.array([np.nan if metrics is None
                       else _inner_metric(target.kind, metrics)
                       for _, metrics, _ in units])
    scores = scores.reshape(n_outer, len(grid), n_inner)
    best, inner_scores = [], []
    for f in range(n_outer):
        config_means = np.full(len(grid), -np.inf)
        for c in every:
            vals = scores[f, c][~np.isnan(scores[f, c])]
            if vals.size:
                config_means[c] = float(vals.mean())
        best.append(int(np.argmax(config_means)))  # ties: lowest index
        if not np.isfinite(config_means[best[f]]):
            raise ValidationError(f"outer fold {f}: no config could be scored")
        inner_scores.append(tuple(float(v) if np.isfinite(v) else float("nan")
                                  for v in config_means))
    refits = fit_splits([(f, None, [best[f]]) for f in range(n_outer)])
    units += [unit for (unit,) in refits]
    folds = [FoldOutcome(fold=f, best_config_index=best[f],
                         best_config=grid[best[f]], test_metrics=metrics,
                         inner_scores=inner_scores[f])
             for f, ((_, metrics, _),) in enumerate(refits)]
    fit_log = [record for record, _, _ in units]
    notes = [note for _, _, note in units if note is not None]
    for f in folds:  # e.g. Pearson r on a one-subject test fold
        nan = [k for k, v in f.test_metrics.items() if np.isnan(v)]
        if nan:
            notes.append(f"outer fold {f.fold}: nan test {'/'.join(nan)} "
                         f"on {len(plan.outer[f.fold])} test subject(s)")

    summary = {}
    for key in folds[0].test_metrics:
        vals = np.array([f.test_metrics[key] for f in folds])
        summary[key] = {"mean": float(np.mean(vals)), "sd": float(np.std(vals))}

    # most votes; ties go to a passthrough config, then the lowest index
    votes = Counter(f.best_config_index for f in folds)
    winner = min(votes, key=lambda i: (-votes[i],
                                       grid[i].pca != "passthrough", i))
    report = CvReport(target=target, folds=tuple(folds), summary=summary,
                      majority_vote_index=winner,
                      majority_vote_config=grid[winner],
                      warnings=tuple(notes), seed=plan.seed)
    return report, fit_log


def holdout_eval(dev: Dataset, holdout: Dataset, config: PipelineConfig,
                 target: TargetSpec) -> tuple[dict, FitRecord]:
    """Refit on all development data, score once on the holdout set."""
    overlap = dev.subjects & holdout.subjects
    if overlap:
        raise ValidationError(f"subject overlap between development and "
                              f"holdout: {sorted(overlap)}")
    if tuple(dev.feature_names) != tuple(holdout.feature_names):
        raise ValidationError("feature name mismatch between sets")
    pipe = fit_pipeline(dev.X, dev.y, config)
    record = FitRecord(stage="holdout", outer_fold=-1, inner_fold=None,
                       config_index=None, train_subjects=dev.subjects,
                       eval_subjects=holdout.subjects)
    metrics = _eval_metrics(target.kind, holdout.y, pipe.predict(holdout.X))
    result = {
        "target": {"level": target.level, "name": target.name,
                   "kind": target.kind},
        "config": config.describe(),
        "n_dev_sessions": len(dev.y),
        "n_holdout_sessions": len(holdout.y),
        "metrics": metrics,
    }
    return result, record


def svm_feature_importance(pipe: FittedPipeline, feature_names
                           ) -> list[tuple[str, float]]:
    """Features ranked by |weight|; positive weights point toward the
    positive (impaired) class. Needs PCA passthrough so weights align
    with named features. All-zero weights rank nothing: the ranking is
    empty, and the caller says so."""
    if not isinstance(pipe.model, SvmModel):
        raise ConfigError("importance ranking needs a linear SVM pipeline")
    if not pipe.pca.passthrough:
        raise ConfigError("PCA is active; refit with pca='passthrough' so "
                          "weights map to named features")
    names = list(feature_names)
    w = pipe.model.weights
    if len(names) != len(w):
        raise ValidationError(f"{len(names)} names for {len(w)} weights")
    if np.all(w == 0.0):
        return []
    order = sorted(range(len(w)), key=lambda i: (-abs(w[i]), names[i]))
    return [(names[i], float(w[i])) for i in order]


def assert_no_leakage(fit_log) -> None:
    """Raise if any executed fit saw an evaluation subject in training."""
    for rec in fit_log:
        shared = rec.train_subjects & rec.eval_subjects
        if shared:
            raise ValidationError(f"leakage in {rec.stage} fit (outer fold "
                                  f"{rec.outer_fold}): {sorted(shared)}")
