"""Preprocessing, estimators, metrics, fold plans, nested CV, holdout."""

import json
import math
import subprocess
import sys
import warnings as _warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.linalg import lsqr

import oracles
import synth
from cogspeech.corpus import LabelHierarchy
from cogspeech.errors import ConfigError, ValidationError
from cogspeech.model import (
    SVM_CS, Dataset, FitRecord, FittedPipeline, FoldPlan, PipelineConfig,
    TargetSpec, assert_no_leakage, balanced_accuracy, config_from_dict,
    config_to_dict, default_grid, extract_target, fit_pipeline, holdout_eval,
    make_fold_plan, nested_cv, pca_apply, pca_fit, pearson_r, predict_ridge,
    r2, ridge_fit, svm_decision, svm_feature_importance, svm_fit, svm_predict,
    zscore_apply, zscore_fit,
)


# ---------------------------------------------------------------------------
# z-scoring

def test_zscore_hand_column():
    X = np.array([[1.0], [2.0], [3.0]])
    scaler = zscore_fit(X)
    out = zscore_apply(scaler, X)
    assert np.allclose(out[:, 0], [-1.224744871, 0.0, 1.224744871], atol=1e-9)


def test_zscore_constant_column_flagged():
    X = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    scaler = zscore_fit(X)
    assert scaler.constant_columns == (1,)
    out = zscore_apply(scaler, X)
    assert np.all(out[:, 1] == 0.0)


def test_zscore_identical_values_with_rounding_sd_flagged_constant():
    # Twenty 1.495s have a mean one ulp off and an np.std of 2.2e-16.
    X = np.column_stack([np.linspace(0.0, 1.0, 20), np.full(20, 1.495)])
    scaler = zscore_fit(X)
    assert scaler.constant_columns == (1,)
    assert np.all(zscore_apply(scaler, X)[:, 1] == 0.0)
    heldout = np.array([[0.5, np.nextafter(1.495, 2.0)]])
    assert zscore_apply(scaler, heldout)[0, 1] == 0.0


def test_zscore_heldout_row_formula():
    rng = np.random.default_rng(0)
    X = rng.normal(3.0, 2.0, (40, 6))
    scaler = zscore_fit(X)
    row = rng.normal(3.0, 2.0, (1, 6))
    expected = (row - X.mean(axis=0)) / X.std(axis=0)
    assert np.allclose(zscore_apply(scaler, row), expected, atol=1e-12)


def test_zscore_rejects_bad_input():
    with pytest.raises(ValidationError):
        zscore_fit(np.zeros((0, 3)))
    with pytest.raises(ValidationError):
        zscore_fit(np.array([[1.0, float("inf")]]))


# ---------------------------------------------------------------------------
# PCA

def test_pca_passthrough_identity():
    X = np.random.default_rng(1).standard_normal((10, 4))
    model = pca_fit(X, "passthrough")
    assert model.passthrough
    assert np.array_equal(pca_apply(model, X), X)


def test_pca_rank_one_data():
    t = np.linspace(-2, 2, 30)
    X = np.stack([t, 3.0 * t], axis=1)
    model = pca_fit(X, 0.95)
    assert model.components.shape[0] == 1
    assert float(model.explained_ratio[0]) >= 0.999


def test_pca_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(2)
    for trial in range(10):
        X = rng.standard_normal((60, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
        model = pca_fit(X, 0.95)
        k, projected = oracles.pca_eigendecomposition(X, 0.95)
        assert model.components.shape[0] == k
        got = pca_apply(model, X)
        assert np.allclose(got, oracles.match_signs(got, projected),
                           atol=1e-8)


def test_pca_threshold_validation():
    X = np.random.default_rng(3).standard_normal((8, 3))
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ConfigError):
            pca_fit(X, bad)
    with pytest.raises(ValidationError):
        pca_fit(X[:1], 0.95)


def test_pca_keeps_at_least_one_component():
    X = np.random.default_rng(4).standard_normal((20, 4))
    model = pca_fit(X, 1e-6)
    assert model.components.shape[0] == 1
    identical = np.tile([1.0, 2.0, 3.0], (5, 1))
    degenerate = pca_fit(identical, 0.95)
    assert degenerate.components.shape[0] == 1
    assert np.allclose(pca_apply(degenerate, identical), 0.0)


# ---------------------------------------------------------------------------
# Ridge

def test_ridge_exact_line():
    x = np.linspace(0, 4, 9)[:, None]
    model = ridge_fit(x, 2.0 * x[:, 0], 0.0)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(0.0, abs=1e-9)


def test_ridge_shrinkage_limit():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + 1.7
    model = ridge_fit(X, y, 1e9)
    assert float(np.linalg.norm(model.weights)) < 1e-6
    assert np.allclose(predict_ridge(model, X), y.mean(), atol=1e-3)


def test_ridge_three_point_fixture():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 2.0, 2.0])
    model = ridge_fit(X, y, 1.0)
    w_oracle, b_oracle = oracles.ridge_normal_equations(X, y, 1.0)
    assert model.weights[0] == pytest.approx(w_oracle[0], abs=1e-9)
    assert model.intercept == pytest.approx(b_oracle, abs=1e-9)
    # hand solution of the centered normal equations
    assert model.weights[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert model.intercept == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_ridge_matches_oracles_random():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(5, 200))
        d = int(rng.integers(1, min(50, n)))
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        lam = float(rng.choice([0.01, 0.1, 1.0, 10.0]))
        model = ridge_fit(X, y, lam)
        w_ne, b_ne = oracles.ridge_normal_equations(X, y, lam)
        assert np.allclose(model.weights, w_ne, atol=1e-6)
        assert model.intercept == pytest.approx(b_ne, abs=1e-6)


def test_ridge_matches_iterative_solver():
    # augmented least squares [X 1; sqrt(lam) I 0] solved by LSQR
    rng = np.random.default_rng(7)
    for trial in range(5):
        n, d = 40, 6
        X = rng.standard_normal((n, d))
        y = rng.standard_normal(n)
        lam = 0.5
        A = np.block([[X, np.ones((n, 1))],
                      [math.sqrt(lam) * np.eye(d), np.zeros((d, 1))]])
        rhs = np.concatenate([y, np.zeros(d)])
        sol = lsqr(A, rhs, atol=1e-14, btol=1e-14, iter_lim=100000)[0]
        model = ridge_fit(X, y, lam)
        assert np.allclose(model.weights, sol[:d], atol=1e-6)
        assert model.intercept == pytest.approx(sol[d], abs=1e-6)


def test_ridge_input_validation():
    X = np.array([[1.0], [2.0]])
    with pytest.raises(ValidationError):
        ridge_fit(X, np.array([1.0]), 1.0)
    with pytest.raises(ValidationError):
        ridge_fit(X[:1], np.array([1.0]), 1.0)
    for lam in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            ridge_fit(X, np.array([1.0, 2.0]), lam)
    with pytest.raises(ValidationError):
        ridge_fit(X, np.array([1.0, float("nan")]), 1.0)
    for lam in (-1.0, float("nan")):
        with pytest.raises(ConfigError):
            ridge_fit(X, np.array([1.0, 2.0]), 1.0, path=[0.5, lam])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 40), st.integers(1, 12), st.booleans(),
       st.permutations([0.0, 0.01, 0.1, 1.0, 10.0, 100.0]),
       st.integers(1, 6), st.integers(0, 2 ** 16))
def test_ridge_path_entries_are_bitwise_their_solo_fits(n, d, zero_column,
                                                        lams, size, seed):
    # a zero column makes the lam = 0 system singular: that entry falls
    # back to least squares, alone and inside the path alike
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
    if zero_column:
        X[:, 0] = 0.0
    y = rng.standard_normal(n)
    lam, *path = lams[:size]
    batch = ridge_fit(X, y, lam, path=path)
    batch = batch if path else [batch]
    assert [m.lam for m in batch] == lams[:size]
    for model in batch:
        solo = ridge_fit(X, y, model.lam)
        assert model.weights.tobytes() == solo.weights.tobytes()
        assert np.float64(model.intercept).tobytes() == \
            np.float64(solo.intercept).tobytes()


def test_ridge_singular_lambda_falls_back_to_least_squares():
    rng = np.random.default_rng(11)
    X = np.column_stack([rng.standard_normal(12), np.zeros(12)])
    y = 3.0 * X[:, 0] + 1.0
    exact, shrunk = ridge_fit(X, y, 0.0, path=[1.0])
    assert exact.weights == pytest.approx([3.0, 0.0], abs=1e-12)
    assert exact.intercept == pytest.approx(1.0, abs=1e-12)
    assert shrunk.weights[1] == 0.0 and 0.0 < shrunk.weights[0] < 3.0


def centred_svd(X):
    return np.linalg.svd(X - X.mean(axis=0), full_matrices=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(2, 40), st.integers(1, 12), st.booleans(),
       st.lists(st.sampled_from([0.0, 0.01, 0.1, 1.0, 10.0, 100.0]),
                min_size=1, max_size=6), st.booleans(), st.integers(0, 2 ** 16))
def test_ridge_matches_normal_equations(n, d, zero_column, lams, shared, seed):
    # n < d and n > d, solo and path, own or caller's SVD; lam = 0 only
    # where the oracle's system is full rank
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
    if zero_column:
        X[:, 0] = 0.0
    y = rng.standard_normal(n)
    if zero_column or n < 2 * (d + 1):
        lams = [lam for lam in lams if lam > 0.0]
    assume(lams)
    models = ridge_fit(X, y, lams[0], path=lams[1:],
                       svd=centred_svd(X) if shared else None)
    for model in models if len(lams) > 1 else [models]:
        w, b = oracles.ridge_normal_equations(X, y, model.lam)
        scale = 1.0 + np.abs(w).max() + abs(b)
        assert np.abs(model.weights - w).max() <= 1e-9 * scale
        assert abs(model.intercept - b) <= 1e-9 * scale


def test_ridge_rejects_an_svd_of_another_shape():
    X = np.random.default_rng(12).standard_normal((10, 4))
    y = np.arange(10.0)
    u, s, vt = centred_svd(X)
    for bad in ((u[:, :3], s, vt), (u, s[:3], vt), (u, s, vt[:, :3]),
                centred_svd(X[:9]), centred_svd(X[:, :3])):
        with pytest.raises(ValidationError):
            ridge_fit(X, y, 1.0, svd=bad)
        with pytest.raises(ValidationError):
            pca_fit(X, 0.9, svd=bad)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.integers(0, 30),
       st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99, 1.0]),
       st.integers(0, 2 ** 16))
def test_pca_from_a_shared_svd_matches_eigendecomposition(d, extra, threshold,
                                                          seed):
    # well-separated variances, so the oracle's eigenvectors are well posed
    rng = np.random.default_rng(seed)
    scales = 2.0 ** -np.arange(d) * rng.uniform(0.9, 1.1, d)
    X = rng.standard_normal((d + 2 + extra, d)) * scales + rng.normal(0, 5, d)
    k, projected = oracles.pca_eigendecomposition(X, threshold)
    ratio = np.cumsum(scales ** 2) / np.sum(scales ** 2)
    assume(np.all(np.abs(ratio - threshold) > 0.02) or threshold == 1.0)
    svd = centred_svd(X)
    before = [a.copy() for a in svd]
    model = pca_fit(X, threshold, svd=svd)
    assert all(np.array_equal(a, b) for a, b in zip(svd, before))
    own = pca_fit(X, threshold)
    assert model.components.tobytes() == own.components.tobytes()
    assert model.components.shape[0] == k
    got = pca_apply(model, X)
    assert np.allclose(got, oracles.match_signs(got, projected),
                       rtol=0.0, atol=1e-8 * np.abs(projected).max())


@pytest.mark.parametrize("lam", [0.0, 0.01, 1.0, 100.0])
@pytest.mark.parametrize("pca", ["passthrough", 0.5, 0.95, 1.0])
def test_pipeline_ridge_from_the_shared_svd_matches_normal_equations(pca, lam):
    # under a PCA mode ridge reads the leading block of the training set's
    # SVD, not a factorization of the projected rows
    data = synth.planted_regression(60, n_features=8, seed=13)
    pipe = fit_pipeline(data.X, data.y, PipelineConfig(estimator="ridge",
                                                       pca=pca, lam=lam))
    w, b = oracles.ridge_normal_equations(pipe.transform(data.X), data.y, lam)
    scale = 1.0 + np.abs(w).max() + abs(b)
    assert np.abs(pipe.model.weights - w).max() <= 1e-9 * scale
    assert abs(pipe.model.intercept - b) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# SVM

def blobs(seed=0, n=20, gap=2.0):
    rng = np.random.default_rng(seed)
    neg = rng.normal([-gap, -1.0], 0.6, (n, 2))
    pos = rng.normal([gap, 1.0], 0.6, (n, 2))
    X = np.vstack([neg, pos])
    y = np.concatenate([-np.ones(n), np.ones(n)])
    return X, y


def test_svm_separable_blobs():
    X, y = blobs()
    model = svm_fit(X, y, C=1.0)
    assert balanced_accuracy(y, svm_predict(model, X)) == 1.0
    assert model.converged


def test_svm_label_flip_negates():
    X, y = blobs(seed=1)
    m = svm_fit(X, y, C=1.0, tol=1e-10)
    f = svm_fit(X, -y, C=1.0, tol=1e-10)
    assert np.allclose(m.weights, -f.weights, atol=1e-6)
    assert m.bias == pytest.approx(-f.bias, abs=1e-6)


def test_svm_duplication_with_c_halving():
    X, y = blobs(seed=2)
    X2, y2 = np.vstack([X, X]), np.concatenate([y, y])
    for weighting in ("none", "balanced"):
        m = svm_fit(X, y, C=1.0, class_weighting=weighting, tol=1e-10)
        d = svm_fit(X2, y2, C=0.5, class_weighting=weighting, tol=1e-10)
        assert np.allclose(m.weights, d.weights, atol=1e-6)
        assert m.bias == pytest.approx(d.bias, abs=1e-6)


def test_svm_balanced_weighting_shifts_boundary():
    # 5 positives vs 45 negatives: balanced weighting must recover the
    # minority recall that unweighted hinge loss sacrifices
    rng = np.random.default_rng(8)
    neg = rng.normal([-0.5, 0.0], 1.0, (45, 2))
    pos = rng.normal([1.5, 0.5], 1.0, (5, 2))
    X = np.vstack([neg, pos])
    y = np.concatenate([-np.ones(45), np.ones(5)])
    bal = svm_fit(X, y, C=1.0, class_weighting="balanced")
    pos_recall = float(np.mean(svm_predict(bal, X)[y > 0] == 1.0))
    assert pos_recall >= 0.8


def test_svm_input_validation():
    X, y = blobs(seed=3)
    with pytest.raises(ValidationError):
        svm_fit(X, np.abs(y), C=1.0)  # single class
    with pytest.raises(ValidationError):
        svm_fit(X, np.where(y > 0, 2.0, -1.0), C=1.0)
    for C in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            svm_fit(X, y, C=C)
    with pytest.raises(ConfigError):
        svm_fit(X, y, C=1.0, class_weighting="sqrt")
    for bad in ((float("nan"), "none"), (0.0, "none"), (1.0, "sqrt")):
        with pytest.raises(ConfigError):
            svm_fit(X, y, C=1.0, path=[(1.0, "none"), bad])
    X_nan = X.copy()
    X_nan[3, 1] = float("nan")
    with pytest.raises(ValidationError):
        svm_fit(X_nan, y, C=1.0)
    with pytest.raises(ValidationError):
        svm_fit(X, y[:-2], C=1.0)
    with pytest.raises(ValidationError):
        svm_fit(X[:, 0], y, C=1.0)


@st.composite
def svm_problem(draw):
    """A noisy linear rule on n x d data, both weightings, the grid's C
    values, and held-out points to compare predictions on."""
    n = draw(st.integers(8, 60))
    d = draw(st.integers(1, 40))
    C = draw(st.sampled_from([0.01, 0.1, 1.0, 10.0]))
    weighting = draw(st.sampled_from(["balanced", "none"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    X = rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0)
    score = X @ rng.standard_normal(d)
    noise = rng.uniform(0.1, 3.0) * score.std() + 1e-9
    y = np.where(score + rng.normal(0.0, noise, n) > 0, 1.0, -1.0)
    if len(np.unique(y)) < 2:
        y[0] = -y[0]
    return X, y, C, weighting, 2.0 * rng.standard_normal((50, d))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(svm_problem())
def test_svm_fit_matches_smo_oracle(problem):
    X, y, C, weighting, held_out = problem
    w_ref, b_ref, _, ref_converged = oracles.smo_svm(X, y, C, weighting,
                                                     tol=1e-9)
    assume(ref_converged)
    model = svm_fit(X, y, C, weighting)
    assert model.converged
    # relative to the weight norm; norms below 0.01 count as 0.01
    gap = float(np.linalg.norm(model.weights - w_ref))
    assert gap <= 1e-4 * max(float(np.linalg.norm(w_ref)), 1e-2)
    ref_pred = np.where(held_out @ w_ref + b_ref >= 0.0, 1.0, -1.0)
    np.testing.assert_array_equal(svm_predict(model, held_out), ref_pred)


@st.composite
def svm_stress_problem(draw):
    """Random, column-scaled, row-duplicated or separable problems with
    every grid C and weighting, stopped at 1, 2, 3 or 100 Newton steps."""
    n = draw(st.integers(4, 60))
    d = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["plain", "scaled", "duplicated",
                                  "separable"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    X = rng.standard_normal((n, d))
    if shape == "scaled":
        X *= 10.0 ** rng.uniform(-3.0, 3.0, d)
    elif shape == "duplicated":
        X = np.vstack([X, X[:n // 2]])
    score = X @ rng.standard_normal(d)
    if shape == "separable":
        X += 0.5 * np.sign(score)[:, None]
        y = np.where(score > 0, 1.0, -1.0)
    else:
        noise = rng.uniform(0.1, 3.0) * score.std() + 1e-9
        y = np.where(score + rng.normal(0.0, noise, len(score)) > 0, 1.0, -1.0)
    if len(np.unique(y)) < 2:
        y[0] = -y[0]
    return (X, y, draw(st.sampled_from(SVM_CS)),
            draw(st.sampled_from(["balanced", "none"])),
            draw(st.sampled_from([1, 2, 3, 100])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(svm_stress_problem())
def test_svm_fit_tracks_the_reference_solver(problem):
    # the batched loop's stacked reductions round unlike the reference's
    # 1-D BLAS calls, so the iterates agree to a tolerance, the step
    # counts exactly
    X, y, C, weighting, max_iter = problem
    w_ref, b_ref, it_ref, converged_ref = oracles.ipm_svm(
        X, y, C, weighting, max_iter=max_iter)
    model = svm_fit(X, y, C, weighting, max_iter=max_iter)
    assert (model.iterations, model.converged) == (it_ref, converged_ref)
    scale = 1.0 + float(np.abs(w_ref).max())
    assert float(np.abs(model.weights - w_ref).max()) <= 1e-7 * scale
    assert abs(model.bias - b_ref) <= 1e-7 * scale


GRID_PAIRS = [(C, w) for C in SVM_CS for w in ("balanced", "none")]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(svm_stress_problem(), st.permutations(GRID_PAIRS),
       st.integers(1, len(GRID_PAIRS)))
def test_svm_path_entries_are_bitwise_their_solo_fits(problem, order, size):
    X, y, _, _, max_iter = problem
    (C, weighting), *path = order[:size]
    batch = svm_fit(X, y, C, weighting, max_iter=max_iter, path=path)
    batch = batch if path else [batch]
    assert len(batch) == size
    for (C, weighting), model in zip(order, batch):
        solo = svm_fit(X, y, C, weighting, max_iter=max_iter)
        assert (model.C, model.class_weighting) == (C, weighting)
        assert model.weights.tobytes() == solo.weights.tobytes()
        assert np.float64(model.bias).tobytes() == \
            np.float64(solo.bias).tobytes()
        assert (model.iterations, model.converged) == \
            (solo.iterations, solo.converged)


@st.composite
def svm_training_sets(draw):
    """1-4 training sets of mixed n and d, each with its own order and
    number of grid pairs; a set may repeat the first one's rows under
    permuted labels, so that sets of equal n but different Q share a
    block."""
    sets = []
    for _ in range(draw(st.integers(1, 4))):
        X, y, _, _, _ = draw(svm_stress_problem())
        if sets and draw(st.booleans()):
            X = sets[0][0]
            y = np.random.default_rng(draw(st.integers(0, 99))).permutation(
                sets[0][1])
        pairs = draw(st.permutations(GRID_PAIRS))
        sets.append((X, y, pairs[:draw(st.integers(1, len(pairs)))]))
    return sets, draw(st.sampled_from([1, 2, 3, 100]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(svm_training_sets(), st.sampled_from([1, 2000, None]))
def test_svm_batch_entries_are_bitwise_their_solo_fits(drawn, block):
    # block: the KKT entries a block may hold (None: the module's own), so
    # that blocks of one problem and blocks cut within a set are drawn too
    import cogspeech.model as model_mod
    sets, max_iter = drawn
    (X, y, ((C, weighting), *path)), *batch = sets
    with mock.patch.object(model_mod, "_KKT_BLOCK",
                           block or model_mod._KKT_BLOCK):
        fitted = svm_fit(X, y, C, weighting, max_iter=max_iter, path=path,
                         batch=batch)
    if not batch:
        fitted = [fitted if path else [fitted]]
    assert [len(models) for models in fitted] == \
        [len(pairs) for _, _, pairs in sets]
    for (X, y, pairs), models in zip(sets, fitted):
        for (C, weighting), model in zip(pairs, models):
            solo = svm_fit(X, y, C, weighting, max_iter=max_iter)
            assert (model.C, model.class_weighting) == (C, weighting)
            assert model.weights.tobytes() == solo.weights.tobytes()
            assert np.float64(model.bias).tobytes() == \
                np.float64(solo.bias).tobytes()
            assert (model.iterations, model.converged) == \
                (solo.iterations, solo.converged)


def test_svm_batch_validates_every_set_before_solving():
    X, y = blobs(seed=4)
    with pytest.raises(ValidationError, match="single-class"):
        svm_fit(X, y, 1.0, batch=[(X, np.ones(len(y)), [(1.0, "none")])])
    with pytest.raises(ConfigError):
        svm_fit(X, y, 1.0, batch=[(X, y, [(0.0, "none")])])


def test_svm_singular_kkt_stops_only_its_own_problem(monkeypatch):
    # a factorization that calls the second problem's KKT matrix of the
    # (n+1)-sized block singular: that problem stops unconverged at its
    # first step, the others of its set and of the other set run on
    from scipy.linalg import lapack
    X, y = blobs(seed=4)
    X_other, y_other = blobs(seed=5, n=12)
    real_dgetrf = lapack.dgetrf
    pairs = [(1.0, "none"), (0.01, "none"), (10.0, "balanced")]

    def fit_with_one_singular(*args, **kwargs):
        calls = []

        def dgetrf(a, **kw):
            lu, piv, info = real_dgetrf(a, **kw)
            if len(a) == len(y) + 1:  # X's first step: problem 0, then 1
                calls.append(a)
                info = 1 if len(calls) == 2 else info
            return lu, piv, info

        with monkeypatch.context() as patched:
            patched.setattr(lapack, "dgetrf", dgetrf)
            return svm_fit(*args, **kwargs)

    in_path = fit_with_one_singular(X, y, *pairs[0], path=pairs[1:])
    other, in_batch = fit_with_one_singular(X_other, y_other, 1.0, "none",
                                            batch=[(X, y, pairs)])
    assert other[0].weights.tobytes() == \
        svm_fit(X_other, y_other, 1.0, "none").weights.tobytes()
    for fitted in (in_path, in_batch):
        stopped = fitted[1]
        assert (stopped.iterations, stopped.converged) == (1, False)
        assert np.all(np.isfinite(stopped.weights)) and \
            math.isfinite(stopped.bias)
        for pair, model in zip(pairs[::2], fitted[::2]):
            solo = svm_fit(X, y, *pair)
            assert solo.converged and model.converged
            assert model.weights.tobytes() == solo.weights.tobytes()
            assert model.iterations == solo.iterations


def test_svm_grid_memory_at_a_thousand_rows():
    # a block holds one problem at this n, so the 8-problem grid keeps one
    # problem's KKT matrices rather than eight
    import tracemalloc
    data = synth.planted_classification(1000, n_features=32, seed=3)
    Z = zscore_apply(zscore_fit(data.X), data.X)
    (C, weighting), *path = GRID_PAIRS
    tracemalloc.start()
    try:
        models = svm_fit(Z, data.y, C, weighting, path=path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(models) == len(GRID_PAIRS)
    assert peak < 60e6


def test_svm_grid_memory_in_a_block_of_one_set():
    # at this n the whole 8-problem grid is one block of one training set:
    # its Q stack, its KKT stack and the transient |Q| rows hold at most
    # 2^20 entries each, beside the set's own Q while the stack is filled
    import tracemalloc
    data = synth.planted_classification(361, n_features=32, seed=3)
    Z = zscore_apply(zscore_fit(data.X), data.X)
    (C, weighting), *path = GRID_PAIRS
    tracemalloc.start()
    try:
        models = svm_fit(Z, data.y, C, weighting, path=path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(models) == len(GRID_PAIRS)
    assert peak < 32e6


@pytest.mark.parametrize("n, d", [(16, 32), (40, 1), (500, 32), (1000, 32),
                                  (200, 768)])
def test_svm_gram_matrix_is_exactly_symmetric(n, d):
    # svm_fit fills each Fortran-ordered KKT matrix from Q's transpose,
    # which is Q bit for bit because numpy forms A @ A.T through BLAS syrk
    rng = np.random.default_rng(n + d)
    X = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3.0, 3.0, d)
    y = rng.choice([-1.0, 1.0], n)
    Yx = X * y[:, None]
    Q = Yx @ Yx.T
    assert Q.tobytes() == np.ascontiguousarray(Q.T).tobytes()


def test_no_svm_fit_stops_at_its_cap_on_permuted_labels(monkeypatch):
    import cogspeech.model as model_mod
    real_fit = model_mod.svm_fit
    models = []

    def recording_fit(*args, **kwargs):
        fitted = real_fit(*args, **kwargs)
        models.extend(m for group in fitted for m in group)  # a batch call
        return fitted

    monkeypatch.setattr(model_mod, "svm_fit", recording_fit)
    data = synth.planted_classification(100, n_features=12, seed=3,
                                        permuted=True)
    report, _ = nested_cv(data, TargetSpec(3, "mci", "classification"),
                          seed=1)
    assert len(models) == 5 * 3 * 24 + 5
    assert [m.iterations for m in models if not m.converged] == []
    assert not any("did not converge" in w for w in report.warnings)


# ---------------------------------------------------------------------------
# Metrics

def test_metric_identities():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_r(y, y) == pytest.approx(1.0, abs=1e-12)
    assert r2(y, y) == pytest.approx(1.0, abs=1e-12)
    assert pearson_r(y, -(y - y.mean())) == pytest.approx(-1.0, abs=1e-12)
    labels = np.array([1.0, -1.0, 1.0, -1.0])
    assert balanced_accuracy(labels, labels) == 1.0


def test_balanced_accuracy_hand_confusion():
    # TP 9, FN 1, TN 5, FP 5 -> (0.9 + 0.5) / 2
    y = np.array([1.0] * 10 + [-1.0] * 10)
    yhat = np.array([1.0] * 9 + [-1.0] + [-1.0] * 5 + [1.0] * 5)
    assert balanced_accuracy(y, yhat) == pytest.approx(0.7)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 1.0, 2.5]),
                          st.sampled_from([-1.0, 0.0, 1.0, 7.0])),
                min_size=1, max_size=40))
def test_balanced_accuracy_is_the_per_class_mask_formula(pairs):
    # yhat may predict classes y lacks and miss classes y has
    y, yhat = (np.array(v) for v in zip(*pairs))
    got = balanced_accuracy(y, yhat)
    assert np.float64(got).tobytes() == \
        np.float64(oracles.balanced_accuracy(y, yhat)).tobytes()


def test_pearson_affine_invariance():
    rng = np.random.default_rng(9)
    y = rng.standard_normal(50)
    yhat = 0.8 * y + rng.standard_normal(50) * 0.3
    base = pearson_r(y, yhat)
    assert pearson_r(y, 3.5 * yhat + 11.0) == pytest.approx(base, abs=1e-12)


def test_balanced_accuracy_relabel_invariance():
    rng = np.random.default_rng(10)
    y = rng.choice([-1.0, 1.0], 40)
    yhat = rng.choice([-1.0, 1.0], 40)
    remap = {-1.0: "hc", 1.0: "mci"}
    ys = np.array([remap[v] for v in y])
    ps = np.array([remap[v] for v in yhat])
    assert balanced_accuracy(ys, ps) == pytest.approx(
        balanced_accuracy(y, yhat), abs=1e-12)


def test_pearson_zero_variance_sentinel():
    assert math.isnan(pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    assert math.isnan(r2([2.0, 2.0], [2.0, 2.0]))
    with pytest.raises(ValidationError):
        pearson_r([1.0, 2.0], [1.0])


# ---------------------------------------------------------------------------
# Lazy scipy imports

def test_model_import_leaves_scipy_stats_unloaded():
    code = ("import sys; import cogspeech.model; "
            "print('scipy.stats' in sys.modules, "
            "'scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_first_svm_fit_in_nested_cv_threads_loads_scipy_linalg():
    # svm_fit imports scipy.linalg on first use; here that first use is
    # two pool threads at once, and the report must match jobs=1's
    code = """if True:
        import json, sys
        import numpy as np
        from cogspeech import model
        assert 'scipy.linalg' not in sys.modules
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 6))
        y = np.where(X[:, 0] + 0.5 * rng.standard_normal(40) > 0, 1.0, -1.0)
        ids = tuple(f"S{i:02d}" for i in range(40))
        data = model.Dataset(X=X, y=y, subject_ids=ids, session_ids=ids,
                             feature_names=tuple("abcdef"))
        target = model.TargetSpec(3, "mci", "classification")
        reports = [json.dumps(model.nested_cv(data, target, seed=3, jobs=j)[0]
                              .to_dict(), sort_keys=True) for j in (2, 1)]
        print(reports[0] == reports[1])
    """
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "True"


# ---------------------------------------------------------------------------
# Targets

def labels_fixture():
    return LabelHierarchy(level1={"mmse": 27.0, "pf": 14.0},
                          level2={"LAN": 96.0},
                          cerad_total=88.0, cerad_binary=1, mci=0)


def test_extract_target_levels():
    lab = labels_fixture()
    assert extract_target(lab, TargetSpec(1, "MMSE", "regression")) == 27.0
    assert extract_target(lab, TargetSpec(2, "lan", "regression")) == 96.0
    assert extract_target(lab, TargetSpec(3, "cerad_total",
                                          "regression")) == 88.0
    assert extract_target(lab, TargetSpec(3, "mci",
                                          "classification")) == -1.0
    assert extract_target(lab, TargetSpec(3, "cerad_binary",
                                          "classification")) == 1.0
    assert extract_target(lab, TargetSpec(1, "VF", "regression")) is None
    assert extract_target(lab, TargetSpec(2, "MEM", "regression")) is None


def test_target_spec_validation():
    with pytest.raises(ConfigError):
        TargetSpec(4, "mmse", "regression")
    with pytest.raises(ConfigError):
        TargetSpec(1, "mmse", "ranking")
    with pytest.raises(ConfigError):
        extract_target(labels_fixture(), TargetSpec(3, "iq", "regression"))


# ---------------------------------------------------------------------------
# Fold plans

def test_fold_plan_partitions_subjects():
    subjects = [f"S{i:02d}" for i in range(10)]
    plan = make_fold_plan(subjects, seed=0)
    seen = [s for grp in plan.outer for s in grp]
    assert sorted(seen) == subjects
    assert len(plan.outer) == 5
    for fold in range(5):
        train = plan.outer_train_subjects(fold)
        assert not train & set(plan.outer[fold])
        inner_seen = sorted(s for grp in plan.inner[fold] for s in grp)
        assert inner_seen == sorted(train)


def test_fold_plan_sessions_stay_with_subject():
    # multiplicity in the id list must not split a subject
    ids = ["A", "A", "A", "B", "C", "D", "E", "F"]
    plan = make_fold_plan(ids, seed=3)
    count = sum(grp.count("A") for grp in plan.outer)
    assert count == 1


def test_fold_plan_determinism():
    subjects = [f"S{i:02d}" for i in range(12)]
    assert make_fold_plan(subjects, seed=5) == make_fold_plan(subjects, seed=5)
    assert make_fold_plan(subjects, seed=5) != make_fold_plan(subjects, seed=6)


def test_fold_plan_class_balance():
    subjects = [f"S{i:02d}" for i in range(40)]
    labels = {s: (1.0 if i % 2 == 0 else -1.0)
              for i, s in enumerate(subjects)}
    plan = make_fold_plan(subjects, seed=1, labels=labels)
    for grp in plan.outer:
        pos = sum(1 for s in grp if labels[s] > 0)
        assert pos == 4 and len(grp) == 8


def test_fold_plan_too_few_subjects():
    with pytest.raises(ValidationError):
        make_fold_plan(["A", "B", "C"], k_outer=5)


# ---------------------------------------------------------------------------
# Nested CV

def test_nested_cv_recovers_planted_signal():
    data = synth.planted_regression(60, seed=3)
    target = TargetSpec(3, "cerad_total", "regression")
    report, log = nested_cv(data, target, seed=1)
    assert len(report.folds) == 5
    assert report.summary["r"]["mean"] >= 0.9
    assert_no_leakage(log)
    # summary SD is the population SD over exactly the 5 outer metrics
    rs = [f.test_metrics["r"] for f in report.folds]
    assert report.summary["r"]["sd"] == pytest.approx(float(np.std(rs)),
                                                      abs=1e-12)


def test_nested_cv_permuted_labels_at_chance():
    data = synth.planted_classification(80, seed=0, permuted=True)
    grid = [PipelineConfig(estimator="linear_svm", C=1.0),
            PipelineConfig(estimator="linear_svm", C=0.1, pca=0.95)]
    report, log = nested_cv(data, TargetSpec(3, "mci", "classification"),
                            grid=grid, seed=0)
    assert report.summary["balanced_accuracy"]["mean"] == pytest.approx(
        0.5, abs=0.1)
    assert_no_leakage(log)


def test_nested_cv_majority_vote_consistent_with_folds():
    data = synth.planted_regression(50, seed=4)
    report, _ = nested_cv(data, TargetSpec(3, "cerad_total", "regression"),
                          seed=2)
    votes = {}
    for f in report.folds:
        votes[f.best_config_index] = votes.get(f.best_config_index, 0) + 1
    top = max(votes.values())
    tied = [i for i, c in votes.items() if c == top]
    grid = default_grid("regression")
    expect = min(tied, key=lambda i: (0 if grid[i].pca == "passthrough" else 1,
                                      i))
    assert report.majority_vote_index == expect
    assert report.majority_vote_config == grid[expect]


def test_nested_cv_single_class_inner_fold_warns():
    rng = np.random.default_rng(13)
    subjects = ("N1", "P1", "P2", "P3", "N2", "P4")
    y = np.array([-1.0, 1.0, 1.0, 1.0, -1.0, 1.0])
    data = Dataset(X=rng.standard_normal((6, 3)), y=y, subject_ids=subjects,
                   session_ids=tuple(f"{s}_T" for s in subjects),
                   feature_names=("a", "b", "c"))
    plan = FoldPlan(outer=(("N1", "P1", "P2"), ("N2", "P3", "P4")),
                    inner=((("N2",), ("P3",), ("P4",)),
                           (("N1",), ("P1",), ("P2",))),
                    seed=0)
    grid = [PipelineConfig(estimator="linear_svm", C=1.0)]
    report, _ = nested_cv(data, TargetSpec(3, "mci", "classification"),
                          grid=grid, plan=plan)
    assert any("skipped" in w for w in report.warnings)
    assert len(report.folds) == 2


def test_nested_cv_reports_unconverged_svm_fits(monkeypatch):
    import cogspeech.model as model_mod
    real_fit = model_mod.svm_fit
    monkeypatch.setattr(
        model_mod, "svm_fit",
        lambda X, y, C, class_weighting="balanced", **kwargs: real_fit(
            X, y, C, class_weighting, max_iter=3, **kwargs))
    data = synth.planted_classification(24, n_features=4, seed=2)
    grid = [PipelineConfig(estimator="linear_svm", C=1.0)]
    report, fit_log = nested_cv(data, TargetSpec(3, "mci", "classification"),
                                grid=grid, seed=0)
    unconverged = [w for w in report.warnings if "did not converge" in w]
    assert len(unconverged) == len(fit_log)  # every fit stops at max_iter
    assert "fold 0 config 0 inner 0: SVM did not converge after 3 " \
           "iterations" in unconverged
    assert "fold 0 config 0 outer: SVM did not converge after 3 " \
           "iterations" in unconverged
    assert report.to_dict()["warnings"] == list(report.warnings)


def test_nested_cv_warns_of_an_outer_fold_with_a_nan_metric():
    # 9 subjects deal outer folds of 2, 2, 2, 2 and 1; the one-subject
    # fold's Pearson r is undefined, and so is the summary's mean
    data = synth.planted_regression(9, seed=3)
    report, _ = nested_cv(data, TargetSpec(3, "cerad_total", "regression"),
                          seed=1)
    sizes = [len(g) for g in make_fold_plan(data.subject_ids, seed=1).outer]
    assert sorted(sizes) == [1, 2, 2, 2, 2]
    assert np.isnan(report.summary["r"]["mean"])
    nan_folds = [f.fold for f in report.folds
                 if any(np.isnan(v) for v in f.test_metrics.values())]
    assert nan_folds and len(report.warnings) == len(nan_folds)
    for fold, note in zip(nan_folds, report.warnings):
        assert note.startswith(f"outer fold {fold}: nan test r")
        assert note.endswith(f" on {sizes[fold]} test subject(s)")


def test_nested_cv_jobs_do_not_change_report():
    for data, target in (
            (synth.planted_regression(40, seed=5),
             TargetSpec(3, "cerad_total", "regression")),
            (synth.planted_classification(40, seed=5),
             TargetSpec(3, "mci", "classification"))):
        r1, log1 = nested_cv(data, target, seed=3, jobs=1)
        for jobs in (2, 3, 4):  # the inner splits cut into 2, 3 and 4 chunks
            rj, logj = nested_cv(data, target, seed=3, jobs=jobs)
            assert json.dumps(r1.to_dict(), sort_keys=True) == \
                json.dumps(rj.to_dict(), sort_keys=True)
            assert r1.warnings == rj.warnings
            assert [r.to_dict() for r in log1] == [r.to_dict() for r in logj]


def test_nested_cv_fits_scaler_and_pca_once_per_training_set():
    import cogspeech.model as model_mod
    data = synth.planted_regression(40, seed=5)
    with mock.patch.object(model_mod, "zscore_fit",
                           wraps=model_mod.zscore_fit) as zscore, \
            mock.patch.object(model_mod, "pca_fit",
                              wraps=model_mod.pca_fit) as pca:
        _, fit_log = nested_cv(data, TargetSpec(3, "cerad_total", "regression"),
                               seed=3)
    # 5 outer folds x 3 inner folds, then one refit per outer fold
    assert len(fit_log) == 5 * 3 * 15 + 5
    assert zscore.call_count == 15 + 5
    assert pca.call_count == 15 * len(model_mod.PCA_MODES) + 5


def test_nested_cv_takes_one_svd_per_training_set():
    # both PCA modes and every ridge lambda read one SVD per training set;
    # a passthrough SVM grid reads none
    regression = synth.planted_regression(40, seed=5)
    classification = synth.planted_classification(40, seed=5)
    for data, target, grid, svds in (
            (regression, TargetSpec(3, "cerad_total", "regression"), None,
             15 + 5),
            (classification, TargetSpec(3, "mci", "classification"), None,
             None),
            (classification, TargetSpec(3, "mci", "classification"),
             [PipelineConfig(estimator="linear_svm", C=c) for c in SVM_CS], 0)):
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            report, _ = nested_cv(data, target, grid=grid, seed=3)
        if svds is None:  # outer refits of a passthrough config take none
            svds = 15 + sum(f.best_config.pca != "passthrough"
                            for f in report.folds)
        assert svd.call_count == svds


def test_nested_cv_fits_through_the_public_estimators():
    # the benchmark times svm_fit, ridge_fit and pca_fit by swapping the
    # module's bindings, so nested_cv must call each of them by name: pca_fit
    # once per (training set, PCA mode), 15 inner and 5 outer sets; ridge_fit
    # one path call per (training set, PCA mode); svm_fit one batch call for
    # the inner stage and one for the outer refits
    import cogspeech.model as model_mod
    per_set_and_mode = 15 * len(model_mod.PCA_MODES) + 5
    for data, target, estimator, calls in (
            (synth.planted_regression(40, seed=5),
             TargetSpec(3, "cerad_total", "regression"), "ridge_fit",
             per_set_and_mode),
            (synth.planted_classification(40, seed=5),
             TargetSpec(3, "mci", "classification"), "svm_fit", 2)):
        with mock.patch.object(model_mod, estimator,
                               wraps=getattr(model_mod, estimator)) as fit, \
                mock.patch.object(model_mod, "pca_fit",
                                  wraps=model_mod.pca_fit) as pca:
            _, fit_log = nested_cv(data, target, seed=3)
        assert fit.call_count == calls
        assert pca.call_count == per_set_and_mode
        models = sum(1 + len(call.kwargs["path"])
                     + sum(len(pairs) for *_, pairs in call.kwargs["batch"])
                     if estimator == "svm_fit" else 1 + len(call.kwargs["path"])
                     for call in fit.call_args_list)
        assert models == len(fit_log)


def test_nested_cv_grid_validation():
    data = synth.planted_regression(30, seed=6)
    target = TargetSpec(3, "cerad_total", "regression")
    with pytest.raises(ConfigError):
        nested_cv(data, target, grid=[])
    with pytest.raises(ConfigError):
        nested_cv(data, target,
                  grid=[PipelineConfig(estimator="linear_svm", C=1.0)])


def test_config_round_trip_and_describe():
    for cfg in default_grid("regression") + default_grid("classification"):
        assert config_from_dict(config_to_dict(cfg)) == cfg
    cfg = PipelineConfig(estimator="ridge", lam=0.01)
    assert cfg.describe() == "ridge(lam=0.01), pca=passthrough"
    with pytest.raises(ConfigError):
        PipelineConfig(estimator="ridge", lam=0.01, C=1.0)
    with pytest.raises(ConfigError):
        PipelineConfig(estimator="linear_svm")
    for bad in (dict(estimator="ridge", lam=float("nan")),
                dict(estimator="ridge", lam=float("inf")),
                dict(estimator="linear_svm", C=float("nan")),
                dict(estimator="linear_svm", C=float("inf")),
                dict(estimator="ridge", lam=1.0, pca=0.0),
                dict(estimator="ridge", lam=1.0, pca=1.5),
                dict(estimator="ridge", lam=1.0, pca=float("nan")),
                dict(estimator="ridge", lam=1.0, class_weighting="balance"),
                dict(estimator="linear_svm", C=1.0, class_weighting="sqrt")):
        with pytest.raises(ConfigError):
            PipelineConfig(**bad)
        with pytest.raises(ConfigError):
            config_from_dict(bad)
    assert PipelineConfig(estimator="ridge", lam=0.0, pca=1.0).pca == 1.0


def test_config_rejects_boolean_hyperparameters():
    # JSON true would otherwise run as lam = 1 or pca = 1.0
    for bad in (dict(estimator="ridge", lam=True),
                dict(estimator="ridge", lam=False),
                dict(estimator="linear_svm", C=True),
                dict(estimator="ridge", lam=1.0, pca=True)):
        with pytest.raises(ConfigError):
            PipelineConfig(**bad)
        with pytest.raises(ConfigError):
            config_from_dict(bad)


# ---------------------------------------------------------------------------
# Holdout evaluation

def split_planted(seed=7):
    data = synth.planted_regression(80, seed=seed)
    dev_rows = data.rows_for([s for s in data.subjects
                              if int(s[1:]) % 5 != 0])
    ho_rows = ~dev_rows
    def take(rows):
        idx = np.flatnonzero(rows)
        return Dataset(X=data.X[idx], y=data.y[idx],
                       subject_ids=tuple(data.subject_ids[i] for i in idx),
                       session_ids=tuple(data.session_ids[i] for i in idx),
                       feature_names=data.feature_names)
    return take(dev_rows), take(ho_rows)


def test_holdout_close_to_dev_mean():
    dev, holdout = split_planted()
    target = TargetSpec(3, "cerad_total", "regression")
    report, _ = nested_cv(dev, target, seed=1)
    result, record = holdout_eval(dev, holdout,
                                  report.majority_vote_config, target)
    assert abs(result["metrics"]["r"] - report.summary["r"]["mean"]) <= 0.1
    assert record.stage == "holdout"
    assert result["n_dev_sessions"] == len(dev.y)
    assert result["n_holdout_sessions"] == len(holdout.y)


def test_holdout_rejects_subject_overlap():
    dev, holdout = split_planted()
    leaky = Dataset(X=np.vstack([holdout.X, dev.X[:1]]),
                    y=np.concatenate([holdout.y, dev.y[:1]]),
                    subject_ids=holdout.subject_ids + dev.subject_ids[:1],
                    session_ids=holdout.session_ids + ("extra_T",),
                    feature_names=holdout.feature_names)
    target = TargetSpec(3, "cerad_total", "regression")
    cfg = PipelineConfig(estimator="ridge", lam=1.0)
    with pytest.raises(ValidationError, match=dev.subject_ids[0]):
        holdout_eval(dev, leaky, cfg, target)


def test_holdout_rejects_feature_mismatch():
    dev, holdout = split_planted()
    renamed = Dataset(X=holdout.X, y=holdout.y,
                      subject_ids=holdout.subject_ids,
                      session_ids=holdout.session_ids,
                      feature_names=tuple(f"x_{n}"
                                          for n in holdout.feature_names))
    with pytest.raises(ValidationError, match="feature name"):
        holdout_eval(dev, renamed, PipelineConfig(estimator="ridge", lam=1.0),
                     TargetSpec(3, "cerad_total", "regression"))


# ---------------------------------------------------------------------------
# Importance and leakage audit

def test_importance_ranks_by_magnitude():
    X, y = blobs(seed=14)
    pipe = fit_pipeline(X, y, PipelineConfig(estimator="linear_svm", C=1.0))
    ranking = svm_feature_importance(pipe, ["a", "b"])
    mags = [abs(w) for _, w in ranking]
    assert mags == sorted(mags, reverse=True)
    assert {n for n, _ in ranking} == {"a", "b"}


def test_importance_planted_feature_ranks_first():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 21))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        pipe = fit_pipeline(X, y, PipelineConfig(estimator="linear_svm",
                                                 C=1.0))
        names = ["informative"] + [f"noise_{i}" for i in range(20)]
        if svm_feature_importance(pipe, names)[0][0] == "informative":
            hits += 1
    assert hits >= 9


def test_importance_requires_passthrough_svm():
    X, y = blobs(seed=15)
    pca_pipe = fit_pipeline(X, y, PipelineConfig(estimator="linear_svm",
                                                 C=1.0, pca=0.95))
    with pytest.raises(ConfigError, match="passthrough"):
        svm_feature_importance(pca_pipe, ["a", "b"])
    ridge_pipe = fit_pipeline(X, y, PipelineConfig(estimator="ridge", lam=1.0))
    with pytest.raises(ConfigError):
        svm_feature_importance(ridge_pipe, ["a", "b"])


def test_importance_zero_weights_warns_empty():
    X, y = blobs(seed=16)
    pipe = fit_pipeline(X, y, PipelineConfig(estimator="linear_svm", C=1.0))
    from cogspeech.model import SvmModel
    zero = FittedPipeline(config=pipe.config, scaler=pipe.scaler,
                          pca=pipe.pca,
                          model=SvmModel(weights=np.zeros(2), bias=0.0,
                                         C=1.0, class_weighting="balanced",
                                         iterations=1, converged=True))
    with pytest.warns(UserWarning):
        assert svm_feature_importance(zero, ["a", "b"]) == []


def test_assert_no_leakage_catches_overlap():
    bad = FitRecord(stage="inner", outer_fold=0, inner_fold=1, config_index=0,
                    train_subjects=frozenset({"A", "B"}),
                    eval_subjects=frozenset({"B", "C"}))
    with pytest.raises(ValidationError, match="B"):
        assert_no_leakage([bad])


def test_dataset_row_alignment():
    with pytest.raises(ValidationError):
        Dataset(X=np.zeros((3, 2)), y=np.zeros(2), subject_ids=("a", "b"),
                session_ids=("a_T", "b_T"), feature_names=("f0", "f1"))
