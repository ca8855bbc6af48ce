"""The logistic trainer against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from clinconv import (
    LogisticModel,
    OneVsRestModel,
    TrainingError,
    train_logistic,
    train_ovr,
)
from clinconv.linear import (
    logistic_objective,
    ovr_proba_matrix,
    predict_proba_matrix,
    prior_only_model,
)
from oracles import central_difference, gd_logistic, logistic_value, stable_sigmoid


def random_problem(rng, max_n=60, max_dim=12):
    n = int(rng.integers(4, max_n + 1))
    dim = int(rng.integers(2, max_dim + 1))
    X = rng.standard_normal((n, dim))
    w = rng.standard_normal(dim)
    y = (stable_sigmoid(X @ w) > rng.random(n)).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]  # keep both classes present
    return X, y


def test_objective_matches_independent_formula(rng):
    for _ in range(20):
        X, y = random_problem(rng)
        theta = rng.standard_normal(X.shape[1] + 1)
        reg_c = float(rng.uniform(0.2, 5.0))
        value, _, _ = logistic_objective(theta[:-1], theta[-1], X, y, reg_c)
        assert value == pytest.approx(logistic_value(theta, X, y, reg_c), rel=1e-12)


def test_gradient_matches_central_differences(rng):
    for _ in range(10):
        X, y = random_problem(rng, max_n=30, max_dim=6)
        reg_c = float(rng.uniform(0.2, 5.0))
        theta = rng.standard_normal(X.shape[1] + 1)
        _, grad_w, grad_b = logistic_objective(theta[:-1], theta[-1], X, y, reg_c)
        analytic = np.concatenate([grad_w, [grad_b]])
        numeric = central_difference(
            lambda t: logistic_value(t, X, y, reg_c), theta, eps=1e-6
        )
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-6)


def test_trainer_reaches_oracle_objective(rng):
    for _ in range(8):
        X, y = random_problem(rng)
        reg_c = float(rng.uniform(0.3, 3.0))
        model = train_logistic(X, y, reg_c=reg_c, tol=1e-8)
        assert model.converged
        theta = np.concatenate([model.weights, [model.bias]])
        _, oracle_value = gd_logistic(X, y, reg_c=reg_c, tol=1e-9)
        assert logistic_value(theta, X, y, reg_c) <= oracle_value + 1e-6


def test_sparse_and_dense_inputs_agree(rng):
    X, y = random_problem(rng)
    dense = train_logistic(X, y, reg_c=1.0, tol=1e-9)
    sparse = train_logistic(sp.csr_matrix(X), y, reg_c=1.0, tol=1e-9)
    np.testing.assert_allclose(dense.weights, sparse.weights, atol=1e-6)
    assert dense.bias == pytest.approx(sparse.bias, abs=1e-6)


def test_single_class_targets_give_prior_only_model():
    X = np.ones((5, 3))
    model = train_logistic(X, np.zeros(5))
    assert np.all(model.weights == 0.0)
    assert model.bias == -15.0
    assert predict_proba_matrix(model, X).max() < 1e-5


def test_prior_only_bias_is_clipped_log_odds():
    model = prior_only_model(np.array([1.0, 1.0, 0.0, 0.0]), reg_c=1.0)
    assert model.bias == pytest.approx(0.0, abs=1e-12)


def test_stronger_regularization_shrinks_weights(rng):
    X, y = random_problem(rng)
    loose = train_logistic(X, y, reg_c=10.0)
    tight = train_logistic(X, y, reg_c=0.01)
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def test_predict_proba_matches_matrix_variant(rng):
    X, y = random_problem(rng)
    model = train_logistic(X, y)
    matrix = predict_proba_matrix(model, X)
    rows = [predict_proba_matrix(model, X[i : i + 1])[0] for i in range(X.shape[0])]
    np.testing.assert_allclose(matrix, rows, atol=1e-12)
    np.testing.assert_allclose(
        matrix, stable_sigmoid(X @ model.weights + model.bias), atol=1e-12
    )
    assert matrix.min() >= 0.0 and matrix.max() <= 1.0


def test_target_validation():
    X = np.ones((3, 2))
    with pytest.raises(TrainingError):
        train_logistic(X, np.array([0.0, 1.0, 2.0]))
    with pytest.raises(TrainingError):
        train_logistic(X, np.array([0.0, 1.0]))
    with pytest.raises(TrainingError):
        train_logistic(X, np.array([0.0, 1.0, 1.0]), reg_c=0.0)


def test_non_finite_features_rejected():
    X = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(TrainingError):
        train_logistic(X, np.array([0.0, 1.0]))


def test_ovr_trains_one_model_per_label(rng):
    X, _ = random_problem(rng, max_n=40, max_dim=6)
    Y = rng.integers(0, 2, size=(X.shape[0], 3)).astype(float)
    ovr = train_ovr(X, Y, labels=["a", "b", "c"])
    assert len(ovr.models) == 3
    proba = ovr_proba_matrix(ovr, X)
    assert proba.shape == (X.shape[0], 3)
    for j in range(3):
        single = train_logistic(X, Y[:, j])
        np.testing.assert_allclose(
            predict_proba_matrix(single, X), proba[:, j], atol=1e-8
        )


def test_ovr_shape_mismatch_rejected(rng):
    X, _ = random_problem(rng)
    with pytest.raises(TrainingError):
        train_ovr(X, np.zeros((X.shape[0], 2)), labels=["only"])


def head_by_head(models, X) -> np.ndarray:
    """The reference for ovr_proba_matrix: each head scored on its own."""
    columns = [predict_proba_matrix(m, X) for m in models]
    return np.column_stack(columns) if columns else np.zeros((X.shape[0], 0))


@pytest.mark.parametrize("n_rows", [0, 1, 90])
@pytest.mark.parametrize("n_labels", [0, 1, 15])
def test_one_product_scores_every_head_bit_for_bit(rng, n_rows, n_labels):
    """Random CSR rows, L2-normalized as the featurizer leaves them, and heads
    with random weights, zero heads and large biases."""
    X = sp.random(n_rows, 40, density=0.2, format="csr", random_state=rng)
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1))).ravel()
    X = sp.csr_matrix(sp.diags(1.0 / np.where(norms > 0, norms, 1.0)) @ X)
    models = [
        LogisticModel(weights=rng.standard_normal(40) * (j % 4), bias=float(rng.normal(0, 5)))
        for j in range(n_labels)
    ]
    # Scored before the wrapper lays the heads out as one matrix.
    weights = [m.weights for m in models]
    expected = head_by_head(models, X)
    ovr = OneVsRestModel(labels=[str(j) for j in range(n_labels)], models=models)
    got = ovr_proba_matrix(ovr, X)
    assert got.shape == (n_rows, n_labels)
    assert np.array_equal(got, expected)
    # Each head still reads its own weights.
    for m, own in zip(ovr.models, weights, strict=True):
        assert np.array_equal(m.weights, own)


def test_trained_heads_score_bit_for_bit_in_one_product(rng):
    """Heads from train_ovr, one of them prior-only, on sparse and dense rows."""
    X = sp.random(60, 30, density=0.3, format="csr", random_state=rng)
    Y = rng.integers(0, 2, size=(60, 4)).astype(float)
    Y[:, 2] = 0.0
    ovr = train_ovr(X, Y, labels=["a", "b", "c", "d"])
    assert ovr.weights.shape == (30, 4) and ovr.weights.flags.c_contiguous
    assert all(np.shares_memory(m.weights, ovr.weights) for m in ovr.models)
    assert not ovr.models[2].weights.any()
    heads = ovr.models
    assert np.array_equal(ovr_proba_matrix(ovr, X), head_by_head(heads, X))
    assert np.array_equal(ovr_proba_matrix(ovr, X[:1]), head_by_head(heads, X[:1]))
    dense = ovr_proba_matrix(ovr, X.toarray())
    np.testing.assert_allclose(dense, head_by_head(heads, X), atol=1e-12)
    with pytest.raises(TrainingError, match="does not match"):
        ovr_proba_matrix(ovr, X[:, :29])


def test_predict_dimension_mismatch_rejected():
    model = LogisticModel(weights=np.ones(3), bias=0.0)
    with pytest.raises(TrainingError):
        predict_proba_matrix(model, np.ones((1, 2)))
    with pytest.raises(TrainingError):
        predict_proba_matrix(model, sp.csr_matrix((4, 2)))
