"""Logistic and naive Bayes trainers against independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from clinconv import (
    LogisticModel,
    TrainingError,
    train_logistic,
    train_naive_bayes,
    train_ovr,
)
from clinconv.linear import (
    logistic_objective,
    naive_bayes_proba_matrix,
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


def test_naive_bayes_prefers_class_specific_terms():
    X = np.array([[3.0, 0.0], [2.0, 1.0], [0.0, 3.0], [1.0, 2.0]])
    y = np.array([1.0, 1.0, 0.0, 0.0])
    model = train_naive_bayes(X, y)
    proba = naive_bayes_proba_matrix(model, np.array([[4.0, 0.0], [0.0, 4.0]]))
    assert proba[0] > 0.5 > proba[1]


def test_naive_bayes_rejects_negative_counts():
    with pytest.raises(TrainingError):
        train_naive_bayes(np.array([[-1.0]]), np.array([1.0]))


def test_naive_bayes_single_class_is_constant():
    model = train_naive_bayes(np.ones((4, 2)), np.ones(4))
    proba = naive_bayes_proba_matrix(model, np.zeros((3, 2)))
    assert np.all(proba == proba[0]) and proba[0] > 0.999


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


def test_predict_dimension_mismatch_rejected():
    model = LogisticModel(weights=np.ones(3), bias=0.0)
    with pytest.raises(TrainingError):
        predict_proba_matrix(model, np.ones((1, 2)))
    with pytest.raises(TrainingError):
        predict_proba_matrix(model, sp.csr_matrix((4, 2)))
