"""Binary linear classifiers and the one-vs-rest multilabel wrapper.

The logistic trainer minimizes the sum of logistic losses plus an L2 penalty
of ||w||^2 / (2 * reg_c) on the weights (bias unpenalized), using a
quasi-Newton full-batch method. Training stops when the gradient infinity
norm falls to ``tol`` (default 1e-6) or after ``max_iter`` (default 1000)
iterations. A single-class target yields the prior-only model: zero weights
and a bias equal to the observed log-odds clipped to [-15, 15].

The naive Bayes backend is a binary multinomial model with add-one smoothing,
trained on raw term counts rather than TF-IDF weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.special import expit, logsumexp

from .errors import TrainingError

BIAS_CLIP = 15.0


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    reg_c: float = 1.0
    converged: bool = True
    n_iter: int = 0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)


@dataclass
class NaiveBayesModel:
    log_prior: np.ndarray  # [log p(neg), log p(pos)]
    log_likelihood: np.ndarray  # shape (2, feature width)
    constant_p: float | None = None  # set for single-class targets

    def __post_init__(self) -> None:
        self.log_prior = np.asarray(self.log_prior, dtype=np.float64)
        self.log_likelihood = np.asarray(self.log_likelihood, dtype=np.float64)


def _as_matrix(X):
    if sp.issparse(X):
        return X.tocsr()
    return np.asarray(X, dtype=np.float64)


def _check_finite(X) -> None:
    data = X.data if sp.issparse(X) else X
    if data.size and not np.all(np.isfinite(data)):
        raise TrainingError("features contain non-finite values")


def _check_targets(y, n_rows: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != n_rows:
        raise TrainingError(f"{n_rows} rows but {y.shape[0]} targets")
    if y.size == 0:
        raise TrainingError("cannot train on zero examples")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise TrainingError("targets must be 0/1")
    return y


def logistic_objective(
    weights: np.ndarray, bias: float, X, y: np.ndarray, reg_c: float
) -> tuple[float, np.ndarray, float]:
    """Objective value and analytic gradient.

    f(w, b) = sum_i [softplus(z_i) - y_i z_i] + ||w||^2 / (2 reg_c)
    with z = X w + b; the losses are summed, not averaged.
    """
    z = X @ weights + bias
    value = float(np.sum(np.logaddexp(0.0, z) - y * z)) + float(
        weights @ weights
    ) / (2.0 * reg_c)
    residual = expit(z) - y
    grad_w = X.T @ residual + weights / reg_c
    grad_b = float(np.sum(residual))
    return value, np.asarray(grad_w).ravel(), grad_b


def prior_only_model(y: np.ndarray, reg_c: float) -> LogisticModel:
    rate = float(np.mean(y))
    if rate <= 0.0:
        bias = -BIAS_CLIP
    elif rate >= 1.0:
        bias = BIAS_CLIP
    else:
        bias = float(np.clip(np.log(rate / (1.0 - rate)), -BIAS_CLIP, BIAS_CLIP))
    return LogisticModel(
        weights=np.zeros(0), bias=bias, reg_c=reg_c, converged=True, n_iter=0
    )


def train_logistic(
    X,
    y,
    reg_c: float = 1.0,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> LogisticModel:
    """Fit L2-regularized logistic regression by full-batch quasi-Newton.

    Accepts a scipy sparse matrix or a dense array. A constant target column
    short-circuits to the prior-only model.
    """
    if reg_c <= 0:
        raise TrainingError("reg_c must be positive")
    X = _as_matrix(X)
    _check_finite(X)
    y = _check_targets(y, X.shape[0])

    if y.min() == y.max():
        model = prior_only_model(y, reg_c)
        model.weights = np.zeros(X.shape[1])
        return model

    dim = X.shape[1]

    def fun(theta: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad_w, grad_b = logistic_objective(theta[:dim], theta[dim], X, y, reg_c)
        return value, np.concatenate([grad_w, [grad_b]])

    result = minimize(
        fun,
        x0=np.zeros(dim + 1),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "maxfun": 50 * max_iter, "gtol": tol, "ftol": 1e-16},
    )
    theta = result.x
    _, grad_w, grad_b = logistic_objective(theta[:dim], theta[dim], X, y, reg_c)
    grad_norm = max(np.max(np.abs(grad_w), initial=0.0), abs(grad_b))
    return LogisticModel(
        weights=theta[:dim],
        bias=float(theta[dim]),
        reg_c=reg_c,
        converged=bool(grad_norm <= tol),
        n_iter=int(result.nit),
    )


def predict_proba_matrix(model: LogisticModel, X) -> np.ndarray:
    X = _as_matrix(X)
    if X.shape[1] != model.weights.size:
        raise TrainingError(
            f"feature dimension {X.shape[1]} does not match weights "
            f"{model.weights.size}"
        )
    z = np.asarray(X @ model.weights).ravel() + model.bias
    return expit(z)


# ---------------------------------------------------------------------------
# Multinomial naive Bayes (binary, add-one smoothing, raw counts)


def train_naive_bayes(X, y) -> NaiveBayesModel:
    X = _as_matrix(X)
    _check_finite(X)
    y = _check_targets(y, X.shape[0])
    if np.any((X.data if sp.issparse(X) else X) < 0):
        raise TrainingError("naive Bayes requires non-negative counts")

    dim = X.shape[1]
    if y.min() == y.max():
        rate = float(np.mean(y))
        return NaiveBayesModel(
            log_prior=np.zeros(2),
            log_likelihood=np.zeros((2, dim)),
            constant_p=float(expit(BIAS_CLIP if rate >= 1.0 else -BIAS_CLIP)),
        )

    log_likelihood = np.zeros((2, dim))
    log_prior = np.zeros(2)
    for cls in (0, 1):
        rows = y == cls
        counts = np.asarray(X[rows].sum(axis=0)).ravel()
        smoothed = counts + 1.0
        log_likelihood[cls] = np.log(smoothed / smoothed.sum())
        log_prior[cls] = np.log(float(np.sum(rows)) / y.size)
    return NaiveBayesModel(log_prior=log_prior, log_likelihood=log_likelihood)


def naive_bayes_proba_matrix(model: NaiveBayesModel, X) -> np.ndarray:
    X = _as_matrix(X)
    if model.constant_p is not None:
        return np.full(X.shape[0], model.constant_p)
    joint = np.column_stack(
        [
            np.asarray(X @ model.log_likelihood[cls]).ravel() + model.log_prior[cls]
            for cls in (0, 1)
        ]
    )
    # Normalizing over the two classes keeps each (example, label) pair's
    # posterior mass summing to one.
    return np.exp(joint[:, 1] - logsumexp(joint, axis=1))


# ---------------------------------------------------------------------------
# One-vs-rest wrapper

BACKENDS = ("logistic", "naive_bayes")


@dataclass
class OneVsRestModel:
    labels: tuple[str, ...]
    backend: str
    models: list = field(default_factory=list)
    reg_c: float = 1.0

    def __post_init__(self) -> None:
        self.labels = tuple(self.labels)
        if self.backend not in BACKENDS:
            raise TrainingError(f"unknown backend {self.backend!r}")


def train_ovr(
    X,
    Y: np.ndarray,
    labels: Sequence[str],
    backend: str = "logistic",
    reg_c: float = 1.0,
) -> OneVsRestModel:
    """One binary model per label column, trained independently."""
    X = _as_matrix(X)
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape != (X.shape[0], len(labels)):
        raise TrainingError(
            f"label matrix shape {Y.shape} does not match "
            f"({X.shape[0]}, {len(labels)})"
        )
    if backend == "logistic":
        fit = lambda j: train_logistic(X, Y[:, j], reg_c=reg_c)
    elif backend == "naive_bayes":
        fit = lambda j: train_naive_bayes(X, Y[:, j])
    else:
        raise TrainingError(f"unknown backend {backend!r}")
    models = [fit(j) for j in range(len(labels))]
    return OneVsRestModel(labels=tuple(labels), backend=backend, models=models, reg_c=reg_c)


def ovr_proba_matrix(model: OneVsRestModel, X) -> np.ndarray:
    """Per-label probabilities, shape (n_examples, n_labels)."""
    if model.backend == "logistic":
        columns = [predict_proba_matrix(m, X) for m in model.models]
    else:
        columns = [naive_bayes_proba_matrix(m, X) for m in model.models]
    if not columns:
        return np.zeros((_as_matrix(X).shape[0], 0))
    return np.column_stack(columns)
