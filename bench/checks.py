"""Output checks that do not rely on the program's own answers.

Each check returns a list of problems; an empty list means the output passed.
The AUC here is computed by counting pairs, independently of the package's
rank-based implementation, and is cross-checked against it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

ROW_TOLERANCE = 1e-12
AUC_TOLERANCE = 1e-12


def pairwise_auc(scores: Sequence[float], truth: Sequence[int]) -> float | None:
    """P(score of a positive > score of a negative), ties counting one half.

    Returns None when the column lacks positives or negatives.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    truth = np.asarray(truth).ravel()
    positives = scores[truth == 1]
    negatives = np.sort(scores[truth == 0])
    if positives.size == 0 or negatives.size == 0:
        return None
    below = np.searchsorted(negatives, positives, side="left")
    at_or_below = np.searchsorted(negatives, positives, side="right")
    wins = float(np.sum(below)) + 0.5 * float(np.sum(at_or_below - below))
    return wins / (positives.size * negatives.size)


def macro_auc(scores: np.ndarray, truth: np.ndarray) -> float:
    """Mean pairwise AUC over the label columns that hold both classes."""
    values = [pairwise_auc(scores[:, j], truth[:, j]) for j in range(truth.shape[1])]
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else 0.5


def check_scores(
    ids: Sequence[str],
    labels: Sequence[str],
    scores: np.ndarray,
    expected_ids: Sequence[str],
    expected_labels: Sequence[str],
) -> list[str]:
    """Scores are finite, lie in [0, 1], and keep the input id and label order."""
    problems = []
    scores = np.asarray(scores, dtype=float)
    if list(ids) != list(expected_ids):
        problems.append("score rows do not follow the input id order")
    if list(labels) != list(expected_labels):
        problems.append("score columns do not follow the label space order")
    if scores.shape != (len(expected_ids), len(expected_labels)):
        problems.append(f"score shape {scores.shape} is not {len(expected_ids)}x{len(expected_labels)}")
        return problems
    if not np.all(np.isfinite(scores)):
        problems.append("scores are not all finite")
    elif scores.size and (scores.min() < 0.0 or scores.max() > 1.0):
        problems.append(f"scores leave [0, 1]: min {scores.min()}, max {scores.max()}")
    return problems


def check_close(actual: np.ndarray, expected: np.ndarray, what: str) -> list[str]:
    """Element-wise agreement within ROW_TOLERANCE."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return [f"{what}: shape {actual.shape} differs from {expected.shape}"]
    if actual.size == 0:
        return []
    gap = float(np.max(np.abs(actual - expected)))
    if not gap <= ROW_TOLERANCE:
        return [f"{what}: largest difference {gap:.3g} exceeds {ROW_TOLERANCE:g}"]
    return []


def check_identical(actual: np.ndarray, expected: np.ndarray, what: str) -> list[str]:
    """Bit-identical arrays."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape or actual.tobytes() != expected.tobytes():
        return [f"{what}: not bit-identical"]
    return []


def check_auc_agrees(own: float, program: float) -> list[str]:
    if not abs(own - program) <= AUC_TOLERANCE:
        return [f"pairwise macro AUC {own!r} and clinconv.metrics {program!r} differ"]
    return []


def check_better_than_chance(value: float) -> list[str]:
    """0.5 is exactly what an input-agnostic scorer gets."""
    if not (math.isfinite(value) and value > 0.5):
        return [f"macro AUC {value!r} does not exceed the input-agnostic 0.5"]
    return []


def check_rows_vary(scores: np.ndarray) -> list[str]:
    """Some label column differs between visits: an input-agnostic scorer
    gives every visit the same row."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape[0] < 2 or np.all(scores == scores[:1]):
        return ["every visit has the same score row, as an input-agnostic scorer gives"]
    return []


def check_selection(indices: Sequence[int], n_utterances: int, k: int | None) -> list[str]:
    """Ascending, duplicate-free, in range, and at least min(K, n) long."""
    problems = []
    values = list(indices)
    if any(b <= a for a, b in zip(values, values[1:])):
        problems.append("selection is not strictly ascending")
    if values and (values[0] < 0 or values[-1] >= n_utterances):
        problems.append(f"selection index outside a transcript of {n_utterances} utterances")
    if k is not None and len(set(values)) < min(k, n_utterances):
        problems.append(f"selection holds {len(set(values))} of at least {min(k, n_utterances)}")
    return problems
