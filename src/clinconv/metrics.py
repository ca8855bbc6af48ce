"""Multilabel evaluation: accuracy, F1, rank AUC, and precision-at-1.

Conventions used throughout:

* accuracy is the mean agreement over all (example, label) cells, not
  subset accuracy;
* precision/recall/F1 treat 0/0 as 0;
* AUC is the pairwise ranking probability with ties earning half credit
  (midrank formula); a label with no positives or no negatives gets AUC 0.5
  and is flagged, and macro-AUC averages only the unflagged labels;
* precision-at-1 takes each example's highest-scoring label (ties break to
  the lowest label index), and CP@1 is each label's share of the correct
  top-1 hits.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

METRIC_NAMES = (
    "accuracy",
    "macro_f1",
    "micro_f1",
    "macro_auc",
    "micro_auc",
    "p_at_1",
)


def binarize(scores: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """1 where score >= threshold."""
    return (np.asarray(scores) >= threshold).astype(np.uint8)


def cell_accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    pred, truth = _check_pair(pred, truth)
    if pred.size == 0:
        return 0.0
    return float(np.mean(pred == truth))


@dataclass
class F1Report:
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_f1: float
    micro_precision: float
    micro_recall: float
    micro_f1: float


def _prf(tp: float, fp: float, fn: float) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def f1_scores(pred: np.ndarray, truth: np.ndarray) -> F1Report:
    pred, truth = _check_pair(pred, truth)
    n_labels = pred.shape[1]
    tp = np.sum((pred == 1) & (truth == 1), axis=0).astype(float)
    fp = np.sum((pred == 1) & (truth == 0), axis=0).astype(float)
    fn = np.sum((pred == 0) & (truth == 1), axis=0).astype(float)
    per = [_prf(tp[j], fp[j], fn[j]) for j in range(n_labels)]
    precision = np.array([p for p, _, _ in per])
    recall = np.array([r for _, r, _ in per])
    f1 = np.array([f for _, _, f in per])
    micro_p, micro_r, micro_f = _prf(float(tp.sum()), float(fp.sum()), float(fn.sum()))
    return F1Report(
        precision=precision,
        recall=recall,
        f1=f1,
        macro_f1=float(np.mean(f1)) if n_labels else 0.0,
        micro_precision=micro_p,
        micro_recall=micro_r,
        micro_f1=micro_f,
    )


@dataclass
class AucReport:
    auc: np.ndarray  # per-label; 0.5 where degenerate
    valid: np.ndarray  # bool; False where a label lacks positives or negatives
    macro_auc: float  # mean over valid labels only
    micro_auc: float
    micro_valid: bool


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share the mean of their ranks.

    The values at sorted positions ``start`` to ``end - 1`` that tie all get
    ``(start + end + 1) / 2``, an exact half-integer.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def rank_auc(scores: np.ndarray, truth: np.ndarray) -> tuple[float, bool]:
    """Midrank AUC for one binary column. Returns (auc, had_both_classes)."""
    scores = np.asarray(scores, dtype=float).ravel()
    truth = np.asarray(truth).ravel()
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores contain non-finite values")
    n_pos = int(np.sum(truth == 1))
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5, False
    ranks = midranks(scores)
    pos_rank_sum = float(np.sum(ranks[truth == 1]))
    auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(auc), True


def auc_scores(scores: np.ndarray, truth: np.ndarray) -> AucReport:
    scores, truth = _check_pair(scores, truth, binary_pred=False)
    n_labels = scores.shape[1]
    auc = np.empty(n_labels)
    valid = np.empty(n_labels, dtype=bool)
    for j in range(n_labels):
        auc[j], valid[j] = rank_auc(scores[:, j], truth[:, j])
    macro = float(np.mean(auc[valid])) if valid.any() else 0.5
    micro, micro_valid = rank_auc(scores.ravel(), truth.ravel())
    return AucReport(auc=auc, valid=valid, macro_auc=macro, micro_auc=micro, micro_valid=micro_valid)


@dataclass
class PrecisionAtOne:
    p_at_1: float
    max_achievable: float  # fraction of examples with any positive label
    contributions: np.ndarray  # per-label share of correct top-1 hits
    top_counts: np.ndarray  # how often each label was ranked first


def precision_at_1(scores: np.ndarray, truth: np.ndarray) -> PrecisionAtOne:
    scores, truth = _check_pair(scores, truth, binary_pred=False)
    n, n_labels = scores.shape
    if n == 0 or n_labels == 0:
        return PrecisionAtOne(0.0, 0.0, np.zeros(n_labels), np.zeros(n_labels, dtype=int))
    top = np.argmax(scores, axis=1)  # first maximum = lowest label index on ties
    correct = truth[np.arange(n), top] == 1
    top_counts = np.bincount(top, minlength=n_labels)
    correct_counts = np.bincount(top[correct], minlength=n_labels).astype(float)
    total_correct = correct_counts.sum()
    contributions = (
        correct_counts / total_correct if total_correct > 0 else np.zeros(n_labels)
    )
    return PrecisionAtOne(
        p_at_1=float(np.mean(correct)),
        max_achievable=float(np.mean(truth.max(axis=1) == 1)),
        contributions=contributions,
        top_counts=top_counts,
    )


def _check_pair(
    pred: np.ndarray, truth: np.ndarray, binary_pred: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth)
    if pred.ndim == 1:
        pred = pred[:, None]
    if truth.ndim == 1:
        truth = truth[:, None]
    if pred.shape != truth.shape:
        raise ValidationError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.size and not np.all(np.isfinite(pred)):
        raise ValidationError("scores contain non-finite values")
    if truth.size and not np.all((truth == 0) | (truth == 1)):
        raise ValidationError("truth must be 0/1")
    if binary_pred and pred.size and not np.all((pred == 0) | (pred == 1)):
        raise ValidationError("predictions must be 0/1; binarize scores first")
    return pred, truth.astype(np.uint8)


# ---------------------------------------------------------------------------
# Combined report


@dataclass
class EvalReport:
    task: str
    n_examples: int
    threshold: float
    aggregate: dict[str, float]
    per_label: dict[str, dict[str, float]]
    degenerate_labels: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "task": self.task,
                "n_examples": self.n_examples,
                "threshold": self.threshold,
                "aggregate": self.aggregate,
                "per_label": self.per_label,
                "degenerate_labels": self.degenerate_labels,
            },
            indent=2,
            sort_keys=False,
        )

    def to_markdown(self) -> str:
        lines = [
            f"Task: {self.task or '(unnamed)'} | examples: {self.n_examples} "
            f"| threshold: {self.threshold:g}",
            "",
            markdown_table({"model": self.aggregate}, list(self.aggregate)),
            "",
            markdown_table(
                self.per_label,
                ["prevalence", "precision", "recall", "f1", "auc", "accuracy", "cp_at_1"],
                first_column="label",
            ),
        ]
        if self.degenerate_labels:
            lines.append("")
            lines.append(
                "Degenerate labels (single class; AUC pinned at 0.5 and excluded "
                "from macro-AUC): " + ", ".join(self.degenerate_labels)
            )
        return "\n".join(lines)


def evaluate_matrix(
    scores: np.ndarray,
    truth: np.ndarray,
    labels: Sequence[str],
    threshold: float = 0.5,
    task: str = "",
) -> EvalReport:
    """Full evaluation of a probability matrix against a binary truth matrix."""
    scores, truth = _check_pair(scores, truth, binary_pred=False)
    if scores.shape[1] != len(labels):
        raise ValidationError(
            f"{scores.shape[1]} score columns but {len(labels)} labels"
        )
    pred = binarize(scores, threshold)
    f1 = f1_scores(pred, truth)
    auc = auc_scores(scores, truth)
    p1 = precision_at_1(scores, truth)
    prevalence = truth.mean(axis=0) if truth.size else np.zeros(len(labels))
    aggregate = {
        "accuracy": cell_accuracy(pred, truth),
        "macro_f1": f1.macro_f1,
        "micro_f1": f1.micro_f1,
        "macro_auc": auc.macro_auc,
        "micro_auc": auc.micro_auc,
        "p_at_1": p1.p_at_1,
        "max_p_at_1": p1.max_achievable,
    }
    per_label = {}
    for j, label in enumerate(labels):
        per_label[label] = {
            "prevalence": float(prevalence[j]),
            "precision": float(f1.precision[j]),
            "recall": float(f1.recall[j]),
            "f1": float(f1.f1[j]),
            "auc": float(auc.auc[j]),
            "accuracy": float(np.mean(pred[:, j] == truth[:, j])) if truth.size else 0.0,
            "cp_at_1": float(p1.contributions[j]),
        }
    return EvalReport(
        task=task,
        n_examples=truth.shape[0],
        threshold=threshold,
        aggregate=aggregate,
        per_label=per_label,
        degenerate_labels=[label for j, label in enumerate(labels) if not auc.valid[j]],
    )


def markdown_table(
    rows: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    first_column: str = "model",
) -> str:
    """Render name -> {metric: value} mappings as a GitHub-style table."""
    header = f"| {first_column} | " + " | ".join(columns) + " |"
    rule = "|" + "---|" * (len(columns) + 1)
    lines = [header, rule]
    for name, cells in rows.items():
        rendered = [
            f"{cells[c]:.4f}" if isinstance(cells.get(c), (int, float)) else "-"
            for c in columns
        ]
        lines.append(f"| {name} | " + " | ".join(rendered) + " |")
    return "\n".join(lines)
