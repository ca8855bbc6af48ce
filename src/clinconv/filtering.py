"""Noteworthy-utterance selection strategies.

An utterance is noteworthy when it is cited as evidence for a note entry
(optionally restricted to entries relevant to one prediction task). The
learned filter is a logistic model over utterance-level TF-IDF features.

Strategy strings:

``none``
    keep every utterance.
``umls``
    keep utterances with a concept hit (task-routed when a task map is
    supplied).
``pred:<scope>[@<threshold>]``
    keep utterances the trained filter scores at or above the threshold
    (scope defaults: all 0.4, diagnosis 0.1, ros 0.02).
``union:umls+pred:<scope>[@<threshold>]``
    union of the two selections.
``f2k:umls+pred:<scope>[@K=<k>]``
    all concept-hit utterances, topped up with the highest-probability
    remaining utterances until K are selected (K defaults: all 50,
    diagnosis 15, ros 20). Concept hits are never dropped, even past K.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from pathlib import Path

from .annotations import SoapNote, noteworthy_targets
from .concepts import ConceptLexicon, TaskMap, umls_noteworthy
from .errors import ConfigError, ParseError, TrainingError
from .jsonio import iter_jsonl, json_loads, write_jsonl
from .features import (
    Vocabulary,
    fit_vocabulary,
    tfidf_transform,
    tokenize,
    vocabulary_from_record,
    vocabulary_to_record,
)
from .linear import LogisticModel, predict_proba_matrix, train_logistic
from .transcripts import Transcript

SCOPES = ("all", "diagnosis", "ros")
STRATEGY_KINDS = ("none", "umls", "predicted", "union", "fill_to_k")

DEFAULT_THRESHOLDS = {"all": 0.4, "diagnosis": 0.1, "ros": 0.02}
DEFAULT_FILL_K = {"all": 50, "diagnosis": 15, "ros": 20}

_PRED = re.compile(r"^pred:(?P<scope>[a-z]+)(?:@(?P<threshold>[0-9.eE+-]+))?$")
_UNION = re.compile(r"^union:umls\+pred:(?P<scope>[a-z]+)(?:@(?P<threshold>[0-9.eE+-]+))?$")
_F2K = re.compile(r"^f2k:umls\+pred:(?P<scope>[a-z]+)(?:@K=(?P<k>\d+))?$")


@dataclass(frozen=True)
class FilterStrategy:
    kind: str
    scope: str | None = None
    threshold: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        if self.kind in ("predicted", "union", "fill_to_k"):
            if self.scope not in SCOPES:
                raise ConfigError(
                    f"strategy {self.kind} needs a scope in {SCOPES}, got {self.scope!r}"
                )
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0, 1]")
        if self.k is not None and self.k < 1:
            raise ConfigError(f"K must be a positive integer, got {self.k}")

    @property
    def needs_model(self) -> bool:
        return self.kind in ("predicted", "union", "fill_to_k")

    @property
    def needs_lexicon(self) -> bool:
        return self.kind in ("umls", "union", "fill_to_k")


def parse_strategy(text: str) -> FilterStrategy:
    text = text.strip()
    if text == "none":
        return FilterStrategy(kind="none")
    if text == "umls":
        return FilterStrategy(kind="umls")
    match = _PRED.match(text)
    if match:
        return FilterStrategy(
            kind="predicted",
            scope=match["scope"],
            threshold=float(match["threshold"]) if match["threshold"] else None,
        )
    match = _UNION.match(text)
    if match:
        return FilterStrategy(
            kind="union",
            scope=match["scope"],
            threshold=float(match["threshold"]) if match["threshold"] else None,
        )
    match = _F2K.match(text)
    if match:
        scope = match["scope"]
        k = int(match["k"]) if match["k"] else DEFAULT_FILL_K.get(scope)
        return FilterStrategy(kind="fill_to_k", scope=scope, k=k)
    raise ConfigError(f"cannot parse strategy {text!r}")


def format_strategy(strategy: FilterStrategy) -> str:
    if strategy.kind == "none":
        return "none"
    if strategy.kind == "umls":
        return "umls"
    if strategy.kind == "predicted":
        suffix = f"@{strategy.threshold:g}" if strategy.threshold is not None else ""
        return f"pred:{strategy.scope}{suffix}"
    if strategy.kind == "union":
        suffix = f"@{strategy.threshold:g}" if strategy.threshold is not None else ""
        return f"union:umls+pred:{strategy.scope}{suffix}"
    return f"f2k:umls+pred:{strategy.scope}@K={strategy.k}"


# ---------------------------------------------------------------------------
# Learned filter


@dataclass
class FilterModel:
    scope: str
    vocab: Vocabulary
    model: LogisticModel
    threshold: float
    include_speaker: bool = False


def utterance_tokens(transcript: Transcript, include_speaker: bool = False) -> list[list[str]]:
    docs = []
    for utterance in transcript.utterances:
        tokens = tokenize(utterance.text)
        if include_speaker:
            tokens = [f"spk{utterance.speaker}", *tokens]
        docs.append(tokens)
    return docs


def train_filter(
    corpus: Sequence[tuple[Transcript, SoapNote]],
    scope: str,
    labels: Iterable[str] | None = None,
    merge_map: Mapping[str, str] | None = None,
    threshold: float | None = None,
    reg_c: float = 1.0,
    min_df: int = 1,
    include_speaker: bool = False,
) -> FilterModel:
    """Train the utterance-level noteworthiness classifier.

    Every utterance in the corpus becomes one training example; the target is
    whether it is cited as evidence under the given scope.
    """
    if scope not in SCOPES:
        raise ConfigError(f"unknown filter scope {scope!r}")
    if not corpus:
        raise TrainingError("cannot train a filter on an empty corpus")
    docs: list[list[str]] = []
    targets: list[int] = []
    for transcript, note in corpus:
        docs.extend(utterance_tokens(transcript, include_speaker))
        targets.extend(
            noteworthy_targets(transcript, note, scope, labels, merge_map).tolist()
        )
    vocab = fit_vocabulary(docs, min_df=min_df)
    X = tfidf_transform(vocab, docs)
    model = train_logistic(X, np.asarray(targets, dtype=float), reg_c=reg_c)
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS[scope]
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold {threshold} outside [0, 1]")
    return FilterModel(
        scope=scope,
        vocab=vocab,
        model=model,
        threshold=threshold,
        include_speaker=include_speaker,
    )


def utterance_probabilities(fm: FilterModel, transcript: Transcript) -> np.ndarray:
    docs = utterance_tokens(transcript, fm.include_speaker)
    return predict_proba_matrix(fm.model, tfidf_transform(fm.vocab, docs))


def filter_to_record(fm: FilterModel) -> dict:
    return {
        "scope": fm.scope,
        "threshold": fm.threshold,
        "include_speaker": fm.include_speaker,
        "vocab": vocabulary_to_record(fm.vocab),
        "weights": fm.model.weights.tolist(),
        "bias": fm.model.bias,
        "reg_c": fm.model.reg_c,
        "converged": fm.model.converged,
    }


def filter_from_record(record: dict) -> FilterModel:
    vocab = vocabulary_from_record(record["vocab"])
    model = LogisticModel(
        weights=np.asarray(record["weights"], dtype=float),
        bias=float(record["bias"]),
        reg_c=float(record.get("reg_c", 1.0)),
        converged=bool(record.get("converged", True)),
    )
    if model.weights.size != len(vocab):
        raise ConfigError(
            f"filter weights ({model.weights.size}) do not match vocabulary "
            f"({len(vocab)} terms)"
        )
    return FilterModel(
        scope=record["scope"],
        vocab=vocab,
        model=model,
        threshold=float(record["threshold"]),
        include_speaker=bool(record.get("include_speaker", False)),
    )


def load_filter(path: str | Path) -> FilterModel:
    with open(path, "r", encoding="utf-8") as handle:
        return filter_from_record(json_loads(handle.read()))


# ---------------------------------------------------------------------------
# Selection


def fill_to_k(umls_indices: Iterable[int], probs: np.ndarray, k: int) -> list[int]:
    """Concept-hit indices topped up to K by descending predicted probability.

    All concept-hit indices are kept even when they already exceed K. The
    remaining utterances are added best-first (probability ties break toward
    the lower index) until K are selected or none remain.
    """
    if k < 1:
        raise ConfigError(f"K must be a positive integer, got {k}")
    probs = np.asarray(probs, dtype=float)
    base = sorted(set(int(i) for i in umls_indices))
    if any(i < 0 or i >= probs.size for i in base):
        raise ConfigError("concept-hit index outside the transcript")
    if len(base) >= k:
        return base
    chosen = set(base)
    candidates = sorted(
        (i for i in range(probs.size) if i not in chosen),
        key=lambda i: (-probs[i], i),
    )
    for index in candidates:
        if len(chosen) >= k:
            break
        chosen.add(index)
    return sorted(chosen)


def apply_filter(
    strategy: FilterStrategy,
    transcript: Transcript,
    filter_model: FilterModel | None = None,
    lexicon: ConceptLexicon | None = None,
    task_map: TaskMap | None = None,
) -> list[int]:
    """Selected utterance indices, ascending and duplicate-free."""
    n = len(transcript.utterances)
    if strategy.kind == "none":
        return list(range(n))
    if strategy.needs_lexicon and lexicon is None:
        raise ConfigError(f"strategy {format_strategy(strategy)} needs a concept lexicon")
    if strategy.needs_model:
        if filter_model is None:
            raise ConfigError(f"strategy {format_strategy(strategy)} needs a trained filter")
        if strategy.scope != filter_model.scope:
            raise ConfigError(
                f"strategy scope {strategy.scope!r} does not match filter scope "
                f"{filter_model.scope!r}"
            )

    if strategy.kind == "umls":
        return umls_noteworthy(lexicon, transcript, task_map)

    probs = utterance_probabilities(filter_model, transcript)
    threshold = (
        strategy.threshold if strategy.threshold is not None else filter_model.threshold
    )
    if strategy.kind == "predicted":
        return np.flatnonzero(probs >= threshold).tolist()
    if strategy.kind == "union":
        predicted = set(np.flatnonzero(probs >= threshold).tolist())
        hits = set(umls_noteworthy(lexicon, transcript, task_map))
        return sorted(predicted | hits)
    # fill_to_k
    hits = umls_noteworthy(lexicon, transcript, task_map)
    return fill_to_k(hits, probs, strategy.k)


# ---------------------------------------------------------------------------
# Threshold sweep


def save_indices(path: str | Path, rows: Sequence[tuple[str, Sequence[int]]]) -> None:
    """Write per-transcript selections as JSONL {"id", "indices"} rows."""
    write_jsonl(
        path, ({"id": tid, "indices": [int(i) for i in idx]} for tid, idx in rows)
    )


def load_indices(path: str | Path) -> dict[str, list[int]]:
    selections: dict[str, list[int]] = {}
    for line_number, record in iter_jsonl(path):
        if not isinstance(record, dict) or "id" not in record or "indices" not in record:
            raise ParseError("indices row needs 'id' and 'indices'", line_number)
        if record["id"] in selections:
            raise ParseError(f"duplicate transcript id {record['id']!r}", line_number)
        selections[record["id"]] = [int(i) for i in record["indices"]]
    return selections


@dataclass
class SweepPoint:
    threshold: float
    mean_selected: float
    metrics: dict[str, float] = field(default_factory=dict)


def threshold_sweep(
    fm: FilterModel,
    transcripts: Sequence[Transcript],
    evaluate: Callable[[list[list[int]]], Mapping[str, float]],
    grid: Sequence[float],
) -> list[SweepPoint]:
    """Evaluate downstream quality while varying the selection threshold.

    ``evaluate`` receives the per-transcript selected indices (positionally
    aligned with ``transcripts``) and returns metric values. Probabilities are
    computed once and re-thresholded per grid point.
    """
    if not grid:
        raise ConfigError("sweep grid must be non-empty")
    for threshold in grid:
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(f"sweep threshold {threshold} outside [0, 1]")
    probabilities = [utterance_probabilities(fm, t) for t in transcripts]
    points = []
    for threshold in sorted(grid):
        selected = [np.flatnonzero(p >= threshold).tolist() for p in probabilities]
        mean_selected = (
            float(np.mean([len(s) for s in selected])) if selected else 0.0
        )
        points.append(
            SweepPoint(
                threshold=float(threshold),
                mean_selected=mean_selected,
                metrics=dict(evaluate(selected)),
            )
        )
    return points
