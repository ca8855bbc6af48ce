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
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import pairwise
from pathlib import Path

import numpy as np

from .annotations import SoapNote, noteworthy_targets
from .concepts import ConceptLexicon, TaskMap, table_hits
from .errors import ConfigError, TrainingError, ValidationError
from .jsonio import Fields, as_fields, build, read_json, read_jsonl, write_jsonl
from .features import (
    Block,
    Table,
    Vocabulary,
    blocks,
    fit_rows,
    read_vocabulary,
    tokenize_table,
    transform_rows,
    vocabulary_entries,
)
from .linear import (
    LogisticModel,
    logistic_from_record,
    logistic_to_record,
    predict_proba_matrix,
    train_logistic,
)
from .transcripts import Transcript

SCOPES = ("all", "diagnosis", "ros")
# Each kind of strategy, with the optional fields it reads; it leaves the others None.
STRATEGY_FIELDS = {
    "none": (),
    "umls": (),
    "predicted": ("scope", "threshold"),
    "union": ("scope", "threshold"),
    "fill_to_k": ("scope", "k"),
}

DEFAULT_THRESHOLDS = {"all": 0.4, "diagnosis": 0.1, "ros": 0.02}
DEFAULT_FILL_K = {"all": 50, "diagnosis": 15, "ros": 20}

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_PRED = re.compile(rf"^pred:(?P<scope>[a-z]+)(?:@(?P<threshold>{_NUMBER}))?$")
_UNION = re.compile(rf"^union:umls\+pred:(?P<scope>[a-z]+)(?:@(?P<threshold>{_NUMBER}))?$")
_F2K = re.compile(r"^f2k:umls\+pred:(?P<scope>[a-z]+)(?:@K=(?P<k>\d+))?$")
_FIELD_TYPES = {"scope": str, "threshold": float, "k": int}


@dataclass(frozen=True)
class FilterStrategy:
    kind: str
    scope: str | None = None
    threshold: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_FIELDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        given = {name for name in ("scope", "threshold", "k") if getattr(self, name) is not None}
        unread = ", ".join(sorted(given.difference(STRATEGY_FIELDS[self.kind])))
        if unread:
            raise ConfigError(f"strategy {self.kind} does not read {unread}")
        if self.needs_model and self.scope not in SCOPES:
            raise ConfigError(
                f"strategy {self.kind} needs a scope in {SCOPES}, got {self.scope!r}"
            )
        if self.kind == "fill_to_k" and self.k is None:
            object.__setattr__(self, "k", DEFAULT_FILL_K[self.scope])
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
    if text in ("none", "umls"):
        return FilterStrategy(kind=text)
    for kind, pattern in (("predicted", _PRED), ("union", _UNION), ("fill_to_k", _F2K)):
        match = pattern.match(text)
        if match:
            fields = {n: _FIELD_TYPES[n](v) for n, v in match.groupdict().items() if v}
            return FilterStrategy(kind, **fields)
    raise ConfigError(f"cannot parse strategy {text!r}")


def format_strategy(strategy: FilterStrategy) -> str:
    if strategy.kind in ("none", "umls"):
        return strategy.kind
    if strategy.kind == "fill_to_k":
        return f"f2k:umls+pred:{strategy.scope}@K={strategy.k}"
    prefix = "pred:" if strategy.kind == "predicted" else "union:umls+pred:"
    # repr is the shortest text that reads back as the same float.
    suffix = f"@{float(strategy.threshold)!r}" if strategy.threshold is not None else ""
    return f"{prefix}{strategy.scope}{suffix}"


# ---------------------------------------------------------------------------
# Learned filter


@dataclass
class FilterModel:
    scope: str
    vocab: Vocabulary
    model: LogisticModel
    threshold: float

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ConfigError(f"unknown filter scope {self.scope!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0, 1]")


def utterance_table(transcript: Transcript) -> Table:
    """The token table of a transcript's utterances."""
    return tokenize_table(transcript.texts)


def train_filter(
    corpus: Sequence[tuple[Transcript, SoapNote]],
    scope: str,
    labels: Iterable[str] | None = None,
    merge_map: Mapping[str, str] | None = None,
    threshold: float | None = None,
    reg_c: float = 1.0,
    min_df: int = 1,
) -> FilterModel:
    """Train the utterance-level noteworthiness classifier.

    Every utterance in the corpus becomes one training example; the target is
    whether it is cited as evidence under the given scope.
    """
    if scope not in SCOPES:
        raise ConfigError(f"unknown filter scope {scope!r}")
    if not corpus:
        raise TrainingError("cannot train a filter on an empty corpus")
    targets = np.concatenate(
        [noteworthy_targets(t, note, scope, labels, merge_map) for t, note in corpus]
    )
    # Tokenized as the fit reads them, so no token list outlives its block.
    transcripts = (transcript for transcript, _ in corpus)
    rows = map(Block.utterance_rows, blocks(map(utterance_table, transcripts)))
    vocab, X = fit_rows(rows, min_df=min_df)
    model = train_logistic(X, targets.astype(float), reg_c=reg_c)
    if threshold is None:
        threshold = DEFAULT_THRESHOLDS[scope]
    return FilterModel(scope=scope, vocab=vocab, model=model, threshold=threshold)


def _block_probabilities(fm: FilterModel, block: Block) -> np.ndarray:
    """The probability of each utterance of a block."""
    X = transform_rows(fm.vocab, [block.utterance_rows()])
    return predict_proba_matrix(fm.model, X)


def _probabilities(fm: FilterModel, transcripts: Iterable[Transcript]) -> Iterator[np.ndarray]:
    """:func:`utterance_probabilities` of each transcript, scored block by block."""
    return (
        probs
        for block in blocks(map(utterance_table, transcripts))
        for probs in np.split(_block_probabilities(fm, block), block.starts[1:-1])
    )


def utterance_probabilities(fm: FilterModel, transcript: Transcript) -> np.ndarray:
    return next(_probabilities(fm, [transcript]))


def filter_to_record(fm: FilterModel) -> dict:
    return {
        "scope": fm.scope,
        "threshold": fm.threshold,
        **vocabulary_entries(fm.vocab),
        **logistic_to_record(fm.model),
    }


def filter_from_record(record: dict | Fields) -> FilterModel:
    fields = as_fields(record, "filter", ConfigError)
    vocab = read_vocabulary(fields)
    return build(
        fields.source,
        FilterModel,
        scope=fields.get("scope", str),
        vocab=vocab,
        model=logistic_from_record(fields, width=len(vocab)),
        threshold=float(fields.get("threshold", float)),
    )


def load_filter(path: str | Path) -> FilterModel:
    return filter_from_record(read_json(path, ConfigError))


# ---------------------------------------------------------------------------
# Selection


def oracle_indices(
    pairs: Sequence[tuple[Transcript, SoapNote]],
    scope: str,
    labels: Iterable[str] | None = None,
    merge_map: Mapping[str, str] | None = None,
) -> dict[str, list[int]]:
    """Per transcript id, the utterances its note cites as evidence under
    ``scope``: the selection a learned filter chases."""
    return {
        transcript.id: np.flatnonzero(
            noteworthy_targets(transcript, note, scope, labels, merge_map)
        ).tolist()
        for transcript, note in pairs
    }


def fill_to_k(umls_indices: Iterable[int], probs: np.ndarray, k: int) -> list[int]:
    """Concept-hit indices topped up to K by descending predicted probability.

    All concept-hit indices are kept even when they already exceed K. The
    remaining utterances are added best-first (probability ties break toward
    the lower index) until K are selected or none remain.
    """
    if k < 1:
        raise ConfigError(f"K must be a positive integer, got {k}")
    probs = np.asarray(probs, dtype=float)
    base = [int(i) for i in umls_indices]
    if any(i < 0 or i >= probs.size for i in base):
        raise ConfigError("concept-hit index outside the transcript")
    hit = np.zeros(probs.size, dtype=bool)
    hit[base] = True
    return _fill_to_k(hit, probs, np.array([0, probs.size]), k).nonzero()[0].tolist()


def _fill_to_k(hit: np.ndarray, probs: np.ndarray, starts: np.ndarray, k: int) -> np.ndarray:
    """Per utterance of documents that own utterances ``starts[d]:starts[d + 1]``,
    whether :func:`fill_to_k` keeps it within its document."""
    # ndarray methods, unlike their numpy functions, run no Python frame.
    owner = np.arange(len(starts) - 1).repeat(starts[1:] - starts[:-1])
    index = np.arange(len(hit))
    # Per document, its hits, then the rest best-first and the lower index on
    # a tie: sorted position i holds rank i - starts[owner[i]] in its document.
    order = np.lexsort((index, -probs, ~hit, owner))
    kept = hit.copy()
    kept[order[index - starts[owner] < k]] = True
    return kept


def select_utterances(
    strategy: FilterStrategy,
    transcripts: Iterable[Transcript],
    filter_model: FilterModel | None = None,
    lexicon: ConceptLexicon | None = None,
    task_map: TaskMap | None = None,
) -> Iterator[list[int]]:
    """Per transcript, in order, the selected utterance indices, ascending
    and duplicate-free."""
    selected = select_blocks(strategy, transcripts, filter_model, lexicon, task_map)
    return (
        kept[start:end].nonzero()[0].tolist()
        for block, kept in selected
        for start, end in pairwise(block.starts.tolist())
    )


def select_blocks(
    strategy: FilterStrategy,
    transcripts: Iterable[Transcript],
    filter_model: FilterModel | None = None,
    lexicon: ConceptLexicon | None = None,
    task_map: TaskMap | None = None,
) -> Iterator[tuple[Block, np.ndarray]]:
    """Each block of whole transcripts (:func:`features.blocks`) with its
    selection: per utterance, a flag that the strategy keeps it. The filter
    scores a block with one transform, and each utterance is tokenized once,
    for the filter, the tagger and the caller."""
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
    return (
        (block, _select_block(strategy, block, filter_model, lexicon, task_map))
        for block in blocks(map(utterance_table, transcripts))
    )


def _select_block(
    strategy: FilterStrategy,
    block: Block,
    filter_model: FilterModel | None,
    lexicon: ConceptLexicon | None,
    task_map: TaskMap | None,
) -> np.ndarray:
    """Per utterance of a block, whether the strategy keeps it."""
    hit = np.zeros(len(block.lengths), dtype=bool)
    if strategy.kind == "none":
        return ~hit  # every utterance
    if strategy.needs_lexicon:
        hits = table_hits(lexicon, block.stream, block.lengths, task_map)
        hit[[index for index, _ in hits]] = True
    if not strategy.needs_model:  # umls
        return hit
    probs = _block_probabilities(filter_model, block)
    if strategy.kind == "fill_to_k":
        return _fill_to_k(hit, probs, block.starts, strategy.k)
    threshold = filter_model.threshold if strategy.threshold is None else strategy.threshold
    return (probs >= threshold) | hit  # predicted, where no hit is set, or union


def apply_filter(
    strategy: FilterStrategy,
    transcript: Transcript,
    filter_model: FilterModel | None = None,
    lexicon: ConceptLexicon | None = None,
    task_map: TaskMap | None = None,
) -> list[int]:
    """Selected utterance indices, ascending and duplicate-free: the
    selection of :func:`select_utterances` for one transcript."""
    [indices] = select_utterances(strategy, [transcript], filter_model, lexicon, task_map)
    return indices


# ---------------------------------------------------------------------------
# Threshold sweep


def save_indices(path: str | Path, rows: Sequence[tuple[str, Sequence[int]]]) -> None:
    """Write per-transcript selections as JSONL {"id", "indices"} rows."""
    write_jsonl(
        path, ({"id": tid, "indices": [int(i) for i in idx]} for tid, idx in rows)
    )


def load_indices(path: str | Path, sizes: Mapping[str, int]) -> dict[str, list[int]]:
    """Per-transcript selections, each ascending and duplicate-free as
    :func:`save_indices` writes them; any other order is an error.

    ``sizes`` maps transcript ids to their numbers of utterances; an index
    past the end of a transcript it names is an error too.
    """
    selections: dict[str, list[int]] = {}
    for row in read_jsonl(path):
        transcript_id = row.get("id", str)
        if transcript_id in selections:
            raise row.fail(f"duplicate transcript id {transcript_id!r}")
        indices = row.array("indices", (None,), int)
        if indices.size and indices[0] < 0:
            raise row.fail("indices must be non-negative")
        if np.any(np.diff(indices) <= 0):
            raise row.fail("indices must be ascending and distinct")
        n = sizes.get(transcript_id)
        if n is not None and indices.size and indices[-1] >= n:
            raise row.fail(
                f"index {int(indices[indices >= n][0])} outside transcript "
                f"{transcript_id!r} of {n} utterances",
                ValidationError,
            )
        selections[transcript_id] = indices.tolist()
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
    probabilities = list(_probabilities(fm, transcripts))
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
