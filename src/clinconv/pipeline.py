"""End-to-end prediction pipelines and input-agnostic baselines.

A pipeline selects utterances with a filter strategy, featurizes the selected
text of each transcript as one TF-IDF row, and scores labels with one-vs-rest
logistic regression.

The input-agnostic baselines answer "how far do you get without reading the
conversation": per metric, the best constant predictor achievable from label
prevalences alone. These give the reference rows that any real model must
beat.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import starmap
from numbers import Integral
from pathlib import Path

import numpy as np

from .annotations import LabelMatrix, LabelSpace, space_from_record, space_to_record
from .concepts import (
    ConceptLexicon,
    TaskMap,
    build_lexicon,
    concept_to_record,
    parse_concepts,
    parse_task_map,
    task_map_to_record,
)
from .errors import ConfigError, ParseError, ValidationError
from .features import (
    Block,
    Rows,
    Table,
    Vocabulary,
    blocks,
    fit_rows,
    read_vocabulary,
    tokenize_table,
    transform_rows,
    vocabulary_entries,
)
from .filtering import (
    FilterModel,
    FilterStrategy,
    filter_from_record,
    filter_to_record,
    format_strategy,
    parse_strategy,
    select_blocks,
)
from .jsonio import atomic_write_text, build, read_json, read_jsonl, write_jsonl
from .linear import (
    OneVsRestModel,
    logistic_from_record,
    logistic_to_record,
    ovr_proba_matrix,
    train_ovr,
)
from .metrics import METRIC_NAMES, evaluate_matrix
from .transcripts import Transcript

@dataclass
class ScoreMatrix:
    example_ids: list[str]
    labels: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.labels = tuple(self.labels)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.example_ids), len(self.labels)):
            raise ValidationError(
                f"score matrix shape {self.scores.shape} does not match "
                f"{len(self.example_ids)} x {len(self.labels)}"
            )
        if self.scores.size:
            if not np.all(np.isfinite(self.scores)):
                raise ValidationError("scores must be finite")
            if self.scores.min() < 0.0 or self.scores.max() > 1.0:
                raise ValidationError("scores must lie in [0, 1]")


def save_scores(path: str | Path, matrix: ScoreMatrix) -> None:
    write_jsonl(
        path,
        (
            {
                "id": example_id,
                "scores": {
                    label: float(matrix.scores[i, j])
                    for j, label in enumerate(matrix.labels)
                },
            }
            for i, example_id in enumerate(matrix.example_ids)
        ),
    )


def load_scores(path: str | Path) -> ScoreMatrix:
    ids: list[str] = []
    rows: list[list[float]] = []
    seen: set[str] = set()
    labels: tuple[str, ...] | None = None
    for row in read_jsonl(path):
        example_id = row.get("id", str)
        scores = row.section("scores")
        if labels is None:
            labels = tuple(scores.record)
        elif set(scores.record) != set(labels):
            raise row.fail("score row labels differ from the first row", ValidationError)
        if example_id in seen:
            raise row.fail(f"duplicate id {example_id!r}")
        seen.add(example_id)
        ids.append(example_id)
        rows.append([float(scores.get(label, float)) for label in labels])
    if labels is None:
        raise ParseError(f"score file {path} is empty")
    return build(str(path), ScoreMatrix, example_ids=ids, labels=labels, scores=np.array(rows))


# ---------------------------------------------------------------------------
# Trainable pipeline


@dataclass
class PipelineConfig:
    task: str
    strategy: FilterStrategy = field(default_factory=lambda: FilterStrategy(kind="none"))
    reg_c: float = 1.0
    min_df: int = 2

    def __post_init__(self) -> None:
        if isinstance(self.strategy, str):
            self.strategy = parse_strategy(self.strategy)
        if self.reg_c <= 0:
            raise ConfigError("reg_c must be positive")
        if self.min_df < 1:
            raise ConfigError("min_df must be >= 1")


@dataclass
class TrainedPipeline:
    config: PipelineConfig
    space: LabelSpace
    ovr: OneVsRestModel
    vocab: Vocabulary
    filter_model: FilterModel | None = None
    lexicon: ConceptLexicon | None = None
    task_map: TaskMap | None = None


def _selected_rows(
    config: PipelineConfig,
    transcripts: Sequence[Transcript],
    filter_model: FilterModel | None,
    lexicon: ConceptLexicon | None,
    task_map: TaskMap | None,
    override: Mapping[str, Sequence[int]] | None,
) -> Iterator[Rows]:
    """Blocks of transcripts, each selected utterance on its transcript's
    row, made as they are read."""
    if override is None:
        selections = select_blocks(config.strategy, transcripts, filter_model, lexicon, task_map)
        return starmap(Block.document_rows, selections)
    tables = (_override_table(override, transcript) for transcript in transcripts)
    return map(Block.document_rows, blocks(tables))


def _override_table(override: Mapping[str, Sequence[int]], transcript: Transcript) -> Table:
    """The token table of a transcript's provided selection, checked against its length."""
    if transcript.id not in override:
        raise ConfigError(f"no provided indices for transcript {transcript.id!r}")
    n = len(transcript)
    provided = override[transcript.id]
    if not all(isinstance(i, Integral) and not isinstance(i, bool) for i in provided):
        raise ValidationError(f"provided indices for transcript {transcript.id!r} must be integers")
    indices = sorted(set(map(int, provided)))
    if indices and (indices[0] < 0 or indices[-1] >= n):
        raise ValidationError(
            f"filtered index outside transcript {transcript.id!r} of {n} utterances"
        )
    return tokenize_table(map(transcript.texts.__getitem__, indices))


def train_pipeline(
    config: PipelineConfig,
    transcripts: Sequence[Transcript],
    matrix: LabelMatrix,
    filter_model: FilterModel | None = None,
    lexicon: ConceptLexicon | None = None,
    task_map: TaskMap | None = None,
    indices_override: Mapping[str, Sequence[int]] | None = None,
) -> TrainedPipeline:
    """Filter, featurize, and fit the one-vs-rest model.

    ``indices_override`` (transcript id -> utterance indices) substitutes for
    the strategy; it is how oracle noteworthy selections are injected.
    """
    ids = [t.id for t in transcripts]
    if ids != list(matrix.example_ids):
        raise ConfigError("label matrix rows must align with the transcript order")
    rows = _selected_rows(config, transcripts, filter_model, lexicon, task_map, indices_override)
    vocab, X = fit_rows(rows, min_df=config.min_df)
    ovr = train_ovr(X, matrix.values, matrix.space.labels, reg_c=config.reg_c)
    return TrainedPipeline(
        config=config,
        space=matrix.space,
        ovr=ovr,
        vocab=vocab,
        filter_model=filter_model,
        lexicon=lexicon,
        task_map=task_map,
    )


def run_pipeline(
    pipeline: TrainedPipeline,
    transcripts: Sequence[Transcript],
    indices_override: Mapping[str, Sequence[int]] | None = None,
) -> ScoreMatrix:
    """Score transcripts with a trained pipeline.

    A transcript whose filter selects nothing is scored from the model bias
    alone (zero feature vector); that is expected behaviour, not an error.
    """
    rows = _selected_rows(
        pipeline.config,
        transcripts,
        pipeline.filter_model,
        pipeline.lexicon,
        pipeline.task_map,
        indices_override,
    )
    scores = ovr_proba_matrix(pipeline.ovr, transform_rows(pipeline.vocab, rows))
    return ScoreMatrix(
        example_ids=[t.id for t in transcripts],
        labels=pipeline.space.labels,
        scores=scores,
    )


# ---------------------------------------------------------------------------
# Pipeline serialization (single self-contained JSON artifact)


PIPELINE_FORMAT = "clinconv-pipeline-v2"

# The kind of each PipelineConfig field in a config record; the strategy is
# stored in its string form.
CONFIG_KINDS = {
    "task": str,
    "strategy": str,
    "reg_c": float,
    "min_df": int,
}


def save_pipeline(path: str | Path, pipeline: TrainedPipeline) -> None:
    config = pipeline.config
    record: dict = {
        "format": PIPELINE_FORMAT,
        "config": {
            **{name: getattr(config, name) for name in CONFIG_KINDS},
            "strategy": format_strategy(config.strategy),
        },
        "space": space_to_record(pipeline.space),
        "ovr": {
            "reg_c": pipeline.ovr.reg_c,
            "models": [logistic_to_record(m) for m in pipeline.ovr.models],
        },
        **vocabulary_entries(pipeline.vocab),
    }
    if pipeline.filter_model is not None:
        record["filter"] = filter_to_record(pipeline.filter_model)
    if pipeline.lexicon is not None:
        # A task map only routes concept hits, so it is saved with the lexicon:
        # null when hits were not routed, and never silently left out.
        record["lexicon"] = [concept_to_record(c) for c in pipeline.lexicon.concepts]
        task_map = pipeline.task_map
        record["task_map"] = task_map_to_record(task_map) if task_map is not None else None
    atomic_write_text(path, json.dumps(record) + "\n")


def load_pipeline(path: str | Path) -> TrainedPipeline:
    fields = read_json(path, ConfigError)
    found = fields.get("format", str)
    if found != PIPELINE_FORMAT:
        raise fields.fail(
            f"pipeline format {found!r} is not read by this version, which reads "
            f"{PIPELINE_FORMAT!r}; retrain it with 'clinconv train'"
        )
    config = build(fields.source, PipelineConfig, **fields.section("config").typed(CONFIG_KINDS))
    space = space_from_record(fields.section("space"))
    vocab = read_vocabulary(fields)
    # One head per label, each with a weight per vocabulary term.
    ovr_fields = fields.section("ovr")
    models = [logistic_from_record(m, len(vocab)) for m in ovr_fields.records("models")]
    if len(models) != len(space.labels):
        raise fields.fail(f"{len(models)} heads for {len(space.labels)} labels")
    ovr = OneVsRestModel(
        labels=space.labels, models=models, reg_c=float(ovr_fields.get("reg_c", float))
    )
    # A section the strategy needs is required; otherwise it is read if present.
    strategy = config.strategy
    filter_model = lexicon = task_map = None
    if strategy.needs_model or "filter" in fields:
        filter_model = filter_from_record(fields.section("filter"))
    if strategy.needs_lexicon or "lexicon" in fields:
        concepts = parse_concepts(fields, "lexicon")
        lexicon = build(fields.source, build_lexicon, concepts=concepts)
        if lexicon.concepts != concepts:
            raise fields.fail("'lexicon' does not hold a compiled lexicon")
        if fields.get("task_map", dict, null=True) is not None:
            task_map = parse_task_map(fields.section("task_map"))
    return TrainedPipeline(
        config=config,
        space=space,
        ovr=ovr,
        vocab=vocab,
        filter_model=filter_model,
        lexicon=lexicon,
        task_map=task_map,
    )


# ---------------------------------------------------------------------------
# Input-agnostic baselines


def micro_f1_optimal_prefix(prevalence: np.ndarray) -> list[int]:
    """Label indices of the prevalence-sorted prefix maximizing micro-F1.

    Predicting all-positive on a label set S yields micro-F1
    2*sum(p in S) / (|S| + sum(all p)); the optimum over subsets is always a
    prefix of the prevalence-descending order, found by scanning.
    """
    prevalence = np.asarray(prevalence, dtype=float)
    order = np.argsort(-prevalence, kind="stable")
    total = float(prevalence.sum())
    best_f1 = 0.0
    best_size = 0
    mass = 0.0
    for size, j in enumerate(order, start=1):
        mass += prevalence[j]
        f1 = 2.0 * mass / (size + total)
        if f1 > best_f1:
            best_f1 = f1
            best_size = size
    return sorted(int(j) for j in order[:best_size])


def _normalized_rank_scores(space: LabelSpace, rank_scores) -> np.ndarray:
    scores = (
        np.asarray(rank_scores, dtype=float)
        if rank_scores is not None
        else space.train_prevalence.astype(float)
    )
    if scores.shape != (len(space.labels),):
        raise ConfigError("rank scores length must match the label space")
    if scores.size and scores.min() < 0:
        raise ConfigError("rank scores must be non-negative")
    top = scores.max() if scores.size else 0.0
    # Positive rescaling preserves both order and ties, so AUC and P@1 are
    # unchanged while scores stay inside [0, 1].
    return scores / top if top > 0 else scores


def input_agnostic_predict(
    space: LabelSpace,
    metric: str,
    examples: int | Sequence[str],
    rank_scores: Sequence[float] | None = None,
) -> ScoreMatrix:
    """The best label-prevalence-only predictor for one target metric.

    accuracy: per-label majority class. macro_f1: all-positive. micro_f1:
    all-positive on the optimal prevalence prefix. AUC and p_at_1 metrics:
    constant per-label scores (train prevalence unless ``rank_scores``
    overrides the ranking, e.g. with training-set frequencies).
    """
    if metric not in METRIC_NAMES:
        raise ConfigError(f"unknown baseline metric {metric!r}")
    ids = (
        [f"ex{i:05d}" for i in range(examples)]
        if isinstance(examples, int)
        else [str(i) for i in examples]
    )
    n = len(ids)
    n_labels = len(space.labels)
    prevalence = space.train_prevalence
    if metric == "accuracy":
        row = (prevalence > 0.5).astype(float)
    elif metric == "macro_f1":
        row = np.ones(n_labels)
    elif metric == "micro_f1":
        row = np.zeros(n_labels)
        row[micro_f1_optimal_prefix(prevalence)] = 1.0
    else:
        row = _normalized_rank_scores(space, rank_scores)
    return ScoreMatrix(
        example_ids=ids, labels=space.labels, scores=np.tile(row, (n, 1))
    )


def prevalence_truth_matrix(
    space: LabelSpace, n_examples: int, ids: Sequence[str] | None = None
) -> LabelMatrix:
    """Deterministic truth matrix whose per-label counts match the prevalences.

    Each label's positive count is round(prevalence * n); positives fill the
    first rows, which is immaterial for the prevalence-only baselines (their
    metrics depend only on per-label counts).
    """
    if ids is None:
        ids = [f"ex{i:05d}" for i in range(n_examples)]
    values = np.zeros((n_examples, len(space.labels)), dtype=np.uint8)
    counts = np.rint(space.train_prevalence * n_examples).astype(int)
    for j, count in enumerate(counts):
        values[: min(count, n_examples), j] = 1
    return LabelMatrix(space=space, example_ids=list(ids), values=values)


def input_agnostic_row(
    space: LabelSpace,
    truth: LabelMatrix,
    rank_scores: Sequence[float] | None = None,
) -> dict[str, float]:
    """Evaluate each metric's own input-agnostic predictor against a truth matrix."""
    if tuple(truth.space.labels) != tuple(space.labels):
        raise ConfigError("truth matrix labels do not match the space")
    row: dict[str, float] = {}
    for metric in METRIC_NAMES:
        predicted = input_agnostic_predict(space, metric, truth.example_ids, rank_scores)
        report = evaluate_matrix(predicted.scores, truth.values, space.labels)
        row[metric] = report.aggregate[metric]
    return row


def expected_input_agnostic_row(
    prevalence: Sequence[float], rank_scores: Sequence[float] | None = None
) -> dict[str, float]:
    """Closed-form large-sample values of the input-agnostic row.

    accuracy = mean(max(p, 1-p)); macro-F1 = mean(2p/(1+p)); micro-F1 from
    the prefix scan; macro-AUC = 0.5 exactly; micro-AUC from the pairwise
    formula over constant scores; P@1 = prevalence of the top-ranked label.
    """
    p = np.asarray(prevalence, dtype=float)
    if p.size == 0:
        raise ConfigError("prevalence vector must be non-empty")
    scores = np.asarray(rank_scores, dtype=float) if rank_scores is not None else p
    if scores.shape != p.shape:
        raise ConfigError("rank scores length must match prevalence length")
    total = float(p.sum())
    prefix = micro_f1_optimal_prefix(p)
    micro_f1 = 2.0 * float(p[prefix].sum()) / (len(prefix) + total) if prefix else 0.0
    greater = scores[:, None] > scores[None, :]
    equal = scores[:, None] == scores[None, :]
    weights = greater + 0.5 * equal
    pos_neg = p[:, None] * (1.0 - p)[None, :]
    denominator = total * (p.size - total)
    micro_auc = float((weights * pos_neg).sum() / denominator) if denominator > 0 else 0.5
    return {
        "accuracy": float(np.mean(np.maximum(p, 1.0 - p))),
        "macro_f1": float(np.mean(2.0 * p / (1.0 + p))),
        "micro_f1": micro_f1,
        "macro_auc": 0.5,
        "micro_auc": micro_auc,
        "p_at_1": float(p[int(np.argmax(scores))]),
    }


def split_pairs(items: Sequence, train_frac: float) -> tuple[list, list]:
    """Deterministic prefix split (corpora are generated i.i.d.)."""
    if not 0.0 < train_frac < 1.0:
        raise ConfigError("train_frac must be strictly between 0 and 1")
    cut = int(round(len(items) * train_frac))
    cut = max(1, min(cut, len(items) - 1)) if len(items) >= 2 else cut
    return list(items[:cut]), list(items[cut:])
