"""End-to-end prediction pipelines and input-agnostic baselines.

A pipeline selects utterances with a filter strategy, assembles the selected
text, featurizes it (transcript-level TF-IDF, raw counts, or a chunk-and-pool
encoder for long inputs), and scores labels with a one-vs-rest model.

The input-agnostic baselines answer "how far do you get without reading the
conversation": per metric, the best constant predictor achievable from label
prevalences alone. These give the reference rows that any real model must
beat.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .annotations import LabelMatrix, LabelSpace
from .concepts import (
    Concept,
    ConceptLexicon,
    TaskMap,
    build_lexicon,
    parse_task_map,
    task_map_to_record,
)
from .errors import ConfigError, ParseError, ValidationError
from .features import (
    Vocabulary,
    count_transform,
    fit_vocabulary,
    tfidf_transform,
    tokenize,
    vocabulary_from_record,
    vocabulary_hash,
    vocabulary_to_record,
)
from .filtering import FilterModel, FilterStrategy, apply_filter, filter_from_record, filter_to_record, format_strategy, parse_strategy
from .jsonio import atomic_write_text, iter_jsonl, json_loads, write_jsonl
from .linear import (
    LogisticModel,
    NaiveBayesModel,
    OneVsRestModel,
    ovr_proba_matrix,
    train_ovr,
)
from .metrics import METRIC_NAMES, evaluate_matrix
from .transcripts import Transcript

PIPELINE_BACKENDS = ("logistic", "naive_bayes", "encoder")


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
    for line_number, record in iter_jsonl(path):
        if not isinstance(record, dict) or "id" not in record or "scores" not in record:
            raise ParseError("score row needs 'id' and 'scores'", line_number)
        if labels is None:
            labels = tuple(record["scores"])
        elif set(record["scores"]) != set(labels):
            raise ValidationError(
                f"line {line_number}: score row labels differ from the first row"
            )
        example_id = str(record["id"])
        if example_id in seen:
            raise ParseError(f"duplicate id {example_id!r}", line_number)
        seen.add(example_id)
        ids.append(example_id)
        rows.append([float(record["scores"][label]) for label in labels])
    if labels is None:
        raise ParseError(f"score file {path} is empty")
    return ScoreMatrix(example_ids=ids, labels=labels, scores=np.array(rows))


# ---------------------------------------------------------------------------
# Text assembly


def assemble_filtered_segments(
    transcript: Transcript, indices: Iterable[int]
) -> list[list[str]]:
    n = len(transcript.utterances)
    unique = sorted(set(int(i) for i in indices))
    if unique and (unique[0] < 0 or unique[-1] >= n):
        raise ValidationError(
            f"filtered index outside transcript of {n} utterances"
        )
    return [tokenize(transcript.utterances[i].text) for i in unique]


# ---------------------------------------------------------------------------
# Chunk-and-pool encoder adapter


class HashedTokenEncoder:
    """Deterministic stand-in encoder: mean of seeded random token vectors.

    Serves as the reference implementation behind the chunk-and-pool adapter;
    any object with ``dim`` and ``encode(tokens) -> vector`` plugs in the same
    way.
    """

    def __init__(self, dim: int = 64, seed: int = 0):
        if dim < 1:
            raise ConfigError("encoder dim must be >= 1")
        self.dim = dim
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vector = self._cache.get(token)
        if vector is None:
            digest = hashlib.blake2b(
                f"{self.seed}:{token}".encode("utf-8"), digest_size=8
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "big"))
            vector = rng.standard_normal(self.dim)
            self._cache[token] = vector
        return vector

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        if not tokens:
            return np.zeros(self.dim)
        return np.mean([self._token_vector(t) for t in tokens], axis=0)


def chunk_and_pool(
    tokens: Sequence[str],
    encoder,
    chunk_size: int = 512,
    token_cap: int = 2040,
) -> np.ndarray:
    """Truncate to ``token_cap`` tokens, encode consecutive ``chunk_size``
    chunks, and mean-pool the chunk vectors.

    2040 tokens split into chunks of 512 give four chunks sized
    (512, 512, 512, 504). Empty input returns the zero vector.
    """
    if chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1")
    if token_cap < 0:
        raise ConfigError("token_cap must be >= 0")
    tokens = list(tokens[:token_cap])
    if not tokens:
        return np.zeros(encoder.dim)
    chunks = [tokens[i : i + chunk_size] for i in range(0, len(tokens), chunk_size)]
    return np.mean([np.asarray(encoder.encode(c), dtype=float) for c in chunks], axis=0)


# ---------------------------------------------------------------------------
# Trainable pipeline


@dataclass
class PipelineConfig:
    task: str
    backend: str = "logistic"
    strategy: FilterStrategy = field(default_factory=lambda: FilterStrategy(kind="none"))
    reg_c: float = 1.0
    min_df: int = 2
    threshold: float = 0.5  # binarization threshold used at evaluation time
    encoder_dim: int = 64
    encoder_seed: int = 0
    chunk_size: int = 512
    token_cap: int = 2040

    def __post_init__(self) -> None:
        if self.backend not in PIPELINE_BACKENDS:
            raise ConfigError(f"unknown pipeline backend {self.backend!r}")
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
    vocab: Vocabulary | None = None
    filter_model: FilterModel | None = None
    lexicon: ConceptLexicon | None = None
    task_map: TaskMap | None = None
    encoder: HashedTokenEncoder | None = None


def _resolve_indices(
    config: PipelineConfig,
    transcript: Transcript,
    filter_model: FilterModel | None,
    lexicon: ConceptLexicon | None,
    task_map: TaskMap | None,
    override: Mapping[str, Sequence[int]] | None,
) -> list[int]:
    if override is not None:
        if transcript.id not in override:
            raise ConfigError(f"no provided indices for transcript {transcript.id!r}")
        return sorted(set(int(i) for i in override[transcript.id]))
    return apply_filter(
        config.strategy,
        transcript,
        filter_model=filter_model,
        lexicon=lexicon,
        task_map=task_map,
    )


def _filtered_segments(
    config: PipelineConfig,
    transcripts: Sequence[Transcript],
    filter_model,
    lexicon,
    task_map,
    override,
) -> list[list[list[str]]]:
    docs = []
    for transcript in transcripts:
        indices = _resolve_indices(
            config, transcript, filter_model, lexicon, task_map, override
        )
        docs.append(assemble_filtered_segments(transcript, indices))
    return docs


def _featurize(
    config: PipelineConfig,
    docs: list[list[list[str]]],
    vocab: Vocabulary | None,
    encoder: HashedTokenEncoder | None,
):
    if config.backend == "encoder":
        rows = [
            chunk_and_pool(
                [token for segment in doc for token in segment],
                encoder,
                config.chunk_size,
                config.token_cap,
            )
            for doc in docs
        ]
        return np.vstack(rows) if rows else np.zeros((0, encoder.dim))
    transform = tfidf_transform if config.backend == "logistic" else count_transform
    return transform(vocab, docs)


def train_pipeline(
    config: PipelineConfig,
    transcripts: Sequence[Transcript],
    matrix: LabelMatrix,
    filter_model: FilterModel | None = None,
    lexicon: ConceptLexicon | None = None,
    task_map: TaskMap | None = None,
    indices_override: Mapping[str, Sequence[int]] | None = None,
    encoder: HashedTokenEncoder | None = None,
) -> TrainedPipeline:
    """Filter, featurize, and fit the one-vs-rest model.

    ``indices_override`` (transcript id -> utterance indices) substitutes for
    the strategy; it is how oracle noteworthy selections are injected.
    """
    ids = [t.id for t in transcripts]
    if ids != list(matrix.example_ids):
        raise ConfigError("label matrix rows must align with the transcript order")
    docs = _filtered_segments(
        config, transcripts, filter_model, lexicon, task_map, indices_override
    )
    vocab = None
    if config.backend == "encoder":
        if encoder is None:
            encoder = HashedTokenEncoder(config.encoder_dim, config.encoder_seed)
    else:
        vocab = fit_vocabulary(docs, min_df=config.min_df)
    X = _featurize(config, docs, vocab, encoder)
    backend = "naive_bayes" if config.backend == "naive_bayes" else "logistic"
    ovr = train_ovr(X, matrix.values, matrix.space.labels, backend=backend, reg_c=config.reg_c)
    return TrainedPipeline(
        config=config,
        space=matrix.space,
        ovr=ovr,
        vocab=vocab,
        filter_model=filter_model,
        lexicon=lexicon,
        task_map=task_map,
        encoder=encoder,
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
    docs = _filtered_segments(
        pipeline.config,
        transcripts,
        pipeline.filter_model,
        pipeline.lexicon,
        pipeline.task_map,
        indices_override,
    )
    X = _featurize(pipeline.config, docs, pipeline.vocab, pipeline.encoder)
    scores = ovr_proba_matrix(pipeline.ovr, X)
    return ScoreMatrix(
        example_ids=[t.id for t in transcripts],
        labels=pipeline.space.labels,
        scores=scores,
    )


# ---------------------------------------------------------------------------
# Pipeline serialization (single self-contained JSON artifact)


def _model_record(model) -> dict:
    if isinstance(model, LogisticModel):
        return {
            "type": "logistic",
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "reg_c": model.reg_c,
            "converged": model.converged,
        }
    if isinstance(model, NaiveBayesModel):
        return {
            "type": "naive_bayes",
            "log_prior": model.log_prior.tolist(),
            "log_likelihood": model.log_likelihood.tolist(),
            "constant_p": model.constant_p,
        }
    raise ConfigError(f"cannot serialize model of type {type(model).__name__}")


def _model_from_record(record: dict):
    if record["type"] == "logistic":
        return LogisticModel(
            weights=np.asarray(record["weights"], dtype=float),
            bias=float(record["bias"]),
            reg_c=float(record.get("reg_c", 1.0)),
            converged=bool(record.get("converged", True)),
        )
    if record["type"] == "naive_bayes":
        return NaiveBayesModel(
            log_prior=np.asarray(record["log_prior"], dtype=float),
            log_likelihood=np.asarray(record["log_likelihood"], dtype=float),
            constant_p=record.get("constant_p"),
        )
    raise ConfigError(f"unknown model type {record.get('type')!r}")


def save_pipeline(path: str | Path, pipeline: TrainedPipeline) -> None:
    config = pipeline.config
    record: dict = {
        "format": "clinconv-pipeline-v1",
        "config": {
            "task": config.task,
            "backend": config.backend,
            "strategy": format_strategy(config.strategy),
            "reg_c": config.reg_c,
            "min_df": config.min_df,
            "threshold": config.threshold,
            "encoder_dim": config.encoder_dim,
            "encoder_seed": config.encoder_seed,
            "chunk_size": config.chunk_size,
            "token_cap": config.token_cap,
        },
        "space": {
            "task": pipeline.space.task,
            "labels": list(pipeline.space.labels),
            "train_prevalence": pipeline.space.train_prevalence.tolist(),
        },
        "ovr": {
            "backend": pipeline.ovr.backend,
            "reg_c": pipeline.ovr.reg_c,
            "models": [_model_record(m) for m in pipeline.ovr.models],
        },
    }
    if pipeline.vocab is not None:
        record["vocab"] = vocabulary_to_record(pipeline.vocab)
        record["vocab_hash"] = vocabulary_hash(pipeline.vocab)
    if pipeline.filter_model is not None:
        record["filter"] = filter_to_record(pipeline.filter_model)
    if pipeline.lexicon is not None:
        record["lexicon"] = [
            {"cui": c.cui, "canonical": c.canonical, "synonyms": list(c.synonyms)}
            for c in pipeline.lexicon.concepts
        ]
    if pipeline.task_map is not None:
        record["task_map"] = task_map_to_record(pipeline.task_map)
    atomic_write_text(path, json.dumps(record) + "\n")


def _check_heads(
    path: str | Path, config: PipelineConfig, ovr: OneVsRestModel, vocab: Vocabulary | None
) -> None:
    """Every head must fit the feature width the pipeline will produce."""
    if config.backend == "encoder":
        width, against = config.encoder_dim, f"encoder_dim {config.encoder_dim}"
    elif vocab is None:
        raise ConfigError(f"{path}: {config.backend} pipeline has no vocabulary")
    else:
        width, against = len(vocab), f"vocabulary of {len(vocab)} terms"
    model_type = LogisticModel if ovr.backend == "logistic" else NaiveBayesModel
    for label, model in zip(ovr.labels, ovr.models):
        if not isinstance(model, model_type):
            raise ConfigError(f"{path}: head {label!r} is not a {ovr.backend} model")
        if isinstance(model, LogisticModel):
            shapes = [("weights", model.weights.shape, (width,))]
        else:
            shapes = [
                ("log_likelihood", model.log_likelihood.shape, (2, width)),
                ("log_prior", model.log_prior.shape, (2,)),
            ]
        for name, found, expected in shapes:
            if found != expected:
                raise ConfigError(
                    f"{path}: head {label!r} {name} has shape {found}, "
                    f"expected {expected} for the {against}"
                )


def _section(path: str | Path, record: dict, name: str, required: tuple[str, ...]) -> dict:
    section = record.get(name)
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: pipeline file has no {name!r} section")
    missing = [key for key in required if key not in section]
    if missing:
        raise ConfigError(f"{path}: {name!r} section lacks {missing}")
    return section


def load_pipeline(path: str | Path) -> TrainedPipeline:
    with open(path, "r", encoding="utf-8") as handle:
        record = json_loads(handle.read())
    if not isinstance(record, dict) or record.get("format") != "clinconv-pipeline-v1":
        raise ConfigError(f"{path} is not a pipeline file")
    config_record = _section(path, record, "config", ("task",))
    unknown = sorted(set(config_record) - {f.name for f in fields(PipelineConfig)})
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    config = PipelineConfig(**config_record)
    space_record = _section(path, record, "space", ("task", "labels", "train_prevalence"))
    space = LabelSpace(
        task=space_record["task"],
        labels=tuple(space_record["labels"]),
        train_prevalence=np.asarray(space_record["train_prevalence"], dtype=float),
    )
    ovr_record = _section(path, record, "ovr", ("backend", "models"))
    ovr = OneVsRestModel(
        labels=space.labels,
        backend=ovr_record["backend"],
        models=[_model_from_record(m) for m in ovr_record["models"]],
        reg_c=float(ovr_record.get("reg_c", 1.0)),
    )
    vocab = None
    if "vocab" in record:
        vocab = vocabulary_from_record(record["vocab"])
        stored = record.get("vocab_hash")
        if stored and stored != vocabulary_hash(vocab):
            raise ConfigError(
                f"{path}: vocabulary hash mismatch; the model file was built "
                "against a different vocabulary"
            )
    _check_heads(path, config, ovr, vocab)
    filter_model = filter_from_record(record["filter"]) if "filter" in record else None
    lexicon = (
        build_lexicon(
            Concept(cui=c["cui"], canonical=c["canonical"], synonyms=list(c["synonyms"]))
            for c in record["lexicon"]
        )
        if "lexicon" in record
        else None
    )
    task_map = parse_task_map(record["task_map"]) if "task_map" in record else None
    encoder = (
        HashedTokenEncoder(config.encoder_dim, config.encoder_seed)
        if config.backend == "encoder"
        else None
    )
    return TrainedPipeline(
        config=config,
        space=space,
        ovr=ovr,
        vocab=vocab,
        filter_model=filter_model,
        lexicon=lexicon,
        task_map=task_map,
        encoder=encoder,
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
