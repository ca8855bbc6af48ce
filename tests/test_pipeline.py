"""End-to-end pipelines, serialization, chunk pooling, and baselines."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinconv import (
    ConfigError,
    ParseError,
    PipelineConfig,
    derive_diagnosis_labels,
    expected_input_agnostic_row,
    input_agnostic_row,
    load_pipeline,
    load_scores,
    prevalence_truth_matrix,
    run_pipeline,
    save_pipeline,
    save_scores,
    split_pairs,
    tokenize,
    train_filter,
    train_pipeline,
    utterance_probabilities,
)
from clinconv.linear import ovr_proba_matrix, predict_proba_matrix
from clinconv.metrics import METRIC_NAMES
from clinconv.pipeline import (
    HashedTokenEncoder,
    assemble_filtered_segments,
    chunk_and_pool,
    input_agnostic_predict,
    micro_f1_optimal_prefix,
)
from oracles import oracle_counts, oracle_tfidf


@pytest.fixture(scope="module")
def trained_pipeline(small_corpus):
    pairs = small_corpus.pairs()
    derivation = derive_diagnosis_labels(pairs)
    config = PipelineConfig(task="diagnosis", min_df=2)
    pipeline = train_pipeline(config, small_corpus.transcripts, derivation.matrix)
    return small_corpus, derivation, pipeline


def test_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(task="diagnosis", backend="transformer")
    with pytest.raises(ConfigError):
        PipelineConfig(task="diagnosis", reg_c=0.0)
    with pytest.raises(ConfigError):
        PipelineConfig(task="diagnosis", min_df=0)
    config = PipelineConfig(task="ros", strategy="pred:ros@0.02")
    assert config.strategy.kind == "predicted"


def test_training_requires_aligned_ids(trained_pipeline):
    corpus, derivation, _ = trained_pipeline
    shuffled = list(reversed(corpus.transcripts))
    with pytest.raises(ConfigError, match="align"):
        train_pipeline(
            PipelineConfig(task="diagnosis"), shuffled, derivation.matrix
        )


def test_scores_are_probabilities(trained_pipeline):
    corpus, derivation, pipeline = trained_pipeline
    scores = run_pipeline(pipeline, corpus.transcripts)
    assert scores.scores.shape == (len(corpus.transcripts), 15)
    assert scores.scores.min() >= 0.0 and scores.scores.max() <= 1.0
    assert scores.example_ids == [t.id for t in corpus.transcripts]
    assert tuple(scores.labels) == derivation.space.labels


def test_pipeline_save_load_reproduces_scores(tmp_path, trained_pipeline):
    corpus, _, pipeline = trained_pipeline
    path = tmp_path / "pipeline.json"
    save_pipeline(path, pipeline)
    loaded = load_pipeline(path)
    original = run_pipeline(pipeline, corpus.transcripts[:10])
    replayed = run_pipeline(loaded, corpus.transcripts[:10])
    np.testing.assert_allclose(replayed.scores, original.scores, atol=1e-15)


def test_pipeline_file_format_guard(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ConfigError):
        load_pipeline(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda r: r["config"].update(jobs=2), "unknown config keys ['jobs']"),
        (lambda r: r["config"].pop("task"), "'config' section lacks ['task']"),
        (lambda r: r.pop("config"), "no 'config' section"),
        (lambda r: r.pop("ovr"), "no 'ovr' section"),
        (lambda r: r["ovr"].pop("models"), "'ovr' section lacks ['models']"),
        (lambda r: r["space"].pop("labels"), "'space' section lacks ['labels']"),
    ],
    ids=["unknown-config-key", "no-task", "no-config", "no-ovr", "no-models", "no-labels"],
)
def test_malformed_pipeline_artifact_rejected(tmp_path, trained_pipeline, corrupt, message):
    path = tmp_path / "pipe.json"
    save_pipeline(path, trained_pipeline[2])
    record = json.loads(path.read_text())
    corrupt(record)
    path.write_text(json.dumps(record))
    with pytest.raises(ConfigError) as raised:
        load_pipeline(path)
    assert str(raised.value).startswith(f"{path}: ")
    assert message in str(raised.value)


def test_scores_file_round_trip(tmp_path, trained_pipeline):
    corpus, _, pipeline = trained_pipeline
    scores = run_pipeline(pipeline, corpus.transcripts[:5])
    path = tmp_path / "scores.jsonl"
    save_scores(path, scores)
    loaded = load_scores(path)
    assert loaded.example_ids == scores.example_ids
    assert tuple(loaded.labels) == tuple(scores.labels)
    np.testing.assert_allclose(loaded.scores, scores.scores, atol=1e-12)


def test_scores_file_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "scores.jsonl"
    rows = [{"id": i, "scores": {"x": 0.5}} for i in ("a", "a", "b")]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ParseError, match="line 2: duplicate id 'a'"):
        load_scores(path)


def tamper(tmp_path, pipeline, edit):
    """Save the pipeline, apply ``edit`` to its record, return the path."""
    path = tmp_path / "pipeline.json"
    save_pipeline(path, pipeline)
    record = json.loads(path.read_text())
    edit(record)
    path.write_text(json.dumps(record))
    return path


def test_naive_bayes_artifact_shapes_checked_at_load(tmp_path, small_corpus):
    derivation = derive_diagnosis_labels(small_corpus.pairs())
    config = PipelineConfig(task="diagnosis", backend="naive_bayes", min_df=2)
    pipeline = train_pipeline(config, small_corpus.transcripts, derivation.matrix)

    def drop_column(record):
        head = record["ovr"]["models"][0]
        head["log_likelihood"] = [row[:-1] for row in head["log_likelihood"]]

    def short_prior(record):
        head = record["ovr"]["models"][0]
        head["log_prior"] = head["log_prior"][:1]

    def logistic_head(record):
        width = len(record["vocab"]["terms"])
        record["ovr"]["models"][0] = {"type": "logistic", "weights": [0.0] * width, "bias": 0.0}

    def no_vocabulary(record):
        del record["vocab"], record["vocab_hash"]

    for edit in (drop_column, short_prior, logistic_head, no_vocabulary):
        path = tamper(tmp_path, pipeline, edit)
        with pytest.raises(ConfigError, match="pipeline.json"):
            load_pipeline(path)


def test_encoder_artifact_width_checked_at_load(tmp_path, small_corpus):
    derivation = derive_diagnosis_labels(small_corpus.pairs())
    config = PipelineConfig(task="diagnosis", backend="encoder", encoder_dim=16)
    pipeline = train_pipeline(config, small_corpus.transcripts, derivation.matrix)

    def narrow(record):
        head = record["ovr"]["models"][0]
        head["weights"] = head["weights"][:-1]

    path = tamper(tmp_path, pipeline, narrow)
    with pytest.raises(ConfigError, match="pipeline.json.*encoder_dim 16"):
        load_pipeline(path)


def test_scores_equal_linear_functions_of_oracle_features(small_corpus):
    """Filter probabilities and pipeline scores are bit-identical to the same
    linear functions applied to matrices built one document at a time."""
    pairs = small_corpus.pairs()
    transcripts = small_corpus.transcripts
    derivation = derive_diagnosis_labels(pairs)
    fm = train_filter(
        pairs, "diagnosis", labels=derivation.space.labels, merge_map=derivation.merge_map
    )
    for transcript in transcripts:
        docs = [tokenize(u.text) for u in transcript.utterances]
        expected = predict_proba_matrix(fm.model, oracle_tfidf(fm.vocab, docs))
        assert np.array_equal(utterance_probabilities(fm, transcript), expected)

    docs = [[tokenize(u.text) for u in t.utterances] for t in transcripts]
    for backend, oracle in (("logistic", oracle_tfidf), ("naive_bayes", oracle_counts)):
        config = PipelineConfig(task="diagnosis", backend=backend, min_df=2)
        pipeline = train_pipeline(config, transcripts, derivation.matrix)
        expected = ovr_proba_matrix(pipeline.ovr, oracle(pipeline.vocab, docs))
        assert np.array_equal(run_pipeline(pipeline, transcripts).scores, expected)


def test_indices_override_must_cover_every_transcript(trained_pipeline):
    corpus, derivation, _ = trained_pipeline
    override = {corpus.transcripts[0].id: [0]}
    with pytest.raises(ConfigError, match="no provided indices"):
        train_pipeline(
            PipelineConfig(task="diagnosis", min_df=1),
            corpus.transcripts,
            derivation.matrix,
            indices_override=override,
        )


def test_naive_bayes_backend_trains(small_corpus):
    pairs = small_corpus.pairs()
    derivation = derive_diagnosis_labels(pairs)
    config = PipelineConfig(task="diagnosis", backend="naive_bayes", min_df=2)
    pipeline = train_pipeline(config, small_corpus.transcripts, derivation.matrix)
    scores = run_pipeline(pipeline, small_corpus.transcripts[:8])
    assert scores.scores.min() >= 0.0 and scores.scores.max() <= 1.0


def test_encoder_backend_is_deterministic(small_corpus):
    pairs = small_corpus.pairs()
    derivation = derive_diagnosis_labels(pairs)
    config = PipelineConfig(task="diagnosis", backend="encoder", encoder_dim=16)
    first = train_pipeline(config, small_corpus.transcripts, derivation.matrix)
    second = train_pipeline(config, small_corpus.transcripts, derivation.matrix)
    sample = small_corpus.transcripts[:8]
    np.testing.assert_allclose(
        run_pipeline(first, sample).scores, run_pipeline(second, sample).scores, atol=1e-12
    )


def test_assemble_filtered_text_orders_and_bounds(small_corpus):
    transcript = small_corpus.transcripts[0]
    segments = assemble_filtered_segments(transcript, [2, 0])
    assert segments == assemble_filtered_segments(transcript, [0, 2, 2])
    assert segments == [tokenize(transcript.utterances[i].text) for i in (0, 2)]
    from clinconv import ValidationError

    with pytest.raises(ValidationError):
        assemble_filtered_segments(transcript, [len(transcript)])


# ---------------------------------------------------------------------------
# Chunk-and-pool adapter


def test_chunk_and_pool_respects_token_cap():
    encoder = HashedTokenEncoder(dim=8, seed=1)
    tokens = [f"t{i}" for i in range(3000)]
    pooled = chunk_and_pool(tokens, encoder, chunk_size=512, token_cap=2040)
    capped = chunk_and_pool(tokens[:2040], encoder, chunk_size=512, token_cap=2040)
    np.testing.assert_allclose(pooled, capped, atol=0)


def test_chunk_and_pool_single_chunk_is_encoder_output():
    encoder = HashedTokenEncoder(dim=8, seed=1)
    tokens = [f"t{i}" for i in range(100)]
    np.testing.assert_array_equal(
        chunk_and_pool(tokens, encoder, chunk_size=512, token_cap=2040),
        encoder.encode(tokens),
    )


def test_chunk_and_pool_empty_input_is_zero():
    encoder = HashedTokenEncoder(dim=8, seed=1)
    assert np.array_equal(chunk_and_pool([], encoder), np.zeros(8))


def test_chunk_and_pool_validates_configuration():
    encoder = HashedTokenEncoder(dim=4, seed=0)
    with pytest.raises(ConfigError):
        chunk_and_pool(["a"], encoder, chunk_size=0)
    with pytest.raises(ConfigError):
        chunk_and_pool(["a"], encoder, token_cap=-1)


def test_hashed_encoder_is_seed_stable():
    a = HashedTokenEncoder(dim=8, seed=7).encode(["alpha", "beta"])
    b = HashedTokenEncoder(dim=8, seed=7).encode(["alpha", "beta"])
    c = HashedTokenEncoder(dim=8, seed=8).encode(["alpha", "beta"])
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


# ---------------------------------------------------------------------------
# Input-agnostic baselines


def _subset_micro_f1(prevalence: np.ndarray, subset: tuple[int, ...]) -> float:
    mass = float(prevalence[list(subset)].sum()) if subset else 0.0
    total = float(prevalence.sum())
    return 2.0 * mass / (len(subset) + total) if subset else 0.0


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_micro_f1_prefix_beats_every_subset(n_labels, seed):
    rng = np.random.default_rng(seed)
    prevalence = rng.random(n_labels)
    chosen = micro_f1_optimal_prefix(prevalence)
    achieved = _subset_micro_f1(prevalence, tuple(chosen))
    best = max(
        _subset_micro_f1(prevalence, subset)
        for r in range(n_labels + 1)
        for subset in itertools.combinations(range(n_labels), r)
    )
    assert achieved == pytest.approx(best, abs=1e-12)


def test_prevalence_truth_matrix_has_rounded_counts():
    from clinconv import LabelSpace

    space = LabelSpace(task="diagnosis", labels=("a", "b"), train_prevalence=[0.21, 0.5])
    truth = prevalence_truth_matrix(space, 100)
    assert truth.values[:, 0].sum() == 21
    assert truth.values[:, 1].sum() == 50


def test_replay_matches_closed_form_on_exact_prevalences(rng):
    from clinconv import LabelSpace

    n = 240
    for _ in range(10):
        n_labels = int(rng.integers(2, 8))
        counts = rng.integers(1, n, size=n_labels)
        prevalence = counts / n
        space = LabelSpace(
            task="diagnosis",
            labels=tuple(f"l{j}" for j in range(n_labels)),
            train_prevalence=prevalence,
        )
        truth = prevalence_truth_matrix(space, n)
        replay = input_agnostic_row(space, truth)
        expected = expected_input_agnostic_row(prevalence)
        for metric in METRIC_NAMES:
            assert replay[metric] == pytest.approx(expected[metric], abs=1e-9), metric


def test_input_agnostic_predict_is_constant_per_metric():
    from clinconv import LabelSpace

    space = LabelSpace(
        task="ros", labels=("x", "y", "z"), train_prevalence=[0.7, 0.2, 0.1]
    )
    for metric in METRIC_NAMES:
        matrix = input_agnostic_predict(space, metric, 5)
        assert np.all(matrix.scores == matrix.scores[0])
    accuracy_row = input_agnostic_predict(space, "accuracy", 1).scores[0]
    assert accuracy_row.tolist() == [1.0, 0.0, 0.0]  # majority class per label
    with pytest.raises(ConfigError):
        input_agnostic_predict(space, "subset_accuracy", 5)


def test_rank_scores_override_changes_top_label():
    from clinconv import LabelSpace
    from clinconv.metrics import precision_at_1

    space = LabelSpace(
        task="ros", labels=("x", "y"), train_prevalence=[0.4, 0.3]
    )
    truth = prevalence_truth_matrix(space, 10)
    swapped = input_agnostic_predict(space, "p_at_1", 10, rank_scores=[1.0, 2.0])
    assert precision_at_1(swapped.scores, truth.values).p_at_1 == pytest.approx(0.3)


def test_split_pairs_prefix_split():
    items = list(range(10))
    train, test = split_pairs(items, 0.7)
    assert train == list(range(7)) and test == list(range(7, 10))
    with pytest.raises(ConfigError):
        split_pairs(items, 1.5)
