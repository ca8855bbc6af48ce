"""End-to-end pipelines, serialization, chunk pooling, and baselines."""

from __future__ import annotations

import itertools
import json
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinconv import (
    ConfigError,
    ParseError,
    PipelineConfig,
    ValidationError,
    apply_filter,
    derive_diagnosis_labels,
    expected_input_agnostic_row,
    input_agnostic_row,
    load_pipeline,
    load_scores,
    parse_strategy,
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
from clinconv import features
from clinconv.features import tokenize_table
from clinconv.filtering import select_utterances
from clinconv.metrics import METRIC_NAMES
from clinconv.pipeline import input_agnostic_predict, micro_f1_optimal_prefix
from encoder import HashedTokenEncoder, chunk_and_pool
from oracles import oracle_tfidf


@pytest.fixture(scope="module")
def trained_pipeline(small_corpus):
    pairs = small_corpus.pairs()
    derivation = derive_diagnosis_labels(pairs)
    config = PipelineConfig(task="diagnosis", min_df=2)
    pipeline = train_pipeline(config, small_corpus.transcripts, derivation.matrix)
    return small_corpus, derivation, pipeline


def test_config_validation():
    with pytest.raises(TypeError):
        PipelineConfig(task="diagnosis", backend="logistic")
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


STRATEGIES = (
    "none",
    "umls",
    "pred:diagnosis",
    "union:umls+pred:diagnosis",
    "f2k:umls+pred:diagnosis",
)


@pytest.fixture(scope="module")
def strategy_pipelines(small_corpus, lexicon, diagnosis_map):
    """A filter and one trained pipeline per strategy, trained on the first
    40 transcripts; the other 20 are held out."""
    pairs = small_corpus.pairs()
    train = pairs[:40]
    derivation = derive_diagnosis_labels(train)
    fm = train_filter(
        train, "diagnosis", labels=derivation.space.labels, merge_map=derivation.merge_map
    )
    pipelines = {
        strategy: train_pipeline(
            PipelineConfig(task="diagnosis", strategy=strategy),
            [t for t, _ in train],
            derivation.matrix,
            filter_model=fm,
            lexicon=lexicon,
            task_map=diagnosis_map,
        )
        for strategy in STRATEGIES
    }
    return [t for t, _ in pairs[40:]], fm, pipelines


@pytest.mark.parametrize("block_tokens", [features.BLOCK_TOKENS, 40])
def test_batch_scores_equal_single_visit_scores(strategy_pipelines, block_tokens):
    """Scoring in groups of transcripts is scoring each visit alone, bit for
    bit; at 40 tokens a group holds a single transcript or part of one."""
    heldout, _, pipelines = strategy_pipelines
    with mock.patch.object(features, "BLOCK_TOKENS", block_tokens):
        for strategy, pipeline in pipelines.items():
            batch = run_pipeline(pipeline, heldout).scores
            alone = np.vstack([run_pipeline(pipeline, [t]).scores for t in heldout])
            assert np.array_equal(batch, alone), strategy


@pytest.mark.parametrize("block_tokens", [features.BLOCK_TOKENS, 40])
def test_batched_selections_equal_apply_filter(strategy_pipelines, lexicon, diagnosis_map, block_tokens):
    heldout, fm, _ = strategy_pipelines
    with mock.patch.object(features, "BLOCK_TOKENS", block_tokens):
        for text in STRATEGIES:
            strategy = parse_strategy(text)
            batched = select_utterances(strategy, heldout, fm, lexicon, diagnosis_map)
            for transcript, indices in zip(heldout, batched, strict=True):
                alone = apply_filter(strategy, transcript, fm, lexicon, diagnosis_map)
                assert indices == alone, (text, transcript.id)


def test_pipeline_save_load_reproduces_scores(tmp_path, strategy_pipelines):
    """train -> save -> load -> run gives the same scores, bit for bit."""
    heldout, _, pipelines = strategy_pipelines
    for strategy, pipeline in pipelines.items():
        path = tmp_path / f"{strategy.replace(':', '_')}.json"
        save_pipeline(path, pipeline)
        original = run_pipeline(pipeline, heldout).scores
        assert np.array_equal(run_pipeline(load_pipeline(path), heldout).scores, original), strategy


def test_pipeline_heads_score_bit_for_bit_in_one_product(
    strategy_pipelines, lexicon, diagnosis_map
):
    """Every head of a trained pipeline, on the rows its strategy selects: all
    held-out transcripts, one and none."""
    heldout, fm, pipelines = strategy_pipelines
    for text, pipeline in pipelines.items():
        strategy = parse_strategy(text)
        docs = []
        for transcript in heldout:
            kept = apply_filter(strategy, transcript, fm, lexicon, diagnosis_map)
            docs.append([tokenize(transcript.texts[i]) for i in kept])
        X = oracle_tfidf(pipeline.vocab, docs)
        for rows in (X, X[:1], X[:0]):
            expected = np.column_stack([predict_proba_matrix(m, rows) for m in pipeline.ovr.models])
            assert np.array_equal(ovr_proba_matrix(pipeline.ovr, rows), expected), text


def test_a_batch_tokenizes_each_utterance_once(monkeypatch, strategy_pipelines):
    """The filter, the tagger and the featurizer share one token pass."""
    heldout, _, pipelines = strategy_pipelines
    calls = []

    def counted(texts):
        texts = list(texts)
        calls.extend(texts)
        return tokenize_table(texts)

    # tokenize and tokenize_all read texts through tokenize_table too, so every
    # text the package tokenizes is counted, wherever the name is looked up.
    modules = [m for name, m in sys.modules.items() if name.startswith("clinconv")]
    holders = [m for m in modules if getattr(m, "tokenize_table", None) is tokenize_table]
    assert features in holders and len(holders) > 2
    for module in holders:
        monkeypatch.setattr(module, "tokenize_table", counted)
    run_pipeline(pipelines["f2k:umls+pred:diagnosis"], heldout)
    assert sorted(calls) == sorted(text for t in heldout for text in t.texts)
    # Given a selection, each selected utterance is tokenized once and no other.
    calls.clear()
    override = {t.id: list(range(1, len(t), 3)) for t in heldout}
    run_pipeline(pipelines["none"], heldout, override)
    assert calls and sorted(calls) == sorted(
        t.texts[i] for t in heldout for i in override[t.id]
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_strategys_own_selection_as_override_gives_the_same_pipeline(
    strategy, small_corpus, strategy_pipelines, lexicon, diagnosis_map
):
    """The strategy and override branches featurize through one path: the
    same vocabulary, heads and scores, bit for bit."""
    heldout, fm, pipelines = strategy_pipelines
    train = small_corpus.pairs()[:40]
    transcripts = [t for t, _ in train]
    parsed = parse_strategy(strategy)

    def own(sample):
        selections = select_utterances(parsed, sample, fm, lexicon, diagnosis_map)
        return {t.id: indices for t, indices in zip(sample, selections, strict=True)}

    pipeline = train_pipeline(
        PipelineConfig(task="diagnosis"),
        transcripts,
        derive_diagnosis_labels(train).matrix,
        indices_override=own(transcripts),
    )
    expected = pipelines[strategy]
    assert pipeline.vocab.terms == expected.vocab.terms
    assert np.array_equal(pipeline.vocab.df, expected.vocab.df)
    assert pipeline.vocab.n_docs == expected.vocab.n_docs
    for head, other in zip(pipeline.ovr.models, expected.ovr.models, strict=True):
        assert np.array_equal(head.weights, other.weights) and head.bias == other.bias
    scores = run_pipeline(pipeline, heldout, own(heldout)).scores
    assert np.array_equal(scores, run_pipeline(expected, heldout).scores)


def test_pipeline_file_format_guard(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(ConfigError, match="pipeline format 'something-else'"):
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
        (lambda r: r["config"].update(reg_c="x"), "config.reg_c must be a number"),
        (lambda r: r["config"].update(min_df=2.5), "config.min_df must be an integer"),
        (lambda r: r["config"].update(strategy=7), "config.strategy must be a string"),
        (lambda r: r["config"].update(reg_c=0), "reg_c must be positive"),
        # Without its hash a reordered vocabulary would score silently.
        (lambda r: (r.pop("vocab_hash"), r["vocab"]["terms"].reverse()), "no 'vocab_hash' key"),
    ],
    ids=[
        "unknown-config-key",
        "no-task",
        "no-config",
        "no-ovr",
        "no-models",
        "no-labels",
        "reg_c-not-a-number",
        "min_df-not-an-integer",
        "strategy-not-a-string",
        "reg_c-zero",
        "no-vocab-hash",
    ],
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


def test_pipeline_with_a_lexicon_records_its_task_map(tmp_path, small_corpus, lexicon):
    """A lexicon is saved with its task map, null when hits were not routed."""
    derivation = derive_diagnosis_labels(small_corpus.pairs())
    config = PipelineConfig(task="diagnosis", strategy="umls", min_df=2)
    pipeline = train_pipeline(
        config, small_corpus.transcripts, derivation.matrix, lexicon=lexicon
    )
    path = tmp_path / "pipe.json"
    save_pipeline(path, pipeline)
    assert json.loads(path.read_text())["task_map"] is None
    loaded = load_pipeline(path)
    assert loaded.task_map is None
    sample = small_corpus.transcripts[:8]
    assert np.array_equal(run_pipeline(loaded, sample).scores, run_pipeline(pipeline, sample).scores)


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


def test_naive_bayes_artifact_shapes_checked_at_load(tmp_path, trained_pipeline):
    """Only logistic heads are read: a naive-Bayes head, a missing head or a
    missing vocabulary is rejected at load, naming the file."""
    pipeline = trained_pipeline[2]

    def naive_bayes_head(record):
        width = len(record["vocab"]["terms"])
        record["ovr"]["models"][0] = {
            "type": "naive_bayes",
            "log_prior": [-0.7, -0.7],
            "log_likelihood": [[-1.0] * width, [-1.0] * width],
        }

    def drop_head(record):
        record["ovr"]["models"].pop()

    def no_vocabulary(record):
        del record["vocab"], record["vocab_hash"]

    for edit, message in (
        (naive_bayes_head, "'ovr.models[0]' section lacks ['weights']"),
        (drop_head, "14 heads for 15 labels"),
        (no_vocabulary, "no 'vocab' section"),
    ):
        path = tamper(tmp_path, pipeline, edit)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
            load_pipeline(path)


def test_encoder_artifact_width_checked_at_load(tmp_path, trained_pipeline):
    """Each head holds a weight per vocabulary term, and a config naming the
    removed encoder backend is rejected rather than read as tf-idf."""
    pipeline = trained_pipeline[2]
    width = len(pipeline.vocab)

    def narrow(record):
        head = record["ovr"]["models"][0]
        head["weights"] = head["weights"][:-1]

    def encoder_config(record):
        record["config"].update(backend="encoder", encoder_dim=16)

    for edit, message in (
        (narrow, f"ovr.models[0].weights has shape ({width - 1},), expected ({width},)"),
        (encoder_config, "unknown config keys"),
    ):
        path = tamper(tmp_path, pipeline, edit)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
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
        docs = [tokenize(text) for text in transcript.texts]
        expected = predict_proba_matrix(fm.model, oracle_tfidf(fm.vocab, docs))
        assert np.array_equal(utterance_probabilities(fm, transcript), expected)

    docs = [[tokenize(text) for text in t.texts] for t in transcripts]
    pipeline = train_pipeline(PipelineConfig(task="diagnosis", min_df=2), transcripts, derivation.matrix)
    expected = ovr_proba_matrix(pipeline.ovr, oracle_tfidf(pipeline.vocab, docs))
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


def test_indices_override_orders_and_bounds(trained_pipeline):
    """Provided indices are read in ascending order without repeats, and one
    outside its transcript is rejected."""
    corpus, _, pipeline = trained_pipeline
    sample = corpus.transcripts[:3]
    first = sample[0]
    scrambled = {t.id: [2, 0, 2] for t in sample}
    plain = {t.id: [0, 2] for t in sample}
    assert np.array_equal(
        run_pipeline(pipeline, sample, scrambled).scores,
        run_pipeline(pipeline, sample, plain).scores,
    )
    docs = [[tokenize(t.texts[i]) for i in (0, 2)] for t in sample]
    expected = ovr_proba_matrix(pipeline.ovr, oracle_tfidf(pipeline.vocab, docs))
    assert np.array_equal(run_pipeline(pipeline, sample, plain).scores, expected)
    for bad in (len(first), -1):
        with pytest.raises(ValidationError, match="outside transcript"):
            run_pipeline(pipeline, [first], {first.id: [0, bad]})


def test_an_override_index_past_the_end_names_the_transcript(trained_pipeline):
    corpus, _, pipeline = trained_pipeline
    first = corpus.transcripts[0]
    n = len(first)
    message = f"outside transcript {first.id!r} of {n} utterances"
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_pipeline(pipeline, [first], {first.id: [n]})


@pytest.mark.parametrize("bad", [1.7, True, "1", np.bool_(True)], ids=["float", "bool", "str", "numpy-bool"])
def test_an_override_index_that_is_no_integer_names_the_transcript(trained_pipeline, bad):
    corpus, _, pipeline = trained_pipeline
    first = corpus.transcripts[0]
    message = f"provided indices for transcript {first.id!r} must be integers"
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_pipeline(pipeline, [first], {first.id: [bad, 2]})
    assert np.array_equal(
        run_pipeline(pipeline, [first], {first.id: [np.int64(1), 2]}).scores,
        run_pipeline(pipeline, [first], {first.id: [1, 2]}).scores,
    )


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
