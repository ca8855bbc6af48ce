"""Selection strategies, the learned filter, and the threshold sweep."""

from __future__ import annotations

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinconv import (
    ConfigError,
    FilterStrategy,
    GenConfig,
    apply_filter,
    bundled_task_map,
    fill_to_k,
    generate,
    load_indices,
    noteworthy_targets,
    parse_strategy,
    save_indices,
    threshold_sweep,
    train_filter,
    umls_noteworthy,
    utterance_probabilities,
)
from clinconv import filtering
from clinconv.errors import ValidationError
from clinconv.filtering import (
    DEFAULT_FILL_K,
    DEFAULT_THRESHOLDS,
    SCOPES,
    filter_from_record,
    filter_to_record,
    format_strategy,
    load_filter,
    select_utterances,
)
from clinconv.linear import predict_proba_matrix
from clinconv.metrics import rank_auc
from clinconv.transcripts import Transcript
from oracles import naive_fill_to_k, oracle_tfidf, oracle_token_hits, oracle_tokenize

CASES = [
    ("none", FilterStrategy(kind="none")),
    ("umls", FilterStrategy(kind="umls")),
    ("pred:all", FilterStrategy(kind="predicted", scope="all")),
    ("pred:diagnosis@0.25", FilterStrategy(kind="predicted", scope="diagnosis", threshold=0.25)),
    ("union:umls+pred:ros", FilterStrategy(kind="union", scope="ros")),
    (
        "union:umls+pred:all@0.4",
        FilterStrategy(kind="union", scope="all", threshold=0.4),
    ),
    ("f2k:umls+pred:ros@K=7", FilterStrategy(kind="fill_to_k", scope="ros", k=7)),
]


@pytest.mark.parametrize("text,expected", CASES)
def test_parse_strategy(text, expected):
    assert parse_strategy(text) == expected


@pytest.mark.parametrize("text,expected", CASES)
def test_format_round_trips(text, expected):
    assert parse_strategy(format_strategy(expected)) == expected


def test_fill_to_k_defaults_applied_per_scope():
    for scope, k in DEFAULT_FILL_K.items():
        assert parse_strategy(f"f2k:umls+pred:{scope}").k == k


def test_fill_to_k_without_k_takes_the_scope_default():
    for scope, k in DEFAULT_FILL_K.items():
        strategy = FilterStrategy(kind="fill_to_k", scope=scope)
        assert strategy.k == k
        assert format_strategy(strategy) == f"f2k:umls+pred:{scope}@K={k}"


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "none", "scope": "all"},
        {"kind": "umls", "scope": "ros", "threshold": 0.3},
        {"kind": "umls", "k": 3},
        {"kind": "predicted", "scope": "all", "k": 5},
        {"kind": "union", "scope": "diagnosis", "k": 5},
        {"kind": "fill_to_k", "scope": "all", "threshold": 0.3},
    ],
)
def test_strategy_rejects_a_field_its_kind_does_not_read(fields):
    with pytest.raises(ConfigError, match="does not read"):
        FilterStrategy(**fields)


VALID_STRATEGIES = st.one_of(
    st.builds(FilterStrategy, kind=st.sampled_from(["none", "umls"])),
    st.builds(
        FilterStrategy,
        kind=st.sampled_from(["predicted", "union"]),
        scope=st.sampled_from(SCOPES),
        threshold=st.none() | st.floats(min_value=0.0, max_value=1.0),
    ),
    st.builds(
        FilterStrategy,
        kind=st.just("fill_to_k"),
        scope=st.sampled_from(SCOPES),
        k=st.none() | st.integers(min_value=1, max_value=10**6),
    ),
)


@given(VALID_STRATEGIES)
@settings(max_examples=300, deadline=None)
def test_every_valid_strategy_round_trips(strategy):
    assert parse_strategy(format_strategy(strategy)) == strategy


@pytest.mark.parametrize(
    "text",
    [
        "pred",
        "pred:everything",
        "f2k:pred:all",
        "umls+pred:all",
        "pred:all@..",
        "pred:all@1e",
        "union:umls+pred:ros@1e+",
    ],
)
def test_unparseable_strategies_rejected(text):
    with pytest.raises(ConfigError) as raised:
        parse_strategy(text)
    assert text.split(":")[-1] in str(raised.value)  # the message names the bad part


def test_strategy_field_validation():
    with pytest.raises(ConfigError):
        FilterStrategy(kind="predicted")  # scope required
    with pytest.raises(ConfigError):
        FilterStrategy(kind="predicted", scope="all", threshold=1.5)
    with pytest.raises(ConfigError):
        FilterStrategy(kind="fill_to_k", scope="all", k=0)


def test_default_thresholds_by_scope():
    assert DEFAULT_THRESHOLDS == {"all": 0.4, "diagnosis": 0.1, "ros": 0.02}


# ---------------------------------------------------------------------------
# fill_to_k


def test_fill_to_k_keeps_all_concept_hits_past_k():
    probs = np.linspace(0, 1, 10)
    assert fill_to_k([1, 5, 8, 9], probs, k=2) == [1, 5, 8, 9]


def test_fill_to_k_tops_up_by_descending_probability():
    probs = np.array([0.1, 0.9, 0.2, 0.8, 0.3])
    assert fill_to_k([0], probs, k=3) == [0, 1, 3]


def test_fill_to_k_ties_break_toward_lower_index():
    probs = np.array([0.5, 0.5, 0.5, 0.5])
    assert fill_to_k([], probs, k=2) == [0, 1]


def test_fill_to_k_validates_inputs():
    with pytest.raises(ConfigError):
        fill_to_k([0], np.array([0.5]), k=0)
    with pytest.raises(ConfigError):
        fill_to_k([3], np.array([0.5, 0.5]), k=2)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=200, deadline=None)
def test_fill_to_k_invariants(seed, n, k):
    rng = np.random.default_rng(seed)
    probs = rng.random(n)
    base = sorted(set(rng.integers(0, n, size=rng.integers(0, n + 1)).tolist()))
    selected = fill_to_k(base, probs, k)
    assert selected == naive_fill_to_k(base, probs, k)
    assert selected == sorted(set(selected))  # ascending, duplicate-free
    assert set(base) <= set(selected)  # concept hits never dropped
    assert len(selected) == max(len(base), min(k, n))
    if len(base) < k:
        chosen = set(selected) - set(base)
        left_out = set(range(n)) - set(selected)
        worst_kept = min((probs[i], -i) for i in chosen) if chosen else None
        best_dropped = max((probs[i], -i) for i in left_out) if left_out else None
        if worst_kept is not None and best_dropped is not None:
            assert worst_kept >= best_dropped  # greedy top-up order


# ---------------------------------------------------------------------------
# Learned filter and apply_filter


@pytest.fixture(scope="module")
def trained(small_corpus):
    return small_corpus, train_filter(small_corpus.pairs(), "all")


def test_train_filter_separates_noteworthy_utterances(trained):
    corpus, fm = trained
    scores: list[float] = []
    truth: list[int] = []
    for transcript, note in corpus.pairs():
        scores.extend(utterance_probabilities(fm, transcript).tolist())
        truth.extend(noteworthy_targets(transcript, note, "all").tolist())
    auc, valid = rank_auc(np.array(scores), np.array(truth))
    assert valid and auc > 0.8  # in-sample separation on planted signal


def test_filter_record_round_trip(trained):
    corpus, fm = trained
    clone = filter_from_record(filter_to_record(fm))
    transcript = corpus.transcripts[0]
    np.testing.assert_allclose(
        utterance_probabilities(clone, transcript),
        utterance_probabilities(fm, transcript),
        atol=0,
    )
    assert clone.scope == fm.scope and clone.threshold == fm.threshold


def _swap_first_terms(record):
    terms = record["vocab"]["terms"]
    terms[0], terms[1] = terms[1], terms[0]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_swap_first_terms, "vocabulary hash mismatch"),
        (lambda r: r.pop("vocab_hash"), "no 'vocab_hash' key"),
        (lambda r: r.update(threshold=1.5), "threshold 1.5 outside [0, 1]"),
        (lambda r: r.update(scope="sentences"), "unknown filter scope 'sentences'"),
    ],
    ids=["swapped-terms", "no-vocab-hash", "threshold-above-one", "unknown-scope"],
)
def test_malformed_filter_file_rejected(tmp_path, trained, corrupt, message):
    _, fm = trained
    record = filter_to_record(fm)
    corrupt(record)
    path = tmp_path / "filter.json"
    path.write_text(json.dumps(record))
    with pytest.raises(ConfigError) as raised:
        load_filter(path)
    assert str(raised.value).startswith(f"{path}: ")
    assert message in str(raised.value)


def test_train_filter_validates_scope_and_corpus(trained):
    corpus, _ = trained
    with pytest.raises(ConfigError):
        train_filter(corpus.pairs(), "sentences")
    from clinconv import TrainingError

    with pytest.raises(TrainingError):
        train_filter([], "all")


def test_train_filter_holds_no_token_list_for_the_whole_corpus():
    """Python's peak during the fit on a fixed corpus of 200 desk visits
    (49k tokens). With every utterance's token list kept until the fit ends,
    it read 10.3 MB; with only integer term ids past a block, 6.6 MB."""
    pairs = generate(GenConfig.desk(n_examples=200), seed=1).pairs()
    tracemalloc.start()
    try:
        train_filter(pairs, "all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2**20, f"peak {peak / 2**20:.2f} MB"


def test_apply_filter_none_selects_everything(trained):
    corpus, fm = trained
    transcript = corpus.transcripts[0]
    assert apply_filter(FilterStrategy(kind="none"), transcript) == list(
        range(len(transcript))
    )


def test_apply_filter_union_is_exact_set_union(trained, lexicon):
    corpus, fm = trained
    strategy = parse_strategy("union:umls+pred:all@0.4")
    for transcript in corpus.transcripts[:10]:
        union = apply_filter(strategy, transcript, filter_model=fm, lexicon=lexicon)
        predicted = apply_filter(
            parse_strategy("pred:all@0.4"), transcript, filter_model=fm
        )
        hits = umls_noteworthy(lexicon, transcript)
        assert union == sorted(set(predicted) | set(hits))


def test_apply_filter_f2k_matches_direct_call(trained, lexicon):
    corpus, fm = trained
    strategy = parse_strategy("f2k:umls+pred:all@K=9")
    transcript = corpus.transcripts[1]
    expected = fill_to_k(
        umls_noteworthy(lexicon, transcript),
        utterance_probabilities(fm, transcript),
        9,
    )
    assert (
        apply_filter(strategy, transcript, filter_model=fm, lexicon=lexicon) == expected
    )


def _rounded(model, X):
    return np.round(predict_proba_matrix(model, X), 1)


@pytest.fixture(scope="module")
def texts(trained, lexicon):
    """Twenty distinct utterance texts of the corpus, eight with a concept hit."""
    corpus, _ = trained
    distinct = list(dict.fromkeys(text for t in corpus.transcripts for text in t.texts))
    hit = {i for i, _ in oracle_token_hits(lexicon, map(oracle_tokenize, distinct))}
    return [distinct[i] for i in sorted(hit)[:8]] + [
        text for i, text in enumerate(distinct) if i not in hit
    ][:12]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_block_flags_match_the_per_transcript_oracle(trained, lexicon, diagnosis_map, texts, data):
    """Several transcripts, empty ones too, share one block; probabilities
    rounded to one decimal tie often, the hits of a transcript may reach K,
    and K may pass a transcript's length."""
    _, fm = trained
    docs = data.draw(st.lists(st.lists(st.sampled_from(texts), max_size=10), max_size=6))
    k = data.draw(st.integers(min_value=1, max_value=12))
    threshold = data.draw(st.sampled_from([None, 0.1, 0.4, 0.5, 0.9]))
    task_map = data.draw(st.sampled_from([None, diagnosis_map]))
    transcripts = [
        Transcript(
            f"t{d}", ("physician",) * len(doc), tuple(range(0, 1000 * len(doc), 1000)), tuple(doc)
        )
        for d, doc in enumerate(docs)
    ]
    expected: dict[str, list[list[int]]] = {"fill_to_k": [], "union": [], "predicted": []}
    for doc in docs:
        tokens = [oracle_tokenize(text) for text in doc]
        hits = sorted({index for index, _ in oracle_token_hits(lexicon, tokens, task_map)})
        probs = _rounded(fm.model, oracle_tfidf(fm.vocab, tokens)) if doc else np.zeros(0)
        predicted = np.flatnonzero(probs >= (threshold or fm.threshold)).tolist()
        expected["fill_to_k"].append(naive_fill_to_k(hits, probs, k))
        expected["union"].append(sorted(set(predicted) | set(hits)))
        expected["predicted"].append(predicted)
    strategies = {
        "fill_to_k": FilterStrategy(kind="fill_to_k", scope="all", k=k),
        "union": FilterStrategy(kind="union", scope="all", threshold=threshold),
        "predicted": FilterStrategy(kind="predicted", scope="all", threshold=threshold),
    }
    with mock.patch.object(filtering, "predict_proba_matrix", _rounded):
        for kind, strategy in strategies.items():
            selected = select_utterances(strategy, transcripts, fm, lexicon, task_map)
            assert list(selected) == expected[kind], kind


def test_apply_filter_umls_respects_task_map(trained, lexicon):
    corpus, _ = trained
    task_map = bundled_task_map("ros")
    strategy = FilterStrategy(kind="umls")
    for transcript in corpus.transcripts[:10]:
        routed = apply_filter(strategy, transcript, lexicon=lexicon, task_map=task_map)
        assert routed == umls_noteworthy(lexicon, transcript, task_map)
        assert set(routed) <= set(apply_filter(strategy, transcript, lexicon=lexicon))


def test_apply_filter_missing_dependencies_rejected(trained, lexicon):
    corpus, fm = trained
    transcript = corpus.transcripts[0]
    with pytest.raises(ConfigError):
        apply_filter(parse_strategy("pred:all"), transcript)
    with pytest.raises(ConfigError):
        apply_filter(parse_strategy("umls"), transcript)
    with pytest.raises(ConfigError):
        apply_filter(
            parse_strategy("pred:diagnosis"), transcript, filter_model=fm
        )  # scope mismatch with the trained filter


def test_indices_file_round_trip(tmp_path):
    rows = [("a", [0, 2, 5]), ("b", []), ("c", [1])]
    path = tmp_path / "indices.jsonl"
    save_indices(path, rows)
    assert load_indices(path, {"a": 6, "b": 0, "c": 2}) == {"a": [0, 2, 5], "b": [], "c": [1]}


def test_indices_file_rejects_duplicates(tmp_path):
    from clinconv import ParseError

    path = tmp_path / "dup.jsonl"
    save_indices(path, [("a", [0]), ("a", [1])])
    with pytest.raises(ParseError):
        load_indices(path, {"a": 2})


def test_indices_file_checks_indices_against_transcript_sizes(tmp_path):
    path = tmp_path / "indices.jsonl"
    save_indices(path, [("a", [0, 2]), ("b", [1, 3, 4]), ("c", [9])])
    assert load_indices(path, {"a": 3, "b": 5})["b"] == [1, 3, 4]
    with pytest.raises(ValidationError) as raised:
        load_indices(path, {"a": 3, "b": 4})
    assert str(raised.value) == f"{path}: line 2: index 4 outside transcript 'b' of 4 utterances"


def test_threshold_sweep_reports_monotone_selection(trained):
    corpus, fm = trained
    transcripts = corpus.transcripts[:20]
    calls: list[list[list[int]]] = []

    def evaluate(selected):
        calls.append(selected)
        return {"mean_kept": float(np.mean([len(s) for s in selected]))}

    grid = [0.9, 0.1, 0.5]
    points = threshold_sweep(fm, transcripts, evaluate, grid)
    assert [p.threshold for p in points] == sorted(grid)
    kept = [p.mean_selected for p in points]
    assert kept == sorted(kept, reverse=True)  # higher threshold keeps fewer
    for point, selected in zip(points, calls):
        assert point.metrics["mean_kept"] == point.mean_selected
        assert len(selected) == len(transcripts)


def test_threshold_sweep_scores_as_utterance_probabilities(trained):
    """Thresholds at each probability and at the next float above it pin
    every probability the sweep scores, block by block, to the one
    utterance_probabilities gives its transcript alone, bit for bit."""
    corpus, fm = trained
    transcripts = corpus.transcripts[:8]
    expected = [utterance_probabilities(fm, t) for t in transcripts]
    values = np.unique(np.concatenate(expected))
    grid = np.unique(np.concatenate([values, np.nextafter(values, 2.0)]))
    calls: list[list[list[int]]] = []
    points = threshold_sweep(
        fm, transcripts, lambda selected: calls.append(selected) or {}, grid[grid <= 1.0].tolist()
    )
    assert len(points) == len(calls) > len(values)
    for point, selected in zip(points, calls):
        assert selected == [np.flatnonzero(p >= point.threshold).tolist() for p in expected]


def test_threshold_sweep_validates_grid(trained):
    corpus, fm = trained
    with pytest.raises(ConfigError):
        threshold_sweep(fm, corpus.transcripts[:2], lambda s: {}, [])
    with pytest.raises(ConfigError):
        threshold_sweep(fm, corpus.transcripts[:2], lambda s: {}, [1.5])
