"""Tokenization, vocabulary fitting, and TF-IDF transforms."""

from __future__ import annotations

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clinconv import features
from clinconv.features import Block, document_blocks, fit_rows
from clinconv import (
    FitError,
    ValidationError,
    Vocabulary,
    fit_vocabulary,
    tfidf_transform,
    tokenize,
)
from oracles import doc_terms, oracle_tfidf, oracle_tokenize, oracle_vocabulary, same_csr

DOCS = [
    [["chest", "pain", "today"], ["no", "chest", "pain"]],
    [["chest", "pain"], ["short", "of", "breath"]],
    [["routine", "visit"]],
]


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("COVID-19, again?") == ["covid", "19", "again"]
    assert tokenize("...") == []


# Any code point, lone surrogates included (the transcript reader accepts them
# as JSON escapes), mixed with the ones whose bytes or case the tokenizer must
# get right: NUL, KELVIN SIGN (lowers to "k"), U+0130 (lowers to "i" and a
# combining dot) and token characters.
_TEXT_CHARS = st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(["\ud800", "\udfff", "\x00", "\u212a", "\u0130", "\x7f", "\x80", "K", "z", "0", " "]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(_TEXT_CHARS, max_size=40), max_size=6))
@example(["\ud800", "a\x00b", "\u212aidney", "\u0130X", "\udfffCOVID-19\ud800", ""])
def test_the_byte_table_tokenizer_equals_the_regex(texts):
    expected = [oracle_tokenize(text) for text in texts]
    assert [tokenize(text) for text in texts] == expected
    assert features.tokenize_all(texts) == expected
    assert features.tokenize_all(iter(texts)) == expected


# Utterance texts for the block tokenizer: the characters above, plus newline,
# Greek capital sigma (whose lowercase depends on the letter after it) and
# its two lowercase forms.
_UTTERANCE_CHARS = st.one_of(
    _TEXT_CHARS, st.sampled_from(["\n", "\u03a3", "\u03c3", "\u03c2", "-"])
)


@pytest.mark.parametrize("block_tokens", [1, 4, features.BLOCK_TOKENS])
@settings(max_examples=150, deadline=None)
@given(
    transcripts=st.lists(
        st.lists(st.text(_UTTERANCE_CHARS, max_size=30), max_size=6), max_size=5
    )
)
@example(
    transcripts=[
        [],
        ["a\x00b", "\n", "", "...", "\u212aidney\n\u0130X", "\u039f\u03a3 \u03a3a \u03c3\u03c2"],
        ["\ud800COVID-19\udfff", "\x00"],
        [""],
        [],
    ]
)
def test_the_block_tokenizer_equals_the_regex_per_utterance(block_tokens, transcripts):
    """Each transcript's flat tokens are its utterances' regex tokens, in
    order, and its counts their lengths; blocks of whole transcripts hold
    the same table, cut at about BLOCK_TOKENS."""
    expected = [[oracle_tokenize(text) for text in texts] for texts in transcripts]
    for texts, utterances in zip(transcripts, expected):
        tokens, lengths = features.tokenize_table(texts)
        assert tokens == [token for words in utterances for token in words]
        assert lengths.dtype == np.int64 and lengths.tolist() == list(map(len, utterances))
        assert features.tokenize_all(texts) == utterances
    with mock.patch.object(features, "BLOCK_TOKENS", block_tokens):
        blocks = list(features.blocks(map(features.tokenize_table, transcripts)))
    utterances = [tokens for doc in expected for tokens in doc]
    assert [token for block in blocks for token in block.stream] == [
        token for words in utterances for token in words
    ]
    assert [n for block in blocks for n in block.lengths.tolist()] == list(map(len, utterances))
    sizes = [len(doc) for doc in expected]
    assert [n for block in blocks for n in np.diff(block.starts).tolist()] == sizes
    # Every block but the last reaches the budget, and would not without its
    # last transcript.
    for block in blocks[:-1]:
        size = len(block.stream) + len(block.starts) - 1
        last = block.lengths[block.starts[-2] :].sum() + 1
        assert size >= block_tokens > size - last


def test_doc_terms_keeps_bigrams_inside_segments():
    terms = list(doc_terms([["a", "b"], ["c"]]))
    assert terms == ["a", "b", "a b", "c"]


def test_doc_terms_accepts_flat_token_list():
    assert list(doc_terms(["a", "b"])) == ["a", "b", "a b"]


def test_fit_vocabulary_orders_by_first_appearance():
    vocab = fit_vocabulary(DOCS, min_df=2)
    assert vocab.terms.index("chest") < vocab.terms.index("pain")
    assert "chest pain" in vocab.terms  # bigram present in two documents
    assert "routine" not in vocab.terms  # document frequency 1


def test_fit_vocabulary_counts_document_frequency_once_per_doc():
    vocab = fit_vocabulary(DOCS, min_df=1)
    assert vocab.df[vocab.index["chest"]] == 2  # repeated inside doc counts once
    assert vocab.n_docs == 3


def test_fit_vocabulary_rejects_unreachable_min_df():
    with pytest.raises(FitError):
        fit_vocabulary(DOCS, min_df=4)


def row_norms(X) -> np.ndarray:
    return np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())


def test_tfidf_transform_drops_out_of_vocabulary_terms():
    vocab = fit_vocabulary(DOCS, min_df=2)
    docs = [[["chest", "pain", "unseen"]]]
    X = tfidf_transform(vocab, docs)
    assert X.shape == (1, len(vocab))
    assert sorted(X.indices.tolist()) == sorted(vocab.index[t] for t in ("chest", "pain", "chest pain"))
    assert same_csr(X, oracle_tfidf(vocab, docs))


def test_tfidf_of_empty_document_is_zero_vector():
    vocab = fit_vocabulary(DOCS, min_df=2)
    X = tfidf_transform(vocab, [[], DOCS[0], []])
    assert X.shape == (3, len(vocab))
    assert X[[0, 2]].nnz == 0
    assert row_norms(X)[[0, 2]].tolist() == [0.0, 0.0]


def test_tfidf_norm_is_unit_for_nonempty_documents():
    vocab = fit_vocabulary(DOCS, min_df=1)
    np.testing.assert_allclose(row_norms(tfidf_transform(vocab, DOCS)), 1.0, atol=1e-12)


def test_rarer_terms_weigh_more():
    vocab = fit_vocabulary(DOCS, min_df=1)
    dense = tfidf_transform(vocab, [[["chest", "routine"]]]).toarray()[0]
    assert dense[vocab.index["routine"]] > dense[vocab.index["chest"]]


def test_transforms_reject_a_string_document():
    vocab = fit_vocabulary(DOCS, min_df=1)
    with pytest.raises(ValidationError):
        tfidf_transform(vocab, ["chest", "pain"])  # one document, not two
    with pytest.raises(ValidationError):
        tfidf_transform(vocab, "chest pain")


@pytest.mark.parametrize("block_tokens", [1, features.BLOCK_TOKENS])
@pytest.mark.parametrize(
    "featurize",
    [
        lambda docs: fit_vocabulary(docs, min_df=1),
        lambda docs: fit_rows(map(Block.document_rows, document_blocks(docs)), min_df=1),
        lambda docs: tfidf_transform(fit_vocabulary(DOCS, min_df=1), docs),
    ],
    ids=["fit_vocabulary", "fit_tfidf", "tfidf_transform"],
)
def test_a_string_in_an_utterances_place_is_rejected(featurize, block_tokens):
    """A string there would be read as a list of characters; in a block of
    one token the document's index is counted across blocks."""
    with mock.patch.object(features, "BLOCK_TOKENS", block_tokens):
        with pytest.raises(ValidationError, match="^document 1 utterance 1 is a string"):
            featurize([[["chest", "pain"]], [["x"], "chest"]])
        with pytest.raises(ValidationError, match="^document 2 utterance 0 is a string"):
            featurize([[["x"]], [], ["chest", "pain"]])  # a flat token list


def test_transforms_of_no_documents_are_empty_matrices():
    vocab = fit_vocabulary(DOCS, min_df=1)
    X = tfidf_transform(vocab, [])
    assert X.shape == (0, len(vocab)) and X.nnz == 0


def test_duplicate_terms_rejected():
    with pytest.raises(ValidationError):
        Vocabulary(terms=["a", "a"], df=np.array([1, 1]), n_docs=1, min_df=1)


def test_vocabulary_is_immutable():
    vocab = fit_vocabulary(DOCS, min_df=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        vocab.terms = ["a"]
    with pytest.raises(ValueError):
        vocab.df[0] = 5
    with pytest.raises(ValueError):
        vocab.idf()[0] = 5.0


@st.composite
def token_docs(draw):
    """Segments of up to 12 tokens, so rows pass 8 and 16 terms. A token may
    hold a space, so it can equal a bigram term or one side of a split."""
    token = st.text(alphabet="abcdef ", min_size=1, max_size=3)
    segment = st.lists(token, min_size=0, max_size=12)
    return draw(st.lists(st.lists(segment, min_size=0, max_size=4), min_size=1, max_size=6))


@given(token_docs())
@settings(max_examples=80, deadline=None)
def test_tfidf_norm_is_always_zero_or_one(docs):
    try:
        vocab = fit_vocabulary(docs, min_df=1)
    except FitError:
        return  # every document empty
    for norm in row_norms(tfidf_transform(vocab, docs)):
        assert norm == pytest.approx(0.0, abs=1e-12) or norm == pytest.approx(
            1.0, abs=1e-12
        )


@given(token_docs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_vocabulary_terms_meet_min_df(docs, min_df):
    try:
        vocab = fit_vocabulary(docs, min_df=min_df)
    except FitError:
        return
    assert np.all(vocab.df >= min_df)
    assert len(set(vocab.terms)) == len(vocab.terms)


@st.composite
def query_docs(draw):
    """Segment lists, with terms the vocabulary lacks."""
    token = st.text(alphabet="abcdefxyz", min_size=1, max_size=3)
    segment = st.lists(token, min_size=0, max_size=5)
    docs = draw(st.lists(st.lists(segment, max_size=4), max_size=8))
    return docs + [[], [["xyz"]], [["xyz", "zz"], []]]


@given(token_docs(), query_docs(), st.integers(min_value=1, max_value=2))
@settings(max_examples=150, deadline=None)
def test_transforms_equal_the_per_document_oracle(docs, queries, min_df):
    try:
        vocab = fit_vocabulary(docs, min_df=min_df)
    except FitError:
        return
    for corpus in (docs, queries):
        assert same_csr(tfidf_transform(vocab, corpus), oracle_tfidf(vocab, corpus))


@given(token_docs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=150, deadline=None)
def test_vocabulary_equals_the_first_seen_oracle(docs, min_df):
    try:
        expected = oracle_vocabulary(docs, min_df=min_df)
    except FitError as error:
        with pytest.raises(FitError, match=str(error)):
            fit_vocabulary(docs, min_df=min_df)
        return
    # A generator works too: fitting makes a single pass.
    vocab = fit_vocabulary(iter(docs), min_df=min_df)
    assert vocab.terms == expected.terms
    assert np.array_equal(vocab.df, expected.df)
    assert (vocab.n_docs, vocab.min_df) == (expected.n_docs, expected.min_df)


@given(token_docs(), st.data())
@settings(max_examples=80, deadline=None)
def test_transforms_equal_the_oracle_for_any_vocabulary(docs, data):
    """Exact for any vocabulary, including a bigram without its unigrams and
    terms no document holds."""
    universe = sorted({term for doc in docs for term in doc_terms(doc)} | {"zz", "a zz"})
    terms = data.draw(st.lists(st.sampled_from(universe), unique=True, max_size=12))
    vocab = Vocabulary(terms=terms, df=np.ones(len(terms)), n_docs=2, min_df=1)
    assert same_csr(tfidf_transform(vocab, docs), oracle_tfidf(vocab, docs))


def test_a_bigram_without_its_unigrams_is_counted():
    vocab = Vocabulary(terms=["chest pain", "a b"], df=[1, 1], n_docs=1, min_df=1)
    docs = [[["chest", "pain", "chest", "pain"]], [["a b", "a", "b"]]]
    X = tfidf_transform(vocab, docs)
    # The token "a b" and the bigram "a b" are the same term.
    assert (X.toarray() > 0).tolist() == [[True, False], [False, True]]
    assert same_csr(X, oracle_tfidf(vocab, docs))


ODD_DOCS = [
    [["a", "b", "c"], ["b", "c"], ["", "a"], [" a", "b"]],
    [["a b", "c", "a", "b c"]],
    [["x", "y"], ["", ""], ["a", "x y", "z"]],
    [],
]


@pytest.mark.parametrize(
    "terms",
    [
        ["a b c", "a", "b c"],  # two spaces: split after "a" or after "a b"
        [" a", " a b", "a"],  # a leading space: the empty token, then "a"
        ["", " ", "a"],  # the empty term, and the bigram of two empty tokens
        ["x y", "b c"],  # bigrams whose parts are no terms
        ["a b", "x y z", "b c"],  # tokens that hold a space
    ],
)
def test_odd_terms_equal_the_oracles(terms):
    vocab = Vocabulary(terms=terms, df=np.arange(1, len(terms) + 1), n_docs=4, min_df=1)
    assert same_csr(tfidf_transform(vocab, ODD_DOCS), oracle_tfidf(vocab, ODD_DOCS))


def test_row_norms_add_each_rows_squares_in_order():
    """Every row length from 0 to 300, shuffled among empty rows, with squares
    scaled by 1e-6, 1 and 1e6: each row is divided by the square root of its
    squares added one by one, in order, from 0.0, bit for bit."""
    rng = np.random.default_rng(7)
    lengths = rng.permutation(np.concatenate([np.arange(301), np.arange(1, 41), [0, 0]]))
    values = rng.random(lengths.sum()) * rng.choice([1e-3, 1.0, 1e3], lengths.sum())
    rows = np.repeat(np.arange(len(lengths)), lengths)
    expected = []
    for row in np.split(values, np.cumsum(lengths)[:-1]):
        total = 0.0
        for value in row.tolist():
            total += value * value
        expected.extend(value / math.sqrt(total) for value in row.tolist())
    normalized = values.copy()
    features._normalize(normalized, np.zeros(len(values), dtype=np.int64), rows, np.ones(1))
    assert np.array_equal(normalized, expected)


@pytest.mark.parametrize("block_tokens", [1, 4])
def test_featurizer_equals_the_oracles_across_small_blocks(block_tokens):
    """Documents, and single documents longer than a block, fall on block
    edges: the results must not move."""
    with mock.patch.object(features, "BLOCK_TOKENS", block_tokens):
        test_vocabulary_equals_the_first_seen_oracle()
        test_transforms_equal_the_per_document_oracle()


@given(token_docs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=100, deadline=None)
def check_fit_rows_equals_two_calls_and_the_oracles(docs, min_df):
    docs = [*docs, [], [[]]]  # an empty document, and one of an empty segment
    try:
        expected = oracle_vocabulary(docs, min_df=min_df)
    except FitError as error:
        with pytest.raises(FitError, match=re.escape(str(error))):
            fit_rows(map(Block.document_rows, document_blocks(iter(docs))), min_df=min_df)
        return
    # One pass over a one-shot iterator.
    vocab, X = fit_rows(map(Block.document_rows, document_blocks(iter(docs))), min_df=min_df)
    two_calls = fit_vocabulary(docs, min_df=min_df)
    for other in (expected, two_calls):
        assert vocab.terms == other.terms
        assert np.array_equal(vocab.df, other.df)
        assert (vocab.n_docs, vocab.min_df) == (other.n_docs, other.min_df)
    transformed = tfidf_transform(two_calls, docs)
    assert same_csr(X, transformed) and same_csr(X, oracle_tfidf(expected, docs))
    assert (X.indices.dtype, X.indptr.dtype) == (transformed.indices.dtype, transformed.indptr.dtype)


@pytest.mark.parametrize("block_tokens", [1, 4, features.BLOCK_TOKENS])
def test_fit_tfidf_equals_fit_then_transform_and_the_oracles(block_tokens):
    """Blocks of one token, of four, and of the default size."""
    with mock.patch.object(features, "BLOCK_TOKENS", block_tokens):
        check_fit_rows_equals_two_calls_and_the_oracles()


@pytest.mark.parametrize("docs", [DOCS, ODD_DOCS], ids=["docs", "odd-docs"])
def test_fit_tfidf_counts_tokens_with_spaces_as_their_bigrams(docs):
    vocab, X = fit_rows(map(Block.document_rows, document_blocks(docs)), min_df=1)
    assert same_csr(X, oracle_tfidf(oracle_vocabulary(docs, min_df=1), docs))
