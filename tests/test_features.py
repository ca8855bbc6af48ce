"""Tokenization, vocabulary fitting, and TF-IDF transforms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinconv import (
    FitError,
    ValidationError,
    Vocabulary,
    count_transform,
    fit_vocabulary,
    tfidf_transform,
    tokenize,
)
from clinconv.features import doc_terms
from oracles import oracle_counts, oracle_tfidf, same_csr

DOCS = [
    [["chest", "pain", "today"], ["no", "chest", "pain"]],
    [["chest", "pain"], ["short", "of", "breath"]],
    [["routine", "visit"]],
]


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("COVID-19, again?") == ["covid", "19", "again"]
    assert tokenize("...") == []


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


def test_count_transform_drops_out_of_vocabulary_terms():
    vocab = fit_vocabulary(DOCS, min_df=2)
    X = count_transform(vocab, [[["chest", "pain", "unseen"]]])
    assert X.shape == (1, len(vocab))
    dense = X.toarray()[0]
    assert dense[vocab.index["chest"]] == 1
    assert dense.sum() == 3  # chest, pain, "chest pain"


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
    for transform in (count_transform, tfidf_transform):
        with pytest.raises(ValidationError):
            transform(vocab, ["chest", "pain"])  # one document, not two
        with pytest.raises(ValidationError):
            transform(vocab, "chest pain")


def test_transforms_of_no_documents_are_empty_matrices():
    vocab = fit_vocabulary(DOCS, min_df=1)
    for transform in (count_transform, tfidf_transform):
        X = transform(vocab, [])
        assert X.shape == (0, len(vocab)) and X.nnz == 0


def test_duplicate_terms_rejected():
    with pytest.raises(ValidationError):
        Vocabulary(terms=["a", "a"], df=np.array([1, 1]), n_docs=1, min_df=1)


@st.composite
def token_docs(draw):
    token = st.text(alphabet="abcdef", min_size=1, max_size=3)
    segment = st.lists(token, min_size=0, max_size=5)
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
    """Plain token lists and segment lists, with terms the vocabulary lacks."""
    token = st.text(alphabet="abcdefxyz", min_size=1, max_size=3)
    segment = st.lists(token, min_size=0, max_size=5)
    docs = draw(st.lists(st.one_of(segment, st.lists(segment, max_size=4)), max_size=8))
    return docs + [[], ["xyz"], [["xyz", "zz"], []]]


@given(token_docs(), query_docs(), st.integers(min_value=1, max_value=2))
@settings(max_examples=150, deadline=None)
def test_transforms_equal_the_per_document_oracle(docs, queries, min_df):
    try:
        vocab = fit_vocabulary(docs, min_df=min_df)
    except FitError:
        return
    for corpus in (docs, queries):
        assert same_csr(count_transform(vocab, corpus), oracle_counts(vocab, corpus))
        assert same_csr(tfidf_transform(vocab, corpus), oracle_tfidf(vocab, corpus))
