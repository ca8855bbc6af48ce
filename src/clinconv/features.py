"""Bag-of-ngram features: tokenization, vocabulary fitting, TF-IDF weighting.

A document is a list of token segments (one segment per utterance); bigrams
are formed inside a segment and never across segment boundaries. A plain list
of tokens is accepted as a single segment. The transforms take a sequence of
documents and return one CSR matrix with a row per document.
"""

from __future__ import annotations

import json
import re
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import FitError, ValidationError
from .jsonio import sha256_text

_TOKEN = re.compile(r"[0-9a-z]+")

Doc = Sequence  # Sequence[str] or Sequence[Sequence[str]]


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs; punctuation splits. "COVID-19" -> [covid, 19]."""
    return _TOKEN.findall(text.lower())


def _as_segments(doc: Doc) -> list[Sequence[str]]:
    if not doc:
        return []
    if isinstance(doc[0], str):
        return [doc]
    return list(doc)


def doc_terms(doc: Doc) -> Iterator[str]:
    """Stream unigrams and within-segment adjacency bigrams.

    Yield order is positional: each token, then the bigram it completes, so
    first-seen vocabulary order is deterministic.
    """
    for segment in _as_segments(doc):
        previous = None
        for token in segment:
            yield token
            if previous is not None:
                yield f"{previous} {token}"
            previous = token


@dataclass
class Vocabulary:
    terms: list[str]
    df: np.ndarray  # document frequency per term
    n_docs: int
    min_df: int
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.df = np.asarray(self.df, dtype=np.int64)
        if self.df.shape != (len(self.terms),):
            raise ValidationError("df length must match terms")
        self.index = {term: i for i, term in enumerate(self.terms)}
        if len(self.index) != len(self.terms):
            raise ValidationError("vocabulary terms must be unique")

    def __len__(self) -> int:
        return len(self.terms)

    def idf(self) -> np.ndarray:
        # Smoothed log ratio, floored at 1 by the +1 term.
        return np.log((1.0 + self.n_docs) / (1.0 + self.df)) + 1.0


def fit_vocabulary(docs: Iterable[Doc], min_df: int = 2) -> Vocabulary:
    """Collect unigrams and bigrams with document frequency >= min_df.

    Terms keep first-seen order, which makes feature indices reproducible for
    a given corpus ordering.
    """
    if min_df < 1:
        raise ValidationError("min_df must be >= 1")
    order: dict[str, None] = {}
    df_counts: Counter[str] = Counter()
    n_docs = 0
    for doc in docs:
        n_docs += 1
        seen: set[str] = set()
        for term in doc_terms(doc):
            if term not in order:
                order[term] = None
            if term not in seen:
                seen.add(term)
                df_counts[term] += 1
    terms = [term for term in order if df_counts[term] >= min_df]
    if not terms:
        raise FitError(
            f"empty vocabulary: no term reaches document frequency {min_df} "
            f"across {n_docs} documents"
        )
    df = np.array([df_counts[term] for term in terms], dtype=np.int64)
    return Vocabulary(terms=terms, df=df, n_docs=n_docs, min_df=min_df)


def count_transform(vocab: Vocabulary, docs: Sequence[Doc]) -> sp.csr_matrix:
    """Raw in-vocabulary term counts, one row per document.

    Out-of-vocabulary terms are dropped; a document with no in-vocabulary
    term is a zero row. Column indices ascend within each row.
    """
    if isinstance(docs, str):
        raise ValidationError("documents must be a sequence, not a string")
    index = vocab.index
    indices = array("q")
    values = array("d")
    indptr = array("q", [0])
    for doc in docs:
        if isinstance(doc, str):
            raise ValidationError(
                f"document {len(indptr) - 1} is a string; pass token lists or segment lists"
            )
        counts: dict[int, int] = {}
        for term in doc_terms(doc):
            j = index.get(term)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        for j in sorted(counts):
            indices.append(j)
            values.append(counts[j])
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.asarray(values), np.asarray(indices), np.asarray(indptr)),
        shape=(len(indptr) - 1, len(vocab)),
    )


def tfidf_transform(vocab: Vocabulary, docs: Sequence[Doc]) -> sp.csr_matrix:
    """TF-IDF with idf = ln((1+n_docs)/(1+df)) + 1, each row L2-normalized.

    A document with no in-vocabulary terms maps to the zero row.
    """
    X = count_transform(vocab, docs)
    X.data *= vocab.idf()[X.indices]
    # Each row's norm sums its own slice, so it equals the norm of that row
    # computed alone; a vectorised segment sum can differ in the last bit.
    squares = X.data**2
    bounds = X.indptr.tolist()
    norms = np.sqrt([np.sum(squares[a:b]) for a, b in zip(bounds, bounds[1:])])
    norms[~(norms > 0)] = 1.0
    X.data /= np.repeat(norms, np.diff(X.indptr))
    return X


def vocabulary_hash(vocab: Vocabulary) -> str:
    payload = json.dumps(
        {
            "terms": vocab.terms,
            "df": vocab.df.tolist(),
            "n_docs": vocab.n_docs,
            "min_df": vocab.min_df,
        },
        sort_keys=True,
    )
    return sha256_text(payload)


def vocabulary_to_record(vocab: Vocabulary) -> dict:
    return {
        "terms": list(vocab.terms),
        "df": vocab.df.tolist(),
        "n_docs": vocab.n_docs,
        "min_df": vocab.min_df,
    }


def vocabulary_from_record(record: dict) -> Vocabulary:
    return Vocabulary(
        terms=list(record["terms"]),
        df=np.asarray(record["df"], dtype=np.int64),
        n_docs=int(record["n_docs"]),
        min_df=int(record["min_df"]),
    )
