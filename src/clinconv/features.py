"""Bag-of-ngram features: tokenization, vocabulary fitting, TF-IDF weighting.

A document is a list of token segments (one segment per utterance); bigrams
are formed inside a segment and never across segment boundaries. A plain list
of tokens is accepted as a single segment. The transforms take a sequence of
documents and return one CSR matrix with a row per document.

Fitting and counting walk the documents in blocks of about ``BLOCK_TOKENS``
tokens. A block holds whole documents; one longer than the budget is a block
of its own. Inside a block the tokens are interned to integer ids, so that
unigrams map to columns through an id array and each distinct within-segment
bigram is spelled out and looked up once. Temporaries stay bounded by the
block, not by the corpus.
"""

from __future__ import annotations

import json
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, count

import numpy as np
import scipy.sparse as sp

from .errors import FitError, ValidationError
from .jsonio import Fields, build, sha256_text

_TOKEN = re.compile(r"[0-9a-z]+")

Doc = Sequence  # Sequence[str] or Sequence[Sequence[str]]

# Tokens per block, for the featurizer here and for the groups of transcripts
# that filter selection scores at once.
BLOCK_TOKENS = 1 << 15


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs; punctuation splits. "COVID-19" -> [covid, 19]."""
    return _TOKEN.findall(text.lower())


def _as_segments(doc: Doc) -> list[Sequence[str]]:
    if not doc:
        return []
    if isinstance(doc[0], str):
        return [doc]
    return list(doc)


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


@dataclass
class _Block:
    """Interned tokens of consecutive whole documents.

    ``ids[p]`` is the id of token ``p`` and ``tokens[i]`` the text of id ``i``;
    ``rows[p]`` is the block-local document of token ``p``. ``bigram_ends``
    lists the positions that complete a within-segment bigram.
    """

    n_docs: int
    tokens: list[str]
    ids: np.ndarray
    rows: np.ndarray
    bigram_ends: np.ndarray

    def bigram_codes(self) -> np.ndarray:
        """``a * T + b`` for the bigram (a, b) ending at each of ``bigram_ends``."""
        ends = self.bigram_ends
        return self.ids[ends - 1] * len(self.tokens) + self.ids[ends]

    def bigram_terms(self, codes: np.ndarray) -> Iterator[str]:
        first, second = np.divmod(codes, len(self.tokens))
        tokens = self.tokens
        return (f"{tokens[a]} {tokens[b]}" for a, b in zip(first.tolist(), second.tolist()))


def _make_block(docs: list[list[Sequence[str]]]) -> _Block:
    segments = list(chain.from_iterable(docs))
    flat = list(chain.from_iterable(segments))
    # dict.fromkeys keeps first-seen order, so ids number tokens as they appear.
    interned = dict(zip(dict.fromkeys(flat), count()))
    lengths = np.fromiter(map(len, segments), dtype=np.int64, count=len(segments))
    segment_rows = np.repeat(
        np.arange(len(docs)), np.fromiter(map(len, docs), dtype=np.int64, count=len(docs))
    )
    n = len(flat)
    continues = np.ones(n, dtype=bool)
    continues[(np.cumsum(lengths) - lengths)[lengths > 0]] = False
    return _Block(
        n_docs=len(docs),
        tokens=list(interned),
        ids=np.fromiter(map(interned.__getitem__, flat), dtype=np.int64, count=n),
        rows=np.repeat(segment_rows, lengths),
        bigram_ends=np.flatnonzero(continues),
    )


def token_groups(docs: Iterable[list[Sequence[str]]]) -> Iterator[list[list[Sequence[str]]]]:
    """Consecutive whole segment-list documents, about ``BLOCK_TOKENS`` tokens
    (and at most that many documents) per group."""
    group: list[list[Sequence[str]]] = []
    size = 0
    for segments in docs:
        group.append(segments)
        size += sum(map(len, segments))
        if size >= BLOCK_TOKENS or len(group) >= BLOCK_TOKENS:
            yield group
            group, size = [], 0
    if group:
        yield group


def _blocks(docs: Iterable[Doc]) -> Iterator[_Block]:
    return map(_make_block, token_groups(map(_as_segments, docs)))


def fit_vocabulary(docs: Iterable[Doc], min_df: int = 2) -> Vocabulary:
    """Collect unigrams and bigrams with document frequency >= min_df.

    Terms keep first-seen order, which makes feature indices reproducible for
    a given corpus ordering: each token, then the bigram it completes.
    """
    if min_df < 1:
        raise ValidationError("min_df must be >= 1")
    term_ids: dict[str, int] = {}
    df = np.zeros(0, dtype=np.int64)
    n_docs = 0
    for block in _blocks(docs):
        n_docs += block.n_docs
        ids, ends, n_ids = block.ids, block.bigram_ends, len(block.tokens)
        # Ids number tokens as they first appear, so a token is new exactly
        # where the running maximum of the ids steps up.
        token_first = np.flatnonzero(np.diff(np.maximum.accumulate(ids), prepend=-1))
        codes, bigram_first, inverse = np.unique(
            block.bigram_codes(), return_index=True, return_inverse=True
        )
        # In stream order token p sits at slot 2p and the bigram it completes
        # at slot 2p+1; terms take global ids in order of their first slot.
        slots = np.concatenate([2 * token_first, 2 * ends[bigram_first] + 1])
        names = [*block.tokens, *block.bigram_terms(codes)]
        global_ids = np.empty(len(names), dtype=np.int64)
        for k in np.argsort(slots).tolist():
            global_ids[k] = term_ids.setdefault(names[k], len(term_ids))
        # Each (document, term) pair once, coded row * n_terms + term.
        n_terms = len(term_ids)
        pairs = np.empty(len(ids) + len(ends), dtype=np.int64)
        np.multiply(block.rows, n_terms, out=pairs[: len(ids)])
        pairs[: len(ids)] += global_ids[ids]
        np.multiply(block.rows[ends], n_terms, out=pairs[len(ids) :])
        pairs[len(ids) :] += global_ids[n_ids + inverse]
        pairs.sort()
        first_of_pair = np.diff(pairs, prepend=-1) != 0
        df = np.concatenate([df, np.zeros(n_terms - len(df), dtype=np.int64)])
        df += np.bincount(pairs[first_of_pair] % n_terms, minlength=n_terms)
    keep = df >= min_df
    terms = [term for term, kept in zip(term_ids, keep.tolist()) if kept]
    if not terms:
        raise FitError(
            f"empty vocabulary: no term reaches document frequency {min_df} "
            f"across {n_docs} documents"
        )
    return Vocabulary(terms=terms, df=df[keep], n_docs=n_docs, min_df=min_df)


def _block_counts(vocab: Vocabulary, block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``row * len(vocab) + column`` keys of a block and their counts."""
    index = vocab.index
    unigram_columns = np.array([index.get(token, -1) for token in block.tokens], dtype=np.int64)
    codes, inverse = np.unique(block.bigram_codes(), return_inverse=True)
    bigram_columns = np.fromiter(
        (index.get(term, -1) for term in block.bigram_terms(codes)),
        dtype=np.int64,
        count=len(codes),
    )
    # One key per unigram and bigram, built in place; -1 marks a term the
    # vocabulary lacks, and those sort first.
    n = len(block.ids)
    keys = np.empty(n + len(inverse), dtype=np.int64)
    for part, rows, columns in (
        (keys[:n], block.rows, unigram_columns[block.ids]),
        (keys[n:], block.rows[block.bigram_ends], bigram_columns[inverse]),
    ):
        np.multiply(rows, len(vocab), out=part)
        part += columns
        part[columns < 0] = -1
    keys.sort()
    keys = keys[np.searchsorted(keys, 0) :]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.diff(starts, append=len(keys))


def _normalize(values: np.ndarray, columns: np.ndarray, lengths: np.ndarray, idf: np.ndarray) -> None:
    """Weight one block's counts by idf and scale each row to unit L2 norm, in place."""
    values *= idf[columns]
    squares = values**2
    starts = np.cumsum(lengths) - lengths
    norms = np.zeros(len(lengths))
    # Rows of one length are summed together as a 2-D array, one row each:
    # that equals summing each row's slice alone, bit for bit, where a
    # segment sum such as np.add.reduceat can differ in the last bit.
    for length in np.unique(lengths[lengths > 0]).tolist():
        rows = np.flatnonzero(lengths == length)
        norms[rows] = np.sqrt(np.sum(squares[starts[rows, None] + np.arange(length)], axis=1))
    norms[~(norms > 0)] = 1.0
    values /= np.repeat(norms, lengths)


def _transform(vocab: Vocabulary, docs: Sequence[Doc], idf: np.ndarray | None) -> sp.csr_matrix:
    """Counts per document, or tf-idf rows when ``idf`` is given."""
    if isinstance(docs, str):
        raise ValidationError("documents must be a sequence, not a string")
    for i, doc in enumerate(docs):
        if isinstance(doc, str):
            raise ValidationError(
                f"document {i} is a string; pass token lists or segment lists"
            )
    width = len(vocab)
    # The buffers become the matrix's own arrays: 32-bit columns where they fit.
    indices = array("i" if width <= np.iinfo(np.int32).max else "q")
    values = array("d")
    indptr = array("q", [0])
    for block in _blocks(docs):
        keys, counts = _block_counts(vocab, block)
        rows, columns = np.divmod(keys, max(width, 1))
        lengths = np.bincount(rows, minlength=block.n_docs)
        weights = counts.astype(np.float64)
        if idf is not None:
            _normalize(weights, columns, lengths, idf)
        indptr.frombytes((len(indices) + np.cumsum(lengths)).tobytes())
        indices.frombytes(columns.astype(indices.typecode).tobytes())
        values.frombytes(weights.tobytes())
    return sp.csr_matrix(
        (
            np.frombuffer(values, dtype=np.float64),
            np.frombuffer(indices, dtype=indices.typecode),
            np.frombuffer(indptr, dtype=np.int64),
        ),
        shape=(len(indptr) - 1, width),
    )


def count_transform(vocab: Vocabulary, docs: Sequence[Doc]) -> sp.csr_matrix:
    """Raw in-vocabulary term counts, one row per document.

    Out-of-vocabulary terms are dropped; a document with no in-vocabulary
    term is a zero row. Column indices ascend within each row.
    """
    return _transform(vocab, docs, None)


def tfidf_transform(vocab: Vocabulary, docs: Sequence[Doc]) -> sp.csr_matrix:
    """TF-IDF with idf = ln((1+n_docs)/(1+df)) + 1, each row L2-normalized.

    A document with no in-vocabulary terms maps to the zero row.
    """
    return _transform(vocab, docs, vocab.idf())


def vocabulary_entries(vocab: Vocabulary) -> dict:
    """The ``vocab`` and ``vocab_hash`` keys of a record that holds ``vocab``."""
    record = {
        "terms": list(vocab.terms),
        "df": vocab.df.tolist(),
        "n_docs": vocab.n_docs,
        "min_df": vocab.min_df,
    }
    return {"vocab": record, "vocab_hash": sha256_text(json.dumps(record, sort_keys=True))}


def read_vocabulary(fields: Fields) -> Vocabulary:
    """The inverse of :func:`vocabulary_entries`. The hash catches a vocabulary
    whose terms were reordered or swapped, which would otherwise score silently."""
    vocab_fields = fields.section("vocab")
    terms = vocab_fields.strings("terms")
    vocab = build(
        vocab_fields.source,
        Vocabulary,
        terms=list(terms),
        df=vocab_fields.array("df", (len(terms),), int),
        n_docs=vocab_fields.get("n_docs", int),
        min_df=vocab_fields.get("min_df", int),
    )
    if fields.get("vocab_hash", str) != vocabulary_entries(vocab)["vocab_hash"]:
        raise fields.fail(
            "vocabulary hash mismatch; the model file was built "
            "against a different vocabulary"
        )
    return vocab
