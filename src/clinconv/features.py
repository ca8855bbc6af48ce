"""Bag-of-ngram features: tokenization, vocabulary fitting, TF-IDF weighting.

A token is a run of ``0-9a-z`` in the lowercased text. :func:`tokenize_table`
finds the tokens of many texts without a Python frame per text: each text is
lowercased, encoded to UTF-8 and run through one 256-byte table that maps
every byte outside ``0-9a-z`` to a space, each step a C-level ``map``; then
the texts are joined with spaces, decoded and split once. Per text, that is
exact: lowering comes first, so a code point that lowers to ASCII (U+212A
KELVIN SIGN to "k") still yields its letter, every other non-ASCII code
point encodes to bytes of 0x80 and above, which become spaces, and
``surrogatepass`` encodes a lone surrogate, which the transcript reader
accepts, instead of raising. The join is exact too, because it comes after
the table: every byte that is no token character, NUL and newline included,
is already a space, so a joining space can neither merge two tokens nor
split one. How many tokens each text holds is read from the joined bytes
with numpy, as the token starts (a token byte after a space) in its span.

The result is a token table: one flat list of the tokens of every
utterance, in order, and the number of tokens of each utterance. A document
is a sequence of utterances; bigrams are formed inside an utterance, never
across two. The transform returns one CSR matrix with a row per document.
The public functions take documents of utterance token lists and flatten
each into a table.

Only this module decides how utterances become rows. :func:`blocks` joins
the tables of documents, as they are read, into a :class:`Block` of whole
documents per about ``BLOCK_TOKENS`` tokens, so temporaries stay bounded by
the block, not by the corpus. Callers give each utterance of a block its
row, or -1 to leave it out: here a document is a row, the filter gives each
utterance a row, and a pipeline gives each utterance it keeps its
transcript's row. A block whose utterances all have a row is counted from
its own token list; otherwise the tokens of the kept utterances are
gathered first.

Fitting interns each block's tokens to keep first-seen term order and keeps
of the block only its (row, term) counts, as integers; a training matrix is
weighted from those once the vocabulary is known, so training reads its
documents once and holds no token of the corpus past its block. The
transform looks tokens up in tables that a :class:`Vocabulary` compiles
once: a token id for every term and every part of a bigram term, and the
sorted codes ``left * (n_tokens + 1) + right`` of its bigram terms. No bigram
is spelled out while counting.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count, repeat, starmap
from operator import itemgetter

import numpy as np
import scipy.sparse as sp

from .errors import FitError, ValidationError
from .jsonio import Fields, build, sha256_text

# A translation table of bytes: each byte that is no token character becomes a space.
_TOKEN_CHARS = b"0123456789abcdefghijklmnopqrstuvwxyz"
_TOKEN_BYTES = bytes(b if b in _TOKEN_CHARS else 0x20 for b in range(256))

# Tokens per block, for the featurizer here and for the groups of transcripts
# that filter selection scores at once.
BLOCK_TOKENS = 1 << 15

# The tokens of a sequence of utterances, in order, and how many each holds.
Table = tuple[list[str], np.ndarray]


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric runs; punctuation splits. "COVID-19" -> [covid, 19]."""
    return tokenize_table((text,))[0]


def tokenize_all(texts: Iterable[str]) -> list[list[str]]:
    """:func:`tokenize` of each text."""
    tokens, lengths = tokenize_table(texts)
    ends = lengths.cumsum().tolist()
    return list(map(tokens.__getitem__, map(slice, [0, *ends], ends)))


def tokenize_table(texts: Iterable[str]) -> Table:
    """The tokens of all ``texts`` in one list, and how many each text holds,
    from C-level maps over the texts and one split of them all."""
    encoded = map(str.encode, map(str.lower, texts), repeat("utf-8"), repeat("surrogatepass"))
    spaced = list(map(bytes.translate, encoded, repeat(_TOKEN_BYTES)))
    # A space before, between and after the texts: each token starts where a
    # space ends, and text u with its trailing space starts at byte begins[u]
    # of the rises below.
    padded = b" ".join([b"", *spaced, b""])
    is_token = np.frombuffer(padded, np.uint8) != 0x20
    rises = is_token[1:] > is_token[:-1]
    sizes = np.fromiter(map(len, spaced), np.int64, len(spaced))
    sizes += 1
    begins = sizes.cumsum()
    begins -= sizes
    return padded.decode().split(), np.add.reduceat(rises, begins, dtype=np.int64)


def token_table(utterances: Sequence[Sequence[str]]) -> Table:
    """The table of utterances given as token lists."""
    lengths = np.fromiter(map(len, utterances), np.int64, len(utterances))
    return list(chain.from_iterable(utterances)), lengths


@dataclass(frozen=True)
class Vocabulary:
    """Terms with their document frequencies, and the lookup tables that
    the transform uses, built once here."""

    terms: list[str]
    df: np.ndarray  # document frequency per term, read-only
    n_docs: int
    min_df: int
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    # Token ids: term j is token j; parts of bigram terms that are no term
    # follow. A bigram code is left_id * (len(token_ids) + 1) + right_id.
    token_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    bigram_codes: np.ndarray = field(init=False, repr=False, compare=False)  # ascending
    bigram_columns: np.ndarray = field(init=False, repr=False, compare=False)
    _idf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        df = np.array(self.df, dtype=np.int64)
        if df.shape != (len(self.terms),):
            raise ValidationError("df length must match terms")
        index = dict(zip(self.terms, count()))
        if len(index) != len(self.terms):
            raise ValidationError("vocabulary terms must be unique")
        columns, lefts, rights = _bigram_splits(self.terms)
        parts = [part for part in dict.fromkeys(chain(lefts, rights)) if part not in index]
        # A fitted vocabulary holds the parts of its bigrams, so it shares one dict.
        token_ids = index | dict(zip(parts, count(len(index)))) if parts else index
        codes = np.fromiter(map(token_ids.__getitem__, lefts), np.int64, len(lefts))
        codes *= len(token_ids) + 1
        codes += np.fromiter(map(token_ids.__getitem__, rights), np.int64, len(rights))
        order = np.argsort(codes)
        # Smoothed log ratio, floored at 1 by the +1 term.
        idf = np.log((1.0 + self.n_docs) / (1.0 + df)) + 1.0
        for name, value in (
            ("df", df),
            ("index", index),
            ("token_ids", token_ids),
            ("bigram_codes", codes[order]),
            ("bigram_columns", np.array(columns, dtype=np.int64)[order]),
            ("_idf", idf),
        ):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.terms)

    def idf(self) -> np.ndarray:
        """ln((1 + n_docs) / (1 + df)) + 1 per term, read-only."""
        return self._idf


def _bigram_splits(terms: Sequence[str]) -> tuple[list[int], list[str], list[str]]:
    """Every split of a term at a space: its column, left part and right part.

    A term with k spaces is the bigram of k (left, right) token pairs; all
    of them count as that term.
    """
    spaces = np.fromiter(map(str.count, terms, repeat(" ")), np.int64, len(terms))
    columns = np.flatnonzero(spaces == 1).tolist()
    halves = list(map(str.partition, map(terms.__getitem__, columns), repeat(" ")))
    lefts = list(map(itemgetter(0), halves))
    rights = list(map(itemgetter(2), halves))
    for j in np.flatnonzero(spaces > 1).tolist():
        parts = terms[j].split(" ")
        for k in range(1, len(parts)):
            columns.append(j)
            lefts.append(" ".join(parts[:k]))
            rights.append(" ".join(parts[k:]))
    return columns, lefts, rights


@dataclass
class Block:
    """The utterances of consecutive whole documents, in order, as one token
    table: ``stream`` holds every token, utterance ``u`` the next
    ``lengths[u]`` of them, and document ``d`` owns utterances
    ``starts[d]:starts[d + 1]``."""

    stream: list[str]
    lengths: np.ndarray
    starts: np.ndarray

    def document_rows(self, kept: np.ndarray | None = None) -> Rows:
        """The block with each utterance on the row of its document, if
        ``kept`` (one flag per utterance of the block) is true for it or is
        None; any other utterance is left out (row -1)."""
        # ndarray methods, unlike their numpy functions, run no Python frame,
        # which every one-visit call would pay.
        n_docs = len(self.starts) - 1
        rows = np.arange(n_docs).repeat(self.starts[1:] - self.starts[:-1])
        if kept is not None:
            rows[~kept] = -1
        return self, rows, n_docs

    def utterance_rows(self) -> Rows:
        """The block with each utterance on a row of its own."""
        n = len(self.lengths)
        return self, np.arange(n), n

    def tokens(self, rows: np.ndarray) -> tuple[list[str], np.ndarray, np.ndarray]:
        """The tokens of the utterances that have a row, in order, the row of
        each, and the positions that complete a within-utterance bigram."""
        kept = rows >= 0
        lengths = self.lengths[kept]
        tokens = self.stream
        if len(lengths) < len(kept):
            tokens = list(compress(tokens, kept.repeat(self.lengths).tolist()))
        # An utterance's first token completes no bigram; the extra slot takes
        # the end offset and the offsets of trailing empty utterances.
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        lengths.cumsum(out=offsets[1:])
        continues = np.ones(len(tokens) + 1, dtype=bool)
        continues[offsets] = False
        return tokens, rows[kept].repeat(lengths), continues[:-1].nonzero()[0]


# A block, each utterance's row or -1, and the number of rows (the last may be empty).
Rows = tuple[Block, np.ndarray, int]


def blocks(tables: Iterable[Table]) -> Iterator[Block]:
    """Cut documents, each a table of its utterances, into blocks as they are read.

    A block closes once its tokens, plus one per document, reach
    ``BLOCK_TOKENS``: it holds at most that many documents, and about that
    many tokens unless one document alone is longer.
    """
    stream: list[str] = []
    lengths: list[np.ndarray] = []
    starts = [0]
    for tokens, counts in tables:
        stream += tokens
        lengths.append(counts)
        starts.append(starts[-1] + len(counts))
        if len(stream) + len(lengths) >= BLOCK_TOKENS:
            yield Block(stream, np.concatenate(lengths), np.array(starts))
            stream, lengths, starts = [], [], [0]
    if lengths:
        yield Block(stream, np.concatenate(lengths), np.array(starts))


def document_blocks(docs: Iterable[Sequence[Sequence[str]]]) -> Iterator[Block]:
    """Check documents of utterance token lists and cut them into :func:`blocks`."""
    if isinstance(docs, str):
        raise ValidationError("documents must be a sequence, not a string")
    return blocks(map(_checked_table, docs, count()))


def _checked_table(doc: Sequence[Sequence[str]], i: int) -> Table:
    """The :func:`token_table` of document ``i``, which holds no string where
    a document or an utterance should be."""
    if isinstance(doc, str):
        raise ValidationError(f"document {i} is a string, not a list of token lists")
    # A string utterance would be read as its characters. map calls type
    # from C: a Python frame per type, not per utterance.
    if any(issubclass(t, str) for t in set(map(type, doc))):
        at = next(u for u, tokens in enumerate(doc) if isinstance(tokens, str))
        raise ValidationError(f"document {i} utterance {at} is a string, not a token list")
    return token_table(doc)


def _index_dtype(bound: int) -> type:
    """int32 when it holds every value below ``bound``, else int64."""
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def _block_pairs(
    term_ids: dict[str, int], block: Block, rows: np.ndarray, n_rows: int
) -> tuple[np.ndarray, ...]:
    """Number the new terms of a block's rows in ``term_ids`` and count them.

    Returns the (row, term) pairs in ascending order as three integer arrays:
    the global term id of each pair, its count, and the number of pairs of
    each of the ``n_rows`` rows. No token of the block outlives it.
    """
    stream, rows, ends = block.tokens(rows)
    # dict.fromkeys keeps first-seen order, so ids number tokens as they appear.
    interned = dict(zip(dict.fromkeys(stream), count()))
    tokens = list(interned)
    n_ids = len(tokens)
    ids = np.fromiter(map(interned.__getitem__, stream), np.int64, len(stream))
    # Ids number tokens as they first appear, so a token is new exactly
    # where the running maximum of the ids steps up.
    token_first = np.flatnonzero(np.diff(np.maximum.accumulate(ids), prepend=-1))
    codes, bigram_first, inverse = np.unique(
        ids[ends - 1] * n_ids + ids[ends], return_index=True, return_inverse=True
    )
    first, second = np.divmod(codes, n_ids)
    bigrams = (f"{tokens[a]} {tokens[b]}" for a, b in zip(first.tolist(), second.tolist()))
    # In stream order token p sits at slot 2p and the bigram it completes
    # at slot 2p+1; terms take global ids in order of their first slot.
    slots = np.concatenate([2 * token_first, 2 * ends[bigram_first] + 1])
    names = [*tokens, *bigrams]
    global_ids = np.empty(len(names), dtype=np.int64)
    for k in np.argsort(slots).tolist():
        global_ids[k] = term_ids.setdefault(names[k], len(term_ids))
    # Every occurrence coded row * n_terms + term, sorted, then each pair once.
    n_terms = len(term_ids)
    pairs = np.empty(len(ids) + len(ends), dtype=np.int64)
    np.multiply(rows, n_terms, out=pairs[: len(ids)])
    pairs[: len(ids)] += global_ids[ids]
    np.multiply(rows[ends], n_terms, out=pairs[len(ids) :])
    pairs[len(ids) :] += global_ids[n_ids + inverse]
    pairs.sort()
    starts = np.flatnonzero(np.diff(pairs, prepend=-1))
    pair_rows, terms = np.divmod(pairs[starts], n_terms)
    small = _index_dtype(len(pairs))
    return (
        terms.astype(_index_dtype(n_terms)),
        np.diff(starts, append=len(pairs)).astype(small),
        np.bincount(pair_rows, minlength=n_rows).astype(small),
    )


def _fit(pieces: Iterable[Rows], min_df: int) -> tuple[Vocabulary, list, np.ndarray]:
    """The vocabulary, each block's pairs from :func:`_block_pairs`, and
    which of the terms numbered there the vocabulary keeps."""
    if min_df < 1:
        raise ValidationError("min_df must be >= 1")
    term_ids: dict[str, int] = {}
    # starmap, unlike a for loop, holds no block while it reads the next one.
    counted = list(starmap(partial(_block_pairs, term_ids), pieces))
    df = np.zeros(len(term_ids), dtype=np.int64)
    for terms, _, _ in counted:
        df += np.bincount(terms, minlength=len(df))
    n_docs = sum(len(lengths) for _, _, lengths in counted)
    keep = df >= min_df
    terms = [term for term, kept in zip(term_ids, keep.tolist()) if kept]
    if not terms:
        # A row with no pair holds no token: a selection that kept nothing says so.
        empty = sum(int(np.count_nonzero(lengths == 0)) for _, _, lengths in counted)
        raise FitError(
            f"empty vocabulary: no term reaches document frequency {min_df} "
            f"across {n_docs} documents, {empty} of which hold no token"
        )
    return Vocabulary(terms=terms, df=df[keep], n_docs=n_docs, min_df=min_df), counted, keep


def fit_vocabulary(docs: Iterable[Sequence[Sequence[str]]], min_df: int = 2) -> Vocabulary:
    """Collect unigrams and bigrams with document frequency >= min_df.

    Terms keep first-seen order, which makes feature indices reproducible for
    a given corpus ordering: each token, then the bigram it completes.
    """
    return _fit(map(Block.document_rows, document_blocks(docs)), min_df)[0]


def fit_rows(pieces: Iterable[Rows], min_df: int = 2) -> tuple[Vocabulary, sp.csr_matrix]:
    """The vocabulary of the rows of ``pieces``, each a document, and their
    :func:`transform_rows` matrix, from one pass. Past its block a row is held
    only as integer (term, count) pairs, weighted once min_df fixes the columns.
    """
    vocab, counted, keep = _fit(pieces, min_df)
    # The cut terms go first. The kept ones keep their order, so columns
    # still ascend within a row.
    column_of = (np.cumsum(keep) - 1).astype(_index_dtype(len(vocab)))
    # Allocated at their final size: buffers grown block by block, as in
    # tfidf_transform, raised a full-scale training's peak RSS by about 5 MB.
    nnz = sum(int(np.count_nonzero(keep[terms])) for terms, _, _ in counted)
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=column_of.dtype)
    indptr = np.zeros(vocab.n_docs + 1, dtype=np.int64)
    at = row = 0
    for terms, counts, lengths in counted:
        kept = keep[terms]
        rows = np.repeat(np.arange(len(lengths)), lengths)[kept]
        lengths = np.bincount(rows, minlength=len(lengths))
        end = at + len(rows)
        indices[at:end] = column_of[terms[kept]]
        data[at:end] = counts[kept]
        _normalize(data[at:end], indices[at:end], rows, vocab._idf)
        indptr[row + 1 : row + 1 + len(lengths)] = at + np.cumsum(lengths)
        at, row = end, row + len(lengths)
    return vocab, sp.csr_matrix((data, indices, indptr), shape=(vocab.n_docs, len(vocab)))


def _block_counts(vocab: Vocabulary, block: Block, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending ``row * len(vocab) + column`` keys of a block's rows and their counts."""
    tokens, rows, ends = block.tokens(rows)
    width, unknown = len(vocab), len(vocab.token_ids)
    # An unknown token takes id len(token_ids), which is no column, and its
    # bigram codes, left or right, equal no code of the vocabulary's table.
    ids = np.fromiter(map(vocab.token_ids.get, tokens, repeat(unknown)), np.int64, len(tokens))
    unigrams = np.flatnonzero(ids < width)
    codes = ids[ends - 1] * (unknown + 1) + ids[ends]
    # Ascending codes search the table about three times faster; the keys
    # are sorted below, so the order of the positions does not matter.
    order = np.argsort(codes)
    codes, ends = codes[order], ends[order]
    table = vocab.bigram_codes
    found = np.searchsorted(table, codes)
    hit = found < len(table)
    hit[hit] = table[found[hit]] == codes[hit]
    ends, found = ends[hit], found[hit]
    keys = np.empty(len(unigrams) + len(ends), dtype=np.int64)
    for part, part_rows, columns in (
        (keys[: len(unigrams)], rows[unigrams], ids[unigrams]),
        (keys[len(unigrams) :], rows[ends], vocab.bigram_columns[found]),
    ):
        np.multiply(part_rows, width, out=part)
        part += columns
    keys.sort()
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[starts], np.diff(starts, append=len(keys))


def _normalize(values: np.ndarray, columns: np.ndarray, rows: np.ndarray, idf: np.ndarray) -> None:
    """Weight one block's counts by idf and scale each row to unit L2 norm, in place.

    ``rows`` holds the row of each value. A row's norm is the square root of
    its squares added one by one in entry order, from 0.0, which is how
    ``np.bincount`` sums its weights; so a row's values depend on that row alone.
    """
    values *= idf[columns]
    norms = np.sqrt(np.bincount(rows, weights=values * values))
    norms[~(norms > 0)] = 1.0
    values /= norms[rows]


def tfidf_transform(vocab: Vocabulary, docs: Sequence[Sequence[Sequence[str]]]) -> sp.csr_matrix:
    """TF-IDF with idf = ln((1+n_docs)/(1+df)) + 1, each row L2-normalized.

    Out-of-vocabulary terms are dropped; a document with no in-vocabulary
    term maps to the zero row. Column indices ascend within each row.
    """
    return transform_rows(vocab, map(Block.document_rows, document_blocks(docs)))


def transform_rows(vocab: Vocabulary, pieces: Iterable[Rows]) -> sp.csr_matrix:
    """:func:`tfidf_transform` of the rows of ``pieces``, in order."""
    width = len(vocab)
    # The buffers become the matrix's own arrays: 32-bit columns where they fit.
    indices = array("i" if width <= np.iinfo(np.int32).max else "q")
    values = array("d")
    indptr = array("q", [0])
    for block, rows, n_rows in pieces:
        keys, counts = _block_counts(vocab, block, rows)
        rows, columns = np.divmod(keys, max(width, 1))
        lengths = np.bincount(rows, minlength=n_rows)
        weights = counts.astype(np.float64)
        _normalize(weights, columns, rows, vocab._idf)
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
