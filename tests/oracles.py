"""Independent reference implementations used to cross-check the library.

Everything here is written as plainly as possible: explicit Python loops for
the metrics, first-order gradient descent for the optimizer, central finite
differences for gradients, one document at a time for featurization, and
concept matching on normalized text. Slow on purpose; correctness over speed.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterator

import numpy as np
import scipy.sparse as sp

from clinconv.concepts import tag_utterance
from clinconv.errors import FitError, LexiconError, ParseError, ValidationError
from clinconv.features import Vocabulary


# ---------------------------------------------------------------------------
# Metrics


def naive_accuracy(pred, truth) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    total = 0
    agree = 0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            total += 1
            agree += int(pred[i, j] == truth[i, j])
    return agree / total if total else 0.0


def _prf_from_counts(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2 * precision * recall / (precision + recall)


def naive_f1(pred, truth) -> dict:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    n, n_labels = pred.shape
    per_label = []
    totals = [0, 0, 0]
    for j in range(n_labels):
        tp = fp = fn = 0
        for i in range(n):
            if pred[i, j] == 1 and truth[i, j] == 1:
                tp += 1
            elif pred[i, j] == 1 and truth[i, j] == 0:
                fp += 1
            elif pred[i, j] == 0 and truth[i, j] == 1:
                fn += 1
        per_label.append(_prf_from_counts(tp, fp, fn))
        totals[0] += tp
        totals[1] += fp
        totals[2] += fn
    micro = _prf_from_counts(*totals)
    macro_f1 = sum(f for _, _, f in per_label) / n_labels if n_labels else 0.0
    return {
        "precision": [p for p, _, _ in per_label],
        "recall": [r for _, r, _ in per_label],
        "f1": [f for _, _, f in per_label],
        "macro_f1": macro_f1,
        "micro_precision": micro[0],
        "micro_recall": micro[1],
        "micro_f1": micro[2],
    }


def naive_auc_column(scores, truth) -> tuple[float, bool]:
    """Pairwise ranking probability with half credit for ties."""
    scores = np.asarray(scores, dtype=float).ravel()
    truth = np.asarray(truth).ravel()
    positives = [scores[i] for i in range(truth.size) if truth[i] == 1]
    negatives = [scores[i] for i in range(truth.size) if truth[i] == 0]
    if not positives or not negatives:
        return 0.5, False
    credit = 0.0
    for p in positives:
        for q in negatives:
            if p > q:
                credit += 1.0
            elif p == q:
                credit += 0.5
    return credit / (len(positives) * len(negatives)), True


def naive_auc(scores, truth) -> dict:
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    per_label = []
    valid = []
    for j in range(scores.shape[1]):
        auc, ok = naive_auc_column(scores[:, j], truth[:, j])
        per_label.append(auc)
        valid.append(ok)
    usable = [a for a, ok in zip(per_label, valid) if ok]
    micro, micro_valid = naive_auc_column(scores.ravel(), truth.ravel())
    return {
        "auc": per_label,
        "valid": valid,
        "macro_auc": sum(usable) / len(usable) if usable else 0.5,
        "micro_auc": micro,
        "micro_valid": micro_valid,
    }


def naive_p_at_1(scores, truth) -> dict:
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    n, n_labels = scores.shape
    correct_per_label = [0] * n_labels
    top_counts = [0] * n_labels
    correct = 0
    has_positive = 0
    for i in range(n):
        best = 0
        for j in range(1, n_labels):
            if scores[i, j] > scores[i, best]:  # ties keep the lower index
                best = j
        top_counts[best] += 1
        if truth[i, best] == 1:
            correct += 1
            correct_per_label[best] += 1
        if any(truth[i, j] == 1 for j in range(n_labels)):
            has_positive += 1
    total_correct = sum(correct_per_label)
    contributions = [
        c / total_correct if total_correct else 0.0 for c in correct_per_label
    ]
    return {
        "p_at_1": correct / n if n else 0.0,
        "max_achievable": has_positive / n if n else 0.0,
        "contributions": contributions,
        "top_counts": top_counts,
    }


# ---------------------------------------------------------------------------
# Regularized logistic regression


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_value(theta: np.ndarray, X: np.ndarray, y: np.ndarray, reg_c: float) -> float:
    """sum_i [softplus(z_i) - y_i z_i] + ||w||^2 / (2 reg_c), bias unpenalized."""
    w, b = theta[:-1], theta[-1]
    z = X @ w + b
    softplus = np.where(z > 0, z + np.log1p(np.exp(-np.abs(z))), np.log1p(np.exp(z)))
    return float(np.sum(softplus - y * z)) + float(w @ w) / (2.0 * reg_c)


def logistic_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, reg_c: float) -> np.ndarray:
    w, b = theta[:-1], theta[-1]
    residual = stable_sigmoid(X @ w + b) - y
    grad_w = X.T @ residual + w / reg_c
    grad_b = np.sum(residual)
    return np.concatenate([grad_w, [grad_b]])


def gd_logistic(
    X: np.ndarray,
    y: np.ndarray,
    reg_c: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> tuple[np.ndarray, float]:
    """Gradient descent run until the gradient infinity norm drops below tol.

    Every update moves along the negative gradient; the scalar step comes from
    the Barzilai-Borwein secant formulas, safeguarded by a non-monotone
    backtracking line search so ill-conditioned problems still converge in a
    reasonable iteration count. Returns (theta, objective); raises if the
    iteration budget runs out before the tolerance is met.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.zeros(X.shape[1] + 1)
    value = logistic_value(theta, X, y, reg_c)
    grad = logistic_grad(theta, X, y, reg_c)
    step = 1.0 / (1.0 + float(np.max(np.abs(grad))))
    recent = [value]
    for iteration in range(max_iter):
        if np.max(np.abs(grad)) <= tol:
            return theta, value
        reference = max(recent)
        sq = float(grad @ grad)
        while True:
            candidate = theta - step * grad
            candidate_value = logistic_value(candidate, X, y, reg_c)
            if candidate_value <= reference - 1e-4 * step * sq or step < 1e-20:
                break
            step *= 0.5
        new_grad = logistic_grad(candidate, X, y, reg_c)
        delta_theta = candidate - theta
        delta_grad = new_grad - grad
        theta, value, grad = candidate, candidate_value, new_grad
        recent.append(value)
        if len(recent) > 10:
            recent.pop(0)
        curvature = float(delta_theta @ delta_grad)
        if curvature > 0:
            if iteration % 2:
                step = curvature / float(delta_grad @ delta_grad)
            else:
                step = float(delta_theta @ delta_theta) / curvature
            step = min(max(step, 1e-12), 1e8)
        else:
            step = min(step * 2.0, 1e8)
    raise RuntimeError(f"gradient oracle did not reach tol={tol} in {max_iter} steps")


def central_difference(fun, theta: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for k in range(theta.size):
        shift = np.zeros_like(theta)
        shift[k] = eps
        grad[k] = (fun(theta + shift) - fun(theta - shift)) / (2.0 * eps)
    return grad


# ---------------------------------------------------------------------------
# Closed forms


def all_positive_micro_f1(prevalence) -> float:
    """Micro-F1 of the always-positive predictor: 2T / (L + T), T = sum p."""
    p = list(prevalence)
    total = math.fsum(p)
    return 2.0 * total / (len(p) + total) if p else 0.0


# ---------------------------------------------------------------------------
# Transcripts, one utterance object at a time

ORACLE_SPEAKERS = ("physician", "patient", "other")


def naive_parse_transcript(record: dict, warnings=None) -> tuple:
    """A decoded transcript record as ``(id, speakers, start_ms, texts)``,
    walked one utterance at a time: each utterance is checked for being an
    object with its three fields, then the transcript's invariants in order."""
    if not isinstance(record, dict):
        raise ParseError("transcript record must be a JSON object")
    for name in ("id", "utterances"):
        if name not in record:
            raise ParseError(f"transcript record missing field {name!r}")
    if warnings is not None:
        for name in record.keys() - {"id", "utterances"}:
            warnings.note("transcript", name)
    if not isinstance(record["id"], str):
        raise ParseError("'id' must be a string")
    if not isinstance(record["utterances"], list):
        raise ParseError("'utterances' must be a list")

    utterances = []
    for index, item in enumerate(record["utterances"]):
        if not isinstance(item, dict):
            raise ParseError(f"utterance {index} must be a JSON object")
        for name in ("speaker", "start_ms", "text"):
            if name not in item:
                raise ParseError(f"utterance {index} missing field {name!r}")
        if warnings is not None:
            for name in item.keys() - {"speaker", "start_ms", "text"}:
                warnings.note("utterance", name)
        utterances.append((item["speaker"], item["start_ms"], item["text"]))

    transcript_id = record["id"]
    if not transcript_id:
        raise ValidationError("transcript id must be non-empty")
    previous_ms = None
    for index, (speaker, start_ms, text) in enumerate(utterances):
        where = f"transcript {transcript_id!r} utterance {index}"
        if speaker not in ORACLE_SPEAKERS:
            raise ValidationError(
                f"{where}: unknown speaker {speaker!r} "
                f"(expected one of {', '.join(ORACLE_SPEAKERS)})"
            )
        if not isinstance(start_ms, int) or isinstance(start_ms, bool):
            raise ValidationError(f"{where}: start_ms must be an integer")
        if start_ms < 0:
            raise ValidationError(f"{where}: negative start_ms")
        if previous_ms is not None and start_ms < previous_ms:
            raise ValidationError(f"{where}: start_ms decreases ({start_ms} after {previous_ms})")
        if not isinstance(text, str):
            raise ValidationError(f"{where}: text must be a string")
        if not text or not text.strip():
            raise ValidationError(f"{where}: empty text")
        previous_ms = start_ms
    speakers = tuple(speaker for speaker, _, _ in utterances)
    starts = tuple(start_ms for _, start_ms, _ in utterances)
    texts = tuple(text for _, _, text in utterances)
    return transcript_id, speakers, starts, texts


# ---------------------------------------------------------------------------
# Selection


def naive_fill_to_k(umls_indices, probs, k: int) -> list[int]:
    """Fill-to-K on one transcript: the concept hits, then the other
    utterances best-first (ties toward the lower index) until K are chosen."""
    chosen = set(int(i) for i in umls_indices)
    # A stable sort on -probs breaks ties toward the lower index; a concept
    # hit met on the way is already chosen and adds nothing.
    for index in np.argsort(-np.asarray(probs, dtype=float), kind="stable").tolist():
        if len(chosen) >= k:
            break
        chosen.add(index)
    return sorted(chosen)


# ---------------------------------------------------------------------------
# Featurization, one document at a time

_TOKEN = re.compile(r"[0-9a-z]+")


def oracle_tokenize(text: str) -> list[str]:
    """The tokenizer as a regex: the runs of 0-9a-z in the lowercased text."""
    return _TOKEN.findall(text.lower())


def doc_terms(doc) -> Iterator[str]:
    """Stream unigrams and within-segment adjacency bigrams.

    A document is a list of token segments, or one plain token list. Yield
    order is positional: each token, then the bigram it completes.
    """
    if not doc:
        return
    for segment in [doc] if isinstance(doc[0], str) else doc:
        previous = None
        for token in segment:
            yield token
            if previous is not None:
                yield f"{previous} {token}"
            previous = token


def oracle_vocabulary(docs, min_df: int = 2) -> Vocabulary:
    """Terms with document frequency >= min_df, in first-seen order of doc_terms."""
    if min_df < 1:
        raise ValidationError("min_df must be >= 1")
    order: dict[str, None] = {}
    df_counts: Counter[str] = Counter()
    n_docs = 0
    empty = 0
    for doc in docs:
        n_docs += 1
        seen: set[str] = set()
        for term in doc_terms(doc):
            if term not in order:
                order[term] = None
            if term not in seen:
                seen.add(term)
                df_counts[term] += 1
        if not seen:
            empty += 1
    terms = [term for term in order if df_counts[term] >= min_df]
    if not terms:
        raise FitError(
            f"empty vocabulary: no term reaches document frequency {min_df} "
            f"across {n_docs} documents, {empty} of which hold no token"
        )
    df = np.array([df_counts[term] for term in terms], dtype=np.int64)
    return Vocabulary(terms=terms, df=df, n_docs=n_docs, min_df=min_df)


def document_counts(vocab, doc) -> tuple[np.ndarray, np.ndarray]:
    """Ascending in-vocabulary term indices of one document and their counts."""
    counts: Counter[int] = Counter()
    for term in doc_terms(doc):
        j = vocab.index.get(term)
        if j is not None:
            counts[j] += 1
    indices = np.array(sorted(counts), dtype=np.int64)
    values = np.array([counts[j] for j in indices], dtype=np.float64)
    return indices, values


def document_tfidf(vocab, doc) -> tuple[np.ndarray, np.ndarray]:
    """Counts times idf, divided by the row's L2 norm when it is positive.

    The norm adds the squares one by one in index order, from 0.0. Neither
    ``sum()``, which compensates float sums from Python 3.12 on, nor
    ``math.fsum`` adds in that order.
    """
    indices, values = document_counts(vocab, doc)
    if len(indices) == 0:
        return indices, values
    weights = values * vocab.idf()[indices]
    total = 0.0
    for w in weights.tolist():
        total += w * w
    norm = math.sqrt(total)
    if norm > 0:
        weights = weights / norm
    return indices, weights


def rows_to_csr(rows, n_features: int) -> sp.csr_matrix:
    """Stack (indices, values) rows into a CSR matrix of width n_features."""
    indptr = [0]
    for indices, _ in rows:
        indptr.append(indptr[-1] + len(indices))
    data = np.concatenate([values for _, values in rows]) if rows else np.empty(0)
    columns = (
        np.concatenate([indices for indices, _ in rows])
        if rows
        else np.empty(0, dtype=np.int64)
    )
    return sp.csr_matrix(
        (data, columns, np.array(indptr)), shape=(len(rows), n_features)
    )


def oracle_tfidf(vocab, docs) -> sp.csr_matrix:
    return rows_to_csr([document_tfidf(vocab, doc) for doc in docs], len(vocab))


def same_csr(a, b) -> bool:
    """Shape, data, indices and indptr all exactly equal."""
    return (
        a.shape == b.shape
        and np.array_equal(a.data, b.data)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.indptr, b.indptr)
    )


# ---------------------------------------------------------------------------
# Concept matching on normalized text

_NON_ALNUM = re.compile(r"[^0-9a-z]+")


def normalize_for_match(text: str) -> str:
    """Lowercase, map runs of non-alphanumeric characters to single spaces.

    "Heart-Attack!!" -> "heart attack". The result has no leading, trailing,
    or repeated spaces, so word k starts at a char offset computable from the
    lengths of words 0..k-1.
    """
    return _NON_ALNUM.sub(" ", text.lower()).strip()


def oracle_lexicon(concepts) -> tuple[dict[tuple[str, ...], str], list[list[str]]]:
    """Pattern table and each concept's stored synonyms, from normalized text.

    Raises LexiconError, with the library's message, wherever compiling the
    lexicon must fail.
    """
    patterns: dict[tuple[str, ...], str] = {}
    stored: list[list[str]] = []
    seen_cuis: set[str] = set()
    for concept in concepts:
        if not concept.cui:
            raise LexiconError("concept with empty cui")
        if concept.cui in seen_cuis:
            raise LexiconError(f"duplicate concept id {concept.cui!r}")
        seen_cuis.add(concept.cui)
        if not normalize_for_match(concept.canonical):
            raise LexiconError(f"concept {concept.cui}: canonical name normalizes to nothing")
        normalized: list[str] = []
        for synonym in [concept.canonical, *concept.synonyms]:
            norm = normalize_for_match(synonym)
            if not norm:
                raise LexiconError(
                    f"concept {concept.cui}: synonym {synonym!r} normalizes to nothing"
                )
            if norm in normalized:
                continue
            normalized.append(norm)
            key = tuple(norm.split(" "))
            if patterns.get(key, concept.cui) != concept.cui:
                raise LexiconError(
                    f"synonym {norm!r} maps to both {patterns[key]} and {concept.cui}"
                )
            patterns[key] = concept.cui
        stored.append(normalized)
    return patterns, stored


def oracle_token_hits(lexicon, utterances, task_map=None) -> list:
    """(utterance index, hit) pairs from tagging every utterance, with no
    first-token gate in front of the tagger."""
    return [
        (index, hit)
        for index, words in enumerate(utterances)
        for hit in tag_utterance(lexicon, words)
        if task_map is None or hit.cui in task_map
    ]


def oracle_tag(patterns: dict[tuple[str, ...], str], text: str) -> list[tuple[str, int, int]]:
    """(cui, start, end) hits in normalized text: longest match, then leftmost.

    Tries every pattern length at every word and searches the normalized
    string itself for the span, instead of computing offsets from word lengths.
    """
    normalized = normalize_for_match(text)
    if not normalized:
        return []
    words = normalized.split(" ")
    longest = max((len(key) for key in patterns), default=0)
    hits = []
    i = 0
    while i < len(words):
        for length in range(min(longest, len(words) - i), 0, -1):
            cui = patterns.get(tuple(words[i : i + length]))
            if cui is not None:
                start = len(" ".join(words[:i])) + (1 if i else 0)
                phrase = " ".join(words[i : i + length])
                assert normalized[start : start + len(phrase)] == phrase
                hits.append((cui, start, start + len(phrase)))
                i += length
                break
        else:
            i += 1
    return hits
