"""Dictionary-based concept matching over tokenized utterance text.

A lexicon maps concept ids to synonym phrase lists. Matching is exact on the
token sequence of :func:`features.tokenize`, so it is aligned to word
boundaries, with overlaps resolved by longest match first and then leftmost
position. Each concept id can belong to a task map that ties it to a
diagnosis label or to a review-of-systems (system, symptom) pair; task maps
drive the entity baseline and the concept-hit noteworthy filter.

Lexicon JSON::

    {"concepts": [{"cui": "D001", "canonical": "hypertension",
                   "synonyms": ["hypertension", "high blood pressure"]}]}

Task map JSON::

    {"task": "diagnosis", "map": [{"cui": "D001", "label": "hypertension"}]}
    {"task": "ros", "map": [{"cui": "S101", "system": "cardiovascular",
                             "symptom": "chest pain"}]}
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import LexiconError, ValidationError
from .features import tokenize_all, tokenize_table
from .jsonio import Fields, as_fields, atomic_write_text, build, read_json
from .transcripts import Transcript


@dataclass
class Concept:
    cui: str
    canonical: str
    synonyms: list[str] = field(default_factory=list)


@dataclass
class ConceptHit:
    cui: str
    start: int  # [start, end) span in " ".join(tokens)
    end: int


class ConceptLexicon:
    """Compiled multi-pattern matcher. Build via :func:`build_lexicon`."""

    def __init__(self, concepts: list[Concept], patterns: dict[tuple[str, ...], str]):
        self.concepts = concepts
        self.patterns = patterns
        self.max_pattern_len = max((len(p) for p in patterns), default=0)
        # Only a position holding one of these words can start a hit.
        self.first_tokens = frozenset(p[0] for p in patterns)
        self.by_cui = {c.cui: c for c in concepts}

    def __len__(self) -> int:
        return len(self.concepts)


def build_lexicon(concepts: Iterable[Concept]) -> ConceptLexicon:
    """Validate concepts and compile the pattern table.

    Within a concept the canonical name is folded into the synonym set and
    duplicates collapse silently. Each synonym is stored as its tokens joined
    by single spaces. The same token sequence appearing under two different
    concept ids is an error naming both ids, since a hit could not be
    attributed. Synonyms without tokens are errors too.
    """
    compiled: list[Concept] = []
    patterns: dict[tuple[str, ...], str] = {}
    owners: dict[tuple[str, ...], str] = {}
    seen_cuis: set[str] = set()
    for concept in concepts:
        if not concept.cui:
            raise LexiconError("concept with empty cui")
        if concept.cui in seen_cuis:
            raise LexiconError(f"duplicate concept id {concept.cui!r}")
        seen_cuis.add(concept.cui)
        names = [concept.canonical, *concept.synonyms]
        keys = list(map(tuple, tokenize_all(names)))
        if not keys[0]:
            raise LexiconError(f"concept {concept.cui}: canonical name normalizes to nothing")
        normalized: list[str] = []
        for synonym, key in zip(names, keys):
            if not key:
                raise LexiconError(
                    f"concept {concept.cui}: synonym {synonym!r} normalizes to nothing"
                )
            norm = " ".join(key)
            if norm in normalized:
                continue
            normalized.append(norm)
            if key in owners and owners[key] != concept.cui:
                raise LexiconError(
                    f"synonym {norm!r} maps to both {owners[key]} and {concept.cui}"
                )
            owners[key] = concept.cui
            patterns[key] = concept.cui
        compiled.append(
            Concept(cui=concept.cui, canonical=concept.canonical, synonyms=normalized)
        )
    return ConceptLexicon(compiled, patterns)


def tag_utterance(lexicon: ConceptLexicon, words: Sequence[str]) -> list[ConceptHit]:
    """All concept hits in one tokenized utterance, left to right, non-overlapping.

    ``words`` is ``tokenize(text)``. At each word position the longest
    matching pattern wins and scanning resumes after it, so no returned span
    is contained in another. Spans index ``" ".join(words)``.
    """
    if isinstance(words, str):
        raise ValidationError("tag_utterance takes a token list, not a string")
    first_tokens = lexicon.first_tokens
    if first_tokens.isdisjoint(words):
        return []
    starts = []
    offset = 0
    for word in words:
        starts.append(offset)
        offset += len(word) + 1
    hits: list[ConceptHit] = []
    n = len(words)
    i = 0
    while i < n:
        matched = 0
        if words[i] in first_tokens:
            for length in range(min(lexicon.max_pattern_len, n - i), 0, -1):
                cui = lexicon.patterns.get(tuple(words[i : i + length]))
                if cui is not None:
                    start = starts[i]
                    end = starts[i + length - 1] + len(words[i + length - 1])
                    hits.append(ConceptHit(cui=cui, start=start, end=end))
                    matched = length
                    break
        i += matched if matched else 1
    return hits


# ---------------------------------------------------------------------------
# Task maps


@dataclass
class TaskMap:
    """Concept-to-label routing for one task.

    ``labels[cui]`` is the diagnosis label or the organ system the concept
    counts toward. For the ros task ``symptoms[cui]`` records the symptom
    name the concept represents.
    """

    task: str
    labels: dict[str, str]
    symptoms: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.task not in ("diagnosis", "ros"):
            raise ValidationError(f"unknown task {self.task!r}")

    def __contains__(self, cui: str) -> bool:
        return cui in self.labels


def parse_task_map(record: dict | Fields) -> TaskMap:
    fields = as_fields(record, "task map")
    task_map = build(fields.source, TaskMap, task=fields.get("task", str), labels={})
    entries = fields.records("map")
    if not entries:
        raise fields.fail("task map routes no concepts")
    for entry in entries:
        cui = entry.get("cui", str)
        if cui in task_map:
            raise entry.fail(f"task map lists {cui} twice", ValidationError)
        if task_map.task == "diagnosis":
            task_map.labels[cui] = entry.get("label", str)
        else:
            task_map.labels[cui] = entry.get("system", str)
            task_map.symptoms[cui] = entry.get("symptom", str)
    return task_map


def load_task_map(path: str | Path) -> TaskMap:
    return parse_task_map(read_json(path))


def task_map_to_record(task_map: TaskMap) -> dict:
    items = []
    for cui in sorted(task_map.labels):
        if task_map.task == "diagnosis":
            items.append({"cui": cui, "label": task_map.labels[cui]})
        else:
            items.append(
                {
                    "cui": cui,
                    "system": task_map.labels[cui],
                    "symptom": task_map.symptoms.get(cui, ""),
                }
            )
    return {"task": task_map.task, "map": items}


def concept_to_record(concept: Concept) -> dict:
    return {"cui": concept.cui, "canonical": concept.canonical, "synonyms": list(concept.synonyms)}


def concept_from_record(fields: Fields) -> Concept:
    return Concept(
        cui=fields.get("cui", str),
        canonical=fields.get("canonical", str),
        synonyms=list(fields.strings("synonyms")),
    )


def parse_concepts(record: dict | Fields, key: str = "concepts") -> list[Concept]:
    """The concept records listed under ``key``; a lexicon needs at least one."""
    fields = as_fields(record, "lexicon")
    concepts = [concept_from_record(item) for item in fields.records(key)]
    if not concepts:
        raise fields.fail(f"{key!r} lists no concepts")
    return concepts


def load_concepts_file(path: str | Path) -> list[Concept]:
    return parse_concepts(read_json(path))


def save_concepts_file(path: str | Path, concepts: Sequence[Concept]) -> None:
    record = {"concepts": [concept_to_record(c) for c in concepts]}
    atomic_write_text(path, json.dumps(record, indent=2, ensure_ascii=False) + "\n")


def validate_task_map_against_lexicon(task_map: TaskMap, lexicon: ConceptLexicon) -> None:
    missing = sorted(set(task_map.labels) - set(lexicon.by_cui))
    if missing:
        raise ValidationError(f"task map references unknown concepts: {missing}")


# ---------------------------------------------------------------------------
# Entity baseline and concept-hit noteworthiness


def table_hits(
    lexicon: ConceptLexicon,
    tokens: Sequence[str],
    lengths: np.ndarray,
    task_map: TaskMap | None = None,
) -> list[tuple[int, ConceptHit]]:
    """(utterance index, hit) pairs across the utterances of a token table,
    in text order: utterance ``u`` holds the next ``lengths[u]`` of ``tokens``.

    With a task map, only hits on concepts routed by that map count; without
    one, any concept in the lexicon counts.
    """
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    lengths.cumsum(out=offsets[1:])
    # Only an utterance holding a first token of some pattern can hit; the
    # others are passed over in C, without a call of tag_utterance.
    firsts = np.fromiter(map(lexicon.first_tokens.__contains__, tokens), bool, len(tokens))
    # The utterance of each such token, ascending; dict.fromkeys drops repeats.
    owners = offsets.searchsorted(firsts.nonzero()[0], "right")
    owners -= 1
    bounds = offsets.tolist()
    return [
        (index, hit)
        for index in dict.fromkeys(owners.tolist())
        for hit in tag_utterance(lexicon, tokens[bounds[index] : bounds[index + 1]])
        if task_map is None or hit.cui in task_map
    ]


def transcript_hits(
    lexicon: ConceptLexicon,
    transcript: Transcript,
    task_map: TaskMap | None = None,
) -> list[tuple[int, ConceptHit]]:
    """:func:`table_hits` over a transcript's utterances."""
    return table_hits(lexicon, *tokenize_table(transcript.texts), task_map)


def entity_baseline_predict(
    lexicon: ConceptLexicon,
    task_map: TaskMap,
    transcripts: Sequence[Transcript],
    labels: Sequence[str],
) -> np.ndarray:
    """Binary predictions: a label is positive iff one of its concepts is said.

    No negation or speaker handling; a mention anywhere in the conversation
    counts. Returns a uint8 matrix of shape (n_transcripts, n_labels).
    """
    index = {label: j for j, label in enumerate(labels)}
    values = np.zeros((len(transcripts), len(labels)), dtype=np.uint8)
    for i, transcript in enumerate(transcripts):
        for _, hit in transcript_hits(lexicon, transcript, task_map):
            j = index.get(task_map.labels[hit.cui])
            if j is not None:
                values[i, j] = 1
    return values


def umls_noteworthy(
    lexicon: ConceptLexicon,
    transcript: Transcript,
    task_map: TaskMap | None = None,
) -> list[int]:
    """Ascending indices of utterances with at least one (routed) concept hit."""
    return sorted({index for index, _ in transcript_hits(lexicon, transcript, task_map)})
