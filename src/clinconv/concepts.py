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

from .errors import LexiconError, ParseError, ValidationError
from .features import tokenize
from .jsonio import atomic_write_text, json_loads
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
        if not tokenize(concept.canonical):
            raise LexiconError(f"concept {concept.cui}: canonical name normalizes to nothing")
        normalized: list[str] = []
        for synonym in [concept.canonical, *concept.synonyms]:
            key = tuple(tokenize(synonym))
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


def parse_task_map(record: dict) -> TaskMap:
    if not isinstance(record, dict) or "task" not in record or "map" not in record:
        raise ParseError("task map needs 'task' and 'map' fields")
    task = record["task"]
    labels: dict[str, str] = {}
    symptoms: dict[str, str] = {}
    for item in record["map"]:
        cui = item.get("cui")
        if not cui:
            raise ParseError("task map entry missing 'cui'")
        if cui in labels:
            raise ValidationError(f"task map lists {cui} twice")
        if task == "diagnosis":
            if "label" not in item:
                raise ParseError(f"diagnosis map entry {cui} missing 'label'")
            labels[cui] = item["label"]
        else:
            if "system" not in item or "symptom" not in item:
                raise ParseError(f"ros map entry {cui} missing 'system' or 'symptom'")
            labels[cui] = item["system"]
            symptoms[cui] = item["symptom"]
    return TaskMap(task=task, labels=labels, symptoms=symptoms)


def load_task_map(path: str | Path) -> TaskMap:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_task_map(json_loads(handle.read()))


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


def parse_concepts(record: dict) -> list[Concept]:
    if not isinstance(record, dict) or "concepts" not in record:
        raise ParseError("lexicon record needs a 'concepts' field")
    concepts = []
    for item in record["concepts"]:
        if "cui" not in item or "canonical" not in item:
            raise ParseError("lexicon concept needs 'cui' and 'canonical'")
        concepts.append(
            Concept(
                cui=str(item["cui"]),
                canonical=str(item["canonical"]),
                synonyms=[str(s) for s in item.get("synonyms", [])],
            )
        )
    return concepts


def load_concepts_file(path: str | Path) -> list[Concept]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_concepts(json_loads(handle.read()))


def save_concepts_file(path: str | Path, concepts: Sequence[Concept]) -> None:
    record = {
        "concepts": [
            {"cui": c.cui, "canonical": c.canonical, "synonyms": list(c.synonyms)}
            for c in concepts
        ]
    }
    atomic_write_text(path, json.dumps(record, indent=2, ensure_ascii=False) + "\n")


def validate_task_map_against_lexicon(task_map: TaskMap, lexicon: ConceptLexicon) -> None:
    missing = sorted(set(task_map.labels) - set(lexicon.by_cui))
    if missing:
        raise ValidationError(f"task map references unknown concepts: {missing}")


# ---------------------------------------------------------------------------
# Entity baseline and concept-hit noteworthiness


def transcript_hits(
    lexicon: ConceptLexicon,
    transcript: Transcript,
    task_map: TaskMap | None = None,
) -> list[tuple[int, ConceptHit]]:
    """(utterance index, hit) pairs across a whole transcript, in text order.

    With a task map, only hits on concepts routed by that map count; without
    one, any concept in the lexicon counts.
    """
    return [
        (index, hit)
        for index, utterance in enumerate(transcript.utterances)
        for hit in tag_utterance(lexicon, tokenize(utterance.text))
        if task_map is None or hit.cui in task_map
    ]


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
