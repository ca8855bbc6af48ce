"""SOAP-note annotations and supervision derived from them.

Annotations pair each transcript with a structured clinical note. Every note
entry lives in one of twelve subsections, may carry key/value tags, cites the
transcript utterances that support it (evidence indices), and, for
review-of-systems entries, records per-system symptom observations.

Two label spaces are derived from the notes:

* diagnosis labels: normalized medical-problem tags from chief-complaint
  entries, past-medical-history entries marked as part of the history of
  present illness, and assessment entries. Tag variants are merged into the
  most frequent tags that they contain as substrings, then the most frequent
  merged tags become the label space.
* review-of-systems labels: organ systems with a confirmed abnormal
  observation, restricted to systems confirmed for more than a minimum
  fraction of patients.

JSONL format, one note per line::

    {"transcript_id": "visit-001", "entries": [
        {"subsection": "assessment", "text": "hypertension, stable",
         "tags": [{"key": "medical_problem", "value": "hypertension"}],
         "evidence": [3, 17]},
        {"subsection": "review_of_systems", "text": "",
         "tags": [], "evidence": [4],
         "ros": [{"system": "cardiovascular", "symptom": "chest pain",
                  "result": "confirms"}]}]}
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .jsonio import FieldWarnings, iter_jsonl, json_loads, write_jsonl
from .transcripts import Transcript

SUBSECTIONS = (
    "chief_complaint",
    "history_of_present_illness",
    "past_medical_history",
    "review_of_systems",
    "family_history",
    "social_history",
    "medications",
    "allergies",
    "physical_exam",
    "lab_results",
    "assessment",
    "plan",
)

ROS_RESULTS = ("confirms", "denies")

PROBLEM_TAG_KEY = "medical_problem"
HPI_MARKER_KEY = "context"
HPI_MARKER_VALUE = "HPI"

# Subsections whose medical-problem tags feed the diagnosis label space.
# Past-medical-history entries count only when marked as part of the history
# of present illness.
DIAGNOSIS_SOURCE_SUBSECTIONS = ("chief_complaint", "past_medical_history", "assessment")

_ENTRY_FIELDS = {"subsection", "text", "tags", "evidence", "ros"}
_NOTE_FIELDS = {"transcript_id", "entries"}
_PAREN_SUFFIX = re.compile(r"\s*\([^()]*\)\s*$")


@dataclass
class TagPair:
    key: str
    value: str


@dataclass
class RosObservation:
    system: str
    symptom: str
    result: str


@dataclass
class NoteEntry:
    subsection: str
    text: str = ""
    tags: list[TagPair] = field(default_factory=list)
    evidence: list[int] = field(default_factory=list)
    ros: list[RosObservation] = field(default_factory=list)


@dataclass
class SoapNote:
    transcript_id: str
    entries: list[NoteEntry] = field(default_factory=list)


@dataclass
class LabelSpace:
    task: str
    labels: tuple[str, ...]
    train_prevalence: np.ndarray

    def __post_init__(self) -> None:
        self.labels = tuple(self.labels)
        self.train_prevalence = np.asarray(self.train_prevalence, dtype=float)
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"duplicate labels in {self.task} space")
        if self.train_prevalence.shape != (len(self.labels),):
            raise ValidationError("train_prevalence length must match labels")
        if len(self.labels) and (
            self.train_prevalence.min() < 0.0 or self.train_prevalence.max() > 1.0
        ):
            raise ValidationError("train_prevalence entries must lie in [0, 1]")


@dataclass
class LabelMatrix:
    space: LabelSpace
    example_ids: list[str]
    values: np.ndarray  # uint8, shape (n_examples, n_labels)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.uint8)
        if self.values.shape != (len(self.example_ids), len(self.space.labels)):
            raise ValidationError(
                f"label matrix shape {self.values.shape} does not match "
                f"{len(self.example_ids)} examples x {len(self.space.labels)} labels"
            )
        if self.values.size and self.values.max() > 1:
            raise ValidationError("label matrix entries must be 0 or 1")

    def prevalence(self) -> np.ndarray:
        if not self.example_ids:
            return np.zeros(len(self.space.labels))
        return self.values.mean(axis=0)

    def row_labels(self, row: int) -> list[str]:
        return [l for l, v in zip(self.space.labels, self.values[row]) if v]


@dataclass
class DiagnosisDerivation:
    space: LabelSpace
    matrix: LabelMatrix
    merge_map: dict[str, str]


@dataclass
class RosDerivation:
    space: LabelSpace
    matrix: LabelMatrix


# ---------------------------------------------------------------------------
# Parsing and validation


def parse_note(
    record: str | bytes | dict,
    line_number: int | None = None,
    warnings: FieldWarnings | None = None,
) -> SoapNote:
    """Parse and structurally validate one note record."""
    if isinstance(record, (str, bytes)):
        record = json_loads(record, line_number)
    if not isinstance(record, dict):
        raise ParseError("note record must be a JSON object", line_number)
    for name in ("transcript_id", "entries"):
        if name not in record:
            raise ParseError(f"note record missing field {name!r}", line_number)
    if warnings is not None:
        for name in record.keys() - _NOTE_FIELDS:
            warnings.note("note", name)
    if not isinstance(record["entries"], list):
        raise ParseError("'entries' must be a list", line_number)

    entries = []
    for index, item in enumerate(record["entries"]):
        if not isinstance(item, dict):
            raise ParseError(f"entry {index} must be a JSON object", line_number)
        if "subsection" not in item:
            raise ParseError(f"entry {index} missing field 'subsection'", line_number)
        subsection = item["subsection"]
        if subsection not in SUBSECTIONS:
            raise ValidationError(
                f"entry {index}: unknown subsection {subsection!r}"
                + (f" (line {line_number})" if line_number else "")
            )
        if warnings is not None:
            for name in item.keys() - _ENTRY_FIELDS:
                warnings.note("entry", name)
        tags = []
        for tag in item.get("tags", []):
            if not isinstance(tag, dict) or "key" not in tag or "value" not in tag:
                raise ParseError(
                    f"entry {index}: tags must be objects with 'key' and 'value'",
                    line_number,
                )
            tags.append(TagPair(key=str(tag["key"]), value=str(tag["value"])))
        evidence = item.get("evidence", [])
        if not isinstance(evidence, list) or not all(
            isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in evidence
        ):
            raise ValidationError(
                f"entry {index}: evidence must be a list of non-negative integers"
                + (f" (line {line_number})" if line_number else "")
            )
        observations = []
        for obs in item.get("ros", []):
            if not isinstance(obs, dict) or not {"system", "symptom", "result"} <= obs.keys():
                raise ParseError(
                    f"entry {index}: ros observations need system/symptom/result",
                    line_number,
                )
            if obs["result"] not in ROS_RESULTS:
                raise ValidationError(
                    f"entry {index}: ros result {obs['result']!r} not in {ROS_RESULTS}"
                )
            observations.append(
                RosObservation(
                    system=str(obs["system"]),
                    symptom=str(obs["symptom"]),
                    result=obs["result"],
                )
            )
        entries.append(
            NoteEntry(
                subsection=subsection,
                text=str(item.get("text", "")),
                tags=tags,
                evidence=list(evidence),
                ros=observations,
            )
        )
    return SoapNote(transcript_id=str(record["transcript_id"]), entries=entries)


def note_to_record(note: SoapNote) -> dict:
    entries = []
    for entry in note.entries:
        record: dict = {
            "subsection": entry.subsection,
            "text": entry.text,
            "tags": [{"key": t.key, "value": t.value} for t in entry.tags],
            "evidence": list(entry.evidence),
        }
        if entry.ros:
            record["ros"] = [
                {"system": o.system, "symptom": o.symptom, "result": o.result}
                for o in entry.ros
            ]
        entries.append(record)
    return {"transcript_id": note.transcript_id, "entries": entries}


def load_notes(path: str | Path, warnings: FieldWarnings | None = None) -> list[SoapNote]:
    notes = []
    seen: set[str] = set()
    for line_number, record in iter_jsonl(path):
        note = parse_note(record, line_number, warnings)
        if note.transcript_id in seen:
            raise ValidationError(
                f"line {line_number}: duplicate note for transcript {note.transcript_id!r}"
            )
        seen.add(note.transcript_id)
        notes.append(note)
    return notes


def save_notes(path: str | Path, notes: Iterable[SoapNote]) -> None:
    write_jsonl(path, (note_to_record(n) for n in notes))


def validate_note_evidence(note: SoapNote, transcript: Transcript) -> None:
    n_utterances = len(transcript.utterances)
    for index, entry in enumerate(note.entries):
        for evidence in entry.evidence:
            if evidence >= n_utterances:
                raise ValidationError(
                    f"note for {note.transcript_id!r} entry {index}: evidence index "
                    f"{evidence} out of range (transcript has {n_utterances} utterances)"
                )


def pair_corpus(
    transcripts: Sequence[Transcript], notes: Sequence[SoapNote]
) -> list[tuple[Transcript, SoapNote]]:
    """Join transcripts with their notes by id, validating evidence bounds."""
    by_id = {t.id: t for t in transcripts}
    paired = []
    for note in notes:
        transcript = by_id.get(note.transcript_id)
        if transcript is None:
            raise ValidationError(
                f"note references unknown transcript {note.transcript_id!r}"
            )
        validate_note_evidence(note, transcript)
        paired.append((transcript, note))
    return paired


# ---------------------------------------------------------------------------
# Tag normalization and merging


def normalize_problem_tag(raw: str) -> str:
    """Lowercase, strip parenthesized suffixes, and collapse whitespace.

    ``"Hypertension (essential, benign) "`` normalizes to ``"hypertension"``.
    A tag that is nothing but parentheses or whitespace normalizes to ``""``.
    """
    text = " ".join(raw.lower().split())
    while True:
        stripped = _PAREN_SUFFIX.sub("", text)
        if stripped == text:
            break
        text = stripped
    return " ".join(text.split())


def merge_by_substring(tag_counts: Mapping[str, int], top_k: int = 20) -> dict[str, str]:
    """Map every tag to the most frequent top-``top_k`` tag it contains.

    The ``top_k`` most frequent tags (frequency ties broken lexicographically)
    act as merge targets. Any tag containing a target as a contiguous
    substring maps to it; with several matching targets the most frequent one
    wins (ties again lexicographic). Tags matching no target map to themselves.
    """
    ranked = sorted(tag_counts, key=lambda tag: (-tag_counts[tag], tag))
    targets = ranked[:top_k]
    merge: dict[str, str] = {}
    for tag in tag_counts:
        matches = [c for c in targets if c != tag and c in tag]
        if matches:
            merge[tag] = min(matches, key=lambda c: (-tag_counts[c], c))
        else:
            merge[tag] = tag
    return merge


def entry_problem_tags(entry: NoteEntry) -> list[str]:
    """Raw medical-problem tag values that count toward diagnosis labels."""
    if entry.subsection not in DIAGNOSIS_SOURCE_SUBSECTIONS:
        return []
    if entry.subsection == "past_medical_history" and not any(
        t.key == HPI_MARKER_KEY and t.value == HPI_MARKER_VALUE for t in entry.tags
    ):
        return []
    return [t.value for t in entry.tags if t.key == PROBLEM_TAG_KEY]


def _example_raw_tag_sets(corpus: Sequence[tuple[Transcript, SoapNote]]) -> list[set[str]]:
    sets = []
    for _, note in corpus:
        tags = set()
        for entry in note.entries:
            for value in entry_problem_tags(entry):
                normalized = normalize_problem_tag(value)
                if normalized:
                    tags.add(normalized)
        sets.append(tags)
    return sets


def derive_diagnosis_labels(
    corpus: Sequence[tuple[Transcript, SoapNote]],
    label_count: int = 15,
    merge_top_k: int = 20,
) -> DiagnosisDerivation:
    """Build the diagnosis label space, merge table, and label matrix.

    Frequencies are counted once per example (an example either has a tag or
    it does not). The merge table is computed over the supplied corpus and
    should be frozen and re-applied, via :func:`apply_diagnosis_labels`, to
    any held-out split.
    """
    raw_sets = _example_raw_tag_sets(corpus)
    raw_counts: Counter[str] = Counter()
    for tags in raw_sets:
        raw_counts.update(tags)
    merge_map = merge_by_substring(raw_counts, merge_top_k)

    merged_sets = [{merge_map.get(tag, tag) for tag in tags} for tags in raw_sets]
    merged_counts: Counter[str] = Counter()
    for tags in merged_sets:
        merged_counts.update(tags)

    ranked = sorted(merged_counts, key=lambda tag: (-merged_counts[tag], tag))
    labels = tuple(ranked[:label_count])
    values = _membership_matrix(merged_sets, labels)
    n = max(len(corpus), 1)
    space = LabelSpace(
        task="diagnosis",
        labels=labels,
        train_prevalence=values.sum(axis=0) / n,
    )
    matrix = LabelMatrix(
        space=space, example_ids=[t.id for t, _ in corpus], values=values
    )
    return DiagnosisDerivation(space=space, matrix=matrix, merge_map=merge_map)


def apply_diagnosis_labels(
    corpus: Sequence[tuple[Transcript, SoapNote]],
    space: LabelSpace,
    merge_map: Mapping[str, str],
) -> LabelMatrix:
    """Label a corpus against a frozen space and merge table."""
    raw_sets = _example_raw_tag_sets(corpus)
    merged_sets = [{merge_map.get(tag, tag) for tag in tags} for tags in raw_sets]
    values = _membership_matrix(merged_sets, space.labels)
    return LabelMatrix(space=space, example_ids=[t.id for t, _ in corpus], values=values)


def _confirmed_systems(note: SoapNote) -> set[str]:
    systems = set()
    for entry in note.entries:
        for obs in entry.ros:
            if obs.result == "confirms":
                systems.add(obs.system)
    return systems


def derive_ros_labels(
    corpus: Sequence[tuple[Transcript, SoapNote]], min_rate: float = 0.05
) -> RosDerivation:
    """Build the review-of-systems label space and matrix.

    A system enters the space when strictly more than ``min_rate`` of the
    examples confirm an abnormality for it.
    """
    per_example = [_confirmed_systems(note) for _, note in corpus]
    counts: Counter[str] = Counter()
    for systems in per_example:
        counts.update(systems)
    n = max(len(corpus), 1)
    kept = [s for s in counts if counts[s] / n > min_rate]
    labels = tuple(sorted(kept, key=lambda s: (-counts[s], s)))
    values = _membership_matrix(per_example, labels)
    space = LabelSpace(
        task="ros", labels=labels, train_prevalence=values.sum(axis=0) / n
    )
    matrix = LabelMatrix(
        space=space, example_ids=[t.id for t, _ in corpus], values=values
    )
    return RosDerivation(space=space, matrix=matrix)


def apply_ros_labels(
    corpus: Sequence[tuple[Transcript, SoapNote]], space: LabelSpace
) -> LabelMatrix:
    per_example = [_confirmed_systems(note) for _, note in corpus]
    values = _membership_matrix(per_example, space.labels)
    return LabelMatrix(space=space, example_ids=[t.id for t, _ in corpus], values=values)


def _membership_matrix(sets: Sequence[set[str]], labels: Sequence[str]) -> np.ndarray:
    values = np.zeros((len(sets), len(labels)), dtype=np.uint8)
    index = {label: j for j, label in enumerate(labels)}
    for i, members in enumerate(sets):
        for member in members:
            j = index.get(member)
            if j is not None:
                values[i, j] = 1
    return values


# ---------------------------------------------------------------------------
# Noteworthy-utterance targets


def noteworthy_targets(
    transcript: Transcript,
    note: SoapNote,
    scope: str = "all",
    labels: Iterable[str] | None = None,
    merge_map: Mapping[str, str] | None = None,
) -> np.ndarray:
    """Binary per-utterance targets: 1 when the utterance is cited as evidence.

    scope "all" marks evidence of every entry. Scope "diagnosis" restricts to
    entries whose merged medical-problem tags intersect ``labels``; scope
    "ros" to entries with a confirmed observation for a system in ``labels``.

    Targets under a task scope are always a subset of targets under "all".
    """
    if scope not in ("all", "diagnosis", "ros"):
        raise ValidationError(f"unknown noteworthy scope {scope!r}")
    validate_note_evidence(note, transcript)
    targets = np.zeros(len(transcript.utterances), dtype=np.uint8)
    if scope == "all":
        relevant = note.entries
    elif scope == "diagnosis":
        if labels is None:
            raise ValidationError("scope 'diagnosis' requires a label set")
        label_set = set(labels)
        merge = dict(merge_map or {})
        relevant = []
        for entry in note.entries:
            tags = {
                merge.get(norm, norm)
                for norm in (normalize_problem_tag(v) for v in entry_problem_tags(entry))
                if norm
            }
            if tags & label_set:
                relevant.append(entry)
    else:
        if labels is None:
            raise ValidationError("scope 'ros' requires a label set")
        label_set = set(labels)
        relevant = [
            entry
            for entry in note.entries
            if any(o.result == "confirms" and o.system in label_set for o in entry.ros)
        ]
    for entry in relevant:
        for evidence in entry.evidence:
            targets[evidence] = 1
    return targets


# ---------------------------------------------------------------------------
# Label matrix serialization

# A label file is JSONL whose first line is a space header and whose remaining
# lines are per-example rows listing the positive label names.


def save_label_matrix(
    path: str | Path, matrix: LabelMatrix, merge_map: Mapping[str, str] | None = None
) -> None:
    header: dict = {
        "task": matrix.space.task,
        "labels": list(matrix.space.labels),
        "train_prevalence": [float(p) for p in matrix.space.train_prevalence],
    }
    if merge_map is not None:
        header["merge_map"] = dict(sorted(merge_map.items()))
    rows: list[dict] = [
        {"id": example_id, "labels": matrix.row_labels(i)}
        for i, example_id in enumerate(matrix.example_ids)
    ]
    write_jsonl(path, [header, *rows])


def load_label_matrix(path: str | Path) -> tuple[LabelMatrix, dict[str, str] | None]:
    lines = list(iter_jsonl(path))
    if not lines:
        raise ParseError(f"label file {path} is empty")
    line_number, header = lines[0]
    if not isinstance(header, dict) or "labels" not in header or "task" not in header:
        raise ParseError("label file must start with a space header", line_number)
    space = LabelSpace(
        task=header["task"],
        labels=tuple(header["labels"]),
        train_prevalence=np.asarray(
            header.get("train_prevalence", [0.0] * len(header["labels"])), dtype=float
        ),
    )
    merge_map = header.get("merge_map")
    ids: list[str] = []
    sets: list[set[str]] = []
    seen: set[str] = set()
    for line_number, row in lines[1:]:
        if not isinstance(row, dict) or "id" not in row or "labels" not in row:
            raise ParseError("label row needs 'id' and 'labels'", line_number)
        unknown = set(row["labels"]) - set(space.labels)
        if unknown:
            raise ValidationError(
                f"line {line_number}: labels {sorted(unknown)} not in the space header"
            )
        example_id = str(row["id"])
        if example_id in seen:
            raise ParseError(f"duplicate id {example_id!r}", line_number)
        seen.add(example_id)
        ids.append(example_id)
        sets.append(set(row["labels"]))
    matrix = LabelMatrix(
        space=space, example_ids=ids, values=_membership_matrix(sets, space.labels)
    )
    return matrix, merge_map
