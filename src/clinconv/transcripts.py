"""Conversation transcripts: data model, validation, and JSONL round-trip.

A transcript is an id and three columns of its timestamped utterances:
speakers, start times and texts. The JSONL format is one object per line::

    {"id": "visit-001", "utterances": [
        {"speaker": "physician", "start_ms": 0, "text": "what brings you in"},
        {"speaker": "patient", "start_ms": 2100, "text": "chest pain again"}]}

Unknown fields are ignored (and counted via :class:`~clinconv.jsonio.FieldWarnings`);
missing required fields, empty utterance text, unknown speakers, and
non-monotone timestamps are errors.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError, ValidationError
from .jsonio import FieldWarnings, iter_jsonl, json_loads, write_jsonl

SPEAKERS = ("physician", "patient", "other")

_UTTERANCE_FIELDS = ("speaker", "start_ms", "text")
_TRANSCRIPT_FIELDS = {"id", "utterances"}


class Utterance(NamedTuple):
    speaker: str
    start_ms: int
    text: str


@dataclass
class Transcript:
    """Utterance ``i`` is ``speakers[i]``, ``start_ms[i]`` and ``texts[i]``."""

    id: str
    speakers: tuple[str, ...] = ()
    start_ms: tuple[int, ...] = ()
    texts: tuple[str, ...] = ()

    @property
    def utterances(self) -> tuple[Utterance, ...]:
        """The utterances, built from the columns on each read."""
        return tuple(map(Utterance, self.speakers, self.start_ms, self.texts))

    def word_count(self) -> int:
        return sum(map(len, map(str.split, self.texts)))

    def __len__(self) -> int:
        return len(self.texts)


def validate_transcript(transcript: Transcript) -> None:
    """Raise ValidationError unless the transcript satisfies its invariants."""
    if not transcript.id:
        raise ValidationError("transcript id must be non-empty")
    speakers, starts, texts = transcript.speakers, transcript.start_ms, transcript.texts
    if not len(speakers) == len(starts) == len(texts):
        raise ValidationError(f"transcript {transcript.id!r}: columns of unequal length")
    where = f"transcript {transcript.id!r} utterance"
    previous_ms = 0
    for index, (speaker, start_ms, text) in enumerate(zip(speakers, starts, texts)):
        if speaker not in SPEAKERS:
            raise ValidationError(
                f"{where} {index}: unknown speaker {speaker!r} "
                f"(expected one of {', '.join(SPEAKERS)})"
            )
        if not isinstance(start_ms, int) or isinstance(start_ms, bool):
            raise ValidationError(f"{where} {index}: start_ms must be an integer")
        if start_ms < 0:
            raise ValidationError(f"{where} {index}: negative start_ms")
        if start_ms < previous_ms:
            raise ValidationError(
                f"{where} {index}: start_ms decreases ({start_ms} after {previous_ms})"
            )
        if not isinstance(text, str):
            raise ValidationError(f"{where} {index}: text must be a string")
        if not text or not text.strip():
            raise ValidationError(f"{where} {index}: empty text")
        previous_ms = start_ms


def parse_transcript(
    record: str | bytes | dict,
    line_number: int | None = None,
    warnings: FieldWarnings | None = None,
) -> Transcript:
    """Parse and validate one transcript record (JSON text or a decoded object)."""
    if isinstance(record, (str, bytes)):
        record = json_loads(record, line_number)
    if not isinstance(record, dict):
        raise ParseError("transcript record must be a JSON object", line_number)

    for name in ("id", "utterances"):
        if name not in record:
            raise ParseError(f"transcript record missing field {name!r}", line_number)
    if warnings is not None:
        for name in record.keys() - _TRANSCRIPT_FIELDS:
            warnings.note("transcript", name)

    if not isinstance(record["id"], str):
        raise ParseError("'id' must be a string", line_number)
    raw_utterances = record["utterances"]
    if not isinstance(raw_utterances, list):
        raise ParseError("'utterances' must be a list", line_number)

    try:
        columns = tuple(zip(*map(itemgetter(*_UTTERANCE_FIELDS), raw_utterances))) or ((), (), ())
    except (KeyError, TypeError):
        # Name the first utterance that is not an object or lacks a field.
        for index, item in enumerate(raw_utterances):
            if not isinstance(item, dict):
                raise ParseError(f"utterance {index} must be a JSON object", line_number)
            for name in _UTTERANCE_FIELDS:
                if name not in item:
                    raise ParseError(f"utterance {index} missing field {name!r}", line_number)
        raise
    if warnings is not None and max(map(len, raw_utterances), default=0) > len(_UTTERANCE_FIELDS):
        for item in raw_utterances:
            for name in item.keys() - _UTTERANCE_FIELDS:
                warnings.note("utterance", name)

    transcript = Transcript(record["id"], *columns)
    validate_transcript(transcript)
    return transcript


def transcript_to_record(transcript: Transcript) -> dict:
    columns = zip(transcript.speakers, transcript.start_ms, transcript.texts)
    return {
        "id": transcript.id,
        "utterances": [{"speaker": s, "start_ms": ms, "text": t} for s, ms, t in columns],
    }


def load_transcripts(
    path: str | Path, warnings: FieldWarnings | None = None
) -> list[Transcript]:
    """Load a JSONL corpus, enforcing id uniqueness.

    Every error names the file and line: ``<path>: line N: ...``.
    """
    transcripts: list[Transcript] = []
    seen: set[str] = set()
    for line_number, record in iter_jsonl(path):
        where = f"{path}: line {line_number}"
        try:
            transcript = parse_transcript(record, warnings=warnings)
        except (ParseError, ValidationError) as exc:
            raise type(exc)(f"{where}: {exc}") from exc
        if transcript.id in seen:
            raise ValidationError(f"{where}: duplicate transcript id {transcript.id!r}")
        seen.add(transcript.id)
        transcripts.append(transcript)
    return transcripts


def save_transcripts(path: str | Path, transcripts: Iterable[Transcript]) -> None:
    write_jsonl(path, (transcript_to_record(t) for t in transcripts))
