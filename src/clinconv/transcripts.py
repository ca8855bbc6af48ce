"""Conversation transcripts: data model, validation, and JSONL round-trip.

A transcript is an ordered list of timestamped utterances. The JSONL format is
one object per line::

    {"id": "visit-001", "utterances": [
        {"speaker": "physician", "start_ms": 0, "text": "what brings you in"},
        {"speaker": "patient", "start_ms": 2100, "text": "chest pain again"}]}

Unknown fields are ignored (and counted via :class:`~clinconv.jsonio.FieldWarnings`);
missing required fields, empty utterance text, unknown speakers, and
non-monotone timestamps are errors.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, ValidationError
from .jsonio import FieldWarnings, iter_jsonl, json_loads, write_jsonl

SPEAKERS = ("physician", "patient", "other")

_UTTERANCE_FIELDS = {"speaker", "start_ms", "text"}
_TRANSCRIPT_FIELDS = {"id", "utterances"}


@dataclass
class Utterance:
    speaker: str
    start_ms: int
    text: str


@dataclass
class Transcript:
    id: str
    utterances: list[Utterance] = field(default_factory=list)

    def word_count(self) -> int:
        return sum(len(u.text.split()) for u in self.utterances)

    def __len__(self) -> int:
        return len(self.utterances)


def validate_transcript(transcript: Transcript) -> None:
    """Raise ValidationError unless the transcript satisfies its invariants."""
    if not transcript.id:
        raise ValidationError("transcript id must be non-empty")
    previous_ms = None
    for index, utt in enumerate(transcript.utterances):
        if utt.speaker not in SPEAKERS:
            raise ValidationError(
                f"transcript {transcript.id!r} utterance {index}: unknown speaker "
                f"{utt.speaker!r} (expected one of {', '.join(SPEAKERS)})"
            )
        if not isinstance(utt.start_ms, int) or isinstance(utt.start_ms, bool):
            raise ValidationError(
                f"transcript {transcript.id!r} utterance {index}: start_ms must be an integer"
            )
        if utt.start_ms < 0:
            raise ValidationError(
                f"transcript {transcript.id!r} utterance {index}: negative start_ms"
            )
        if previous_ms is not None and utt.start_ms < previous_ms:
            raise ValidationError(
                f"transcript {transcript.id!r} utterance {index}: start_ms decreases "
                f"({utt.start_ms} after {previous_ms})"
            )
        if not isinstance(utt.text, str):
            raise ValidationError(
                f"transcript {transcript.id!r} utterance {index}: text must be a string"
            )
        if not utt.text or not utt.text.strip():
            raise ValidationError(
                f"transcript {transcript.id!r} utterance {index}: empty text"
            )
        previous_ms = utt.start_ms


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

    utterances = []
    for index, item in enumerate(raw_utterances):
        if not isinstance(item, dict):
            raise ParseError(f"utterance {index} must be a JSON object", line_number)
        for name in ("speaker", "start_ms", "text"):
            if name not in item:
                raise ParseError(
                    f"utterance {index} missing field {name!r}", line_number
                )
        if warnings is not None:
            for name in item.keys() - _UTTERANCE_FIELDS:
                warnings.note("utterance", name)
        utterances.append(
            Utterance(speaker=item["speaker"], start_ms=item["start_ms"], text=item["text"])
        )

    transcript = Transcript(id=record["id"], utterances=utterances)
    validate_transcript(transcript)
    return transcript


def transcript_to_record(transcript: Transcript) -> dict:
    return {
        "id": transcript.id,
        "utterances": [
            {"speaker": u.speaker, "start_ms": u.start_ms, "text": u.text}
            for u in transcript.utterances
        ],
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
