"""Transcript parsing, validation, and JSONL round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinconv import (
    ParseError,
    Transcript,
    ValidationError,
    load_transcripts,
    save_transcripts,
)
from clinconv.jsonio import FieldWarnings
from clinconv.transcripts import parse_transcript, transcript_to_record, validate_transcript
from oracles import naive_parse_transcript

GOOD = {
    "id": "visit-1",
    "utterances": [
        {"speaker": "physician", "start_ms": 0, "text": "what brings you in"},
        {"speaker": "patient", "start_ms": 2100, "text": "chest pain again"},
    ],
}


def test_parse_and_rebuild_record():
    transcript = parse_transcript(GOOD)
    assert transcript.id == "visit-1"
    assert len(transcript) == 2
    assert transcript.word_count() == 7
    assert transcript_to_record(transcript) == GOOD


def test_parse_accepts_json_text():
    import json

    assert parse_transcript(json.dumps(GOOD)).id == "visit-1"


def test_unknown_fields_tolerated_and_counted():
    record = dict(GOOD, session="am")
    record["utterances"] = [dict(u, confidence=0.9) for u in GOOD["utterances"]]
    warnings = FieldWarnings()
    parse_transcript(record, warnings=warnings)
    assert warnings.summary() == {"transcript.session": 1, "utterance.confidence": 2}


@pytest.mark.parametrize("missing", ["id", "utterances"])
def test_missing_required_field_rejected(missing):
    record = {k: v for k, v in GOOD.items() if k != missing}
    with pytest.raises(ParseError):
        parse_transcript(record)


def test_unknown_speaker_rejected():
    with pytest.raises(ValidationError, match="unknown speaker"):
        validate_transcript(Transcript("t", ("nurse",), (0,), ("hello",)))


def test_timestamps_must_be_non_decreasing():
    transcript = Transcript("t", ("patient", "patient"), (500, 400), ("first", "second"))
    with pytest.raises(ValidationError, match="start_ms decreases"):
        validate_transcript(transcript)


def test_equal_timestamps_allowed():
    validate_transcript(Transcript("t", ("patient", "physician"), (500, 500), ("a", "b")))


def test_negative_or_non_integer_timestamp_rejected():
    with pytest.raises(ValidationError):
        validate_transcript(Transcript("t", ("patient",), (-1,), ("a",)))
    with pytest.raises(ValidationError):
        validate_transcript(Transcript("t", ("patient",), (1.5,), ("a",)))


def test_blank_text_rejected():
    with pytest.raises(ValidationError, match="empty text"):
        validate_transcript(Transcript("t", ("patient",), (0,), ("   ",)))


@pytest.mark.parametrize(
    "columns",
    [
        (("patient", "patient"), (0,), ("a", "b")),
        (("patient",), (0, 1), ("a",)),
        (("patient", "patient"), (0, 1), ("a",)),
    ],
)
def test_columns_of_unequal_length_rejected(columns):
    with pytest.raises(ValidationError, match="transcript 't': columns of unequal length"):
        validate_transcript(Transcript("t", *columns))


def test_corpus_round_trip(tmp_path, small_corpus):
    path = tmp_path / "transcripts.jsonl"
    save_transcripts(path, small_corpus.transcripts)
    loaded = load_transcripts(path)
    assert loaded == small_corpus.transcripts


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "dup.jsonl"
    transcript = parse_transcript(GOOD)
    save_transcripts(path, [transcript, transcript])
    with pytest.raises(ValidationError, match="duplicate transcript id"):
        load_transcripts(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "utterances": []}\nnot json\n')
    with pytest.raises(ParseError, match="line 2"):
        load_transcripts(path)


@st.composite
def transcripts(draw):
    text = st.text(
        alphabet="abcdefghij ", min_size=1, max_size=30
    ).filter(lambda s: s.strip())
    n = draw(st.integers(min_value=0, max_value=6))
    speakers = st.sampled_from(["physician", "patient", "other"])
    return Transcript(
        id=draw(st.text(min_size=1, max_size=8)),
        speakers=tuple(draw(st.lists(speakers, min_size=n, max_size=n))),
        start_ms=tuple(sorted(draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n)))),
        texts=tuple(draw(st.lists(text, min_size=n, max_size=n))),
    )


@given(st.lists(transcripts(), min_size=0, max_size=5))
@settings(max_examples=50, deadline=None)
def test_save_load_is_identity(tmp_path_factory, items):
    for i, t in enumerate(items):  # guarantee unique ids
        t.id = f"{i}-{t.id}"
    path = tmp_path_factory.mktemp("roundtrip") / "corpus.jsonl"
    save_transcripts(path, items)
    assert load_transcripts(path) == items


# Decoded JSON values that are wrong wherever a field must be a non-empty
# string, a non-negative integer, a list or an object. Mutable values are built
# afresh for every draw, because later corruptions may edit them in place.
JSON_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-2.0, 2.0),
    st.sampled_from(["", " ", "\n", "nurse", "patient"]),
    st.builds(list),
    st.builds(lambda: ["patient"]),
    st.builds(lambda: {"speaker": "patient"}),
)
# Each field also draws the values closest to passing its own check.
FIELD_JUNK = {
    "id": st.one_of(st.just(""), JSON_JUNK),
    "speaker": JSON_JUNK,
    "start_ms": st.one_of(st.booleans(), st.integers(-3, -1), st.floats(0.0, 5.0), JSON_JUNK),
    "text": st.one_of(st.sampled_from(["", " ", "\n\t"]), JSON_JUNK),
}
EXTRA_FIELDS = ["confidence", "session", "id", "utterances", "speaker"]
# Weighted towards the utterances, where the column reader differs most.
CORRUPTIONS = ["record", "id", "utterances", "drop"] + ["extra"] * 2 + ["utterance"] * 6


def _corrupt(draw, record: dict):
    """The record with one corruption, made in place where it can be."""
    utterances = record.get("utterances")
    items = utterances if isinstance(utterances, list) else []
    kind = draw(st.sampled_from(CORRUPTIONS))
    if kind == "record":
        not_text = JSON_JUNK.filter(lambda value: not isinstance(value, str))
        return draw(st.one_of(not_text, st.builds(lambda: [record])))
    if kind == "id":
        record["id"] = draw(FIELD_JUNK["id"])
    elif kind == "utterances":
        not_list = JSON_JUNK.filter(lambda value: not isinstance(value, list))
        record["utterances"] = draw(st.one_of(not_list, st.builds(lambda: {"0": items})))
    elif kind == "drop" and record:
        del record[draw(st.sampled_from(sorted(record)))]
    elif kind == "extra":
        target = draw(st.sampled_from([record, *(u for u in items if isinstance(u, dict))]))
        target[draw(st.sampled_from(EXTRA_FIELDS).filter(lambda n: n not in target))] = 1
    elif kind == "utterance" and items:
        index = draw(st.integers(0, len(items) - 1))
        item = items[index]
        part = draw(st.sampled_from(["object", "drop", "decrease", "speaker", "start_ms", "text"]))
        if part == "object" or not isinstance(item, dict):
            items[index] = draw(JSON_JUNK)
        elif part == "drop":
            if item:
                del item[draw(st.sampled_from(sorted(item)))]
        elif part == "decrease":
            previous = items[index - 1] if index else {}
            start = previous.get("start_ms") if isinstance(previous, dict) else None
            item["start_ms"] = (start if isinstance(start, int) else 0) + draw(st.integers(-3, 3))
        else:
            item[part] = draw(FIELD_JUNK[part])
    return record


@st.composite
def records(draw):
    """A decoded transcript record, valid or with up to three corruptions."""
    record = transcript_to_record(draw(transcripts()))
    for _ in range(draw(st.integers(0, 3))):
        if not isinstance(record, dict):
            break
        record = _corrupt(draw, record)
    return record


def _read(reader, record):
    """The reader's columns and warning counts, or its exception's class and text."""
    warnings = FieldWarnings()
    try:
        columns = reader(record, warnings=warnings)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return columns, warnings.summary()


def _columns(record, warnings):
    transcript = parse_transcript(record, warnings=warnings)
    return transcript.id, transcript.speakers, transcript.start_ms, transcript.texts


@given(records())
@settings(max_examples=1000, deadline=None)
def test_column_reader_matches_the_utterance_walk(record):
    assert _read(_columns, record) == _read(naive_parse_transcript, record)
