"""Note parsing, tag merging, label derivation, and noteworthy targets."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinconv import (
    NoteEntry,
    ParseError,
    RosObservation,
    SoapNote,
    TagPair,
    Transcript,
    ValidationError,
    apply_diagnosis_labels,
    apply_ros_labels,
    derive_diagnosis_labels,
    derive_ros_labels,
    load_label_matrix,
    load_notes,
    noteworthy_targets,
    pair_corpus,
    save_label_matrix,
    save_notes,
)
from clinconv.annotations import (
    entry_problem_tags,
    merge_by_substring,
    normalize_problem_tag,
    note_to_record,
    parse_note,
)


def _transcript(id_: str, n: int = 6) -> Transcript:
    return Transcript(
        id_,
        ("patient",) * n,
        tuple(range(0, 100 * n, 100)),
        tuple(f"line {i}" for i in range(n)),
    )


def _problem(value: str, hpi: bool = False) -> list[TagPair]:
    tags = [TagPair("medical_problem", value)]
    if hpi:
        tags.append(TagPair("context", "HPI"))
    return tags


def _note(id_: str, entries: list[NoteEntry]) -> SoapNote:
    return SoapNote(transcript_id=id_, entries=entries)


def test_note_record_round_trip():
    note = _note(
        "visit-1",
        [
            NoteEntry(
                "assessment",
                text="hypertension, stable",
                tags=_problem("hypertension"),
                evidence=[3, 1],
            ),
            NoteEntry(
                "review_of_systems",
                evidence=[2],
                ros=[RosObservation("cardiovascular", "chest pain", "confirms")],
            ),
        ],
    )
    assert parse_note(note_to_record(note)) == note


def test_parse_rejects_unknown_subsection_and_result():
    with pytest.raises(ValidationError, match="subsection"):
        parse_note({"transcript_id": "a", "entries": [{"subsection": "billing"}]})
    record = {
        "transcript_id": "a",
        "entries": [
            {
                "subsection": "review_of_systems",
                "ros": [{"system": "skin", "symptom": "rash", "result": "maybe"}],
            }
        ],
    }
    with pytest.raises(ValidationError, match="result"):
        parse_note(record)


def test_parse_rejects_missing_transcript_id():
    with pytest.raises(ParseError):
        parse_note({"entries": []})


def test_notes_round_trip_through_file(tmp_path, small_corpus):
    path = tmp_path / "notes.jsonl"
    save_notes(path, small_corpus.notes)
    assert load_notes(path) == small_corpus.notes


def test_pair_corpus_checks_ids_and_evidence_bounds():
    transcript = _transcript("visit-1", n=3)
    stray = _note("visit-9", [])
    with pytest.raises(ValidationError, match="unknown transcript"):
        pair_corpus([transcript], [stray])
    out_of_range = _note(
        "visit-1", [NoteEntry("assessment", evidence=[7], tags=_problem("x"))]
    )
    with pytest.raises(ValidationError, match="evidence"):
        pair_corpus([transcript], [out_of_range])


def test_normalize_problem_tag_strips_parenthetical_qualifiers():
    assert normalize_problem_tag("Hypertension (essential, benign) ") == "hypertension"
    assert normalize_problem_tag("COPD  (severe) (confirmed)") == "copd"
    assert normalize_problem_tag(" (only parens) ") == ""
    assert normalize_problem_tag("heart   failure") == "heart failure"


def test_merge_by_substring_maps_variants_to_frequent_targets():
    counts = {
        "hypertension": 40,
        "severe hypertension": 3,
        "diabetes": 25,
        "diabetes type 2": 4,
        "arthritis": 1,
    }
    merge = merge_by_substring(counts, top_k=2)
    assert merge["severe hypertension"] == "hypertension"
    assert merge["diabetes type 2"] == "diabetes"
    assert merge["arthritis"] == "arthritis"  # no target contained


def test_merge_prefers_the_most_frequent_containing_target():
    counts = {"pain": 30, "chest pain": 20, "severe chest pain": 2}
    merge = merge_by_substring(counts, top_k=2)
    assert merge["severe chest pain"] == "pain"
    assert merge["chest pain"] == "pain"


@given(
    st.dictionaries(
        st.text(alphabet="abc ", min_size=1, max_size=6).map(str.strip).filter(bool),
        st.integers(min_value=1, max_value=50),
        min_size=1,
        max_size=12,
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=80, deadline=None)
def test_merge_targets_are_contained_known_tags(counts, top_k):
    merge = merge_by_substring(counts, top_k)
    assert set(merge) == set(counts)
    for source, target in merge.items():
        assert target in counts
        assert target == source or target in source


def test_entry_problem_tags_requires_hpi_marker_in_history():
    direct = NoteEntry("assessment", tags=_problem("asthma"))
    history = NoteEntry("past_medical_history", tags=_problem("asthma"))
    marked = NoteEntry("past_medical_history", tags=_problem("asthma", hpi=True))
    ros = NoteEntry("review_of_systems", tags=_problem("asthma"))
    assert entry_problem_tags(direct) == ["asthma"]
    assert entry_problem_tags(history) == []
    assert entry_problem_tags(marked) == ["asthma"]
    assert entry_problem_tags(ros) == []


def _diagnosis_corpus():
    pairs = []
    specs = [
        ("hypertension", "chief_complaint"),
        ("hypertension", "assessment"),
        ("Hypertension (benign)", "assessment"),
        ("diabetes", "assessment"),
        ("diabetes", "chief_complaint"),
        ("asthma", "assessment"),
    ]
    for i, (tag, subsection) in enumerate(specs):
        transcript = _transcript(f"v{i}")
        note = _note(
            f"v{i}", [NoteEntry(subsection, tags=_problem(tag), evidence=[0])]
        )
        pairs.append((transcript, note))
    return pairs


def test_derive_diagnosis_labels_counts_each_example_once():
    derivation = derive_diagnosis_labels(_diagnosis_corpus(), label_count=2)
    assert derivation.space.labels == ("hypertension", "diabetes")
    np.testing.assert_allclose(derivation.space.train_prevalence, [3 / 6, 2 / 6])


def test_apply_diagnosis_labels_uses_frozen_merge_map():
    corpus = _diagnosis_corpus()
    derivation = derive_diagnosis_labels(corpus, label_count=2)
    transcript = _transcript("held-out")
    note = _note(
        "held-out",
        [NoteEntry("assessment", tags=_problem("chronic hypertension"), evidence=[1])],
    )
    matrix = apply_diagnosis_labels(
        [(transcript, note)], derivation.space, derivation.merge_map
    )
    row = dict(zip(derivation.space.labels, matrix.values[0]))
    # "chronic hypertension" never appeared at derivation time, so the frozen
    # map cannot merge it; the row stays negative.
    assert row == {"hypertension": 0, "diabetes": 0}
    known = apply_diagnosis_labels(
        [(transcript, _note("held-out", [NoteEntry("assessment", tags=_problem("Hypertension (benign)"))]))],
        derivation.space,
        derivation.merge_map,
    )
    assert dict(zip(derivation.space.labels, known.values[0]))["hypertension"] == 1


def _ros_corpus(confirm_counts: dict[str, int], n: int):
    pairs = []
    for i in range(n):
        entries = []
        for system, count in confirm_counts.items():
            if i < count:
                entries.append(
                    NoteEntry(
                        "review_of_systems",
                        evidence=[0],
                        ros=[RosObservation(system, "symptom", "confirms")],
                    )
                )
        pairs.append((_transcript(f"v{i}"), _note(f"v{i}", entries)))
    return pairs


def test_derive_ros_labels_needs_strictly_more_than_min_rate():
    pairs = _ros_corpus({"cardiovascular": 8, "skin": 2, "head": 1}, n=20)
    derivation = derive_ros_labels(pairs, min_rate=0.10)
    # skin sits exactly at the cutoff rate and is excluded
    assert derivation.space.labels == ("cardiovascular",)
    np.testing.assert_allclose(derivation.space.train_prevalence, [0.4])


def test_denied_observations_do_not_create_labels():
    pairs = [
        (
            _transcript("v0"),
            _note(
                "v0",
                [
                    NoteEntry(
                        "review_of_systems",
                        evidence=[0],
                        ros=[RosObservation("skin", "rash", "denies")],
                    )
                ],
            ),
        )
    ]
    assert derive_ros_labels(pairs, min_rate=0.0).space.labels == ()


def test_apply_ros_labels_against_frozen_space():
    pairs = _ros_corpus({"cardiovascular": 8, "respiratory": 6}, n=20)
    space = derive_ros_labels(pairs, min_rate=0.05).space
    matrix = apply_ros_labels(pairs[:3], space)
    assert matrix.values.shape == (3, 2)
    assert matrix.values[:, space.labels.index("cardiovascular")].tolist() == [1, 1, 1]


def test_noteworthy_targets_scopes_nest():
    transcript = _transcript("v0", n=8)
    note = _note(
        "v0",
        [
            NoteEntry("assessment", tags=_problem("hypertension"), evidence=[1, 2]),
            NoteEntry(
                "review_of_systems",
                evidence=[4],
                ros=[RosObservation("cardiovascular", "chest pain", "confirms")],
            ),
            NoteEntry("plan", text="follow up in two weeks", evidence=[6]),
        ],
    )
    everything = noteworthy_targets(transcript, note, "all")
    diagnosis = noteworthy_targets(
        transcript, note, "diagnosis", labels=["hypertension"], merge_map={}
    )
    ros = noteworthy_targets(transcript, note, "ros", labels=["cardiovascular"])
    assert everything.tolist() == [0, 1, 1, 0, 1, 0, 1, 0]
    assert diagnosis.tolist() == [0, 1, 1, 0, 0, 0, 0, 0]
    assert ros.tolist() == [0, 0, 0, 0, 1, 0, 0, 0]
    assert np.all(diagnosis <= everything) and np.all(ros <= everything)


def test_noteworthy_targets_applies_merge_map():
    transcript = _transcript("v0")
    note = _note(
        "v0",
        [NoteEntry("assessment", tags=_problem("essential hypertension"), evidence=[3])],
    )
    merge = {"essential hypertension": "hypertension"}
    with_merge = noteworthy_targets(
        transcript, note, "diagnosis", labels=["hypertension"], merge_map=merge
    )
    without = noteworthy_targets(
        transcript, note, "diagnosis", labels=["hypertension"], merge_map={}
    )
    assert with_merge.tolist() == [0, 0, 0, 1, 0, 0]
    assert without.tolist() == [0, 0, 0, 0, 0, 0]


def test_noteworthy_targets_scope_validation():
    transcript = _transcript("v0")
    note = _note("v0", [])
    with pytest.raises(ValidationError):
        noteworthy_targets(transcript, note, "everything")
    with pytest.raises(ValidationError):
        noteworthy_targets(transcript, note, "diagnosis")


def test_label_matrix_round_trip(tmp_path, medium_derivations):
    diagnosis, ros = medium_derivations
    for derivation, merge in ((diagnosis, diagnosis.merge_map), (ros, None)):
        path = tmp_path / f"{derivation.space.task}.jsonl"
        save_label_matrix(path, derivation.matrix, merge)
        matrix, loaded_merge = load_label_matrix(path)
        assert matrix.space.labels == derivation.space.labels
        np.testing.assert_allclose(
            matrix.space.train_prevalence, derivation.space.train_prevalence
        )
        assert matrix.example_ids == derivation.matrix.example_ids
        assert np.array_equal(matrix.values, derivation.matrix.values)
        assert loaded_merge == merge


def test_label_matrix_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "labels.jsonl"
    rows = [{"task": "ros", "labels": ["x"]}] + [
        {"id": i, "labels": ["x"]} for i in ("a", "a", "b")
    ]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ParseError, match="line 3: duplicate id 'a'"):
        load_label_matrix(path)


def test_label_header_value_out_of_range_names_the_file(tmp_path):
    path = tmp_path / "labels.jsonl"
    rows = [{"task": "ros", "labels": ["x"], "train_prevalence": [1.5]}, {"id": "a", "labels": []}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ValidationError) as raised:
        load_label_matrix(path)
    assert str(raised.value) == (
        f"{path}: line 1: train_prevalence entries must lie in [0, 1]"
    )
