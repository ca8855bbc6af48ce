"""Synthetic corpus generator: determinism, planted truth, and texture."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from clinconv import (
    GenConfig,
    GenerationError,
    ParseError,
    apply_ros_labels,
    corpus_stats,
    derive_diagnosis_labels,
    derive_ros_labels,
    generate,
    noteworthy_targets,
    umls_noteworthy,
)
from clinconv import save_notes, save_transcripts
from clinconv.synth import load_truths, save_truths, speech_vocabulary_tokens

# SHA-256 of the transcripts, notes and truth files written for small corpora.
# They pin every random draw of the generator and its order: a change that
# moves one draw changes the corpus, and with it every downstream figure. A
# numpy release that changes a sampling algorithm would change them too.
GOLDEN_DIGESTS = {
    ("desk", 3): (
        "7c9a1518c5c56170bd19ac588da5771ad2f67b62551dd0dd38f95793e5818b92",
        "714288b144f07bf0aa36e82632dfb0855c074dd5aa1de44820b47596020fd209",
        "e07e9f4e9dd76a4e735eded912da05d1e67eff67a7b996cc28f56e3bd22e096f",
    ),
    ("desk", 11): (
        "4a3df9665e133e08abe579a4483549a5a868f5b01ca4bfd47dbb5edf674e20ff",
        "979ee9727ec7c0fbf062b4e23c58c4e0bd3a0a2672a33cce8506126b9cb75d8a",
        "3029ecb1bbaa09acf04464ee2fb0c5f0513d14dbfb871eeb9c7f3eebc0398565",
    ),
    ("full", 3): (
        "7ed1b67cced36bb4ed7eac86df11ce0f408ed097ec89b928f080db22e92f2340",
        "3fad03e4214f39418ae3c2d44e2e09c8e34096b29083b9d09051f6af76f1336c",
        "bc68fc7f4d48dd3bdb12c16b31401901279983529bd11d5bb5a3d2caca3ede52",
    ),
    ("full", 11): (
        "50eefe0640e54b01242985ead720f26508b1906773082b926879d677c82d8f2c",
        "fda24e32440261cba899bffa17f2dccb3bbdc6e979eaee3457b689de87cdaed6",
        "30866e97aaf988f1bcd68f521d08b5157c452e728203bafd1e709b31af2d802d",
    ),
}


def test_same_seed_reproduces_corpus():
    config = GenConfig.desk(n_examples=12)
    first = generate(config, seed=9)
    second = generate(config, seed=9)
    assert first.transcripts == second.transcripts
    assert first.notes == second.notes
    assert first.truths == second.truths


@pytest.mark.parametrize("scale, seed", sorted(GOLDEN_DIGESTS))
def test_generated_files_match_golden_digests(tmp_path, scale, seed):
    config = GenConfig.desk(n_examples=12) if scale == "desk" else GenConfig(n_examples=6)
    corpus = generate(config, seed=seed)
    paths = [tmp_path / name for name in ("transcripts.jsonl", "notes.jsonl", "truth.jsonl")]
    save_transcripts(paths[0], corpus.transcripts)
    save_notes(paths[1], corpus.notes)
    save_truths(paths[2], corpus.truths)
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)
    assert digests == GOLDEN_DIGESTS[scale, seed]


def test_different_seeds_differ():
    config = GenConfig.desk(n_examples=12)
    assert generate(config, seed=1).transcripts != generate(config, seed=2).transcripts


def test_config_validation():
    with pytest.raises(GenerationError):
        GenConfig(marker_prob=1.5)
    with pytest.raises(GenerationError):
        GenConfig(n_examples=0)
    with pytest.raises(GenerationError):
        GenConfig(mean_utterances=4.0)  # cannot hold the planted evidence


def test_config_record_round_trip():
    config = GenConfig.desk(n_examples=7, denies_rate=0.11)
    assert GenConfig.from_record(config.to_record()) == config
    with pytest.raises(ParseError):
        GenConfig.from_record({"n_example": 7})


def test_speech_vocabulary_disjoint_from_lexicon(lexicon):
    concept_tokens = {
        token
        for concept in lexicon.concepts
        for phrase in concept.synonyms
        for token in phrase.split()
    }
    assert speech_vocabulary_tokens() & concept_tokens == set()


def test_truth_file_round_trip(tmp_path, small_corpus):
    path = tmp_path / "truth.jsonl"
    save_truths(path, small_corpus.truths)
    assert load_truths(path) == small_corpus.truths


def test_concept_hits_equal_planted_mentions(small_corpus, lexicon):
    for transcript, truth in zip(small_corpus.transcripts, small_corpus.truths):
        assert umls_noteworthy(lexicon, transcript) == sorted(truth.mentioned)


def test_derived_diagnosis_labels_match_planted_truth(medium_corpus, medium_derivations):
    derivation, _ = medium_derivations
    by_id = {t.transcript_id: set(t.diagnosis) for t in medium_corpus.truths}
    for row, example_id in enumerate(derivation.matrix.example_ids):
        derived = set(derivation.matrix.row_labels(row))
        assert derived == by_id[example_id], example_id


def test_derived_ros_labels_match_planted_truth(medium_corpus, medium_derivations):
    _, derivation = medium_derivations
    space_labels = set(derivation.space.labels)
    by_id = {t.transcript_id: set(t.ros) for t in medium_corpus.truths}
    for row, example_id in enumerate(derivation.matrix.example_ids):
        derived = set(derivation.matrix.row_labels(row))
        assert derived == by_id[example_id] & space_labels, example_id


def test_noteworthy_truth_matches_note_evidence(medium_corpus, medium_derivations):
    diagnosis, ros = medium_derivations
    for (transcript, note), truth in zip(medium_corpus.pairs(), medium_corpus.truths):
        assert (
            np.flatnonzero(noteworthy_targets(transcript, note, "all")).tolist()
            == truth.noteworthy_all
        )
        diag = noteworthy_targets(
            transcript,
            note,
            "diagnosis",
            labels=diagnosis.space.labels,
            merge_map=diagnosis.merge_map,
        )
        assert np.flatnonzero(diag).tolist() == truth.noteworthy_diagnosis
        mask = noteworthy_targets(
            transcript, note, "ros", labels=ros.space.labels
        )
        assert set(np.flatnonzero(mask).tolist()) <= set(truth.noteworthy_ros)


def test_ros_application_to_fresh_split(medium_corpus, medium_derivations):
    _, derivation = medium_derivations
    fresh = generate(GenConfig.desk(n_examples=50), seed=77)
    matrix = apply_ros_labels(fresh.pairs(), derivation.space)
    by_id = {t.transcript_id: set(t.ros) for t in fresh.truths}
    labels = set(derivation.space.labels)
    for row, example_id in enumerate(matrix.example_ids):
        assert set(matrix.row_labels(row)) == by_id[example_id] & labels


def test_distractors_are_never_cited_as_evidence(small_corpus):
    for truth in small_corpus.truths:
        assert set(truth.distractor) & set(truth.noteworthy_all) == set()
        assert set(truth.distractor) <= set(truth.mentioned)


def test_task_noteworthy_subsets_nest(small_corpus):
    for truth in small_corpus.truths:
        everything = set(truth.noteworthy_all)
        assert set(truth.noteworthy_diagnosis) <= everything
        assert set(truth.noteworthy_ros) <= everything


def test_full_scale_texture():
    corpus = generate(GenConfig(n_examples=60), seed=13)
    stats = corpus_stats(corpus)
    assert 195 <= stats.mean_utterances <= 235
    assert 1250 <= stats.mean_transcript_words <= 1800
    assert 3.0 <= stats.mean_evidence_utterances <= 5.5
    assert stats.mean_mentioned_utterances >= stats.mean_evidence_utterances - 1.5


def test_generation_rates_track_configuration(medium_corpus, diagnosis_map, ros_map):
    stats = corpus_stats(medium_corpus)
    config = medium_corpus.config
    diag_labels = list(diagnosis_map.labels.values())
    observed = [stats.diagnosis_rates.get(label, 0.0) for label in diag_labels[:4]]
    np.testing.assert_allclose(observed, config.diagnosis_rates[:4], atol=0.06)
    systems = list(dict.fromkeys(ros_map.labels.values()))
    observed = [stats.ros_rates.get(system, 0.0) for system in systems]
    np.testing.assert_allclose(observed, config.ros_rates, atol=0.07)


def test_transcripts_validate_and_ids_are_unique(small_corpus):
    ids = [t.id for t in small_corpus.transcripts]
    assert len(set(ids)) == len(ids)
    note_ids = [n.transcript_id for n in small_corpus.notes]
    assert ids == note_ids
