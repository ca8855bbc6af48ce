"""Concept lexicon compilation, span tagging, and task routing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinconv import (
    Concept,
    LexiconError,
    Transcript,
    ValidationError,
    build_lexicon,
    entity_baseline_predict,
    load_concepts_file,
    tag_utterance,
    tokenize,
    umls_noteworthy,
)
from clinconv.bundled import bundled_concepts
from clinconv.concepts import (
    parse_concepts,
    parse_task_map,
    save_concepts_file,
    table_hits,
    transcript_hits,
    validate_task_map_against_lexicon,
)
from clinconv.features import token_table
from oracles import normalize_for_match, oracle_lexicon, oracle_tag, oracle_token_hits

CONCEPTS = [
    Concept("C1", "myocardial infarction", ["heart attack", "mi"]),
    Concept("C2", "chest pain", ["pain in the chest"]),
    Concept("C3", "pain", []),
]


@pytest.fixture
def lex():
    return build_lexicon(CONCEPTS)


def tag(lexicon, text):
    return tag_utterance(lexicon, tokenize(text))


def test_canonical_phrase_counts_as_synonym(lex):
    hits = tag(lex, "she had a myocardial infarction last year")
    assert [h.cui for h in hits] == ["C1"]


def test_longest_match_wins(lex):
    hits = tag(lex, "reports chest pain since tuesday")
    assert [h.cui for h in hits] == ["C2"]  # not the bare "pain" concept


def test_bare_concept_still_matches_alone(lex):
    assert [h.cui for h in tag(lex, "the pain comes and goes")] == ["C3"]


def test_matching_ignores_case_and_punctuation(lex):
    hits = tag(lex, "Heart attack?! In 2019.")
    assert [h.cui for h in hits] == ["C1"]


def test_token_boundaries_respected(lex):
    # "main" contains "mi" as characters but not as a token
    assert tag(lex, "the main issue today") == []


def test_spans_index_the_normalized_text(lex):
    words = tokenize("severe Chest-Pain, tonight")
    hits = tag_utterance(lex, words)
    assert len(hits) == 1
    start, end = hits[0].start, hits[0].end
    assert " ".join(words)[start:end] == "chest pain"


def test_tag_utterance_rejects_a_string(lex):
    with pytest.raises(ValidationError, match="token list"):
        tag_utterance(lex, "chest pain")


def test_adjacent_hits_do_not_overlap(lex):
    hits = tag(lex, "heart attack then chest pain then pain")
    assert [h.cui for h in hits] == ["C1", "C2", "C3"]
    for left, right in zip(hits, hits[1:]):
        assert left.end <= right.start


def test_lexicon_lists_the_first_token_of_every_pattern(lex):
    assert lex.first_tokens == {"myocardial", "heart", "mi", "chest", "pain"}


def test_first_token_without_the_rest_of_its_pattern(lex):
    # "heart" starts only "heart attack", "myocardial" only its own phrase.
    assert tag(lex, "her heart rate and myocardial perfusion are fine") == []
    hits = tag(lex, "heart murmur then a heart attack")
    assert [(h.cui, h.start, h.end) for h in hits] == [("C1", 20, 32)]


def test_first_token_as_the_last_word(lex):
    assert tag(lex, "listen to the heart") == []
    hits = tag(lex, "it was a heart heart attack and then mi")
    assert [(h.cui, h.start) for h in hits] == [("C1", 15), ("C1", 37)]


def test_utterance_without_any_first_token(lex):
    assert tag(lex, "no complaints today thanks") == []
    assert tag_utterance(lex, []) == []


def test_cross_concept_duplicate_phrase_rejected():
    clashing = [
        Concept("C1", "chest pain", []),
        Concept("C2", "thoracic pain", ["chest pain"]),
    ]
    with pytest.raises(LexiconError):
        build_lexicon(clashing)


def test_blank_phrase_rejected():
    with pytest.raises(LexiconError):
        build_lexicon([Concept("C1", "  ", [])])


def test_duplicate_cui_rejected():
    with pytest.raises(LexiconError):
        build_lexicon([Concept("C1", "a", []), Concept("C1", "b", [])])


def test_concepts_file_round_trip(tmp_path, lex):
    path = tmp_path / "concepts.json"
    save_concepts_file(path, lex.concepts)
    assert load_concepts_file(path) == lex.concepts


def test_parse_concepts_rejects_malformed_record():
    from clinconv import ParseError

    with pytest.raises(ParseError):
        parse_concepts({"concepts": [{"canonical": "no cui"}]})


def test_task_map_validation(lex):
    task_map = parse_task_map(
        {"task": "diagnosis", "map": [{"cui": "C1", "label": "myocardial infarction"}]}
    )
    validate_task_map_against_lexicon(task_map, lex)
    unknown = parse_task_map(
        {"task": "diagnosis", "map": [{"cui": "C9", "label": "x"}]}
    )
    with pytest.raises(ValidationError, match="C9"):
        validate_task_map_against_lexicon(unknown, lex)


def test_task_map_rejects_unknown_task():
    with pytest.raises(ValidationError):
        parse_task_map({"task": "medication", "map": []})


def _transcript(lines: list[str]) -> Transcript:
    n = len(lines)
    return Transcript("t", ("patient",) * n, tuple(range(0, 100 * n, 100)), tuple(lines))


def test_transcript_hits_pair_utterance_indices(lex):
    transcript = _transcript(["hello there", "heart attack in the past", "ok"])
    hits = transcript_hits(lex, transcript)
    assert [(i, h.cui) for i, h in hits] == [(1, "C1")]


def test_umls_noteworthy_routes_by_task_map(lex):
    transcript = _transcript(["chest pain now", "heart attack before", "nothing"])
    task_map = parse_task_map(
        {"task": "diagnosis", "map": [{"cui": "C1", "label": "myocardial infarction"}]}
    )
    assert umls_noteworthy(lex, transcript) == [0, 1]
    assert umls_noteworthy(lex, transcript, task_map) == [1]


def test_umls_noteworthy_deduplicates_indices(lex):
    transcript = _transcript(["chest pain and more chest pain"])
    assert umls_noteworthy(lex, transcript) == [0]


def test_entity_baseline_predicts_mentioned_labels(lex):
    task_map = parse_task_map(
        {
            "task": "diagnosis",
            "map": [
                {"cui": "C1", "label": "myocardial infarction"},
                {"cui": "C2", "label": "chest pain"},
            ],
        }
    )
    transcripts = [
        _transcript(["had a heart attack", "feeling fine"]),
        _transcript(["nothing to report"]),
    ]
    labels = ["myocardial infarction", "chest pain"]
    predictions = entity_baseline_predict(lex, task_map, transcripts, labels)
    assert np.array_equal(predictions, [[1, 0], [0, 0]])


def test_bundled_concepts_compile_and_cover_task_maps():
    lexicon = build_lexicon(parse_concepts(bundled_concepts()))
    assert len(lexicon) >= 38
    from clinconv import bundled_task_map

    for task in ("diagnosis", "ros"):
        validate_task_map_against_lexicon(bundled_task_map(task), lexicon)


# Letters the tokenizer keeps and ones it drops: "é", "É" and "ß" fall out,
# "İ" lowercases to "i" plus a combining dot, and the Kelvin sign to ASCII "k".
_WORD_CHARS = "abcxyzABXZ019éÉßİ\u212a"
_SEPARATORS = " -.,;!?'/\t"
_words = st.text(alphabet=_WORD_CHARS, min_size=1, max_size=4)
_gaps = st.text(alphabet=_SEPARATORS, max_size=2)


@st.composite
def _phrases(draw) -> str:
    words = draw(st.lists(_words, min_size=1, max_size=3))
    return "".join(draw(_gaps) + word for word in words) + draw(_gaps)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tagger_equals_the_normalized_text_oracle(data):
    synonym_lists = data.draw(
        st.lists(st.lists(_phrases(), min_size=1, max_size=3), min_size=1, max_size=4)
    )
    concepts = [
        Concept(f"C{i}", synonyms[0], synonyms[1:]) for i, synonyms in enumerate(synonym_lists)
    ]
    try:
        patterns, stored = oracle_lexicon(concepts)
    except LexiconError as error:
        with pytest.raises(LexiconError) as raised:
            build_lexicon(concepts)
        assert str(raised.value) == str(error)
        return
    lexicon = build_lexicon(concepts)
    assert lexicon.patterns == patterns
    assert [c.synonyms for c in lexicon.concepts] == stored

    known = [phrase for synonyms in synonym_lists for phrase in synonyms]
    pieces = st.one_of(_phrases(), st.sampled_from(known), st.sampled_from(known).map(str.upper))
    texts = data.draw(
        st.lists(
            st.lists(pieces, min_size=1, max_size=5).map(" ".join).filter(str.strip),
            min_size=1,
            max_size=4,
        )
    )
    for text in texts:
        assert " ".join(tokenize(text)) == normalize_for_match(text)
    transcript = _transcript(texts)
    expected = [
        (index, *hit) for index, text in enumerate(texts) for hit in oracle_tag(patterns, text)
    ]
    got = [(index, h.cui, h.start, h.end) for index, h in transcript_hits(lexicon, transcript)]
    assert got == expected

    task_map = parse_task_map(
        {"task": "diagnosis", "map": [{"cui": "C0", "label": "zero"}]}
    )
    routed = [hit for hit in expected if hit[1] == "C0"]
    got_routed = transcript_hits(lexicon, transcript, task_map)
    assert [(index, h.cui, h.start, h.end) for index, h in got_routed] == routed
    assert umls_noteworthy(lexicon, transcript, task_map) == sorted({hit[0] for hit in routed})
    assert umls_noteworthy(lexicon, transcript) == sorted({hit[0] for hit in expected})


def _bundled_words(lexicon) -> list[str]:
    return sorted({word for pattern in lexicon.patterns for word in pattern})


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_gated_token_hits_equal_tagging_every_utterance(data, lexicon, diagnosis_map, ros_map):
    """Passing over the utterances that hold no first token of a pattern
    loses no hit, routed or not."""
    words = st.sampled_from([*_bundled_words(lexicon), "the", "and", "x1"])
    utterances = data.draw(st.lists(st.lists(words, max_size=8), max_size=12))
    for task_map in (None, diagnosis_map, ros_map):
        expected = oracle_token_hits(lexicon, utterances, task_map)
        assert table_hits(lexicon, *token_table(utterances), task_map) == expected


def test_noteworthy_and_entity_baseline_equal_tagging_every_utterance(
    small_corpus, lexicon, diagnosis_map
):
    labels = sorted(set(diagnosis_map.labels.values()))
    column = {label: j for j, label in enumerate(labels)}
    expected = np.zeros((len(small_corpus.transcripts), len(labels)), dtype=np.uint8)
    hit_any = False
    for i, transcript in enumerate(small_corpus.transcripts):
        utterances = [tokenize(text) for text in transcript.texts]
        for task_map in (None, diagnosis_map):
            hits = oracle_token_hits(lexicon, utterances, task_map)
            assert umls_noteworthy(lexicon, transcript, task_map) == sorted({k for k, _ in hits})
            hit_any |= bool(hits)
        for _, hit in hits:
            expected[i, column[diagnosis_map.labels[hit.cui]]] = 1
    assert hit_any and expected.any()
    got = entity_baseline_predict(lexicon, diagnosis_map, small_corpus.transcripts, labels)
    assert np.array_equal(got, expected)
