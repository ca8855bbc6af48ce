"""Synthetic paired corpora: transcripts plus notes with planted ground truth.

The generator builds visit conversations whose texture matches the corpus
this package models: a long, filler-heavy dialogue (a couple hundred
utterances, roughly 1500 words) in which only a handful of utterances carry
clinical content, paired with a structured note whose entries cite those
utterances as evidence.

Signal is planted explicitly so every derived quantity has a known answer:

* positive diagnosis labels produce tagged note entries routed to the
  chief complaint, the past medical history (with the active-context marker
  tag), or the assessment, each citing evidence utterances that usually
  mention the concept verbatim or via a synonym;
* positive review-of-systems labels produce confirmed observations with
  symptom mentions, negative systems sometimes produce denial observations
  whose evidence lines avoid concept vocabulary entirely;
* evidence utterances usually include a marker phrase ("started bothering
  me") that a noteworthiness filter can learn; non-evidence utterances carry
  markers only at a small noise rate;
* distractor utterances mention concepts for labels that are not positive,
  so concept matching alone overshoots the evidence set.

Every word in the filler, marker, backchannel, and denial vocabularies is
kept disjoint from every token of every lexicon synonym. Consequently a
concept hit can only come from a planted mention and the generator can
record exact mention indices as ground truth.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .annotations import (
    HPI_MARKER_KEY,
    HPI_MARKER_VALUE,
    PROBLEM_TAG_KEY,
    NoteEntry,
    RosObservation,
    SoapNote,
    TagPair,
)
from .bundled import bundled_lexicon, bundled_task_map, reference_labels
from .concepts import ConceptLexicon, TaskMap
from .errors import GenerationError
from .jsonio import Fields, as_fields, read_jsonl, write_jsonl
from .transcripts import Transcript

# Speech building blocks. Tokens here must never appear inside any lexicon
# synonym, otherwise random filler could form a concept phrase and the
# recorded mention indices would be wrong. tests enforce the disjointness.

BACKCHANNEL_PHRASES = (
    "mm hmm",
    "uh huh",
    "okay",
    "yeah",
    "i see",
    "right",
    "sure",
    "got it",
    "go on",
    "alright",
)

MARKER_PHRASES = (
    "started bothering me",
    "getting worse lately",
    "flares up sometimes",
    "noticed it recently",
    "keeps acting up again",
    "worries me quite often",
    "since last spring",
    "after climbing the stairs",
    "the specialist mentioned it",
    "we should keep an eye on that",
)

DENIAL_PHRASES = (
    "no nothing like that",
    "not that i have noticed",
    "no that has not come up",
    "nothing like that lately",
)

FILLER_WORDS = (
    "so",
    "well",
    "um",
    "anyway",
    "you",
    "know",
    "just",
    "was",
    "thinking",
    "my",
    "garden",
    "this",
    "morning",
    "then",
    "drove",
    "to",
    "town",
    "for",
    "groceries",
    "visited",
    "neighbor",
    "yesterday",
    "watched",
    "some",
    "television",
    "evening",
    "really",
    "nothing",
    "else",
    "new",
    "around",
    "house",
    "weather",
    "has",
    "wonderful",
    "daughter",
    "called",
    "weekend",
    "planning",
    "small",
    "trip",
    "maybe",
    "next",
    "month",
    "kids",
    "school",
    "keeping",
    "busy",
    "lunch",
    "coffee",
    "friend",
    "tuesday",
    "little",
    "walk",
    "park",
    "most",
    "mornings",
)

VARIANT_PREFIXES = (
    "mild",
    "severe",
    "chronic",
    "recurrent",
    "longstanding",
    "stable",
    "uncontrolled",
    "moderate",
)

TAG_SUFFIXES = ("stable", "per patient", "follow up", "since 2019", "managed")

OFFLABEL_TAGS = ("seasonal allergies", "low vitamin d", "insomnia")

MISC_SUBSECTIONS = (
    "medications",
    "social_history",
    "family_history",
    "plan",
    "allergies",
    "physical_exam",
)

_MISC_TEXTS = {
    "medications": "Continues home medication regimen as previously documented.",
    "social_history": "Lives locally, retired, keeps active around the house.",
    "family_history": "Family history reviewed with the patient.",
    "plan": "Continue current plan, follow up as scheduled.",
    "allergies": "No new allergies reported.",
    "physical_exam": "Exam findings discussed during the visit.",
}


def speech_vocabulary_tokens() -> set[str]:
    """Every token the generator can emit outside planted concept phrases."""
    tokens: set[str] = set(FILLER_WORDS)
    for phrase in BACKCHANNEL_PHRASES + MARKER_PHRASES + DENIAL_PHRASES:
        tokens.update(phrase.split())
    return tokens


_DEFAULT_ROS_RATES = (0.30, 0.20, 0.16, 0.10, 0.09, 0.10, 0.08)

# Fixed generation rates. Each is a probability per draw except
# MISC_ENTRIES_MEAN, the Poisson mean of miscellaneous note entries.
BACKCHANNEL_PROB = 0.15
MARKER_NOISE_PROB = 0.02
MISC_ENTRIES_MEAN = 0.5
EXTRA_EVIDENCE_PROB = 0.10
PMH_ROUTE_PROB = 0.30
DUPLICATE_ENTRY_PROB = 0.10
NEGATIVE_CONTROL_PROB = 0.25
OFFLABEL_TAG_PROB = 0.015
# Prefixed variants compete with rare plain tags for merge-target slots, so
# prefixes stay rare; parenthetical suffixes normalize away and are free.
VARIANT_PREFIX_PROB = 0.20
VARIANT_SUFFIX_PROB = 0.25
SECOND_OBS_PROB = 0.15


def _default_diagnosis_rates() -> tuple[float, ...]:
    return tuple(float(p) for p in reference_labels("diagnosis").prevalence)


@dataclass
class GenConfig:
    """Knobs for corpus generation. Defaults mirror the modeled corpus scale."""

    n_examples: int = 100
    mean_utterances: float = 215.0
    min_utterances: int = 12
    mean_words: float = 8.0
    diagnosis_rates: tuple[float, ...] = field(default_factory=_default_diagnosis_rates)
    # Generation rates, not the reference prevalences: every system must
    # clear the space-inclusion cutoff with margin or derivation would drop it.
    ros_rates: tuple[float, ...] = _DEFAULT_ROS_RATES
    explicit_mention_prob: float = 0.95
    paraphrase_prob: float = 0.30
    marker_prob: float = 0.95
    distractor_mean: float = 2.2
    denies_rate: float = 0.08
    id_prefix: str = "synth"

    def __post_init__(self) -> None:
        if self.n_examples < 1:
            raise GenerationError("n_examples must be at least 1")
        if self.min_utterances < 1 or self.mean_utterances < self.min_utterances:
            raise GenerationError("need mean_utterances >= min_utterances >= 1")
        if self.mean_words < 1.0:
            raise GenerationError("mean_words must be at least 1")
        if self.distractor_mean < 0:
            raise GenerationError("distractor_mean must be non-negative")
        for name in ("explicit_mention_prob", "paraphrase_prob", "marker_prob", "denies_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise GenerationError(f"{name} must lie in [0, 1], got {value}")
        for name in ("diagnosis_rates", "ros_rates"):
            rates = getattr(self, name)
            if not rates or min(rates) < 0.0 or max(rates) > 1.0:
                raise GenerationError(f"{name} entries must lie in [0, 1]")
        demand = self.expected_line_demand()
        if demand + 2 > self.mean_utterances:
            raise GenerationError(
                f"mean_utterances {self.mean_utterances} cannot fit an expected "
                f"{demand:.1f} evidence and distractor lines per transcript"
            )

    def expected_line_demand(self) -> float:
        """Expected count of evidence plus distractor lines per transcript."""
        diag = sum(self.diagnosis_rates)
        ros = sum(self.ros_rates)
        no_diag = math.prod(1.0 - p for p in self.diagnosis_rates)
        entries = (
            diag * (1.0 + DUPLICATE_ENTRY_PROB)
            + no_diag
            + ros
            + (len(self.ros_rates) - ros) * self.denies_rate
            + MISC_ENTRIES_MEAN
            + NEGATIVE_CONTROL_PROB
            + OFFLABEL_TAG_PROB
        )
        return entries * (1.0 + EXTRA_EVIDENCE_PROB) + self.distractor_mean

    @classmethod
    def desk(cls, n_examples: int = 1000, **overrides) -> "GenConfig":
        """Small transcripts for fast experiments and the test suite."""
        settings = dict(
            n_examples=n_examples,
            mean_utterances=40.0,
            min_utterances=10,
            mean_words=6.0,
        )
        settings.update(overrides)
        return cls(**settings)

    def to_record(self) -> dict:
        record = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            record[spec.name] = list(value) if isinstance(value, tuple) else value
        return record

    @classmethod
    def from_record(cls, record: dict | Fields) -> "GenConfig":
        """Settings from a record; each key is optional, of its default's kind."""
        config = as_fields(record, "generator config")
        kinds = {key: type(value) for key, value in cls().to_record().items()}
        values = config.typed(kinds, required=False)
        for key, kind in kinds.items():
            if kind is list and key in values:
                config.array(key, (None,))
                values[key] = tuple(values[key])
        return cls(**values)


@dataclass
class ExampleTruth:
    """Planted ground truth for one generated example."""

    transcript_id: str
    diagnosis: list[str]
    ros: list[str]
    noteworthy_all: list[int]
    noteworthy_diagnosis: list[int]
    noteworthy_ros: list[int]
    mentioned: list[int]  # utterance indices carrying a planted concept phrase
    distractor: list[int]  # subset of mentioned not cited as evidence

    def to_record(self) -> dict:
        return {
            "id": self.transcript_id,
            "diagnosis": self.diagnosis,
            "ros": self.ros,
            "noteworthy_all": self.noteworthy_all,
            "noteworthy_diagnosis": self.noteworthy_diagnosis,
            "noteworthy_ros": self.noteworthy_ros,
            "mentioned": self.mentioned,
            "distractor": self.distractor,
        }


@dataclass
class SynthCorpus:
    config: GenConfig
    seed: int
    transcripts: list[Transcript]
    notes: list[SoapNote]
    truths: list[ExampleTruth]

    def pairs(self) -> list[tuple[Transcript, SoapNote]]:
        return list(zip(self.transcripts, self.notes))

    def __len__(self) -> int:
        return len(self.transcripts)


class _Generator:
    def __init__(
        self,
        cfg: GenConfig,
        seed: int,
        lexicon: ConceptLexicon,
        diagnosis_map: TaskMap,
        ros_map: TaskMap,
    ):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.lexicon = lexicon
        self.diag_labels = list(diagnosis_map.labels.values())
        self.diag_cuis = list(diagnosis_map.labels.keys())
        if len(cfg.diagnosis_rates) != len(self.diag_labels):
            raise GenerationError(
                f"diagnosis_rates has {len(cfg.diagnosis_rates)} entries for "
                f"{len(self.diag_labels)} labels"
            )
        self.systems: list[str] = []
        self.system_cuis: dict[str, list[str]] = {}
        for cui, system in ros_map.labels.items():
            if system not in self.system_cuis:
                self.systems.append(system)
                self.system_cuis[system] = []
            self.system_cuis[system].append(cui)
        if len(cfg.ros_rates) != len(self.systems):
            raise GenerationError(
                f"ros_rates has {len(cfg.ros_rates)} entries for "
                f"{len(self.systems)} systems"
            )
        self.symptom_names = dict(ros_map.symptoms)

    # -- sampling helpers

    def _pick(self, items: Sequence):
        return items[int(self.rng.integers(0, len(items)))]

    def _chance(self, p: float) -> bool:
        return bool(self.rng.random() < p)

    def _concept_phrase(self, cui: str) -> str:
        concept = self.lexicon.by_cui[cui]
        others = [s for s in concept.synonyms if s != concept.canonical]
        if others and self._chance(self.cfg.paraphrase_prob):
            return self._pick(others)
        return concept.canonical

    def _tag_text(self, label: str) -> str:
        text = label
        if self._chance(VARIANT_PREFIX_PROB):
            text = f"{self._pick(VARIANT_PREFIXES)} {text}"
        if self._chance(VARIANT_SUFFIX_PROB):
            text = f"{text} ({self._pick(TAG_SUFFIXES)})"
        if self._chance(0.3):
            text = text[0].upper() + text[1:]
        return text

    def _filler_words(self, count: int) -> list[str]:
        return [FILLER_WORDS[j] for j in self.rng.integers(0, len(FILLER_WORDS), count)]

    def _insert_phrase(self, words: list[str], phrase: str) -> None:
        position = int(self.rng.integers(0, len(words) + 1))
        words[position:position] = phrase.split()

    def _line_length(self) -> int:
        return 1 + int(self.rng.poisson(self.cfg.mean_words - 1.0))

    # -- example assembly

    def example(self, example_id: str) -> tuple[Transcript, SoapNote, ExampleTruth]:
        cfg = self.cfg
        diag_positive = [
            label
            for label, rate in zip(self.diag_labels, cfg.diagnosis_rates)
            if self._chance(rate)
        ]
        ros_positive = [
            system
            for system, rate in zip(self.systems, cfg.ros_rates)
            if self._chance(rate)
        ]

        # Entry plans: (subsection, tags, observations, text, mention_cui, kind)
        plans: list[dict] = []

        def plan(subsection, kind, tags=(), ros=(), text="", mention=None):
            plans.append(
                {
                    "subsection": subsection,
                    "kind": kind,
                    "tags": list(tags),
                    "ros": list(ros),
                    "text": text,
                    "mention": mention,
                }
            )

        for position, label in enumerate(diag_positive):
            cui = self.diag_cuis[self.diag_labels.index(label)]
            repeats = 1 + (position > 0 and self._chance(DUPLICATE_ENTRY_PROB))
            for _ in range(repeats):
                tag = TagPair(PROBLEM_TAG_KEY, self._tag_text(label))
                if position == 0:
                    subsection, tags = "chief_complaint", [tag]
                elif self._chance(PMH_ROUTE_PROB):
                    subsection = "past_medical_history"
                    tags = [tag, TagPair(HPI_MARKER_KEY, HPI_MARKER_VALUE)]
                else:
                    subsection, tags = "assessment", [tag]
                plan(subsection, "diagnosis", tags, text=f"{label} discussed.", mention=cui)
        if not diag_positive:
            plan("chief_complaint", "misc", text="Routine follow up visit.")

        for system in ros_positive:
            cui = self._pick(self.system_cuis[system])
            observations = [RosObservation(system, self.symptom_names[cui], "confirms")]
            if len(self.system_cuis[system]) > 1 and self._chance(SECOND_OBS_PROB):
                other = self._pick([c for c in self.system_cuis[system] if c != cui])
                observations.append(
                    RosObservation(system, self.symptom_names[other], "confirms")
                )
            plan(
                "review_of_systems",
                "confirms",
                ros=observations,
                text=f"{system}: positive findings reported.",
                mention=cui,
            )
        for system in self.systems:
            if system not in ros_positive and self._chance(cfg.denies_rate):
                symptom = self.symptom_names[self._pick(self.system_cuis[system])]
                plan(
                    "review_of_systems",
                    "denies",
                    ros=[RosObservation(system, symptom, "denies")],
                    text=f"{system}: denies {symptom}.",
                )

        for _ in range(int(self.rng.poisson(MISC_ENTRIES_MEAN))):
            subsection = self._pick(MISC_SUBSECTIONS)
            plan(subsection, "misc", text=_MISC_TEXTS[subsection])

        negatives = [l for l in self.diag_labels if l not in diag_positive]
        if negatives and self._chance(NEGATIVE_CONTROL_PROB):
            tag = TagPair(PROBLEM_TAG_KEY, self._tag_text(self._pick(negatives)))
            plan(
                "past_medical_history",
                "control",
                tags=[tag],
                text="Remote history, not active today.",
            )
        if self._chance(OFFLABEL_TAG_PROB):
            tag = TagPair(PROBLEM_TAG_KEY, self._pick(OFFLABEL_TAGS))
            plan("assessment", "offlabel", tags=[tag], text=f"{tag.value} noted.")

        # Allocate distinct utterance slots for evidence and distractors.
        for item in plans:
            item["n_lines"] = 1 + int(self._chance(EXTRA_EVIDENCE_PROB))
        needed = sum(item["n_lines"] for item in plans)
        n_distractors = int(self.rng.poisson(cfg.distractor_mean))
        negative_cuis = [
            cui
            for cui, label in zip(self.diag_cuis, self.diag_labels)
            if label not in diag_positive
        ] + [
            cui
            for system in self.systems
            if system not in ros_positive
            for cui in self.system_cuis[system]
        ]
        if not negative_cuis:
            n_distractors = 0
        n_utterances = max(
            int(self.rng.poisson(cfg.mean_utterances)),
            cfg.min_utterances,
            needed + n_distractors + 4,
        )
        slots = self.rng.choice(n_utterances, size=needed + n_distractors, replace=False)
        cursor = 0
        for item in plans:
            item["evidence"] = sorted(int(s) for s in slots[cursor : cursor + item["n_lines"]])
            cursor += item["n_lines"]
        distractor_slots = sorted(int(s) for s in slots[cursor:])

        # Render utterances.
        texts: list[str | None] = [None] * n_utterances
        speakers: list[str | None] = [None] * n_utterances
        mentioned: set[int] = set()
        for item in plans:
            mention_lines = [
                index
                for index in item["evidence"]
                if item["mention"] is not None and self._chance(cfg.explicit_mention_prob)
            ]
            for index in item["evidence"]:
                words = self._filler_words(self._line_length())
                if item["kind"] == "denies":
                    words = self._pick(DENIAL_PHRASES).split() + words
                if self._chance(cfg.marker_prob):
                    self._insert_phrase(words, self._pick(MARKER_PHRASES))
                if index in mention_lines:
                    self._insert_phrase(words, self._concept_phrase(item["mention"]))
                    mentioned.add(index)
                texts[index] = " ".join(words)
                speakers[index] = "patient" if self._chance(0.7) else "physician"
        for index in distractor_slots:
            words = self._filler_words(self._line_length())
            if self._chance(MARKER_NOISE_PROB):
                self._insert_phrase(words, self._pick(MARKER_PHRASES))
            self._insert_phrase(words, self._concept_phrase(self._pick(negative_cuis)))
            mentioned.add(index)
            texts[index] = " ".join(words)
            speakers[index] = "patient" if self._chance(0.6) else "physician"
        for index in range(n_utterances):
            if texts[index] is not None:
                continue
            if self._chance(BACKCHANNEL_PROB):
                texts[index] = self._pick(BACKCHANNEL_PHRASES)
                speakers[index] = "physician" if self._chance(0.6) else "patient"
            else:
                words = self._filler_words(self._line_length())
                if self._chance(MARKER_NOISE_PROB):
                    self._insert_phrase(words, self._pick(MARKER_PHRASES))
                texts[index] = " ".join(words)
                roll = self.rng.random()
                speakers[index] = (
                    "other" if roll < 0.06 else "patient" if roll < 0.53 else "physician"
                )

        starts = []
        clock = 0
        for text in texts:
            clock += int(self.rng.integers(250, 1200))
            starts.append(clock)
            clock += len(text.split()) * int(self.rng.integers(280, 420))
        transcript = Transcript(example_id, tuple(speakers), tuple(starts), tuple(texts))

        entries = [
            NoteEntry(
                subsection=item["subsection"],
                text=item["text"],
                tags=item["tags"],
                evidence=item["evidence"],
                ros=item["ros"],
            )
            for item in plans
        ]
        note = SoapNote(transcript_id=example_id, entries=entries)

        noteworthy_all = sorted({i for item in plans for i in item["evidence"]})
        noteworthy_diag = sorted(
            {i for item in plans if item["kind"] == "diagnosis" for i in item["evidence"]}
        )
        noteworthy_ros = sorted(
            {i for item in plans if item["kind"] == "confirms" for i in item["evidence"]}
        )
        truth = ExampleTruth(
            transcript_id=example_id,
            diagnosis=diag_positive,
            ros=ros_positive,
            noteworthy_all=noteworthy_all,
            noteworthy_diagnosis=noteworthy_diag,
            noteworthy_ros=noteworthy_ros,
            mentioned=sorted(mentioned),
            distractor=distractor_slots,
        )
        return transcript, note, truth


def generate(
    cfg: GenConfig,
    seed: int = 0,
    lexicon: ConceptLexicon | None = None,
    diagnosis_map: TaskMap | None = None,
    ros_map: TaskMap | None = None,
) -> SynthCorpus:
    """Generate a paired corpus deterministically from ``seed``."""
    engine = _Generator(
        cfg,
        seed,
        lexicon or bundled_lexicon(),
        diagnosis_map or bundled_task_map("diagnosis"),
        ros_map or bundled_task_map("ros"),
    )
    transcripts, notes, truths = [], [], []
    for i in range(cfg.n_examples):
        transcript, note, truth = engine.example(f"{cfg.id_prefix}-{i:06d}")
        transcripts.append(transcript)
        notes.append(note)
        truths.append(truth)
    return SynthCorpus(
        config=cfg, seed=seed, transcripts=transcripts, notes=notes, truths=truths
    )


def save_truths(path: str | Path, truths: Sequence[ExampleTruth]) -> None:
    write_jsonl(path, (t.to_record() for t in truths))


def load_truths(path: str | Path) -> list[ExampleTruth]:
    indices = ("noteworthy_all", "noteworthy_diagnosis", "noteworthy_ros", "mentioned", "distractor")
    return [
        ExampleTruth(
            transcript_id=row.get("id", str),
            diagnosis=row.strings("diagnosis"),
            ros=row.strings("ros"),
            **{key: row.array(key, (None,), int).tolist() for key in indices},
        )
        for row in read_jsonl(path)
    ]


@dataclass
class CorpusStats:
    n_examples: int
    mean_utterances: float
    mean_transcript_words: float
    mean_evidence_utterances: float
    mean_mentioned_utterances: float
    diagnosis_rates: dict[str, float]
    ros_rates: dict[str, float]

    def to_record(self) -> dict:
        return {
            "n_examples": self.n_examples,
            "mean_utterances": round(self.mean_utterances, 2),
            "mean_transcript_words": round(self.mean_transcript_words, 2),
            "mean_evidence_utterances": round(self.mean_evidence_utterances, 2),
            "mean_mentioned_utterances": round(self.mean_mentioned_utterances, 2),
            "diagnosis_rates": {k: round(v, 4) for k, v in self.diagnosis_rates.items()},
            "ros_rates": {k: round(v, 4) for k, v in self.ros_rates.items()},
        }


def corpus_stats(corpus: SynthCorpus) -> CorpusStats:
    n = len(corpus)
    diag_counts: dict[str, int] = {}
    ros_counts: dict[str, int] = {}
    for truth in corpus.truths:
        for label in truth.diagnosis:
            diag_counts[label] = diag_counts.get(label, 0) + 1
        for system in truth.ros:
            ros_counts[system] = ros_counts.get(system, 0) + 1
    return CorpusStats(
        n_examples=n,
        mean_utterances=float(np.mean([len(t) for t in corpus.transcripts])),
        mean_transcript_words=float(
            np.mean([t.word_count() for t in corpus.transcripts])
        ),
        mean_evidence_utterances=float(
            np.mean([len(t.noteworthy_all) for t in corpus.truths])
        ),
        mean_mentioned_utterances=float(
            np.mean([len(t.mentioned) for t in corpus.truths])
        ),
        diagnosis_rates={k: c / n for k, c in sorted(diag_counts.items())},
        ros_rates={k: c / n for k, c in sorted(ros_counts.items())},
    )
