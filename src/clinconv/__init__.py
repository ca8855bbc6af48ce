"""Multilabel prediction from physician-patient conversations.

The package covers the full workflow: transcript and note I/O, label-space
derivation from note annotations, dictionary concept matching, noteworthy
utterance filtering, linear one-vs-rest classification over sparse text
features, evaluation, reference-baseline replays, and a synthetic corpus
generator with planted ground truth.
"""

from .annotations import (
    DiagnosisDerivation,
    LabelMatrix,
    LabelSpace,
    NoteEntry,
    RosDerivation,
    RosObservation,
    SoapNote,
    TagPair,
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
from .bundled import ReferenceLabels, bundled_lexicon, bundled_task_map, reference_labels
from .concepts import (
    Concept,
    ConceptHit,
    ConceptLexicon,
    TaskMap,
    build_lexicon,
    entity_baseline_predict,
    load_concepts_file,
    load_task_map,
    tag_utterance,
    umls_noteworthy,
)
from .errors import (
    ClinconvError,
    ConfigError,
    DataError,
    FitError,
    GenerationError,
    LexiconError,
    ParseError,
    TrainingError,
    ValidationError,
)
from .features import (
    Vocabulary,
    fit_vocabulary,
    tfidf_transform,
    tokenize,
    tokenize_all,
)
from .filtering import (
    FilterModel,
    FilterStrategy,
    apply_filter,
    fill_to_k,
    load_indices,
    oracle_indices,
    parse_strategy,
    save_indices,
    threshold_sweep,
    train_filter,
    utterance_probabilities,
)
from .linear import (
    LogisticModel,
    OneVsRestModel,
    train_logistic,
    train_ovr,
)
from .metrics import EvalReport, evaluate_matrix
from .pipeline import (
    PipelineConfig,
    ScoreMatrix,
    TrainedPipeline,
    expected_input_agnostic_row,
    input_agnostic_row,
    load_pipeline,
    load_scores,
    prevalence_truth_matrix,
    run_pipeline,
    save_pipeline,
    save_scores,
    split_pairs,
    train_pipeline,
)
from .synth import ExampleTruth, GenConfig, SynthCorpus, corpus_stats, generate
from .transcripts import Transcript, Utterance, load_transcripts, save_transcripts

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
