"""The three workloads: inputs made from a seed, the timed operations, and quality.

Every workload uses only the package's exported API and its CLI, so that it
keeps running when later changes delete internals. A workload object holds
its inputs after ``setup``; its ``train`` and ``batch`` and the module's
``visit`` are the timed operations; ``reference_scores`` and ``quality`` run
untimed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from importlib import resources

import numpy as np

from checks import (
    check_auc_agrees,
    check_better_than_chance,
    check_rows_vary,
    check_scores,
    check_selection,
    macro_auc,
    pairwise_auc,
)
from clinconv.metrics import auc_scores

FULL_TRANSCRIPTS = 300
TRAIN_FRACTION = 0.7
DESK_TRAIN = 600
DESK_HELDOUT = 300
# The held-out desk corpus comes from its own seed, offset from the training seed.
DESK_HELDOUT_SEED_OFFSET = 1_000_003
# Extra full-scale visits that only the quality figures score, untimed.
FULL_EVAL_EXTRA = 300
EVAL_SEED_OFFSET = 2_000_003


class CliFailed(RuntimeError):
    pass


def visit(cc, scorer, transcript) -> np.ndarray:
    """Score one visit alone."""
    return cc.run_pipeline(scorer, [transcript]).scores


class FullWorkload:
    """Full-scale diagnosis corpus, split 70/30, scored through the library."""

    task = "diagnosis"

    def __init__(self, cc, seed: int, strategy: str) -> None:
        self.cc = cc
        self.seed = seed
        self.strategy = strategy
        # Unfiltered, even the pooled 390 visits score only 0.52 at seed 8, too
        # near 0.5 to hold on every seed; check_rows_vary still catches a
        # scorer that ignores its input.
        self.beats_chance = strategy != "none"

    def setup(self) -> None:
        cc = self.cc
        corpus = cc.generate(cc.GenConfig(n_examples=FULL_TRANSCRIPTS), seed=self.seed)
        train, test = cc.split_pairs(corpus.pairs(), TRAIN_FRACTION)
        derivation = cc.derive_diagnosis_labels(train)
        self.train_pairs = train
        self.train_transcripts = [t for t, _ in train]
        self.train_size = len(train)
        self.derivation = derivation
        self.labels = derivation.space.labels
        self.heldout = [t for t, _ in test]
        truths = {truth.transcript_id: truth for truth in corpus.truths}
        self.truths = [truths[t.id] for t in self.heldout]
        self.needs_filter = cc.parse_strategy(self.strategy).needs_model
        self.lexicon = cc.bundled_lexicon() if self.needs_filter else None
        self.task_map = cc.bundled_task_map(self.task) if self.needs_filter else None

    def train(self):
        cc = self.cc
        filter_model = None
        if self.needs_filter:
            filter_model = cc.train_filter(
                self.train_pairs,
                self.task,
                labels=self.labels,
                merge_map=self.derivation.merge_map,
            )
        return cc.train_pipeline(
            cc.PipelineConfig(task=self.task, strategy=self.strategy),
            self.train_transcripts,
            self.derivation.matrix,
            filter_model=filter_model,
            lexicon=self.lexicon,
            task_map=self.task_map,
        )

    def batch(self, pipe):
        return self.cc.run_pipeline(pipe, self.heldout)

    def outputs(self, matrix) -> tuple[list[str], tuple[str, ...], np.ndarray]:
        return matrix.example_ids, matrix.labels, matrix.scores

    def scorer(self, pipe):
        """The in-memory pipeline that single-visit calls use."""
        return pipe

    def reference_scores(self, scorer) -> None:
        """The batch scores are already run_pipeline's own; nothing to compare."""
        return None

    def evaluation_extra(self) -> tuple[list, list]:
        """More held-out visits for quality alone, from a seed of their own.

        Ninety held-out visits leave macro AUC at the mercy of the seed (0.46 to
        0.64 unfiltered over seeds 1-10); pooled with these it reads 0.52 to 0.60.
        """
        cc = self.cc
        corpus = cc.generate(
            cc.GenConfig(n_examples=FULL_EVAL_EXTRA, id_prefix="eval"),
            seed=self.seed + EVAL_SEED_OFFSET,
        )
        return corpus.transcripts, corpus.truths


class DeskCliWorkload:
    """Desk-scale review-of-systems corpora run through ``clinconv.cli.main``."""

    task = "ros"
    strategy = "union:umls+pred:ros"
    beats_chance = True

    def __init__(self, cc, seed: int, out_dir: str) -> None:
        self.cc = cc
        self.seed = seed
        self.out_dir = out_dir
        self.path = {
            name: os.path.join(out_dir, filename)
            for name, filename in (
                ("train", "train.transcripts.jsonl"),
                ("notes", "train.notes.jsonl"),
                ("heldout", "heldout.transcripts.jsonl"),
                ("labels", "train.ros.labels.jsonl"),
                ("filter", "filter.json"),
                ("pipeline", "pipeline.json"),
                ("scores", "heldout.scores.jsonl"),
            )
        }
        data = resources.files("clinconv.data")
        self.lexicon_path = str(data / "concept_lexicon.json")
        self.task_map_path = str(data / "ros_task_map.json")

    def _cli(self, *argv: str) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = self.cc.cli.main(list(argv))
        if code != 0:
            raise CliFailed(f"clinconv {argv[0]} exited with {code}")

    def setup(self) -> None:
        cc = self.cc
        os.makedirs(self.out_dir, exist_ok=True)
        train = cc.generate(
            cc.GenConfig.desk(n_examples=DESK_TRAIN, id_prefix="train"), seed=self.seed
        )
        heldout = cc.generate(
            cc.GenConfig.desk(n_examples=DESK_HELDOUT, id_prefix="heldout"),
            seed=self.seed + DESK_HELDOUT_SEED_OFFSET,
        )
        cc.save_transcripts(self.path["train"], train.transcripts)
        cc.save_notes(self.path["notes"], train.notes)
        cc.save_transcripts(self.path["heldout"], heldout.transcripts)
        self._cli(
            "derive-labels",
            "--transcripts", self.path["train"],
            "--notes", self.path["notes"],
            "--task", self.task,
            "--out", self.path["labels"],
        )
        with open(self.path["labels"], encoding="utf-8") as handle:
            self.labels = tuple(json.loads(handle.readline())["labels"])
        self.train_size = len(train)
        self.heldout = heldout.transcripts
        self.truths = heldout.truths

    def train(self) -> None:
        p = self.path
        self._cli(
            "train-filter",
            "--transcripts", p["train"],
            "--notes", p["notes"],
            "--scope", self.task,
            "--labels", p["labels"],
            "--out", p["filter"],
        )
        self._cli(
            "train",
            "--transcripts", p["train"],
            "--labels", p["labels"],
            "--strategy", self.strategy,
            "--filter", p["filter"],
            "--lexicon", self.lexicon_path,
            "--task-map", self.task_map_path,
            "--out", p["pipeline"],
        )

    def batch(self, _pipe) -> None:
        self._cli(
            "predict",
            "--pipeline", self.path["pipeline"],
            "--transcripts", self.path["heldout"],
            "--out", self.path["scores"],
        )

    def outputs(self, _result) -> tuple[list[str], tuple[str, ...], np.ndarray]:
        return read_scores(self.path["scores"])

    def scorer(self, _pipe):
        return self.cc.load_pipeline(self.path["pipeline"])

    def reference_scores(self, scorer):
        """run_pipeline on the loaded artifact, to compare with ``predict``."""
        return self.cc.run_pipeline(scorer, self.heldout).scores

    def evaluation_extra(self) -> tuple[list, list]:
        """300 held-out visits already hold macro AUC steady across seeds."""
        return [], []


def read_scores(path: str) -> tuple[list[str], tuple[str, ...], np.ndarray]:
    """Parse a scores JSONL file without the package's reader."""
    ids, rows, labels = [], [], None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if labels is None:
                labels = tuple(record["scores"])
            ids.append(record["id"])
            rows.append([record["scores"].get(label, float("nan")) for label in labels])
    return ids, labels or (), np.array(rows, dtype=float)


def planted_matrix(truths, task: str, labels) -> np.ndarray:
    """Held-out truth in label-space order, from the generator's planted labels."""
    matrix = np.zeros((len(truths), len(labels)), dtype=np.uint8)
    for i, truth in enumerate(truths):
        positives = set(truth.diagnosis if task == "diagnosis" else truth.ros)
        for j, label in enumerate(labels):
            matrix[i, j] = label in positives
    return matrix


def quality(workload, scorer, scores) -> tuple[dict, list[str]]:
    """macro_auc, filter_auc and kept utterances, with the checks they need.

    macro_auc pools the held-out batch with the workload's extra evaluation
    visits; filter_auc and the kept utterances come from the held-out batch.
    """
    cc, heldout, task = workload.cc, workload.heldout, workload.task
    extra, extra_truths = workload.evaluation_extra()
    problems = check_rows_vary(scores)
    if extra:
        matrix = cc.run_pipeline(scorer, extra)
        problems += check_scores(
            matrix.example_ids, matrix.labels, matrix.scores, [t.id for t in extra], workload.labels
        )
        scores = np.vstack([scores, matrix.scores])
    truth = planted_matrix([*workload.truths, *extra_truths], task, workload.labels)
    own = macro_auc(scores, truth)
    problems += check_auc_agrees(own, auc_scores(scores, truth).macro_auc)
    if workload.beats_chance:
        problems += check_better_than_chance(own)

    strategy = scorer.config.strategy
    k = strategy.k if strategy.kind == "fill_to_k" else None
    planted_attr = f"noteworthy_{task}"
    probabilities, targets, kept, seen = [], [], 0, 0
    for transcript, planted in zip(heldout, workload.truths):
        n = len(transcript.utterances)
        selection = cc.apply_filter(
            strategy,
            transcript,
            filter_model=scorer.filter_model,
            lexicon=scorer.lexicon,
            task_map=scorer.task_map,
        )
        problems += check_selection(selection, n, k)
        kept += len(selection)
        seen += n
        if scorer.filter_model is not None:
            probabilities.append(cc.utterance_probabilities(scorer.filter_model, transcript))
        else:
            # Keeping every utterance scores them all alike.
            probabilities.append(np.ones(n))
        row = np.zeros(n, dtype=np.uint8)
        row[getattr(planted, planted_attr)] = 1
        targets.append(row)
    filter_auc = pairwise_auc(np.concatenate(probabilities), np.concatenate(targets))
    figures = {
        "macro_auc": own,
        "filter_auc": 0.5 if filter_auc is None else filter_auc,
        "utterances_in": seen,
        "utterances_kept": kept,
    }
    return figures, problems
