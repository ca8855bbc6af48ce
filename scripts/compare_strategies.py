#!/usr/bin/env python3
"""Compare utterance-filtering strategies on a synthetic corpus.

Generates a corpus, splits it into train and test halves, derives the label
spaces on the train half, trains the utterance filters each strategy needs,
and prints held-out metrics for every strategy next to two reference points:
a constant predictor scoring every label at its training prevalence, and an
oracle that reads the note's evidence citations instead of a learned filter.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from clinconv import (
    GenConfig,
    PipelineConfig,
    apply_diagnosis_labels,
    apply_ros_labels,
    bundled_lexicon,
    bundled_task_map,
    derive_diagnosis_labels,
    derive_ros_labels,
    evaluate_matrix,
    generate,
    noteworthy_targets,
    run_pipeline,
    split_pairs,
    train_filter,
    train_pipeline,
)
from clinconv.metrics import METRIC_NAMES, markdown_table


def oracle_indices(pairs, scope, labels, merge_map):
    return {
        transcript.id: np.flatnonzero(
            noteworthy_targets(transcript, note, scope, labels, merge_map)
        ).tolist()
        for transcript, note in pairs
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=600, help="corpus size")
    parser.add_argument("--seed", type=int, default=42, help="generation seed")
    parser.add_argument(
        "--task", choices=("diagnosis", "ros", "both"), default="both"
    )
    parser.add_argument("--train-frac", type=float, default=0.7)
    parser.add_argument("--min-df", type=int, default=2)
    args = parser.parse_args(argv)

    corpus = generate(GenConfig.desk(n_examples=args.n), seed=args.seed)
    train_pairs, test_pairs = split_pairs(corpus.pairs(), args.train_frac)
    train_transcripts = [t for t, _ in train_pairs]
    test_transcripts = [t for t, _ in test_pairs]
    lexicon = bundled_lexicon()

    tasks = ("diagnosis", "ros") if args.task == "both" else (args.task,)
    for task in tasks:
        if task == "diagnosis":
            derivation = derive_diagnosis_labels(train_pairs)
            merge_map = derivation.merge_map
            test_matrix = apply_diagnosis_labels(
                test_pairs, derivation.space, merge_map
            )
        else:
            derivation = derive_ros_labels(train_pairs)
            merge_map = None
            test_matrix = apply_ros_labels(test_pairs, derivation.space)
        labels = derivation.space.labels
        task_map = bundled_task_map(task)
        filters = {
            scope: train_filter(
                train_pairs, scope, labels=labels, merge_map=merge_map
            )
            for scope in ("all", task)
        }

        started = time.perf_counter()
        rows: dict[str, dict[str, float]] = {}
        prior = np.tile(derivation.space.train_prevalence, (len(test_pairs), 1))
        rows["prior"] = evaluate_matrix(
            prior, test_matrix.values, labels, task=task
        ).aggregate

        strategies = (
            "none",
            "umls",
            "pred:all",
            f"pred:{task}",
            f"union:umls+pred:{task}",
            f"f2k:umls+pred:{task}",
        )
        for text in strategies:
            config = PipelineConfig(task=task, strategy=text, min_df=args.min_df)
            pipeline = train_pipeline(
                config,
                train_transcripts,
                derivation.matrix,
                filter_model=(
                    filters[config.strategy.scope]
                    if config.strategy.needs_model
                    else None
                ),
                lexicon=lexicon if config.strategy.needs_lexicon else None,
                task_map=task_map if config.strategy.needs_lexicon else None,
            )
            scored = run_pipeline(pipeline, test_transcripts)
            rows[text] = evaluate_matrix(
                scored.scores, test_matrix.values, labels, task=task
            ).aggregate

        config = PipelineConfig(task=task, strategy="none", min_df=args.min_df)
        pipeline = train_pipeline(
            config,
            train_transcripts,
            derivation.matrix,
            indices_override=oracle_indices(train_pairs, task, labels, merge_map),
        )
        scored = run_pipeline(
            pipeline,
            test_transcripts,
            indices_override=oracle_indices(test_pairs, task, labels, merge_map),
        )
        rows["oracle"] = evaluate_matrix(
            scored.scores, test_matrix.values, labels, task=task
        ).aggregate

        elapsed = time.perf_counter() - started
        print(
            f"\ntask: {task} | train {len(train_pairs)} / test {len(test_pairs)}"
            f" | labels {len(labels)} | {elapsed:.1f}s"
        )
        print(markdown_table(rows, list(METRIC_NAMES)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
