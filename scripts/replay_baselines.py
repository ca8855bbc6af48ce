#!/usr/bin/env python3
"""Replay the input-agnostic baseline rows from the bundled label statistics.

For each task this prints two rows: the finite-sample replay at the reference
evaluation-set size, and the large-sample closed form. Metric by metric, the
replay uses the strongest predictor that ignores the conversation entirely,
so these numbers are the floor any content-aware model has to beat.
"""

from __future__ import annotations

import argparse

import numpy as np

from clinconv import (
    expected_input_agnostic_row,
    input_agnostic_row,
    prevalence_truth_matrix,
    reference_labels,
)
from clinconv.metrics import METRIC_NAMES, markdown_table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--task",
        choices=("diagnosis", "ros", "both"),
        default="both",
        help="which label space to replay (default: both)",
    )
    parser.add_argument(
        "--n", type=int, help="evaluation-set size (default: the reference size)"
    )
    args = parser.parse_args(argv)

    tasks = ("diagnosis", "ros") if args.task == "both" else (args.task,)
    for task in tasks:
        reference = reference_labels(task)
        space = reference.space()
        n = args.n or reference.test_size
        truth = prevalence_truth_matrix(space, n)
        rows = {
            f"replay (n={n})": input_agnostic_row(space, truth, reference.rank_scores()),
            "large-n": expected_input_agnostic_row(
                space.train_prevalence, reference.rank_scores()
            ),
        }
        top = reference.labels[int(np.argmax(reference.rank_scores()))]
        print(f"\ntask: {task} | labels: {len(space.labels)} | top by train count: {top}")
        print(markdown_table(rows, list(METRIC_NAMES)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
