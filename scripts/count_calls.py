#!/usr/bin/env python3
"""Count the Python and C calls that scoring one held-out visit makes, and
the garbage collections that scoring the held-out set makes.

    PYTHONPATH=src python3 scripts/count_calls.py [--seed 1] [--n 300]

Builds the corpus of the ``full_*`` benchmark workloads: ``--n`` full-scale
visits from ``--seed``, split 70/30, with diagnosis labels derived on the
training part. It trains the ``none`` pipeline and, over a diagnosis filter,
the ``f2k:umls+pred:diagnosis`` one. Then it scores each held-out visit alone
under ``sys.setprofile`` and prints, per pipeline, the mean number of
``call`` events (Python functions) and ``c_call`` events (C functions) per
visit. It also scores the whole held-out set in one call, after a full
collection, and prints the collections of each generation that the call ran
(``gc.get_stats()`` before and after): a change that stops allocating a
container per utterance shows there. The counts do not depend on timing, so
for one seed and one set of library versions they repeat exactly, and a
change that removes a Python frame per utterance shows in them.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter

from clinconv import (
    GenConfig,
    PipelineConfig,
    bundled_lexicon,
    bundled_task_map,
    derive_diagnosis_labels,
    generate,
    run_pipeline,
    split_pairs,
    train_filter,
    train_pipeline,
)

TRAIN_FRACTION = 0.7
STRATEGIES = ("none", "f2k:umls+pred:diagnosis")


def count_events(pipeline, transcript) -> Counter:
    """The profile events of scoring ``transcript`` alone, by kind."""
    events: Counter = Counter()

    def profile(_frame, event, _arg):
        events[event] += 1

    sys.setprofile(profile)
    try:
        run_pipeline(pipeline, [transcript])
    finally:
        sys.setprofile(None)
    return events


def count_collections(pipeline, transcripts) -> list[int]:
    """The collections of each generation that scoring ``transcripts`` in
    one call runs, from empty generations."""
    gc.collect()
    before = [generation["collections"] for generation in gc.get_stats()]
    run_pipeline(pipeline, transcripts)
    return [generation["collections"] - n for generation, n in zip(gc.get_stats(), before)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1, help="generation seed")
    parser.add_argument("--n", type=int, default=300, help="visits, before the split")
    args = parser.parse_args(argv)

    corpus = generate(GenConfig(n_examples=args.n), seed=args.seed)
    train, test = split_pairs(corpus.pairs(), TRAIN_FRACTION)
    derivation = derive_diagnosis_labels(train)
    heldout = [t for t, _ in test]
    filter_model = train_filter(
        train, "diagnosis", labels=derivation.space.labels, merge_map=derivation.merge_map
    )
    print(f"seed {args.seed}: {len(train)} training, {len(heldout)} held-out visits")
    print(
        "| model | python calls / visit | C calls / visit "
        "| gen 0 GCs / batch | gen 1 GCs / batch | gen 2 GCs / batch |"
    )
    print("|---|---|---|---|---|---|")
    for strategy in STRATEGIES:
        pipeline = train_pipeline(
            PipelineConfig(task="diagnosis", strategy=strategy),
            [t for t, _ in train],
            derivation.matrix,
            filter_model=filter_model,
            lexicon=bundled_lexicon(),
            task_map=bundled_task_map("diagnosis"),
        )
        # The first call may finish lazy set-up that later visits do not repeat.
        run_pipeline(pipeline, heldout[:1])
        totals: Counter = Counter()
        for transcript in heldout:
            totals += count_events(pipeline, transcript)
        python, c = (totals[event] / len(heldout) for event in ("call", "c_call"))
        collections = " | ".join(map(str, count_collections(pipeline, heldout)))
        print(f"| {strategy} | {python:.1f} | {c:.1f} | {collections} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
