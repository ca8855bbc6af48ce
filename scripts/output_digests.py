#!/usr/bin/env python3
"""Run one fixed chain of clinconv commands and print a SHA-256 per output file.

    PYTHONPATH=src python3 scripts/output_digests.py WORK_DIR

At desk and at full scale the chain synthesizes a training and a held-out
corpus, derives the labels of both tasks, and trains a diagnosis filter.
Then, for each of five strategies, it writes the strategy's selections with
``filter``, trains one pipeline with the strategy and one with ``--indices``
set to those selections, and scores the held-out corpus with both. A
threshold sweep ends it. Every path is relative to WORK_DIR, which must be
empty or absent, so the manifests do not depend on where it is: two
checkouts that print the same lines wrote the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from importlib import resources
from pathlib import Path

from clinconv.cli import main as clinconv

SEED = 1
# Transcripts in the training and the held-out corpus, per scale.
SIZES = {"desk": (60, 20), "full": (20, 10)}
# The filter's threshold per scale: it keeps a few utterances of each
# transcript, about 4 of 40 at desk scale and 6 of 213 at full scale.
THRESHOLDS = {"desk": 0.05, "full": 0.01}
# A strong penalty fits the heads in few iterations, so the chain runs in
# seconds; any value checks that two checkouts write the same bytes.
REG_C = 0.1
STRATEGIES = {
    "none": "none",
    "umls": "umls",
    "pred": "pred:diagnosis",
    "union": "union:umls+pred:diagnosis",
    "f2k": "f2k:umls+pred:diagnosis",
}
GRID = "0.01,0.05,0.2"


def run(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = clinconv([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"clinconv {argv[0]} exited with {code}")


def chain(scale: str) -> None:
    here = Path(scale)
    corpus = {}
    for split, n, seed in zip(("train", "test"), SIZES[scale], (SEED, SEED + 1)):
        run("synth", "--out-dir", here / split, "--n", n, "--scale", scale, "--seed", seed)
        corpus[split] = here / split / "transcripts.jsonl", here / split / "notes.jsonl"
    (train, train_notes), (test, test_notes) = corpus["train"], corpus["test"]
    for task in ("diagnosis", "ros"):
        space = here / f"train.{task}.labels.jsonl"
        run("derive-labels", "--transcripts", train, "--notes", train_notes,
            "--task", task, "--out", space)
        run("derive-labels", "--transcripts", test, "--notes", test_notes,
            "--task", task, "--space", space, "--out", here / f"test.{task}.labels.jsonl")
    train_labels = here / "train.diagnosis.labels.jsonl"
    fm = here / "filter.json"
    run("train-filter", "--transcripts", train, "--notes", train_notes, "--scope", "diagnosis",
        "--labels", train_labels, "--threshold", THRESHOLDS[scale], "--out", fm)
    lexicon = ("--lexicon", "lexicon.json", "--task-map", "diagnosis_task_map.json")
    for name, strategy in STRATEGIES.items():
        for split, transcripts in (("train", train), ("test", test)):
            run("filter", "--transcripts", transcripts, "--strategy", strategy, "--filter", fm,
                *lexicon, "--out", here / f"{split}.{name}.indices.jsonl")
        fit = ("--transcripts", train, "--labels", train_labels, "--reg-c", REG_C)
        run("train", *fit, "--strategy", strategy, "--filter", fm, *lexicon,
            "--out", here / f"{name}.pipeline.json")
        run("train", *fit, "--indices", here / f"train.{name}.indices.jsonl",
            "--out", here / f"{name}.indices.pipeline.json")
        run("predict", "--pipeline", here / f"{name}.pipeline.json", "--transcripts", test,
            "--out", here / f"{name}.scores.jsonl")
        run("predict", "--pipeline", here / f"{name}.indices.pipeline.json",
            "--transcripts", test, "--indices", here / f"test.{name}.indices.jsonl",
            "--out", here / f"{name}.indices.scores.jsonl")
    run("sweep", "--train-transcripts", train, "--train-labels", train_labels,
        "--test-transcripts", test, "--test-labels", here / "test.diagnosis.labels.jsonl",
        "--filter", fm, "--grid", GRID, "--out", here / "sweep.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("work_dir", type=Path)
    args = parser.parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    if any(args.work_dir.iterdir()):
        parser.error(f"{args.work_dir} is not empty")
    os.chdir(args.work_dir)
    data = resources.files("clinconv.data")
    Path("lexicon.json").write_bytes((data / "concept_lexicon.json").read_bytes())
    Path("diagnosis_task_map.json").write_bytes((data / "diagnosis_task_map.json").read_bytes())
    for scale in SIZES:
        chain(scale)
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
