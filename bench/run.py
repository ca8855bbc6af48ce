"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload full_f2k_dx --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout that holds this file.
``--trace 0`` sets up several times, then repeats whole rounds (train, score
the held-out set in one call, score held-out visits one at a time, score the
held-out set in one call again) until ``--seconds`` have passed and at least
three rounds ran, and prints the end-to-end metrics. ``--trace 1`` sets up
once with tracing on, runs a warm-up round and then traced and untraced rounds
in the order T U U T, each with a single batch call, and prints the per-layer
metrics and the tracing overhead; its work is fixed, so its counts repeat
exactly for a seed.
Outputs are checked in both modes; an output that fails a check counts as a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("full_f2k_dx", "full_none_dx", "desk_cli_ros")
SETUP_REPEATS = 3
MIN_ROUNDS = 3
# Each round scores this fraction (1/VISIT_SHARE) of the held-out set visit by
# visit, carrying on round after round from where the last one stopped.
VISIT_SHARE = 2
# Batch calls per round of a --trace 0 run: one after training and one after
# the visits. Where training takes most of a round, one call per round would
# leave batch_tps a median of three samples.
BATCH_CALLS = 2


def import_package():
    """Import clinconv from this checkout's src/, never from elsewhere."""
    package_dir = ROOT / "src" / "clinconv"
    if not (package_dir / "__init__.py").is_file():
        sys.exit(f"bench: no clinconv package at {package_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    import clinconv
    import clinconv.cli  # noqa: F401  (the CLI is driven in-process)

    if Path(clinconv.__file__).resolve().parent != package_dir.resolve():
        sys.exit(f"bench: imported clinconv from {clinconv.__file__}, not {package_dir}")
    return clinconv


cc = import_package()

from checks import check_close, check_identical, check_scores  # noqa: E402
from workloads import DeskCliWorkload, FullWorkload, quality, visit  # noqa: E402  (import clinconv)


class Untraced:
    """Stand-in for the tracer when nothing is recorded."""

    def __init__(self) -> None:
        self.phase = "setup"

    @staticmethod
    def call(_name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def install(self, _hooks) -> None:
        pass

    def uninstall(self) -> None:
        pass


class Tally:
    """Operations attempted and failed, with the problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Samples:
    def __init__(self) -> None:
        self.train_s: list[float] = []
        self.batch_s: list[float] = []
        self.visit_ms: list[float] = []


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def timed_batch(workload, tracer, pipe, samples: Samples, state: dict, what: str):
    """Score the held-out set in one timed call and check what it wrote.

    Returns the scores and the problems found, comparing the scores with the
    run's first batch call when there was one.
    """
    clock = time.perf_counter
    tracer.phase = "batch"
    start = clock()
    result = tracer.call("bench.batch", workload.batch, pipe)
    samples.batch_s.append(clock() - start)

    tracer.phase = "check"
    ids, labels, scores = tracer.call("bench.check", workload.outputs, result)
    expected_ids = [t.id for t in workload.heldout]
    problems = check_scores(ids, labels, scores, expected_ids, workload.labels)
    if "first_scores" in state:
        problems += check_identical(scores, state["first_scores"], what)
    return scores, problems


def run_round(workload, tracer, tally: Tally, samples: Samples, state: dict, batch_calls=1):
    """Train, score the held-out set in one call, score visits one by one, then
    score the held-out set again ``batch_calls - 1`` times."""
    clock = time.perf_counter
    tracer.phase = "train"
    start = clock()
    pipe = tracer.call("bench.train", workload.train)
    samples.train_s.append(clock() - start)
    tally.op([])

    scores, problems = timed_batch(
        workload, tracer, pipe, samples, state, "scores of a later training"
    )
    scorer = tracer.call("bench.check", workload.scorer, pipe)
    if "first_scores" not in state:
        state["first_scores"] = scores
        reference = tracer.call("bench.check", workload.reference_scores, scorer)
        if reference is not None:
            problems += check_close(
                scores, reference, "predict output vs run_pipeline on the loaded artifact"
            )
    tally.op(problems)

    tracer.phase = "visit"
    heldout = workload.heldout
    for _ in range(len(heldout) // VISIT_SHARE):
        i = state["cursor"] = (state.get("cursor", -1) + 1) % len(heldout)
        start = clock()
        row = tracer.call("bench.visit", visit, workload.cc, scorer, heldout[i])
        samples.visit_ms.append((clock() - start) * 1e3)
        tally.op(check_close(row, scores[i : i + 1], f"visit {heldout[i].id} vs its batch row"))

    for _ in range(batch_calls - 1):
        _, problems = timed_batch(
            workload, tracer, pipe, samples, state, "scores of a repeated batch call"
        )
        tally.op(problems)
    tracer.phase = "check"
    return scorer, scores


def make_workload(cc, name: str, seed: int, out_dir: Path):
    if name == "full_f2k_dx":
        return FullWorkload(cc, seed, "f2k:umls+pred:diagnosis")
    if name == "full_none_dx":
        return FullWorkload(cc, seed, "none")
    return DeskCliWorkload(cc, seed, str(out_dir))


def end_to_end(workload, seconds: float) -> tuple[dict, Tally, str]:
    tally = Tally()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)

    samples, state, rounds = Samples(), {}, 0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        scorer, scores = run_round(workload, Untraced(), tally, samples, state, BATCH_CALLS)
        rounds += 1
    # Read before the quality step, whose extra evaluation visits are not the
    # workload's own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    figures, problems = quality(workload, scorer, scores)
    tally.op(problems)
    n_train, n_heldout = workload.train_size, len(workload.heldout)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_tps": (n_train / statistics.median(samples.train_s), "transcripts/s"),
        "batch_tps": (n_heldout / statistics.median(samples.batch_s), "transcripts/s"),
        "visit_ms_p50": (statistics.median(samples.visit_ms), "ms"),
        "visit_ms_p90": (p90(samples.visit_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "macro_auc": (figures["macro_auc"], "auc"),
        "filter_auc": (figures["filter_auc"], "auc"),
    }
    summary = (
        f"{rounds} rounds; trainings {len(samples.train_s)}, batch calls "
        f"{len(samples.batch_s)}, visit samples {len(samples.visit_ms)}; "
        f"held-out utterances kept {figures['utterances_kept']} of {figures['utterances_in']}"
    )
    return metrics, tally, summary


def trace_hooks():
    """Counters read from the arguments and results of wrapped calls."""

    def on_tag(tracer, _args, _kwargs, hits):
        tracer.count("concepts.hits", len(hits))

    def on_select(tracer, args, kwargs, selection):
        transcript = args[1] if len(args) > 1 else kwargs["transcript"]
        tracer.count("filtering.utterances_in", len(transcript.utterances))
        tracer.count("filtering.utterances_kept", len(selection))

    def count_fit(tracer, model):
        tracer.count("linear.lbfgs_iters", getattr(model, "n_iter", 0))
        tracer.count("linear.unconverged", 0 if getattr(model, "converged", True) else 1)

    def on_filter_fit(tracer, _args, _kwargs, model):
        count_fit(tracer, model)

    def on_ovr_fit(tracer, _args, _kwargs, ovr):
        for model in ovr.models:
            count_fit(tracer, model)

    def on_save(tracer, args, kwargs, _result):
        path = args[0] if args else kwargs["path"]
        tracer.count("pipeline.artifact_bytes", os.path.getsize(path))

    return {
        "concepts.tag_utterance": on_tag,
        "filtering.apply_filter": on_select,
        "linear.train_logistic": on_filter_fit,
        "linear.train_ovr": on_ovr_fit,
        "pipeline.save_pipeline": on_save,
    }


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    """Median over the run's traced/untraced pairs of the traced excess, in %."""
    return statistics.median((t / u - 1.0) * 100.0 for t, u in zip(traced, untraced))


def per_layer(workload, out_dir: Path) -> tuple[dict, Tally, str]:
    from layertrace import Tracer

    tally, tracer, hooks = Tally(), Tracer(), trace_hooks()
    tracer.install(hooks)
    tracer.phase = "setup"
    tracer.call("bench.setup", workload.setup)
    tracer.uninstall()

    # A warm-up round, then traced and untraced rounds in the order T U U T,
    # so that warm-up and a steady drift of the machine weigh on both sides
    # alike. Every round scores the same visits. Layer times and counts come
    # from the set-up and the first traced round; the second traced round,
    # with a tracer of its own, only times the overhead.
    state = {"cursor": -1}
    plain, traced = Samples(), Samples()
    for round_tracer, samples in (
        (Untraced(), Samples()),
        (tracer, traced),
        (Untraced(), plain),
        (Untraced(), plain),
        (Tracer(), traced),
    ):
        state["cursor"] = -1
        round_tracer.install(hooks)
        scorer, scores = run_round(workload, round_tracer, tally, samples, state)
        round_tracer.uninstall()
    figures, problems = quality(workload, scorer, scores)
    tally.op(problems)

    per_round = len(workload.heldout) // VISIT_SHARE

    def round_medians(visit_ms: list[float]) -> list[float]:
        return [
            statistics.median(visit_ms[i : i + per_round])
            for i in range(0, len(visit_ms), per_round)
        ]

    layers = tracer.layer_ms()
    metrics = {name: (value, "ms") for name, value in layers.items()}
    count = tracer.phase_count
    metrics.update(
        {
            "features.idf_calls": (
                count("visit", "features.Vocabulary.idf") / per_round,
                "count",
            ),
            "concepts.hits": (count("batch", "concepts.hits"), "count"),
            "filtering.utterances_in": (count("batch", "filtering.utterances_in"), "count"),
            "filtering.utterances_kept": (count("batch", "filtering.utterances_kept"), "count"),
            "linear.lbfgs_iters": (count("train", "linear.lbfgs_iters"), "count"),
            "linear.unconverged": (count("train", "linear.unconverged"), "count"),
            "pipeline.artifact_bytes": (count("train", "pipeline.artifact_bytes"), "bytes"),
            "trace.spans": (len(tracer.span_start), "count"),
            "trace.absent": (len(tracer.absent), "count"),
            "trace.train_overhead_pct": (overhead_pct(traced.train_s, plain.train_s), "%"),
            "trace.batch_overhead_pct": (overhead_pct(traced.batch_s, plain.batch_s), "%"),
            "trace.visit_overhead_pct": (
                overhead_pct(round_medians(traced.visit_ms), round_medians(plain.visit_ms)),
                "%",
            ),
        }
    )
    trace_dir = out_dir / "trace"
    spans_path = tracer.write(str(trace_dir))
    with open(trace_dir / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "absent": tracer.absent,
                "self_ms": {k: v / 1e6 for k, v in sorted(tracer.self_times_ns().items())},
                "counts": {phase: dict(c) for phase, c in tracer.counts.items()},
                "metrics": {k: v for k, (v, _) in metrics.items()},
            },
            handle,
            indent=2,
        )
    summary = f"{len(tracer.span_start)} spans -> {spans_path}; absent: {tracer.absent or 'none'}"
    return metrics, tally, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = OUT_DIR / args.workload
    workload = make_workload(cc, args.workload, args.seed, out_dir)
    if args.trace:
        metrics, tally, summary = per_layer(workload, out_dir)
    else:
        metrics, tally, summary = end_to_end(workload, args.seconds)
    print(f"{args.workload} seed {args.seed}: {summary}")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
