"""Command-line interface.

One executable, ``clinconv``, with focused subcommands that compose through
files: transcripts and notes go in, label files, filters, pipelines, scores,
and reports come out. Every command that writes a primary artifact also
writes a ``<artifact>.manifest.json`` sibling (or ``manifest.json`` inside an
output directory) recording the command line, input digests, seed, and
package version, so any artifact can be traced back to its inputs.

Exit codes: 0 success, 1 usage error, 2 data or configuration error,
3 unexpected internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .annotations import (
    apply_diagnosis_labels,
    apply_ros_labels,
    derive_diagnosis_labels,
    derive_ros_labels,
    load_label_matrix,
    load_notes,
    pair_corpus,
    save_label_matrix,
    save_notes,
)
from .bundled import reference_labels
from .concepts import (
    build_lexicon,
    entity_baseline_predict,
    load_concepts_file,
    load_task_map,
    save_concepts_file,
    transcript_hits,
    validate_task_map_against_lexicon,
)
from .errors import ConfigError, DataError, FitError, ParseError, TrainingError, ValidationError
from .filtering import (
    SCOPES,
    FilterStrategy,
    filter_to_record,
    load_filter,
    load_indices,
    oracle_indices,
    parse_strategy,
    save_indices,
    select_utterances,
    threshold_sweep,
    train_filter,
)
from .jsonio import FieldWarnings, Fields, atomic_write_text, build, read_json, sha256_file, write_jsonl
from .metrics import METRIC_NAMES, evaluate_matrix, markdown_table
from .pipeline import (
    CONFIG_KINDS,
    PipelineConfig,
    expected_input_agnostic_row,
    input_agnostic_row,
    load_pipeline,
    load_scores,
    prevalence_truth_matrix,
    run_pipeline,
    save_pipeline,
    save_scores,
    train_pipeline,
)
from .synth import GenConfig, corpus_stats, generate, save_truths
from .transcripts import load_transcripts, save_transcripts

CONFIG_ENV_VAR = "CLINCONV_CONFIG"

# Settings with one value in use. The library functions still take them.
MERGE_TOP_K = 20  # derive-labels: raw diagnosis tags merged by substring
MIN_RATE = 0.05  # derive-labels: a ROS system needs more than this share of examples
SWEEP_METRIC = "micro_f1"  # sweep: the aggregate metric that picks the best threshold


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Shared helpers


def _write_manifest(
    args,
    inputs: list[str | Path | None],
    outputs: list[Path] | None = None,
    seed: int | None = None,
    extra: dict | None = None,
) -> None:
    """Record a command's run next to ``args.out``, or inside ``args.out_dir``
    as ``manifest.json``. A None input is an optional file not given."""
    if "out_dir" in vars(args):
        manifest_path = Path(args.out_dir) / "manifest.json"
    else:
        manifest_path, outputs = Path(f"{args.out}.manifest.json"), [Path(args.out)]
    record = {
        "command": args.command,
        "argv": args.argv,
        "version": __version__,
        "seed": seed,
        "inputs": {str(p): sha256_file(p) for p in inputs if p},
        "outputs": [str(p) for p in outputs],
    }
    if extra:
        record["extra"] = extra
    atomic_write_text(manifest_path, json.dumps(record, indent=2) + "\n")


def _read_config(path: str | None, error: type) -> Fields:
    path = path or os.environ.get(CONFIG_ENV_VAR)
    return read_json(path, error) if path else Fields({}, "config", error)


def _ordered_pairs(transcripts_path: str, notes_path: str):
    """Load both corpora and pair them in transcript-file order."""
    warnings = FieldWarnings()
    transcripts = load_transcripts(transcripts_path, warnings)
    notes = load_notes(notes_path, warnings)
    by_id = {note.transcript_id: note for note in notes}
    missing = [t.id for t in transcripts if t.id not in by_id]
    if missing:
        raise ValidationError(f"{len(missing)} transcripts lack notes, e.g. {missing[:3]}")
    ordered = [by_id[t.id] for t in transcripts]
    return pair_corpus(transcripts, ordered), warnings


def _transcripts_in_order(transcripts_path: str, wanted_ids: list[str]):
    transcripts = load_transcripts(transcripts_path)
    by_id = {t.id: t for t in transcripts}
    missing = [i for i in wanted_ids if i not in by_id]
    if missing:
        raise ValidationError(
            f"label file references {len(missing)} unknown transcripts, e.g. {missing[:3]}"
        )
    return [by_id[i] for i in wanted_ids]


def _load_lexicon(lexicon_path: str | None, task_map_path: str | None):
    """The compiled lexicon and the task map checked against it; either may be None."""
    lexicon = None
    if lexicon_path:
        lexicon = build(lexicon_path, build_lexicon, concepts=load_concepts_file(lexicon_path))
    task_map = load_task_map(task_map_path) if task_map_path else None
    if task_map is not None:
        if lexicon is None:
            raise ConfigError("--task-map needs --lexicon to check it against")
        validate_task_map_against_lexicon(task_map, lexicon)
    return lexicon, task_map


def _load_override(indices_path: str | None, transcripts) -> dict[str, list[int]] | None:
    """The selections of an ``--indices`` file, each for a transcript given."""
    if not indices_path:
        return None
    override = load_indices(indices_path, {t.id: len(t) for t in transcripts})
    known = {t.id for t in transcripts}
    unknown = [i for i in override if i not in known]
    if unknown:
        raise ValidationError(
            f"{indices_path}: {len(unknown)} ids name no transcript, e.g. {unknown[:3]}"
        )
    return override


def _print_warnings(warnings: FieldWarnings) -> None:
    if warnings.total:
        counts = ", ".join(f"{k} x{v}" for k, v in warnings.summary().items())
        print(f"ignored unknown fields: {counts}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args) -> None:
    config = _read_config(args.config, ParseError)
    defaults = GenConfig.desk().to_record() if args.scale == "desk" else {}
    overrides = {} if args.n is None else {"n_examples": args.n}
    record = {**defaults, **config.record, **overrides}
    cfg = GenConfig.from_record(Fields(record, config.source))
    corpus = generate(cfg, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = {
        "transcripts": out / "transcripts.jsonl",
        "notes": out / "notes.jsonl",
        "truth": out / "truth.jsonl",
        "stats": out / "stats.json",
    }
    save_transcripts(outputs["transcripts"], corpus.transcripts)
    save_notes(outputs["notes"], corpus.notes)
    save_truths(outputs["truth"], corpus.truths)
    stats = corpus_stats(corpus).to_record()
    atomic_write_text(
        outputs["stats"],
        json.dumps({"config": cfg.to_record(), "seed": args.seed, "stats": stats}, indent=2)
        + "\n",
    )
    _write_manifest(args, [], list(outputs.values()), seed=args.seed, extra=stats)
    print(
        f"generated {len(corpus)} examples "
        f"(mean {stats['mean_utterances']} utterances, "
        f"{stats['mean_evidence_utterances']} evidence lines) -> {out}"
    )


def cmd_ingest(args) -> None:
    warnings = FieldWarnings()
    transcripts = load_transcripts(args.transcripts, warnings)
    notes = None
    if args.notes:
        notes = load_notes(args.notes, warnings)
        pair_corpus(transcripts, notes)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / "transcripts.jsonl"]
    save_transcripts(outputs[0], transcripts)
    if notes is not None:
        outputs.append(out / "notes.jsonl")
        save_notes(outputs[-1], notes)
    _write_manifest(args, [args.transcripts, args.notes], outputs)
    _print_warnings(warnings)
    n_notes = len(notes) if notes is not None else 0
    print(f"ingested {len(transcripts)} transcripts, {n_notes} notes -> {out}")


def cmd_derive_labels(args) -> None:
    pairs, warnings = _ordered_pairs(args.transcripts, args.notes)
    if args.space:
        matrix, merge_map = _apply_space(args.space, args.task, pairs)
    elif args.task == "diagnosis":
        derivation = derive_diagnosis_labels(
            pairs, label_count=args.label_count, merge_top_k=MERGE_TOP_K
        )
        matrix, merge_map = derivation.matrix, derivation.merge_map
    else:
        matrix, merge_map = derive_ros_labels(pairs, min_rate=MIN_RATE).matrix, None
    save_label_matrix(args.out, matrix, merge_map)
    _write_manifest(args, [args.transcripts, args.notes, args.space])
    _print_warnings(warnings)
    labels = matrix.space.labels
    print(f"{args.task}: {len(labels)} labels over {len(pairs)} examples")
    for label, prevalence in zip(labels, matrix.values.sum(axis=0) / max(len(pairs), 1)):
        print(f"  {label}: {prevalence:.4f}")


def _apply_space(space_path: str, task: str, pairs):
    """Label ``pairs`` in the frozen label space (and merge map) of a label file."""
    frozen, merge_map = load_label_matrix(space_path)
    if frozen.space.task != task:
        raise ConfigError(
            f"{space_path}: label space task {frozen.space.task!r} does not match --task {task!r}"
        )
    if task == "ros":
        return apply_ros_labels(pairs, frozen.space), None
    if merge_map is None:
        raise ConfigError(f"{space_path}: a diagnosis label space needs its merge_map")
    return apply_diagnosis_labels(pairs, frozen.space, merge_map), merge_map


def cmd_build_lexicon(args) -> None:
    lexicon, _ = _load_lexicon(args.concepts, args.task_map)
    save_concepts_file(args.out, lexicon.concepts)
    _write_manifest(args, [args.concepts, args.task_map])
    n_patterns = len(lexicon.patterns)
    print(f"compiled {len(lexicon)} concepts, {n_patterns} patterns -> {args.out}")


def cmd_tag(args) -> None:
    lexicon, task_map = _load_lexicon(args.lexicon, args.task_map)
    transcripts = load_transcripts(args.transcripts)
    if args.indices_only:
        selections = select_utterances(FilterStrategy(kind="umls"), transcripts, None, lexicon, task_map)
        rows = [{"id": t.id, "indices": indices} for t, indices in zip(transcripts, selections)]
    else:
        rows = []
        for transcript in transcripts:
            hits = [
                {"utterance": index, "cui": hit.cui, "start": hit.start, "end": hit.end}
                for index, hit in transcript_hits(lexicon, transcript, task_map)
            ]
            rows.append({"id": transcript.id, "hits": hits})
    write_jsonl(args.out, rows)
    _write_manifest(args, [args.transcripts, args.lexicon, args.task_map])
    key = "indices" if args.indices_only else "hits"
    mean_hits = float(np.mean([len(r[key]) for r in rows])) if rows else 0.0
    print(f"tagged {len(rows)} transcripts (mean {mean_hits:.2f} {key} each) -> {args.out}")


def _scope_labels(scope: str, labels_path: str | None):
    """Label names and merge map for a task scope, from a label file."""
    if scope == "all":
        return None, None
    if not labels_path:
        raise ConfigError(f"scope {scope!r} needs --labels for the label space")
    matrix, merge_map = load_label_matrix(labels_path)
    if matrix.space.task != scope:
        raise ConfigError(
            f"label file task {matrix.space.task!r} does not match scope {scope!r}"
        )
    return matrix.space.labels, merge_map


def cmd_train_filter(args) -> None:
    pairs, warnings = _ordered_pairs(args.transcripts, args.notes)
    labels, merge_map = _scope_labels(args.scope, args.labels)
    fm = train_filter(
        pairs,
        args.scope,
        labels=labels,
        merge_map=merge_map,
        threshold=args.threshold,
        min_df=args.min_df,
    )
    atomic_write_text(args.out, json.dumps(filter_to_record(fm), indent=2) + "\n")
    _write_manifest(
        args,
        [args.transcripts, args.notes, args.labels],
        extra={"converged": fm.model.converged, "n_iter": fm.model.n_iter},
    )
    _print_warnings(warnings)
    status = "converged" if fm.model.converged else "NOT converged"
    print(
        f"filter scope={fm.scope} threshold={fm.threshold:g} "
        f"vocab={len(fm.vocab)} {status} -> {args.out}"
    )


def cmd_filter(args) -> None:
    inputs = [args.transcripts]
    if args.strategy.startswith("oracle:"):
        scope = args.strategy.split(":", 1)[1]
        if scope not in SCOPES:
            raise ConfigError(f"unknown oracle scope {scope!r}")
        if not args.notes:
            raise ConfigError("oracle strategies need --notes")
        pairs, _ = _ordered_pairs(args.transcripts, args.notes)
        labels, merge_map = _scope_labels(scope, args.labels)
        inputs += [args.labels, args.notes]
        rows = list(oracle_indices(pairs, scope, labels, merge_map).items())
    else:
        strategy = parse_strategy(args.strategy)
        transcripts = load_transcripts(args.transcripts)
        fm = lexicon = task_map = None
        if strategy.needs_model:
            if not args.filter:
                raise ConfigError(f"strategy {args.strategy!r} needs --filter")
            fm = load_filter(args.filter)
            inputs.append(args.filter)
        if strategy.needs_lexicon:
            if not args.lexicon:
                raise ConfigError(f"strategy {args.strategy!r} needs --lexicon")
            lexicon, task_map = _load_lexicon(args.lexicon, args.task_map)
            inputs += [args.lexicon, args.task_map]
        selections = select_utterances(strategy, transcripts, fm, lexicon, task_map)
        rows = [(t.id, indices) for t, indices in zip(transcripts, selections)]
    save_indices(args.out, rows)
    _write_manifest(args, inputs)
    mean_selected = float(np.mean([len(idx) for _, idx in rows])) if rows else 0.0
    print(
        f"strategy {args.strategy}: mean {mean_selected:.2f} utterances selected "
        f"across {len(rows)} transcripts -> {args.out}"
    )


def cmd_train(args) -> None:
    matrix, _merge = load_label_matrix(args.labels)
    transcripts = _transcripts_in_order(args.transcripts, list(matrix.example_ids))
    record = _read_config(args.config, ConfigError).typed(CONFIG_KINDS, required=False)
    record["task"] = matrix.space.task
    for name in CONFIG_KINDS:  # each key but the task has a flag, which wins
        if getattr(args, name, None) is not None:
            record[name] = getattr(args, name)
    config = PipelineConfig(**record)

    fm = load_filter(args.filter) if args.filter else None
    lexicon, task_map = _load_lexicon(args.lexicon, args.task_map)
    override = _load_override(args.indices, transcripts)
    pipeline = train_pipeline(
        config,
        transcripts,
        matrix,
        filter_model=fm,
        lexicon=lexicon,
        task_map=task_map,
        indices_override=override,
    )
    save_pipeline(args.out, pipeline)
    inputs = [args.transcripts, args.labels, args.filter, args.lexicon, args.task_map]
    heads = pipeline.ovr.models
    _write_manifest(
        args,
        [*inputs, args.indices],
        extra={
            "heads": [
                {"label": label, "converged": m.converged, "n_iter": m.n_iter}
                for label, m in zip(pipeline.ovr.labels, heads)
            ]
        },
    )
    n_converged = sum(1 for m in heads if m.converged)
    print(
        f"trained pipeline for {config.task} "
        f"({len(heads)} heads, {n_converged} converged, strategy "
        f"{args.strategy or record.get('strategy', 'none')}) -> {args.out}"
    )


def cmd_predict(args) -> None:
    pipeline = load_pipeline(args.pipeline)
    transcripts = load_transcripts(args.transcripts)
    override = _load_override(args.indices, transcripts)
    scores = run_pipeline(pipeline, transcripts, indices_override=override)
    save_scores(args.out, scores)
    _write_manifest(args, [args.pipeline, args.transcripts, args.indices])
    print(
        f"scored {scores.scores.shape[0]} transcripts x "
        f"{scores.scores.shape[1]} labels -> {args.out}"
    )


def cmd_evaluate(args) -> None:
    scores = load_scores(args.scores)
    matrix, _ = load_label_matrix(args.labels)
    if set(scores.example_ids) != set(matrix.example_ids):
        raise ValidationError("score rows and label rows cover different transcripts")
    if set(scores.labels) != set(matrix.space.labels):
        raise ValidationError("score columns and label space differ")
    row_of = {tid: i for i, tid in enumerate(scores.example_ids)}
    col_of = {label: j for j, label in enumerate(scores.labels)}
    aligned = scores.scores[
        np.ix_(
            [row_of[tid] for tid in matrix.example_ids],
            [col_of[label] for label in matrix.space.labels],
        )
    ]
    report = evaluate_matrix(
        aligned,
        matrix.values,
        matrix.space.labels,
        threshold=args.threshold,
        task=matrix.space.task,
    )
    if args.out:
        atomic_write_text(args.out, report.to_json() + "\n")
        _write_manifest(args, [args.scores, args.labels])
    print(report.to_markdown() if args.markdown else json.dumps(report.aggregate, indent=2))


def cmd_baseline(args) -> None:
    rank_scores = None
    if args.labels:
        matrix, _ = load_label_matrix(args.labels)
        space = matrix.space
        n = args.n or len(matrix.example_ids)
        source = args.labels
    else:
        reference = reference_labels(args.task)
        space = reference.space()
        rank_scores = reference.rank_scores()
        n = args.n or reference.test_size
        source = "bundled reference statistics"
    truth = prevalence_truth_matrix(space, n)
    replay = input_agnostic_row(space, truth, rank_scores)
    expected = expected_input_agnostic_row(space.train_prevalence, rank_scores)
    rows = {"replay": replay, "large-n": expected}

    inputs = [args.labels] if args.labels else []
    if args.transcripts:
        if not (args.labels and args.lexicon and args.task_map):
            raise ConfigError("the entity row needs --labels, --lexicon, and --task-map")
        lexicon, task_map = _load_lexicon(args.lexicon, args.task_map)
        transcripts = _transcripts_in_order(args.transcripts, list(matrix.example_ids))
        predictions = entity_baseline_predict(lexicon, task_map, transcripts, space.labels)
        report = evaluate_matrix(
            predictions.astype(float), matrix.values, space.labels, threshold=0.5
        )
        rows["entity"] = {m: report.aggregate[m] for m in METRIC_NAMES}
        inputs += [args.transcripts, args.lexicon, args.task_map]

    table = markdown_table(rows, list(METRIC_NAMES))
    if args.out:
        record = {"task": args.task, "n_examples": n, "source": source, "rows": rows}
        atomic_write_text(args.out, json.dumps(record, indent=2) + "\n")
        _write_manifest(args, inputs)
    print(f"task: {args.task} | examples: {n} | prevalence source: {source}")
    print(table)


def cmd_sweep(args) -> None:
    train_matrix, _ = load_label_matrix(args.train_labels)
    test_matrix, _ = load_label_matrix(args.test_labels)
    if tuple(train_matrix.space.labels) != tuple(test_matrix.space.labels):
        raise ConfigError("train and test label files use different label spaces")
    train_transcripts = _transcripts_in_order(args.train_transcripts, list(train_matrix.example_ids))
    test_transcripts = _transcripts_in_order(args.test_transcripts, list(test_matrix.example_ids))
    # Separately generated corpora may reuse ids; only the same transcript is in-sample.
    train_by_id = {t.id: t for t in train_transcripts}
    shared = next((t.id for t in test_transcripts if train_by_id.get(t.id) == t), None)
    if shared is not None:
        raise ValidationError(
            f"{args.train_transcripts} and {args.test_transcripts} share transcript "
            f"{shared!r}; the sweep needs held-out test transcripts"
        )
    fm = load_filter(args.filter)
    try:
        grid = sorted({float(g) for g in args.grid.split(",") if g.strip()})
    except ValueError as exc:
        raise ConfigError(f"--grid {args.grid!r}: {exc}") from None

    config = PipelineConfig(
        task=train_matrix.space.task, strategy="none", min_df=args.min_df
    )
    n_train = len(train_transcripts)
    # threshold_sweep calls evaluate once per grid value, in ascending order.
    details: list[dict] = []

    def evaluate(selected: list[list[int]]) -> dict[str, float]:
        train_ov = {t.id: selected[i] for i, t in enumerate(train_transcripts)}
        test_ov = {t.id: selected[n_train + i] for i, t in enumerate(test_transcripts)}
        detail = {
            "mean_selected": float(np.mean([len(v) for v in test_ov.values()])),
            "trained": True,
        }
        details.append(detail)
        try:
            pipeline = train_pipeline(
                config, train_transcripts, train_matrix, indices_override=train_ov
            )
            scores = run_pipeline(pipeline, test_transcripts, indices_override=test_ov)
        except (FitError, TrainingError) as exc:
            # A threshold that strands the trainer without features scores 0.
            detail["trained"] = False
            detail["reason"] = str(exc)
            return {m: 0.0 for m in METRIC_NAMES}
        return evaluate_matrix(
            scores.scores, test_matrix.values, test_matrix.space.labels, threshold=0.5
        ).aggregate

    sweep = threshold_sweep(fm, train_transcripts + test_transcripts, evaluate, grid)
    points = []
    for point, detail in zip(sweep, details):
        points.append({"threshold": point.threshold, **detail, "metrics": point.metrics})
        print(
            f"threshold={point.threshold:g} selected={detail['mean_selected']:.2f} "
            f"{SWEEP_METRIC}={point.metrics.get(SWEEP_METRIC, 0.0):.4f}"
        )
    best = max(points, key=lambda p: p["metrics"].get(SWEEP_METRIC, 0.0))
    record = {
        "task": train_matrix.space.task,
        "metric": SWEEP_METRIC,
        "grid": grid,
        "best_threshold": best["threshold"],
        "points": points,
    }
    atomic_write_text(args.out, json.dumps(record, indent=2) + "\n")
    inputs = [args.train_transcripts, args.train_labels, args.test_transcripts, args.test_labels]
    _write_manifest(args, [*inputs, args.filter])
    print(f"best {SWEEP_METRIC} at threshold {best['threshold']:g} -> {args.out}")


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> _Parser:
    parser = _Parser(prog="clinconv", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"clinconv {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic paired corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, help="number of examples (overrides config)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", choices=("full", "desk"), default="full",
                   help="full: realistic transcript lengths; desk: short ones for experiments")
    p.add_argument("--config", help=f"generator config JSON (or ${CONFIG_ENV_VAR})")
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("ingest", help="validate corpora and write canonical copies")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--notes")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("derive-labels", help="derive a label space and matrix from notes")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--notes", required=True)
    p.add_argument("--task", choices=("diagnosis", "ros"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label-count", type=int, default=15, help="diagnosis only")
    p.add_argument("--space", help="label file whose label space (and merge map) to apply, "
                   "e.g. the training labels when labeling held-out data")
    p.set_defaults(handler=cmd_derive_labels)

    p = sub.add_parser("build-lexicon", help="validate and normalize a concept lexicon")
    p.add_argument("--concepts", required=True)
    p.add_argument("--task-map", help="also validate this task map against the lexicon")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_build_lexicon)

    p = sub.add_parser("tag", help="run dictionary concept matching over transcripts")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--task-map", help="only count concepts routed by this map")
    p.add_argument("--indices-only", action="store_true",
                   help="emit noteworthy indices instead of full hit spans")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_tag)

    p = sub.add_parser("train-filter", help="train the noteworthy-utterance classifier")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--notes", required=True)
    p.add_argument("--scope", choices=SCOPES, default="all")
    p.add_argument("--labels", help="label file (required for task scopes)")
    p.add_argument("--threshold", type=float,
                   help="selection threshold stored with the filter "
                        "(defaults: all 0.4, diagnosis 0.1, ros 0.02)")
    p.add_argument("--min-df", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train_filter)

    p = sub.add_parser("filter", help="select noteworthy utterances per transcript")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--strategy", required=True,
                   help="none | umls | pred:<scope>[@t] | union:umls+pred:<scope>[@t] | "
                        "f2k:umls+pred:<scope>[@K=k] | oracle:<scope>")
    p.add_argument("--filter", help="trained filter JSON (pred/union/f2k)")
    p.add_argument("--lexicon", help="concepts JSON (umls/union/f2k)")
    p.add_argument("--task-map", help="restrict concept hits to one task")
    p.add_argument("--notes", help="notes JSONL (oracle strategies)")
    p.add_argument("--labels", help="label file (oracle task scopes)")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("train", help="train a prediction pipeline")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--labels", required=True, help="label file from derive-labels")
    p.add_argument("--config", help=f"pipeline config JSON (or ${CONFIG_ENV_VAR})")
    p.add_argument("--strategy")
    p.add_argument("--reg-c", type=float, dest="reg_c")
    p.add_argument("--min-df", type=int, dest="min_df")
    p.add_argument("--filter", help="trained filter JSON")
    p.add_argument("--lexicon")
    p.add_argument("--task-map")
    p.add_argument("--indices", help="selection override from the filter command")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", help="score transcripts with a trained pipeline")
    p.add_argument("--pipeline", required=True)
    p.add_argument("--transcripts", required=True)
    p.add_argument("--indices", help="selection override")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("evaluate", help="evaluate scores against a label file")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--markdown", action="store_true")
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("baseline", help="input-agnostic baseline replay (and entity row)")
    p.add_argument("--task", choices=("diagnosis", "ros"), required=True)
    p.add_argument("--labels", help="label file; omitted = bundled reference statistics")
    p.add_argument("--n", type=int, help="evaluation set size (default: matches source)")
    p.add_argument("--transcripts", help="adds the entity-baseline row")
    p.add_argument("--lexicon")
    p.add_argument("--task-map")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser("sweep", help="sweep the filter threshold against downstream quality")
    p.add_argument("--train-transcripts", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test-transcripts", required=True)
    p.add_argument("--test-labels", required=True)
    p.add_argument("--filter", required=True)
    p.add_argument("--grid", required=True, help="comma-separated thresholds in [0, 1]")
    p.add_argument("--min-df", type=int, dest="min_df", default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if not hasattr(args, "handler"):
        parser.print_help()
        return 1
    args.argv = argv
    try:
        args.handler(args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
