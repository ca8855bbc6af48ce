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
    derive_diagnosis_labels,
    derive_ros_labels,
    load_label_matrix,
    load_notes,
    noteworthy_targets,
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
    umls_noteworthy,
    validate_task_map_against_lexicon,
)
from .errors import ConfigError, DataError, FitError, ParseError, TrainingError, ValidationError
from .filtering import (
    SCOPES,
    apply_filter,
    filter_to_record,
    load_filter,
    load_indices,
    parse_strategy,
    save_indices,
    threshold_sweep,
    train_filter,
)
from .jsonio import FieldWarnings, atomic_write_text, json_loads, sha256_file, write_jsonl
from .metrics import METRIC_NAMES, evaluate_matrix, markdown_table
from .pipeline import (
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# Shared helpers


def _write_manifest(
    primary: Path,
    command: str,
    argv: list[str],
    inputs: list[str | Path],
    outputs: list[Path],
    seed: int | None = None,
    extra: dict | None = None,
) -> Path:
    manifest_path = (
        primary / "manifest.json" if primary.is_dir() else Path(f"{primary}.manifest.json")
    )
    record = {
        "command": command,
        "argv": argv,
        "version": __version__,
        "seed": seed,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    if extra:
        record["extra"] = extra
    atomic_write_text(manifest_path, json.dumps(record, indent=2) + "\n")
    return manifest_path


def _read_config(path: str | None) -> dict:
    path = path or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        record = json_loads(handle.read())
    if not isinstance(record, dict):
        raise ParseError(f"config file {path} must hold a JSON object")
    return record


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
    lexicon = build_lexicon(load_concepts_file(lexicon_path)) if lexicon_path else None
    task_map = load_task_map(task_map_path) if task_map_path else None
    if task_map is not None:
        if lexicon is None:
            raise ConfigError("--task-map needs --lexicon to check it against")
        validate_task_map_against_lexicon(task_map, lexicon)
    return lexicon, task_map


def _print_warnings(warnings: FieldWarnings) -> None:
    if warnings.total:
        counts = ", ".join(f"{k} x{v}" for k, v in warnings.summary().items())
        print(f"ignored unknown fields: {counts}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args) -> None:
    record = _read_config(args.config)
    if args.scale == "desk":
        record = {**GenConfig.desk().to_record(), **record}
    if args.n is not None:
        record["n_examples"] = args.n
    cfg = GenConfig.from_record(record)
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
    _write_manifest(
        out, "synth", args.argv, [], list(outputs.values()), seed=args.seed, extra=stats
    )
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
        by_id = {n.transcript_id: n for n in notes}
        ordered = [by_id[t.id] for t in transcripts if t.id in by_id]
        pair_corpus(transcripts, ordered)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / "transcripts.jsonl"]
    save_transcripts(outputs[0], transcripts)
    if notes is not None:
        outputs.append(out / "notes.jsonl")
        save_notes(outputs[-1], notes)
    inputs = [args.transcripts] + ([args.notes] if args.notes else [])
    _write_manifest(out, "ingest", args.argv, inputs, outputs)
    _print_warnings(warnings)
    n_notes = len(notes) if notes is not None else 0
    print(f"ingested {len(transcripts)} transcripts, {n_notes} notes -> {out}")


def cmd_derive_labels(args) -> None:
    pairs, warnings = _ordered_pairs(args.transcripts, args.notes)
    if args.task == "diagnosis":
        derivation = derive_diagnosis_labels(
            pairs, label_count=args.label_count, merge_top_k=args.merge_top_k
        )
        save_label_matrix(args.out, derivation.matrix, derivation.merge_map)
    else:
        derivation = derive_ros_labels(pairs, min_rate=args.min_rate)
        save_label_matrix(args.out, derivation.matrix)
    _write_manifest(
        Path(args.out), "derive-labels", args.argv, [args.transcripts, args.notes], [Path(args.out)]
    )
    _print_warnings(warnings)
    space = derivation.space
    print(f"{args.task}: {len(space.labels)} labels over {len(pairs)} examples")
    for label, prevalence in zip(space.labels, space.train_prevalence):
        print(f"  {label}: {prevalence:.4f}")


def cmd_build_lexicon(args) -> None:
    lexicon, _ = _load_lexicon(args.concepts, args.task_map)
    save_concepts_file(args.out, lexicon.concepts)
    inputs = [args.concepts] + ([args.task_map] if args.task_map else [])
    _write_manifest(Path(args.out), "build-lexicon", args.argv, inputs, [Path(args.out)])
    n_patterns = len(lexicon.patterns)
    print(f"compiled {len(lexicon)} concepts, {n_patterns} patterns -> {args.out}")


def cmd_tag(args) -> None:
    lexicon, task_map = _load_lexicon(args.lexicon, args.task_map)
    transcripts = load_transcripts(args.transcripts)
    rows = []
    for transcript in transcripts:
        if args.indices_only:
            rows.append({"id": transcript.id, "indices": umls_noteworthy(lexicon, transcript, task_map)})
        else:
            hits = [
                {"utterance": index, "cui": hit.cui, "start": hit.start, "end": hit.end}
                for index, hit in transcript_hits(lexicon, transcript, task_map)
            ]
            rows.append({"id": transcript.id, "hits": hits})
    write_jsonl(args.out, rows)
    inputs = [args.transcripts, args.lexicon] + ([args.task_map] if args.task_map else [])
    _write_manifest(Path(args.out), "tag", args.argv, inputs, [Path(args.out)])
    key = "indices" if args.indices_only else "hits"
    mean_hits = float(np.mean([len(r[key]) for r in rows])) if rows else 0.0
    print(f"tagged {len(rows)} transcripts (mean {mean_hits:.2f} {key} each) -> {args.out}")


def _scope_labels(args):
    """Label names and merge map for a task-scoped filter, from a label file."""
    if args.scope == "all":
        return None, None
    if not args.labels:
        raise ConfigError(f"scope {args.scope!r} needs --labels for the label space")
    matrix, merge_map = load_label_matrix(args.labels)
    if matrix.space.task != args.scope:
        raise ConfigError(
            f"label file task {matrix.space.task!r} does not match scope {args.scope!r}"
        )
    return matrix.space.labels, merge_map


def cmd_train_filter(args) -> None:
    pairs, warnings = _ordered_pairs(args.transcripts, args.notes)
    labels, merge_map = _scope_labels(args)
    fm = train_filter(
        pairs,
        args.scope,
        labels=labels,
        merge_map=merge_map,
        threshold=args.threshold,
        reg_c=args.reg_c,
        min_df=args.min_df,
        include_speaker=args.include_speaker,
    )
    atomic_write_text(args.out, json.dumps(filter_to_record(fm), indent=2) + "\n")
    inputs = [args.transcripts, args.notes] + ([args.labels] if args.labels else [])
    _write_manifest(Path(args.out), "train-filter", args.argv, inputs, [Path(args.out)])
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
        labels = merge_map = None
        if scope != "all":
            labels, merge_map = _scope_labels(argparse.Namespace(scope=scope, labels=args.labels))
            inputs.append(args.labels)
        inputs.append(args.notes)
        rows = [
            (t.id, np.flatnonzero(noteworthy_targets(t, n, scope, labels, merge_map)).tolist())
            for t, n in pairs
        ]
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
            inputs += [path for path in (args.lexicon, args.task_map) if path]
        rows = [
            (
                t.id,
                apply_filter(strategy, t, filter_model=fm, lexicon=lexicon, task_map=task_map),
            )
            for t in transcripts
        ]
    save_indices(args.out, rows)
    _write_manifest(Path(args.out), "filter", args.argv, inputs, [Path(args.out)])
    mean_selected = float(np.mean([len(idx) for _, idx in rows])) if rows else 0.0
    print(
        f"strategy {args.strategy}: mean {mean_selected:.2f} utterances selected "
        f"across {len(rows)} transcripts -> {args.out}"
    )


_TRAIN_CONFIG_FLAGS = (
    "backend",
    "strategy",
    "reg_c",
    "min_df",
    "threshold",
    "encoder_dim",
    "encoder_seed",
    "chunk_size",
    "token_cap",
)


def cmd_train(args) -> None:
    matrix, _merge = load_label_matrix(args.labels)
    transcripts = _transcripts_in_order(args.transcripts, list(matrix.example_ids))
    record = _read_config(args.config)
    record["task"] = matrix.space.task
    for name in _TRAIN_CONFIG_FLAGS:
        value = getattr(args, name)
        if value is not None:
            record[name] = value
    config = PipelineConfig(**record)

    inputs = [args.transcripts, args.labels]
    fm = override = None
    if args.filter:
        fm = load_filter(args.filter)
        inputs.append(args.filter)
    lexicon, task_map = _load_lexicon(args.lexicon, args.task_map)
    inputs += [path for path in (args.lexicon, args.task_map) if path]
    if args.indices:
        override = load_indices(args.indices)
        inputs.append(args.indices)
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
    _write_manifest(Path(args.out), "train", args.argv, inputs, [Path(args.out)])
    heads = pipeline.ovr.models
    n_converged = sum(1 for m in heads if getattr(m, "converged", True))
    print(
        f"trained {config.backend} pipeline for {config.task} "
        f"({len(heads)} heads, {n_converged} converged, strategy "
        f"{args.strategy or record.get('strategy', 'none')}) -> {args.out}"
    )


def cmd_predict(args) -> None:
    pipeline = load_pipeline(args.pipeline)
    transcripts = load_transcripts(args.transcripts)
    override = load_indices(args.indices) if args.indices else None
    scores = run_pipeline(pipeline, transcripts, indices_override=override)
    save_scores(args.out, scores)
    inputs = [args.pipeline, args.transcripts] + ([args.indices] if args.indices else [])
    _write_manifest(Path(args.out), "predict", args.argv, inputs, [Path(args.out)])
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
        _write_manifest(
            Path(args.out), "evaluate", args.argv, [args.scores, args.labels], [Path(args.out)]
        )
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
        _write_manifest(Path(args.out), "baseline", args.argv, inputs, [Path(args.out)])
    print(f"task: {args.task} | examples: {n} | prevalence source: {source}")
    print(table)


def cmd_sweep(args) -> None:
    train_matrix, _ = load_label_matrix(args.train_labels)
    test_matrix, _ = load_label_matrix(args.test_labels)
    if tuple(train_matrix.space.labels) != tuple(test_matrix.space.labels):
        raise ConfigError("train and test label files use different label spaces")
    train_transcripts = _transcripts_in_order(args.train_transcripts, list(train_matrix.example_ids))
    test_transcripts = _transcripts_in_order(args.test_transcripts, list(test_matrix.example_ids))
    fm = load_filter(args.filter)
    grid = sorted({float(g) for g in args.grid.split(",") if g.strip()})

    config = PipelineConfig(
        task=train_matrix.space.task, strategy="none", reg_c=args.reg_c, min_df=args.min_df
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
            f"{args.metric}={point.metrics.get(args.metric, 0.0):.4f}"
        )
    best = max(points, key=lambda p: p["metrics"].get(args.metric, 0.0))
    record = {
        "task": train_matrix.space.task,
        "metric": args.metric,
        "grid": grid,
        "best_threshold": best["threshold"],
        "points": points,
    }
    atomic_write_text(args.out, json.dumps(record, indent=2) + "\n")
    inputs = [
        args.train_transcripts,
        args.train_labels,
        args.test_transcripts,
        args.test_labels,
        args.filter,
    ]
    _write_manifest(Path(args.out), "sweep", args.argv, inputs, [Path(args.out)])
    print(f"best {args.metric} at threshold {best['threshold']:g} -> {args.out}")


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
    p.add_argument("--merge-top-k", type=int, default=20, help="diagnosis only")
    p.add_argument("--min-rate", type=float, default=0.05, help="ros only")
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
    p.add_argument("--reg-c", type=float, default=1.0)
    p.add_argument("--min-df", type=int, default=1)
    p.add_argument("--include-speaker", action="store_true")
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
    p.add_argument("--backend", choices=("logistic", "naive_bayes", "encoder"))
    p.add_argument("--strategy")
    p.add_argument("--reg-c", type=float, dest="reg_c")
    p.add_argument("--min-df", type=int, dest="min_df")
    p.add_argument("--threshold", type=float)
    p.add_argument("--encoder-dim", type=int, dest="encoder_dim")
    p.add_argument("--encoder-seed", type=int, dest="encoder_seed")
    p.add_argument("--chunk-size", type=int, dest="chunk_size")
    p.add_argument("--token-cap", type=int, dest="token_cap")
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
    p.add_argument("--metric", choices=METRIC_NAMES, default="micro_f1")
    p.add_argument("--reg-c", type=float, dest="reg_c", default=1.0)
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
