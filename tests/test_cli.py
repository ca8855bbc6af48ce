"""Command-line interface: full chain, exit codes, and run manifests."""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from clinconv import (
    load_indices,
    load_label_matrix,
    load_pipeline,
    load_scores,
    load_transcripts,
    run_pipeline,
)
from clinconv.cli import build_parser, main
from clinconv.concepts import (
    build_lexicon,
    entity_baseline_predict,
    load_concepts_file,
    load_task_map,
    umls_noteworthy,
)
from clinconv.filtering import parse_strategy, select_utterances
from clinconv.metrics import METRIC_NAMES, auc_scores, evaluate_matrix
from clinconv.pipeline import CONFIG_KINDS, PipelineConfig

DATA = Path(__file__).resolve().parents[1] / "src" / "clinconv" / "data"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A corpus plus derived artifacts produced entirely through the CLI."""
    root = tmp_path_factory.mktemp("cli")

    def run(*argv: str) -> int:
        return main([str(a) for a in argv])

    assert run("synth", "--out-dir", root / "corpus", "--n", "80", "--scale", "desk",
               "--seed", "7") == 0
    transcripts = root / "corpus" / "transcripts.jsonl"
    notes = root / "corpus" / "notes.jsonl"
    assert run("derive-labels", "--transcripts", transcripts, "--notes", notes,
               "--task", "diagnosis", "--out", root / "diag.jsonl") == 0
    assert run("train-filter", "--transcripts", transcripts, "--notes", notes,
               "--scope", "all", "--out", root / "filter.json") == 0
    assert run("train", "--transcripts", transcripts, "--labels", root / "diag.jsonl",
               "--strategy", "pred:all", "--filter", root / "filter.json", "--min-df", "1",
               "--out", root / "pipe.json") == 0
    return root, run


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("clinconv ")


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "usage: clinconv" in capsys.readouterr().out


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "frobnicate" in capsys.readouterr().err


def test_missing_file_is_data_error(tmp_path, capsys):
    code = main(
        ["derive-labels", "--transcripts", str(tmp_path / "nope.jsonl"),
         "--notes", str(tmp_path / "nope.jsonl"), "--task", "ros",
         "--out", str(tmp_path / "out.jsonl")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_synth_writes_manifest_with_digests(workspace):
    root, _ = workspace
    manifest = json.loads((root / "corpus" / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 7
    names = {Path(p).name for p in manifest["outputs"]}
    assert names == {"transcripts.jsonl", "notes.jsonl", "truth.jsonl", "stats.json"}


def test_filter_oracle_strategy_matches_note_evidence(workspace):
    root, run = workspace
    out = root / "oracle.jsonl"
    assert run("filter", "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--strategy", "oracle:all", "--notes", root / "corpus" / "notes.jsonl",
               "--out", out) == 0
    transcripts = load_transcripts(root / "corpus" / "transcripts.jsonl")
    selections = load_indices(out, {t.id: len(t) for t in transcripts})
    assert len(selections) == 80
    assert any(selections.values())
    manifest = json.loads((root / "oracle.jsonl.manifest.json").read_text())
    assert set(map(len, manifest["inputs"].values())) == {64}


def test_filter_requires_strategy_dependencies(workspace, capsys):
    root, run = workspace
    code = run("filter", "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--strategy", "pred:all", "--out", root / "x.jsonl")
    assert code == 2
    assert "--filter" in capsys.readouterr().err


def test_train_predict_evaluate_chain(workspace, capsys):
    root, run = workspace
    pipeline = root / "pipe.json"
    scores = root / "scores.jsonl"
    report = root / "report.json"
    assert run("train", "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--labels", root / "diag.jsonl", "--strategy", "pred:all",
               "--filter", root / "filter.json", "--min-df", "1",
               "--out", pipeline) == 0
    assert run("predict", "--pipeline", pipeline,
               "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--out", scores) == 0
    capsys.readouterr()
    assert run("evaluate", "--scores", scores, "--labels", root / "diag.jsonl",
               "--out", report) == 0
    aggregate = json.loads(capsys.readouterr().out)
    saved = json.loads(report.read_text())
    assert saved["aggregate"] == aggregate
    matrix, _ = load_label_matrix(root / "diag.jsonl")
    assert saved["n_examples"] == len(matrix.example_ids)


def test_evaluate_aligns_by_id_and_label(workspace, tmp_path):
    root, run = workspace
    scores = load_scores(root / "scores.jsonl")
    rng = np.random.default_rng(0)
    row_perm = rng.permutation(len(scores.example_ids))
    col_perm = rng.permutation(len(scores.labels))
    shuffled = type(scores)(
        example_ids=[scores.example_ids[i] for i in row_perm],
        labels=tuple(scores.labels[j] for j in col_perm),
        scores=scores.scores[np.ix_(row_perm, col_perm)],
    )
    from clinconv import save_scores

    path = tmp_path / "shuffled.jsonl"
    save_scores(path, shuffled)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run("evaluate", "--scores", root / "scores.jsonl",
               "--labels", root / "diag.jsonl", "--out", out_a) == 0
    assert run("evaluate", "--scores", path,
               "--labels", root / "diag.jsonl", "--out", out_b) == 0
    assert json.loads(out_a.read_text()) == json.loads(out_b.read_text())


def test_train_reorders_transcripts_to_label_file(workspace, tmp_path):
    root, run = workspace
    from clinconv import load_transcripts, save_transcripts

    transcripts = load_transcripts(root / "corpus" / "transcripts.jsonl")
    reversed_path = tmp_path / "reversed.jsonl"
    save_transcripts(reversed_path, list(reversed(transcripts)))
    out = tmp_path / "pipe.json"
    assert run("train", "--transcripts", reversed_path, "--labels", root / "diag.jsonl",
               "--min-df", "1", "--out", out) == 0


def test_synth_config_via_environment(tmp_path, monkeypatch, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"n_examples": 9, "mean_utterances": 40.0,
                                  "min_utterances": 10, "mean_words": 6.0}))
    monkeypatch.setenv("CLINCONV_CONFIG", str(config))
    assert main(["synth", "--out-dir", str(tmp_path / "c"), "--seed", "1"]) == 0
    assert "generated 9 examples" in capsys.readouterr().out


def test_baseline_replay_matches_reference(capsys):
    assert main(["baseline", "--task", "diagnosis"]) == 0
    out = capsys.readouterr().out
    replay_row = next(line for line in out.splitlines() if line.startswith("| replay"))
    cells = [c.strip() for c in replay_row.strip("|").split("|")][1:]
    accuracy, macro_f1, micro_f1, macro_auc, micro_auc, p_at_1 = map(float, cells)
    assert accuracy == pytest.approx(0.9189, abs=5e-4)
    assert macro_f1 == pytest.approx(0.1414, abs=5e-4)
    assert macro_auc == pytest.approx(0.5, abs=1e-9)
    assert micro_f1 == pytest.approx(0.3109, abs=5e-4)
    assert p_at_1 == pytest.approx(0.2027, abs=5e-4)
    assert micro_auc == pytest.approx(0.7434, abs=0.02)


def test_tag_counts_lexicon_hits(workspace, tmp_path):
    root, run = workspace
    out = tmp_path / "hits.jsonl"
    assert run("tag", "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--lexicon", DATA / "concept_lexicon.json", "--out", out) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 80
    assert all(
        set(hit) == {"utterance", "cui", "start", "end"}
        for row in rows
        for hit in row["hits"]
    )


LEXICON = DATA / "concept_lexicon.json"
TASK_MAP = DATA / "diagnosis_task_map.json"


@pytest.fixture(scope="module")
def concept_inputs(workspace):
    """The workspace transcripts, and the lexicon and task map as the CLI reads them."""
    root, _ = workspace
    transcripts = load_transcripts(root / "corpus" / "transcripts.jsonl")
    return transcripts, build_lexicon(load_concepts_file(LEXICON)), load_task_map(TASK_MAP)


def test_filter_with_a_lexicon_strategy_writes_select_utterances(workspace, concept_inputs, tmp_path):
    root, run = workspace
    transcripts, lexicon, task_map = concept_inputs
    out = tmp_path / "umls.jsonl"
    assert run("filter", "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--strategy", "umls", "--lexicon", LEXICON, "--task-map", TASK_MAP,
               "--out", out) == 0
    selections = select_utterances(parse_strategy("umls"), transcripts, None, lexicon, task_map)
    expected = {t.id: indices for t, indices in zip(transcripts, selections, strict=True)}
    assert any(expected.values())
    assert load_indices(out, {}) == expected


def test_tag_indices_only_writes_umls_noteworthy(workspace, concept_inputs, tmp_path):
    root, run = workspace
    transcripts, lexicon, task_map = concept_inputs
    out = tmp_path / "indices.jsonl"
    assert run("tag", "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--lexicon", LEXICON, "--task-map", TASK_MAP, "--indices-only",
               "--out", out) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    expected = [{"id": t.id, "indices": umls_noteworthy(lexicon, t, task_map)} for t in transcripts]
    assert any(row["indices"] for row in expected)
    assert rows == expected


def test_tag_indices_only_and_filter_umls_write_the_same_bytes(workspace, tmp_path):
    root, run = workspace
    common = ["--transcripts", root / "corpus" / "transcripts.jsonl",
              "--lexicon", LEXICON, "--task-map", TASK_MAP]
    tagged, filtered = tmp_path / "tagged.jsonl", tmp_path / "filtered.jsonl"
    assert run("tag", *common, "--indices-only", "--out", tagged) == 0
    assert run("filter", *common, "--strategy", "umls", "--out", filtered) == 0
    assert tagged.read_bytes() == filtered.read_bytes()


def test_baseline_entity_row_equals_the_library_call(workspace, concept_inputs, tmp_path):
    root, run = workspace
    transcripts, lexicon, task_map = concept_inputs
    out = tmp_path / "baseline.json"
    assert run("baseline", "--task", "diagnosis", "--labels", root / "diag.jsonl",
               "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--lexicon", LEXICON, "--task-map", TASK_MAP, "--out", out) == 0
    matrix, _ = load_label_matrix(root / "diag.jsonl")
    by_id = {t.id: t for t in transcripts}
    ordered = [by_id[i] for i in matrix.example_ids]
    predictions = entity_baseline_predict(lexicon, task_map, ordered, matrix.space.labels)
    assert predictions.any()
    report = evaluate_matrix(
        predictions.astype(float), matrix.values, matrix.space.labels, threshold=0.5
    )
    entity = json.loads(out.read_text())["rows"]["entity"]
    assert entity == {m: report.aggregate[m] for m in METRIC_NAMES}


@pytest.fixture(scope="module")
def held_out(workspace):
    """The sweep's inputs: the workspace corpus, its diagnosis labels cut into
    60 training rows and 20 held-out rows, and the filter."""
    root, _ = workspace
    header, *rows = (root / "diag.jsonl").read_text().splitlines(keepends=True)
    train, test = root / "diag.train.jsonl", root / "diag.test.jsonl"
    train.write_text(header + "".join(rows[:60]))
    test.write_text(header + "".join(rows[60:]))
    corpus = root / "corpus" / "transcripts.jsonl"
    return ("--train-transcripts", corpus, "--train-labels", train,
            "--test-transcripts", corpus, "--test-labels", test, "--filter", root / "filter.json")


def test_sweep_writes_sorted_points(workspace, held_out, tmp_path):
    _, run = workspace
    out = tmp_path / "sweep.json"
    assert run("sweep", *held_out, "--grid", "0.6,0.2,1.0", "--min-df", "1", "--out", out) == 0
    record = json.loads(out.read_text())
    thresholds = [p["threshold"] for p in record["points"]]
    assert thresholds == sorted(thresholds) == [0.2, 0.6, 1.0]
    assert record["points"][-1]["trained"] is False  # threshold 1 selects nothing
    assert all(v == 0.0 for v in record["points"][-1]["metrics"].values())
    assert record["best_threshold"] in thresholds


def test_sweep_rejects_grid_outside_unit_interval(workspace, held_out, tmp_path, capsys):
    _, run = workspace
    out = tmp_path / "sweep.json"
    assert run("sweep", *held_out, "--grid", "0.2,1.5", "--min-df", "1", "--out", out) == 2
    assert "1.5 outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_train_and_test_sets_that_share_a_transcript(workspace, tmp_path, capsys):
    """In-sample numbers would be reported as held-out ones."""
    root, run = workspace
    train = root / "corpus" / "transcripts.jsonl"
    test = tmp_path / "test.transcripts.jsonl"
    test.write_bytes(train.read_bytes())
    first_id = json.loads((root / "diag.jsonl").read_text().splitlines()[1])["id"]
    out = tmp_path / "sweep.json"
    capsys.readouterr()
    assert run("sweep", "--train-transcripts", train, "--train-labels", root / "diag.jsonl",
               "--test-transcripts", test, "--test-labels", root / "diag.jsonl",
               "--filter", root / "filter.json", "--grid", "0.5", "--out", out) == 2
    assert f"error: {train} and {test} share transcript {first_id!r}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_accepts_a_corpus_of_another_seed_that_reuses_ids(workspace, tmp_path):
    """``synth`` names examples ``synth-000000``, ... whatever the seed, so a
    separately generated held-out corpus shares ids but no transcript."""
    root, run = workspace
    test = tmp_path / "heldout"
    assert run("synth", "--out-dir", test, "--n", "20", "--scale", "desk", "--seed", "8") == 0
    assert run("derive-labels", "--transcripts", test / "transcripts.jsonl",
               "--notes", test / "notes.jsonl", "--task", "diagnosis",
               "--space", root / "diag.jsonl", "--out", test / "diag.jsonl") == 0
    ids = {t.id for t in load_transcripts(root / "corpus" / "transcripts.jsonl")}
    assert {t.id for t in load_transcripts(test / "transcripts.jsonl")} <= ids
    out = tmp_path / "sweep.json"
    assert run("sweep", "--train-transcripts", root / "corpus" / "transcripts.jsonl",
               "--train-labels", root / "diag.jsonl",
               "--test-transcripts", test / "transcripts.jsonl", "--test-labels", test / "diag.jsonl",
               "--filter", root / "filter.json", "--grid", "0.5", "--min-df", "1", "--out", out) == 0
    assert [p["threshold"] for p in json.loads(out.read_text())["points"]] == [0.5]


@pytest.mark.parametrize(
    "command, value, message",
    [
        ("filter", "pred:all@..", "'pred:all@..'"),
        ("filter", "pred:all@1e", "'pred:all@1e'"),
        ("train", "pred:all@..", "'pred:all@..'"),
        ("train", "pred:all@1e", "'pred:all@1e'"),
        ("sweep", "a,0.5", "--grid 'a,0.5': could not convert string to float: 'a'"),
    ],
    ids=["filter-dots", "filter-bare-exponent", "train-dots", "train-bare-exponent", "sweep-grid"],
)
def test_unparseable_values_exit_2_naming_them(workspace, held_out, tmp_path, capsys, command, value, message):
    root, run = workspace
    corpus = root / "corpus" / "transcripts.jsonl"
    argv = {
        "filter": ("--transcripts", corpus, "--filter", root / "filter.json", "--strategy", value),
        "train": ("--transcripts", corpus, "--labels", root / "diag.jsonl", "--strategy", value),
        "sweep": (*held_out, "--grid", value),
    }[command]
    out = tmp_path / "out.json"
    assert run(command, *argv, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_every_train_option_is_a_config_key_or_a_file():
    """A train flag either sets a saved PipelineConfig field or names a file;
    none can be accepted and then ignored."""
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest for a in subcommands.choices["train"]._actions} - {"help"}
    files = {"transcripts", "labels", "config", "filter", "lexicon", "task_map", "indices", "out"}
    assert options - files == set(CONFIG_KINDS) - {"task"}
    assert set(CONFIG_KINDS) == {f.name for f in dataclasses.fields(PipelineConfig)}


def test_train_checks_the_task_map_against_the_lexicon(workspace, tmp_path, capsys):
    root, run = workspace
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps(
        {"task": "diagnosis", "map": [{"cui": "NOPE1", "label": "hypertension"}]}
    ))
    train = ("train", "--transcripts", root / "corpus" / "transcripts.jsonl",
             "--labels", root / "diag.jsonl", "--min-df", "1",
             "--out", tmp_path / "pipe.json")
    assert run(*train, "--lexicon", DATA / "concept_lexicon.json", "--task-map", unknown) == 2
    assert "NOPE1" in capsys.readouterr().err
    assert run(*train, "--task-map", DATA / "diagnosis_task_map.json") == 2
    assert "--lexicon" in capsys.readouterr().err
    assert not (tmp_path / "pipe.json").exists()


def test_predict_rejects_a_malformed_pipeline(workspace, tmp_path, capsys):
    root, run = workspace
    record = json.loads((root / "pipe.json").read_text())
    del record["ovr"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(record))
    assert run("predict", "--pipeline", broken,
               "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--out", tmp_path / "scores.jsonl") == 2
    err = capsys.readouterr().err
    assert str(broken) in err and "'ovr'" in err


@pytest.mark.parametrize("task", ["diagnosis", "ros"])
def test_baseline_replay_row_agrees_with_the_closed_form(task, capsys):
    assert main(["baseline", "--task", task]) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if cells[0] in ("replay", "large-n"):
            rows[cells[0]] = [float(cell) for cell in cells[1:]]
    assert rows["replay"] == pytest.approx(rows["large-n"], abs=5e-4)


def test_ingest_rejects_a_note_for_an_unknown_transcript(workspace, tmp_path, capsys):
    root, run = workspace
    notes = tmp_path / "notes.jsonl"
    stray = {"transcript_id": "nobody",
             "entries": [{"subsection": "assessment", "evidence": [99999]}]}
    notes.write_text((root / "corpus" / "notes.jsonl").read_text() + json.dumps(stray) + "\n")
    assert run("ingest", "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--notes", notes, "--out-dir", tmp_path / "out") == 2
    assert "'nobody'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "notes.jsonl").exists()


def test_ingest_writes_a_canonical_copy_and_counts_unknown_fields(workspace, tmp_path, capsys):
    root, run = workspace
    corpus = root / "corpus"
    assert run("ingest", "--transcripts", corpus / "transcripts.jsonl",
               "--notes", corpus / "notes.jsonl", "--out-dir", tmp_path / "same") == 0
    for name in ("transcripts.jsonl", "notes.jsonl"):
        assert (tmp_path / "same" / name).read_bytes() == (corpus / name).read_bytes()
    assert "ignored unknown fields" not in capsys.readouterr().err
    records = [json.loads(line) for line in (corpus / "transcripts.jsonl").read_text().splitlines()]
    records[0]["session"] = "am"
    for utterance in records[1]["utterances"][:2]:
        utterance["confidence"] = 0.9
    extra = tmp_path / "extra.jsonl"
    extra.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert run("ingest", "--transcripts", extra, "--out-dir", tmp_path / "extra") == 0
    assert "ignored unknown fields: transcript.session x1, utterance.confidence x2" in (
        capsys.readouterr().err
    )
    copy = tmp_path / "extra" / "transcripts.jsonl"
    assert copy.read_bytes() == (corpus / "transcripts.jsonl").read_bytes()


def test_evaluate_markdown_auc_cells_equal_auc_scores(workspace, tmp_path, capsys):
    root, run = workspace
    transcripts, scores_path = root / "corpus" / "transcripts.jsonl", tmp_path / "scores.jsonl"
    assert run("train", "--transcripts", transcripts, "--labels", root / "diag.jsonl",
               "--out", tmp_path / "pipe.json") == 0
    assert run("predict", "--pipeline", tmp_path / "pipe.json", "--transcripts", transcripts,
               "--out", scores_path) == 0
    capsys.readouterr()
    assert run("evaluate", "--scores", scores_path, "--labels", root / "diag.jsonl",
               "--markdown") == 0
    header, tables = None, {}
    for line in capsys.readouterr().out.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if not line.startswith("|"):
            header = None
        elif header is None:
            header = cells
        elif not line.startswith("|---"):
            tables[cells[0]] = dict(zip(header, cells))
    scores = load_scores(scores_path)
    matrix, _ = load_label_matrix(root / "diag.jsonl")
    row_of = {tid: i for i, tid in enumerate(scores.example_ids)}
    aligned = scores.scores[[row_of[tid] for tid in matrix.example_ids]]
    assert list(scores.labels) == list(matrix.space.labels)
    report = auc_scores(aligned, matrix.values)
    assert tables["model"]["macro_auc"] == f"{report.macro_auc:.4f}"
    assert tables["model"]["micro_auc"] == f"{report.micro_auc:.4f}"
    for label, auc in zip(matrix.space.labels, report.auc):
        assert tables[label]["auc"] == f"{auc:.4f}"


def test_config_values_of_the_wrong_type_name_file_and_key(workspace, tmp_path, capsys):
    root, run = workspace
    synth_config = tmp_path / "gen.json"
    synth_config.write_text(json.dumps({"n_examples": "x"}))
    assert run("synth", "--out-dir", tmp_path / "c", "--config", synth_config) == 2
    assert f"{synth_config}: n_examples must be an integer" in capsys.readouterr().err
    train_config = tmp_path / "train.json"
    train_config.write_text(json.dumps({"reg_c": "x"}))
    assert run("train", "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--labels", root / "diag.jsonl", "--config", train_config,
               "--out", tmp_path / "pipe.json") == 2
    assert f"{train_config}: reg_c must be a number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "artifact, edit, key",
    [
        ("filter.json", lambda r: r.pop("weights"), "no 'weights' key"),
        ("pipe.json", lambda r: r["ovr"]["models"][0].pop("weights"),
         "'ovr.models[0]' section lacks ['weights']"),
    ],
    ids=["filter-weights", "head-weights"],
)
def test_artifact_without_a_written_key_exits_2(workspace, tmp_path, capsys, artifact, edit, key):
    root, run = workspace
    record = json.loads((root / artifact).read_text())
    edit(record)
    broken = tmp_path / artifact
    broken.write_text(json.dumps(record))
    transcripts = root / "corpus" / "transcripts.jsonl"
    if artifact == "filter.json":
        argv = ("filter", "--strategy", "pred:all", "--filter", broken)
    else:
        argv = ("predict", "--pipeline", broken)
    assert run(*argv, "--transcripts", transcripts, "--out", tmp_path / "out.jsonl") == 2
    assert f"{broken}: {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: r["utterances"][0].update(speaker="nurse"), "unknown speaker 'nurse'"),
        (lambda r: r.pop("utterances"), "transcript record missing field 'utterances'"),
        (lambda r: r.update(id="first"), "duplicate transcript id 'first'"),
        (lambda r: r["utterances"][1].update(text=7), "utterance 1: text must be a string"),
        (lambda r: r.update(id=7), "'id' must be a string"),
    ],
    ids=["unknown-speaker", "missing-field", "duplicate-id", "numeric-text", "numeric-id"],
)
def test_a_bad_transcript_names_file_and_line(workspace, tmp_path, capsys, edit, message):
    root, run = workspace
    pipeline = tmp_path / "pipe.json"
    corpus = root / "corpus" / "transcripts.jsonl"
    assert run("train", "--transcripts", corpus, "--labels", root / "diag.jsonl",
               "--out", pipeline) == 0
    first, second = [json.loads(line) for line in corpus.read_text().splitlines()[:2]]
    first["id"] = "first"
    edit(second)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")
    capsys.readouterr()
    assert run("predict", "--pipeline", pipeline, "--transcripts", bad,
               "--out", tmp_path / "scores.jsonl") == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: line 2: " in err and message in err


def test_derive_labels_applies_a_training_space_to_held_out_data(tmp_path, capsys):
    """ROS skin is confirmed in under 5% of the n=300 seed-8 corpus, so its own
    space lacks a label of the n=600 seed-7 training space, and evaluating
    held-out scores against it fails. ``--space`` labels it in the training
    space, so train -> predict -> evaluate runs."""

    def run(*argv) -> int:
        return main([str(a) for a in argv])

    corpora = {}
    for name, n, seed in (("train", 600, 7), ("test", 300, 8)):
        out = tmp_path / name
        assert run("synth", "--out-dir", out, "--n", n, "--scale", "desk", "--seed", seed) == 0
        corpora[name] = ("--transcripts", out / "transcripts.jsonl", "--notes", out / "notes.jsonl")
    labels = {name: tmp_path / f"{name}.ros.jsonl" for name in ("train", "fresh", "test")}
    assert run("derive-labels", *corpora["train"], "--task", "ros", "--out", labels["train"]) == 0
    assert run("derive-labels", *corpora["test"], "--task", "ros", "--out", labels["fresh"]) == 0
    assert run("derive-labels", *corpora["test"], "--task", "ros",
               "--space", labels["train"], "--out", labels["test"]) == 0
    train_space = load_label_matrix(labels["train"])[0].space
    assert set(load_label_matrix(labels["fresh"])[0].space.labels) < set(train_space.labels)
    held_out = load_label_matrix(labels["test"])[0]
    assert held_out.space.labels == train_space.labels
    assert np.array_equal(held_out.space.train_prevalence, train_space.train_prevalence)

    pipeline, scores = tmp_path / "pipe.json", tmp_path / "scores.jsonl"
    assert run("train", "--transcripts", tmp_path / "train" / "transcripts.jsonl",
               "--labels", labels["train"], "--out", pipeline) == 0
    assert run("predict", "--pipeline", pipeline,
               "--transcripts", tmp_path / "test" / "transcripts.jsonl", "--out", scores) == 0
    capsys.readouterr()
    assert run("evaluate", "--scores", scores, "--labels", labels["fresh"]) == 2
    assert "score columns and label space differ" in capsys.readouterr().err
    assert run("evaluate", "--scores", scores, "--labels", labels["test"]) == 0


@pytest.mark.parametrize("task", ["diagnosis", "ros"])
def test_derive_labels_in_its_own_space_rewrites_the_same_file(workspace, tmp_path, task):
    root, run = workspace
    corpus = ("--transcripts", root / "corpus" / "transcripts.jsonl",
              "--notes", root / "corpus" / "notes.jsonl", "--task", task)
    derived, applied = tmp_path / "derived.jsonl", tmp_path / "applied.jsonl"
    assert run("derive-labels", *corpus, "--out", derived) == 0
    assert run("derive-labels", *corpus, "--space", derived, "--out", applied) == 0
    assert applied.read_bytes() == derived.read_bytes()


def test_derive_labels_space_needs_the_task_and_merge_map(workspace, tmp_path, capsys):
    root, run = workspace
    corpus = ("--transcripts", root / "corpus" / "transcripts.jsonl",
              "--notes", root / "corpus" / "notes.jsonl")
    lines = (root / "diag.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    del header["merge_map"]
    unmerged = tmp_path / "unmerged.jsonl"
    unmerged.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
    out = tmp_path / "out.jsonl"
    for task, space, message in (
        ("diagnosis", unmerged, "a diagnosis label space needs its merge_map"),
        ("ros", root / "diag.jsonl", "label space task 'diagnosis' does not match --task 'ros'"),
    ):
        capsys.readouterr()
        assert run("derive-labels", *corpus, "--task", task, "--space", space, "--out", out) == 2
        assert f"{space}: {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("backend", ["naive_bayes", "encoder"])
def test_predict_refuses_a_version_1_pipeline_naming_its_format(workspace, tmp_path, capsys, backend):
    root, run = workspace
    record = json.loads((root / "pipe.json").read_text())
    pipeline = tmp_path / "pipe.json"
    record["format"] = "clinconv-pipeline-v1"
    record["config"].update(backend=backend, encoder_dim=64)
    record["ovr"]["backend"] = backend
    pipeline.write_text(json.dumps(record))
    capsys.readouterr()
    assert run("predict", "--pipeline", pipeline, "--transcripts",
               root / "corpus" / "transcripts.jsonl", "--out", tmp_path / "scores.jsonl") == 2
    assert f"{pipeline}: pipeline format 'clinconv-pipeline-v1'" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("backend", "logistic"), ("encoder_dim", 64)])
def test_train_config_with_a_removed_key_exits_2(workspace, tmp_path, capsys, key, value):
    root, run = workspace
    config = tmp_path / "train.json"
    config.write_text(json.dumps({key: value, "min_df": 1}))
    capsys.readouterr()
    assert run("train", "--transcripts", root / "corpus" / "transcripts.jsonl",
               "--labels", root / "diag.jsonl", "--config", config,
               "--out", tmp_path / "pipe.json") == 2
    assert f"{config}: unknown keys ['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "pipe.json").exists()


def indices_file(root, tmp_path, first_indices) -> Path:
    """Selections for every workspace transcript; the first one's are given."""
    ids = [json.loads(line)["id"] for line in (root / "corpus" / "transcripts.jsonl").read_text().splitlines()]
    rows = [{"id": ids[0], "indices": first_indices}] + [{"id": i, "indices": [0]} for i in ids[1:]]
    path = tmp_path / "indices.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


@pytest.mark.parametrize(
    "first_indices, message",
    [
        ([1, 1, 0], "indices must be ascending and distinct"),
        ([0, 1, 1], "indices must be ascending and distinct"),
        ([2, 1], "indices must be ascending and distinct"),
        ([-1, 0], "indices must be non-negative"),
    ],
    ids=["merged", "repeated", "descending", "negative"],
)
def test_an_unordered_indices_file_names_file_and_line(workspace, tmp_path, capsys, first_indices, message):
    root, run = workspace
    indices = indices_file(root, tmp_path, first_indices)
    capsys.readouterr()
    for command, model in (("train", ("--labels", root / "diag.jsonl")),
                           ("predict", ("--pipeline", root / "pipe.json"))):
        assert run(command, *model, "--transcripts", root / "corpus" / "transcripts.jsonl",
                   "--indices", indices, "--out", tmp_path / "out.json") == 2, command
        assert f"{indices}: line 1: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_an_indices_row_for_no_transcript_exits_2(workspace, tmp_path, capsys):
    root, run = workspace
    indices = indices_file(root, tmp_path, [0])
    with indices.open("a") as handle:
        handle.write(json.dumps({"id": "nobody", "indices": [0]}) + "\n")
    capsys.readouterr()
    for command, model in (("train", ("--labels", root / "diag.jsonl")),
                           ("predict", ("--pipeline", root / "pipe.json"))):
        assert run(command, *model, "--transcripts", root / "corpus" / "transcripts.jsonl",
                   "--indices", indices, "--out", tmp_path / "out.json") == 2, command
        err = capsys.readouterr().err
        assert f"{indices}: " in err and "'nobody'" in err, err
    assert not (tmp_path / "out.json").exists()



def test_an_indices_row_past_its_transcript_names_file_line_and_transcript(workspace, tmp_path, capsys):
    root, run = workspace
    first = json.loads((root / "corpus" / "transcripts.jsonl").read_text().splitlines()[0])
    n = len(first["utterances"])
    indices = indices_file(root, tmp_path, [0, n, n + 1])
    message = f"{indices}: line 1: index {n} outside transcript {first['id']!r} of {n} utterances"
    capsys.readouterr()
    for command, model in (("train", ("--labels", root / "diag.jsonl")),
                           ("predict", ("--pipeline", root / "pipe.json"))):
        assert run(command, *model, "--transcripts", root / "corpus" / "transcripts.jsonl",
                   "--indices", indices, "--out", tmp_path / "out.json") == 2, command
        assert f"error: {message}" in capsys.readouterr().err, command
    assert not (tmp_path / "out.json").exists()


def test_manifests_record_whether_each_fit_converged(workspace, tmp_path, monkeypatch):
    """train-filter's manifest holds its filter's, and train's one entry per head."""
    from clinconv import cli

    root, run = workspace
    fitted = {}
    for name in ("train_filter", "train_pipeline"):
        def keep(*args, _fit=getattr(cli, name), _name=name, **kwargs):
            fitted[_name] = _fit(*args, **kwargs)
            return fitted[_name]

        monkeypatch.setattr(cli, name, keep)
    corpus = ("--transcripts", root / "corpus" / "transcripts.jsonl")
    assert run("train-filter", *corpus, "--notes", root / "corpus" / "notes.jsonl",
               "--scope", "all", "--out", tmp_path / "filter.json") == 0
    assert run("train", *corpus, "--labels", root / "diag.jsonl",
               "--out", tmp_path / "pipe.json") == 0
    assert (tmp_path / "filter.json").read_bytes() == (root / "filter.json").read_bytes()
    model = fitted["train_filter"].model
    manifest = json.loads((tmp_path / "filter.json.manifest.json").read_text())
    assert manifest["extra"] == {"converged": model.converged, "n_iter": model.n_iter}
    assert model.n_iter > 0
    ovr = fitted["train_pipeline"].ovr
    manifest = json.loads((tmp_path / "pipe.json.manifest.json").read_text())
    assert manifest["extra"]["heads"] == [
        {"label": label, "converged": m.converged, "n_iter": m.n_iter}
        for label, m in zip(ovr.labels, ovr.models)
    ]
    assert len(ovr.models) > 1


def test_an_empty_selection_says_its_documents_hold_no_token(tmp_path, capsys):
    """At full scale the diagnosis filter's default threshold keeps no
    utterance of these 20 visits, and the error says so."""

    def run(*argv) -> int:
        return main([str(a) for a in argv])

    corpus = tmp_path / "corpus"
    transcripts, notes = corpus / "transcripts.jsonl", corpus / "notes.jsonl"
    labels, filter_path = tmp_path / "diag.jsonl", tmp_path / "filter.json"
    assert run("synth", "--out-dir", corpus, "--n", "20", "--scale", "full", "--seed", "1") == 0
    assert run("derive-labels", "--transcripts", transcripts, "--notes", notes,
               "--task", "diagnosis", "--out", labels) == 0
    assert run("train-filter", "--transcripts", transcripts, "--notes", notes,
               "--scope", "diagnosis", "--labels", labels, "--out", filter_path) == 0
    capsys.readouterr()
    assert run("train", "--transcripts", transcripts, "--labels", labels,
               "--strategy", "pred:diagnosis", "--filter", filter_path,
               "--out", tmp_path / "pipe.json") == 2
    err = capsys.readouterr().err
    assert "across 20 documents, 20 of which hold no token" in err


def test_predict_reads_lone_surrogates_and_the_kelvin_sign(workspace, tmp_path):
    """A transcript whose JSON escapes a lone surrogate and U+212A scores as
    run_pipeline scores it: the surrogate splits words, and the Kelvin sign
    lowercases to "k"."""
    root, run = workspace
    rows = [json.loads(line) for line in
            (root / "corpus" / "transcripts.jsonl").read_text().splitlines()[:3]]
    for row in rows:
        for utterance in row["utterances"][::2]:
            utterance["text"] = "\ud800" + utterance["text"].replace("k", "\u212a") + "\ud800x"
    odd = tmp_path / "odd.jsonl"
    odd.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert "\\ud800" in odd.read_text() and "\\u212a" in odd.read_text()
    scores = tmp_path / "scores.jsonl"
    assert run("predict", "--pipeline", root / "pipe.json", "--transcripts", odd,
               "--out", scores) == 0
    expected = run_pipeline(load_pipeline(root / "pipe.json"), load_transcripts(odd))
    got = load_scores(scores)
    assert got.example_ids == expected.example_ids
    assert np.array_equal(got.scores, expected.scores)
