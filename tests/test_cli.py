"""Command-line interface: full chain, exit codes, and run manifests."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from clinconv import load_indices, load_label_matrix, load_scores
from clinconv.cli import main

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
    selections = load_indices(out)
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


def test_sweep_writes_sorted_points(workspace, tmp_path):
    root, run = workspace
    out = tmp_path / "sweep.json"
    corpus = root / "corpus" / "transcripts.jsonl"
    assert run("sweep", "--train-transcripts", corpus, "--train-labels", root / "diag.jsonl",
               "--test-transcripts", corpus, "--test-labels", root / "diag.jsonl",
               "--filter", root / "filter.json", "--grid", "0.6,0.2,1.0",
               "--min-df", "1", "--out", out) == 0
    record = json.loads(out.read_text())
    thresholds = [p["threshold"] for p in record["points"]]
    assert thresholds == sorted(thresholds) == [0.2, 0.6, 1.0]
    assert record["points"][-1]["trained"] is False  # threshold 1 selects nothing
    assert all(v == 0.0 for v in record["points"][-1]["metrics"].values())
    assert record["best_threshold"] in thresholds


def test_sweep_rejects_grid_outside_unit_interval(workspace, tmp_path, capsys):
    root, run = workspace
    out = tmp_path / "sweep.json"
    corpus = root / "corpus" / "transcripts.jsonl"
    assert run("sweep", "--train-transcripts", corpus, "--train-labels", root / "diag.jsonl",
               "--test-transcripts", corpus, "--test-labels", root / "diag.jsonl",
               "--filter", root / "filter.json", "--grid", "0.2,1.5",
               "--min-df", "1", "--out", out) == 2
    assert "1.5 outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


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
