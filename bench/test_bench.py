"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench/test_bench.py

Each output check must accept a correct output and reject a corrupted one.
"""

from __future__ import annotations

import itertools
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from checks import (  # noqa: E402
    check_auc_agrees,
    check_better_than_chance,
    check_close,
    check_identical,
    check_rows_vary,
    check_scores,
    check_selection,
    macro_auc,
    pairwise_auc,
)
from clinconv.metrics import auc_scores  # noqa: E402
from layertrace import Tracer  # noqa: E402
from workloads import planted_matrix, read_scores  # noqa: E402


def brute_auc(scores, truth):
    pos = [s for s, t in zip(scores, truth) if t == 1]
    neg = [s for s, t in zip(scores, truth) if t == 0]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


@pytest.fixture
def outputs():
    rng = np.random.default_rng(3)
    truth = (rng.random((60, 4)) < 0.3).astype(np.uint8)
    scores = np.clip(0.6 * truth + 0.5 * rng.random((60, 4)), 0.0, 1.0)
    ids = [f"v{i}" for i in range(60)]
    labels = ("a", "b", "c", "d")
    return ids, labels, scores, truth


def test_pairwise_auc_counts_pairs_and_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, 40) / 4.0  # many ties
    truth = rng.integers(0, 2, 40)
    assert pairwise_auc(scores, truth) == pytest.approx(brute_auc(scores, truth), abs=1e-15)
    assert pairwise_auc(scores, np.zeros(40)) is None


def test_macro_auc_agrees_with_package(outputs):
    _, _, scores, truth = outputs
    truth[:, 3] = 0  # a column without positives is left out by both
    own = macro_auc(scores, truth)
    assert check_auc_agrees(own, auc_scores(scores, truth).macro_auc) == []
    assert check_auc_agrees(own, own + 1e-9) != []


def test_check_scores_accepts_valid_output(outputs):
    ids, labels, scores, _ = outputs
    assert check_scores(ids, labels, scores, ids, labels) == []


@pytest.mark.parametrize("value", [1.5, -0.1, np.nan, np.inf])
def test_check_scores_rejects_out_of_range(outputs, value):
    ids, labels, scores, _ = outputs
    scores = scores.copy()
    scores[5, 2] = value
    assert check_scores(ids, labels, scores, ids, labels) != []


def test_check_scores_rejects_reordered_ids_and_labels(outputs):
    ids, labels, scores, _ = outputs
    swapped = [ids[1], ids[0], *ids[2:]]
    assert check_scores(swapped, labels, scores, ids, labels) != []
    permuted = (labels[1], labels[0], *labels[2:])
    assert check_scores(ids, permuted, scores, ids, labels) != []
    assert check_scores(ids, labels, scores[:-1], ids, labels) != []


def test_visit_row_check_rejects_swapped_row(outputs):
    _, _, scores, _ = outputs
    assert check_close(scores[3:4] + 1e-13, scores[3:4], "row") == []
    assert check_close(scores[4:5], scores[3:4], "row") != []
    assert check_close(np.full((1, 4), np.nan), scores[3:4], "row") != []


def test_round_trip_check_rejects_permuted_column_and_swapped_row(outputs):
    _, _, scores, _ = outputs
    assert check_close(scores[:, [1, 0, 2, 3]], scores, "predict") != []
    assert check_close(scores[[1, 0, *range(2, 60)]], scores, "predict") != []


def test_determinism_check_is_bit_exact(outputs):
    _, _, scores, _ = outputs
    assert check_identical(scores.copy(), scores, "scores") == []
    nudged = scores.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], 2.0)
    assert check_identical(nudged, scores, "scores") != []


def test_chance_check_rejects_input_agnostic_and_permuted_labels():
    truth = np.eye(4, dtype=np.uint8)[np.arange(40) % 4]  # one label per visit
    scores = 0.2 + 0.6 * truth
    assert check_better_than_chance(macro_auc(scores, truth)) == []
    assert check_better_than_chance(macro_auc(np.full_like(scores, 0.3), truth)) != []
    assert check_better_than_chance(macro_auc(scores[:, [1, 2, 3, 0]], truth)) != []
    assert check_better_than_chance(float("nan")) != []


def test_rows_vary_check_rejects_input_agnostic_scores(outputs):
    _, _, scores, _ = outputs
    assert check_rows_vary(scores) == []
    assert check_rows_vary(np.tile(scores[7], (60, 1))) != []  # same row for every visit
    assert check_rows_vary(scores[:1]) != []


def test_selection_check():
    assert check_selection([0, 3, 9], 10, 3) == []
    assert check_selection([0, 3], 10, 3) != []  # short of K
    assert check_selection([0, 1], 2, 15) == []  # K capped by the transcript
    assert check_selection([3, 0, 9], 10, None) != []
    assert check_selection([0, 3, 3], 10, None) != []
    assert check_selection([0, 10], 10, None) != []


def test_read_scores_keeps_file_order(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"id":"b","scores":{"x":0.25,"y":1.0}}\n\n{"id":"a","scores":{"y":0.5,"x":0.0}}\n')
    ids, labels, scores = read_scores(str(path))
    assert ids == ["b", "a"] and labels == ("x", "y")
    assert scores.tolist() == [[0.25, 1.0], [0.0, 0.5]]


def test_planted_matrix_follows_label_order():
    truths = [types.SimpleNamespace(diagnosis=["b"], ros=[]),
              types.SimpleNamespace(diagnosis=["a", "c"], ros=["x"])]
    assert planted_matrix(truths, "diagnosis", ("a", "b")).tolist() == [[0, 1], [1, 0]]
    assert planted_matrix(truths, "ros", ("x",)).tolist() == [[0], [1]]


def _fake_package(monkeypatch):
    """A package with one traced name; every other target is absent."""
    package = types.ModuleType("fakepkg")
    features = types.ModuleType("fakepkg.features")
    user = types.ModuleType("fakepkg.user")

    def tokenize(text):
        time.sleep(0.002)
        return text.split()

    features.tokenize = tokenize
    user.tokenize = tokenize  # imported by name, as the package does
    user.run = lambda text: [user.tokenize(part) for part in text.split(",")]
    for name, module in (("fakepkg", package), ("fakepkg.features", features), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return features, user


def test_tracer_wraps_every_lookup_site_and_reports_absent_names(monkeypatch):
    features, user = _fake_package(monkeypatch)
    original = features.tokenize
    tracer = Tracer("fakepkg")
    tracer.install()
    assert features.tokenize is not original and user.tokenize is not original
    assert "synth.generate" in tracer.absent and "cli.main" in tracer.absent
    assert "features.tokenize" not in tracer.absent
    tracer.phase = "visit"
    result = tracer.call("bench.visit", user.run, "a b,c")
    tracer.uninstall()
    assert features.tokenize is original and user.tokenize is original
    assert result == [["a", "b"], ["c"]]
    assert [tracer.names[i] for i in tracer.span_name] == [
        "bench.visit", "features.tokenize", "features.tokenize"
    ]
    assert list(tracer.span_parent) == [-1, 0, 0]


def test_self_time_subtracts_children_and_skips_checks(monkeypatch):
    features, user = _fake_package(monkeypatch)
    tracer = Tracer("fakepkg")
    tracer.install()
    tracer.call("bench.visit", user.run, "a,b,c")
    tracer.call("bench.check", user.run, "a,b")
    tracer.uninstall()
    selfs = tracer.self_times_ns()
    whole = tracer.span_end[0] - tracer.span_start[0]
    children = sum(tracer.span_end[i] - tracer.span_start[i] for i in (1, 2, 3))
    assert selfs["bench.visit"] == whole - children
    assert selfs["features.tokenize"] == children  # the two under bench.check are left out
    assert "bench.check" not in selfs
    assert tracer.layer_ms()["features.tokenize_ms"] == pytest.approx(children / 1e6)
