"""Metric implementations against naive-loop oracles and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clinconv import ValidationError, evaluate_matrix
from clinconv.metrics import (
    auc_scores,
    binarize,
    cell_accuracy,
    f1_scores,
    markdown_table,
    midranks,
    precision_at_1,
    rank_auc,
)
from oracles import naive_accuracy, naive_auc, naive_f1, naive_p_at_1

TOL = 1e-12


def random_instance(rng, max_n=30, max_labels=8):
    n = int(rng.integers(1, max_n + 1))
    n_labels = int(rng.integers(1, max_labels + 1))
    scores = rng.random((n, n_labels))
    if rng.random() < 0.5:
        scores = np.round(scores * 4) / 4  # force score ties
    truth = rng.integers(0, 2, size=(n, n_labels))
    return scores, truth


def test_accuracy_matches_oracle(rng):
    for _ in range(50):
        scores, truth = random_instance(rng)
        pred = binarize(scores)
        assert abs(cell_accuracy(pred, truth) - naive_accuracy(pred, truth)) <= TOL


def test_f1_matches_oracle(rng):
    for _ in range(50):
        scores, truth = random_instance(rng)
        pred = binarize(scores)
        report = f1_scores(pred, truth)
        expected = naive_f1(pred, truth)
        np.testing.assert_allclose(report.precision, expected["precision"], atol=TOL)
        np.testing.assert_allclose(report.recall, expected["recall"], atol=TOL)
        np.testing.assert_allclose(report.f1, expected["f1"], atol=TOL)
        assert abs(report.macro_f1 - expected["macro_f1"]) <= TOL
        assert abs(report.micro_f1 - expected["micro_f1"]) <= TOL


def test_auc_matches_pairwise_oracle(rng):
    for _ in range(50):
        scores, truth = random_instance(rng)
        report = auc_scores(scores, truth)
        expected = naive_auc(scores, truth)
        np.testing.assert_allclose(report.auc, expected["auc"], atol=TOL)
        assert report.valid.tolist() == expected["valid"]
        assert abs(report.macro_auc - expected["macro_auc"]) <= TOL
        assert abs(report.micro_auc - expected["micro_auc"]) <= TOL


def test_p_at_1_matches_oracle(rng):
    for _ in range(50):
        scores, truth = random_instance(rng)
        report = precision_at_1(scores, truth)
        expected = naive_p_at_1(scores, truth)
        assert abs(report.p_at_1 - expected["p_at_1"]) <= TOL
        assert abs(report.max_achievable - expected["max_achievable"]) <= TOL
        np.testing.assert_allclose(
            report.contributions, expected["contributions"], atol=TOL
        )
        assert report.top_counts.tolist() == expected["top_counts"]


def test_degenerate_auc_column_is_half_and_flagged():
    scores = np.array([[0.9], [0.1], [0.4]])
    for constant in (0, 1):
        truth = np.full((3, 1), constant)
        auc, valid = rank_auc(scores[:, 0], truth[:, 0])
        assert auc == 0.5 and not valid


# Few distinct values, so most vectors hold ties; -0.0 ties with 0.0.
tie_heavy = st.lists(
    st.sampled_from([-1e300, -2.5, -0.0, 0.0, 0.25, 1.0, 1e-300, 7.0]), min_size=1, max_size=60
)
any_finite = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60)


@given(st.one_of(tie_heavy, any_finite))
@settings(max_examples=400, deadline=None)
def test_midranks_equal_scipy_rankdata(values):
    from scipy.stats import rankdata

    values = np.array(values)
    assert np.array_equal(midranks(values), rankdata(values))


@pytest.mark.parametrize("values", [[0.3], [0.5] * 9, [2.0, 2.0], [-0.0, 0.0, -0.0]])
def test_midranks_of_one_value_and_of_all_equal_values(values):
    from scipy.stats import rankdata

    values = np.array(values)
    assert np.array_equal(midranks(values), rankdata(values))
    assert np.array_equal(midranks(values), np.full(len(values), (len(values) + 1) / 2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rank_auc_rejects_non_finite_scores(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        rank_auc(np.array([0.2, bad, 0.5]), np.array([0, 1, 1]))
    with pytest.raises(ValidationError, match="non-finite"):
        rank_auc(np.array([0.2, bad]), np.array([1, 1]))


def test_macro_auc_skips_degenerate_labels():
    scores = np.array([[0.9, 0.2], [0.1, 0.7], [0.8, 0.5]])
    truth = np.array([[1, 0], [0, 0], [1, 0]])  # second label never positive
    report = auc_scores(scores, truth)
    assert report.valid.tolist() == [True, False]
    assert report.macro_auc == pytest.approx(report.auc[0], abs=TOL)


def test_p_at_1_ties_break_to_lowest_index():
    scores = np.array([[0.5, 0.5, 0.5]])
    truth = np.array([[0, 1, 1]])
    assert precision_at_1(scores, truth).p_at_1 == 0.0


def test_perfect_ranking_has_unit_auc():
    scores = np.array([[0.9], [0.8], [0.2], [0.1]])
    truth = np.array([[1], [1], [0], [0]])
    auc, valid = rank_auc(scores[:, 0], truth[:, 0])
    assert valid and auc == 1.0


def test_evaluate_matrix_shapes_and_degenerates(rng):
    scores, truth = random_instance(rng, max_n=20, max_labels=5)
    labels = [f"label{j}" for j in range(scores.shape[1])]
    report = evaluate_matrix(scores, truth, labels, threshold=0.5, task="demo")
    assert set(report.per_label) == set(labels)
    assert report.n_examples == scores.shape[0]
    for label in report.degenerate_labels:
        column = truth[:, labels.index(label)]
        assert column.min() == column.max()
    parsed_keys = {"accuracy", "macro_f1", "micro_f1", "macro_auc", "micro_auc",
                   "p_at_1", "max_p_at_1"}
    assert set(report.aggregate) == parsed_keys


def test_evaluate_matrix_rejects_label_count_mismatch():
    with pytest.raises(ValidationError):
        evaluate_matrix(np.zeros((2, 3)), np.zeros((2, 3)), ["a", "b"])


def test_non_binary_truth_rejected():
    with pytest.raises(ValidationError):
        f1_scores(np.ones((1, 1)), np.array([[2]]))


def test_non_finite_scores_rejected():
    with pytest.raises(ValidationError):
        auc_scores(np.array([[np.nan]]), np.array([[1]]))


def test_markdown_table_renders_missing_cells_as_dash():
    table = markdown_table({"a": {"x": 1.0}}, ["x", "y"])
    row = table.splitlines()[-1]
    assert row == "| a | 1.0000 | - |"


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_auc_invariant_under_monotone_transform(n, n_labels, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random((n, n_labels))
    truth = rng.integers(0, 2, size=(n, n_labels))
    base = auc_scores(scores, truth)
    warped = auc_scores(np.exp(3.0 * scores), truth)
    np.testing.assert_allclose(base.auc, warped.auc, atol=1e-9)
    assert abs(base.micro_auc - warped.micro_auc) <= 1e-9


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_metrics_follow_label_permutation(n, n_labels, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random((n, n_labels))
    truth = rng.integers(0, 2, size=(n, n_labels))
    perm = rng.permutation(n_labels)
    base = evaluate_matrix(scores, truth, [str(j) for j in range(n_labels)])
    moved = evaluate_matrix(
        scores[:, perm], truth[:, perm], [str(j) for j in perm]
    )
    for key in ("accuracy", "macro_f1", "micro_f1", "macro_auc", "micro_auc", "p_at_1"):
        assert base.aggregate[key] == pytest.approx(moved.aggregate[key], abs=1e-12)
    for j in range(n_labels):
        assert base.per_label[str(j)] == pytest.approx(moved.per_label[str(j)])


@given(
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_cp_at_1_sums_to_one_when_any_hit(n, n_labels, seed):
    rng = np.random.default_rng(seed)
    scores = rng.random((n, n_labels))
    truth = rng.integers(0, 2, size=(n, n_labels))
    report = precision_at_1(scores, truth)
    total = float(np.sum(report.contributions))
    if report.p_at_1 > 0:
        assert total == pytest.approx(1.0, abs=1e-12)
    else:
        assert total == 0.0
