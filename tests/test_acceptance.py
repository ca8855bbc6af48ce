"""Acceptance checks with pinned tolerances.

Each test records one "criterion NN PASS/FAIL" line that the terminal summary
prints after the run (see conftest). A failing check records its line before
the assertion propagates, so the summary always accounts for every criterion.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from clinconv import (
    Concept,
    FitError,
    GenConfig,
    PipelineConfig,
    TrainingError,
    apply_diagnosis_labels,
    apply_ros_labels,
    build_lexicon,
    bundled_lexicon,
    bundled_task_map,
    derive_diagnosis_labels,
    derive_ros_labels,
    entity_baseline_predict,
    fill_to_k,
    generate,
    input_agnostic_row,
    noteworthy_targets,
    prevalence_truth_matrix,
    reference_labels,
    run_pipeline,
    split_pairs,
    threshold_sweep,
    tokenize,
    train_filter,
    train_logistic,
    train_pipeline,
    utterance_probabilities,
)
from clinconv.bundled import bundled_concepts
from clinconv.concepts import parse_concepts
from clinconv.linear import logistic_objective
from clinconv.metrics import auc_scores, cell_accuracy, f1_scores, precision_at_1, rank_auc
from clinconv.pipeline import HashedTokenEncoder, chunk_and_pool, input_agnostic_predict
from conftest import record_criterion
from oracles import (
    all_positive_micro_f1,
    central_difference,
    gd_logistic,
    logistic_value,
    naive_accuracy,
    naive_auc,
    naive_f1,
    naive_p_at_1,
    stable_sigmoid,
)


def criterion(number: int):
    """Record the criterion's summary line around the wrapped check."""

    def decorate(test):
        @functools.wraps(test)
        def wrapper():
            try:
                detail = test()
            except BaseException as exc:
                text = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
                record_criterion(number, False, text[:150])
                raise
            record_criterion(number, True, detail)

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# Criteria 1 and 2: input-agnostic replay rows


REPLAY_EXPECTED = {
    "diagnosis": {
        "accuracy": 0.9189,
        "macro_f1": 0.1414,
        "macro_auc": 0.5000,
        "micro_f1": 0.3109,
        "p_at_1": 0.2027,
    },
    "ros": {
        "accuracy": 0.8677,
        "macro_f1": 0.2235,
        "macro_auc": 0.5000,
        "micro_f1": 0.3453,
        "p_at_1": 0.3040,
    },
}
REPLAY_TOP = {"diagnosis": "hypertension", "ros": "cardiovascular"}


def _replay_detail(task: str) -> str:
    start = time.perf_counter()
    reference = reference_labels(task)
    space = reference.space()
    truth = prevalence_truth_matrix(space, reference.test_size)
    row = input_agnostic_row(space, truth, reference.rank_scores())
    elapsed = time.perf_counter() - start
    worst = 0.0
    for metric, expected in REPLAY_EXPECTED[task].items():
        delta = abs(row[metric] - expected)
        worst = max(worst, delta)
        assert delta <= 5e-4, (
            f"{task} {metric}: got {row[metric]:.6f}, expected {expected} +/- 5e-4"
        )
    top = reference.labels[int(np.argmax(reference.rank_scores()))]
    assert top == REPLAY_TOP[task], f"{task} top-ranked label is {top!r}"
    assert elapsed < 1.0, f"{task} replay took {elapsed:.2f}s"
    return f"{task} replay max |delta| {worst:.1e}, top label {top}, {elapsed * 1000:.0f}ms"


@criterion(1)
def test_criterion_01_diagnosis_replay():
    return _replay_detail("diagnosis")


@criterion(2)
def test_criterion_02_ros_replay():
    return _replay_detail("ros")


# ---------------------------------------------------------------------------
# Criterion 3: micro-AUC of constant rank scores on sampled truth


@criterion(3)
def test_criterion_03_micro_auc_on_sampled_truth():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 5000
    details = []
    for task, target in (("diagnosis", 0.7434), ("ros", 0.7024)):
        reference = reference_labels(task)
        space = reference.space()
        truth = (rng.random((n, len(space.labels))) < space.train_prevalence).astype(
            np.uint8
        )
        scores = input_agnostic_predict(space, "micro_auc", n, reference.rank_scores()).scores
        micro = auc_scores(scores, truth).micro_auc
        assert abs(micro - target) <= 0.02, (
            f"{task} micro-AUC {micro:.4f} not within 0.02 of {target}"
        )
        fast = auc_scores(scores[:200], truth[:200])
        slow = naive_auc(scores[:200], truth[:200])
        gap = max(
            abs(fast.micro_auc - slow["micro_auc"]),
            abs(fast.macro_auc - slow["macro_auc"]),
        )
        assert gap <= 1e-12, f"{task} rank AUC vs pairwise oracle differ by {gap:.2e}"
        details.append(f"{task} {micro:.4f} (target {target}, oracle gap {gap:.1e})")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    return "; ".join(details) + f", {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 4: every metric against naive-loop oracles


@criterion(4)
def test_criterion_04_metrics_match_naive_oracles():
    rng = np.random.default_rng(7)
    worst = 0.0
    cp1_sums_checked = 0
    for _ in range(1000):
        n = int(rng.integers(1, 31))
        n_labels = int(rng.integers(1, 9))
        scores = rng.random((n, n_labels))
        if rng.random() < 0.5:
            scores = np.round(scores * 4) / 4  # force score ties
        truth = rng.integers(0, 2, size=(n, n_labels))
        pred = (scores >= 0.5).astype(np.uint8)

        worst = max(worst, abs(cell_accuracy(pred, truth) - naive_accuracy(pred, truth)))

        rep = f1_scores(pred, truth)
        exp = naive_f1(pred, truth)
        worst = max(
            worst,
            float(np.max(np.abs(rep.precision - np.asarray(exp["precision"])))),
            float(np.max(np.abs(rep.recall - np.asarray(exp["recall"])))),
            float(np.max(np.abs(rep.f1 - np.asarray(exp["f1"])))),
            abs(rep.macro_f1 - exp["macro_f1"]),
            abs(rep.micro_precision - exp["micro_precision"]),
            abs(rep.micro_recall - exp["micro_recall"]),
            abs(rep.micro_f1 - exp["micro_f1"]),
        )

        auc = auc_scores(scores, truth)
        exp_auc = naive_auc(scores, truth)
        assert auc.valid.tolist() == exp_auc["valid"]
        worst = max(
            worst,
            float(np.max(np.abs(auc.auc - np.asarray(exp_auc["auc"])))),
            abs(auc.macro_auc - exp_auc["macro_auc"]),
            abs(auc.micro_auc - exp_auc["micro_auc"]),
        )

        p1 = precision_at_1(scores, truth)
        exp_p1 = naive_p_at_1(scores, truth)
        assert p1.top_counts.tolist() == exp_p1["top_counts"]
        worst = max(
            worst,
            abs(p1.p_at_1 - exp_p1["p_at_1"]),
            abs(p1.max_achievable - exp_p1["max_achievable"]),
            float(np.max(np.abs(p1.contributions - np.asarray(exp_p1["contributions"])))),
        )
        if exp_p1["p_at_1"] > 0:
            worst = max(worst, abs(float(p1.contributions.sum()) - 1.0))
            cp1_sums_checked += 1
    assert worst <= 1e-12, f"worst oracle disagreement {worst:.2e}"
    assert cp1_sums_checked > 100
    return (
        f"1000 instances, max |delta| {worst:.1e}; "
        f"CP@1 summed to 1 on {cp1_sums_checked} instances with a correct top"
    )


# ---------------------------------------------------------------------------
# Criterion 5: trainer objective and gradients against the descent oracle


@criterion(5)
def test_criterion_05_trainer_matches_descent_oracle():
    rng = np.random.default_rng(11)
    worst_gap = 0.0
    worst_grad = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 201))
        dim = int(rng.integers(2, 51))
        X = rng.standard_normal((n, dim))
        w = rng.standard_normal(dim)
        y = (rng.random(n) < stable_sigmoid(X @ w + 0.3)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]

        model = train_logistic(X, y, reg_c=1.0, tol=1e-8)
        value = logistic_objective(model.weights, model.bias, X, y, 1.0)[0]
        _, oracle_value = gd_logistic(X, y, reg_c=1.0, tol=1e-10)
        worst_gap = max(worst_gap, abs(value - oracle_value))

        for _ in range(20):
            theta = rng.standard_normal(dim + 1) * 0.5
            _, grad_w, grad_b = logistic_objective(theta[:dim], theta[dim], X, y, 1.0)
            analytic = np.concatenate([grad_w, [grad_b]])
            numeric = central_difference(lambda t: logistic_value(t, X, y, 1.0), theta)
            rel = float(np.max(np.abs(analytic - numeric))) / max(
                1.0, float(np.max(np.abs(analytic)))
            )
            worst_grad = max(worst_grad, rel)
    assert worst_gap <= 1e-4, f"objective gap {worst_gap:.2e}"
    assert worst_grad <= 1e-5, f"gradient relative error {worst_grad:.2e}"
    return f"50 problems: objective gap <= {worst_gap:.1e}, grad rel err <= {worst_grad:.1e}"


# ---------------------------------------------------------------------------
# Criterion 6: filtering effects on a thousand-example corpus


@criterion(6)
def test_criterion_06_filtering_suite():
    start = time.perf_counter()
    corpus = generate(GenConfig.desk(n_examples=1000), seed=42)
    train_pairs, test_pairs = split_pairs(corpus.pairs(), 0.7)
    train_transcripts = [t for t, _ in train_pairs]
    test_transcripts = [t for t, _ in test_pairs]

    diag = derive_diagnosis_labels(train_pairs)
    ros = derive_ros_labels(train_pairs)
    tasks = {
        "diagnosis": (
            diag.matrix,
            apply_diagnosis_labels(test_pairs, diag.space, diag.merge_map),
            diag.space.labels,
            diag.merge_map,
        ),
        "ros": (ros.matrix, apply_ros_labels(test_pairs, ros.space), ros.space.labels, None),
    }

    details = []
    for task, (train_matrix, test_matrix, labels, merge_map) in tasks.items():
        config = PipelineConfig(task=task)
        oracle_train = {
            t.id: np.flatnonzero(noteworthy_targets(t, note, task, labels, merge_map)).tolist()
            for t, note in train_pairs
        }
        oracle_test = {
            t.id: np.flatnonzero(noteworthy_targets(t, note, task, labels, merge_map)).tolist()
            for t, note in test_pairs
        }

        plain = train_pipeline(config, train_transcripts, train_matrix)
        plain_scores = run_pipeline(plain, test_transcripts)
        oracle = train_pipeline(
            config, train_transcripts, train_matrix, indices_override=oracle_train
        )
        oracle_scores = run_pipeline(oracle, test_transcripts, indices_override=oracle_test)

        plain_f1 = f1_scores(
            (plain_scores.scores >= 0.5).astype(np.uint8), test_matrix.values
        ).micro_f1
        oracle_f1 = f1_scores(
            (oracle_scores.scores >= 0.5).astype(np.uint8), test_matrix.values
        ).micro_f1
        assert oracle_f1 >= plain_f1, (
            f"{task}: oracle filtering micro-F1 {oracle_f1:.4f} < unfiltered {plain_f1:.4f}"
        )
        details.append(f"{task} oracle {oracle_f1:.3f} >= unfiltered {plain_f1:.3f}")

        full_train = {t.id: list(range(len(t.utterances))) for t in train_transcripts}
        full_test = {t.id: list(range(len(t.utterances))) for t in test_transcripts}
        override = train_pipeline(
            config, train_transcripts, train_matrix, indices_override=full_train
        )
        override_scores = run_pipeline(override, test_transcripts, indices_override=full_test)
        assert np.array_equal(plain_scores.scores, override_scores.scores), (
            f"{task}: strategy none differs from explicit full-index selection"
        )

    fm = train_filter(train_pairs, "all")
    probabilities = np.concatenate(
        [utterance_probabilities(fm, t) for t, _ in test_pairs]
    )
    flags = np.concatenate([noteworthy_targets(t, note, "all") for t, note in test_pairs])
    auc, had_both = rank_auc(probabilities, flags)
    assert had_both and auc >= 0.90, f"held-out filter AUC {auc:.4f} < 0.90"
    details.append(f"filter AUC {auc:.4f}")

    frng = np.random.default_rng(6)
    for _ in range(10_000):
        size = int(frng.integers(1, 41))
        probs = np.round(frng.random(size), 2)  # rounding forces ties
        base = np.flatnonzero(frng.random(size) < 0.2).tolist()
        k = int(frng.integers(1, 46))
        out = fill_to_k(base, probs, k)
        assert out == sorted(set(out))
        assert set(base) <= set(out)
        assert len(out) == max(len(set(base)), min(k, size))
        others = [i for i in range(size) if i not in set(base)]
        order = sorted(others, key=lambda i: (-probs[i], i))
        expected = sorted(set(base) | set(order[: max(0, min(k, size) - len(base))]))
        assert out == expected
    details.append("fill-to-K invariants held on 10000 draws")

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.0f}s"
    return "; ".join(details) + f", {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# Criterion 7: entity baseline exactness and the paraphrase control


@criterion(7)
def test_criterion_07_entity_baseline_exactness():
    lexicon = bundled_lexicon()
    task_setups = [
        ("diagnosis", bundled_task_map("diagnosis")),
        ("ros", bundled_task_map("ros")),
    ]

    def truth_matrix(corpus, label_list, attribute):
        values = np.zeros((len(corpus.truths), len(label_list)), dtype=np.uint8)
        for i, truth in enumerate(corpus.truths):
            for name in getattr(truth, attribute):
                values[i, label_list.index(name)] = 1
        return values

    explicit = generate(
        GenConfig.desk(n_examples=40, explicit_mention_prob=1.0, distractor_mean=0.0),
        seed=5,
    )
    details = []
    for attribute, task_map in task_setups:
        label_list = list(dict.fromkeys(task_map.labels.values()))
        truth = truth_matrix(explicit, label_list, attribute)
        assert truth.sum() > 0
        pred = entity_baseline_predict(lexicon, task_map, explicit.transcripts, label_list)
        rep = f1_scores(pred, truth)
        assert rep.micro_precision == 1.0 and rep.micro_recall == 1.0, (
            f"{attribute}: P={rep.micro_precision:.4f} R={rep.micro_recall:.4f}"
        )
        assert np.array_equal(pred, truth)
        details.append(f"{attribute} P=R=1 over {int(truth.sum())} positives")

    # Control: speech uses only paraphrases that embed no canonical phrase,
    # while the matching table knows only canonicals, so nothing can match.
    concepts = parse_concepts(bundled_concepts())
    canonical_sequences = [tuple(tokenize(c.canonical)) for c in concepts]

    def embeds_canonical(phrase: str) -> bool:
        tokens = tuple(tokenize(phrase))
        return any(
            tokens[i : i + len(seq)] == seq
            for seq in canonical_sequences
            for i in range(len(tokens) - len(seq) + 1)
        )

    clean_paraphrases = build_lexicon(
        [
            Concept(
                c.cui,
                c.canonical,
                [s for s in c.synonyms if s != c.canonical and not embeds_canonical(s)],
            )
            for c in concepts
        ]
    )
    control = generate(
        GenConfig.desk(
            n_examples=40,
            explicit_mention_prob=1.0,
            distractor_mean=0.0,
            paraphrase_prob=1.0,
        ),
        seed=6,
        lexicon=clean_paraphrases,
    )
    canonical_only = build_lexicon([Concept(c.cui, c.canonical, []) for c in concepts])
    for attribute, task_map in task_setups:
        label_list = list(dict.fromkeys(task_map.labels.values()))
        truth = truth_matrix(control, label_list, attribute)
        assert truth.sum() > 0
        pred = entity_baseline_predict(
            canonical_only, task_map, control.transcripts, label_list
        )
        assert pred.sum() == 0
        assert f1_scores(pred, truth).micro_recall == 0.0
    details.append("paraphrase-only mentions vs synonym-free table: recall 0")
    return "; ".join(details)


# ---------------------------------------------------------------------------
# Criterion 8: chunked pooling against a hand computation


@criterion(8)
def test_criterion_08_chunk_and_pool_hand_check():
    encoder = HashedTokenEncoder(dim=12, seed=3)
    tokens = [f"tok{i}" for i in range(3000)]
    pooled = chunk_and_pool(tokens, encoder, chunk_size=512, token_cap=2040)

    capped = tokens[:2040]
    bounds = [(0, 512), (512, 1024), (1024, 1536), (1536, 2040)]
    chunks = [capped[a:b] for a, b in bounds]
    assert [len(c) for c in chunks] == [512, 512, 512, 504]
    hand = np.mean([encoder.encode(c) for c in chunks], axis=0)
    gap = float(np.max(np.abs(pooled - hand)))
    assert gap <= 1e-12, f"pooled vs hand-computed chunk mean differ by {gap:.2e}"

    # Mean of four chunk means with a short last chunk is not the flat token
    # mean, so this distinguishes real chunking from a single-pass encoder.
    flat = encoder.encode(capped)
    assert float(np.max(np.abs(pooled - flat))) > 1e-6

    short = tokens[:300]
    assert np.array_equal(chunk_and_pool(short, encoder, 512, 2040), encoder.encode(short))
    return f"chunks (512,512,512,504), hand-pool gap {gap:.1e}, single chunk exact"


# ---------------------------------------------------------------------------
# Criterion 9: the threshold sweep peaks strictly inside the grid


@criterion(9)
def test_criterion_09_sweep_peaks_at_interior_threshold():
    corpus = generate(GenConfig.desk(n_examples=240), seed=21)
    train_pairs, test_pairs = split_pairs(corpus.pairs(), 0.7)
    train_transcripts = [t for t, _ in train_pairs]
    test_transcripts = [t for t, _ in test_pairs]
    diag = derive_diagnosis_labels(train_pairs)
    test_matrix = apply_diagnosis_labels(test_pairs, diag.space, diag.merge_map)
    fm = train_filter(train_pairs, "all")
    config = PipelineConfig(task="diagnosis")
    n_train = len(train_transcripts)

    def evaluate(selected):
        train_ov = {t.id: selected[i] for i, t in enumerate(train_transcripts)}
        test_ov = {t.id: selected[n_train + i] for i, t in enumerate(test_transcripts)}
        try:
            pipe = train_pipeline(
                config, train_transcripts, diag.matrix, indices_override=train_ov
            )
            scores = run_pipeline(pipe, test_transcripts, indices_override=test_ov)
        except (FitError, TrainingError):
            # A threshold that strands the trainer without features scores 0.
            return {"micro_f1": 0.0}
        pred = (scores.scores >= 0.5).astype(np.uint8)
        return {"micro_f1": f1_scores(pred, test_matrix.values).micro_f1}

    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    points = threshold_sweep(fm, train_transcripts + test_transcripts, evaluate, grid)
    values = [p.metrics["micro_f1"] for p in points]
    best = int(np.argmax(values))
    assert 0 < best < len(points) - 1, f"sweep peaked at an endpoint: {values}"
    assert values[best] > values[0] and values[best] > values[-1], f"flat sweep: {values}"
    return (
        f"best micro-F1 {values[best]:.3f} at threshold {points[best].threshold:g}; "
        f"select-all {values[0]:.3f}, select-none {values[-1]:.3f}"
    )


# ---------------------------------------------------------------------------
# Criterion 10: the all-positive predictor's closed form


@criterion(10)
def test_criterion_10_all_positive_micro_f1_closed_form():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        n_labels = int(rng.integers(1, 13))
        n = int(rng.integers(5, 201))
        counts = rng.integers(0, n + 1, size=n_labels)
        prevalence = counts / n
        truth = np.zeros((n, n_labels), dtype=np.uint8)
        for j, count in enumerate(counts):
            truth[:count, j] = 1
        micro = f1_scores(np.ones_like(truth), truth).micro_f1
        worst = max(worst, abs(micro - all_positive_micro_f1(prevalence)))
    assert worst <= 1e-12, f"closed form disagrees by {worst:.2e}"
    return f"100 prevalence vectors, max |delta| {worst:.1e}"
