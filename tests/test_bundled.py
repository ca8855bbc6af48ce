"""Bundled reference data: label statistics, task maps, concept lexicon."""

from __future__ import annotations

import numpy as np
import pytest

from clinconv import bundled_lexicon, bundled_task_map, reference_labels
from clinconv.bundled import TASKS


@pytest.mark.parametrize("task", TASKS)
def test_reference_labels_are_frequency_ranked(task):
    reference = reference_labels(task)
    counts = reference.train_counts
    assert np.all(counts[:-1] >= counts[1:])
    assert reference.prevalence.min() > 0.0
    assert reference.prevalence.max() < 1.0
    assert reference.test_size > 0


def test_reference_diagnosis_shape():
    reference = reference_labels("diagnosis")
    assert len(reference.labels) == 15
    assert reference.labels[0] == "hypertension"
    assert reference.test_size == 592


def test_reference_ros_shape():
    reference = reference_labels("ros")
    assert len(reference.labels) == 7
    assert reference.labels[0] == "cardiovascular"


@pytest.mark.parametrize("task", TASKS)
def test_reference_space_and_rank_scores(task):
    reference = reference_labels(task)
    space = reference.space()
    assert space.task == task
    assert space.labels == reference.labels
    scores = reference.rank_scores()
    assert scores.dtype == float
    assert int(np.argmax(scores)) == 0  # most frequent label ranks first


@pytest.mark.parametrize("task", TASKS)
def test_task_maps_route_every_label(task):
    task_map = bundled_task_map(task)
    reference = reference_labels(task)
    assert set(task_map.labels.values()) == set(reference.labels)


def test_task_map_concepts_exist_in_lexicon():
    lexicon = bundled_lexicon()
    for task in TASKS:
        task_map = bundled_task_map(task)
        for cui in task_map.labels:
            assert cui in lexicon.by_cui, cui


def test_ros_task_map_names_symptoms():
    task_map = bundled_task_map("ros")
    assert task_map.symptoms  # every ros concept names its symptom
    assert set(task_map.symptoms) == set(task_map.labels)


def test_unknown_task_rejected():
    from clinconv import ConfigError

    with pytest.raises(ConfigError):
        reference_labels("medications")
    with pytest.raises(ConfigError):
        bundled_task_map("medications")
