"""The case-study model's float accuracy is evaluated on demand.

A model-cache load must not run the float network over the test split:
campaign, sweep and fleet processes never read the value, and the float
forward dominated their set-up time and peak memory.
"""

import pytest

from repro import zoo
from repro.nn.train import evaluate_accuracy
from repro.zoo import CaseStudySpec, train_case_study_model


@pytest.fixture
def counted_evaluations(monkeypatch):
    calls = []
    monkeypatch.setattr(
        zoo, "evaluate_accuracy", lambda *a, **k: calls.append(1) or evaluate_accuracy(*a, **k)
    )
    return calls


def test_cache_load_defers_float_accuracy(tmp_path, counted_evaluations):
    spec = CaseStudySpec(width_multiplier=0.125, num_train=80, num_test=20, epochs=1, seed=11)
    trained = train_case_study_model(spec, cache_dir=tmp_path)
    # The training path keeps the accuracy it computed after fitting.
    assert len(counted_evaluations) == 1
    eager = trained.float_accuracy
    assert len(counted_evaluations) == 1

    counted_evaluations.clear()
    loaded = train_case_study_model(spec, cache_dir=tmp_path)
    assert counted_evaluations == []
    first = loaded.float_accuracy
    assert len(counted_evaluations) == 1
    assert loaded.float_accuracy == first
    assert len(counted_evaluations) == 1
    assert first == eager
    assert first == evaluate_accuracy(
        loaded.graph, loaded.dataset.test_images, loaded.dataset.test_labels
    )
