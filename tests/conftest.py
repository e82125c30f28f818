from __future__ import annotations

import pytest

from timeclaw.core import SealedAnswer, TaskInstance, TaskType
from timeclaw.corpus import FamilySpec, generate_sample
from timeclaw.toolkit import builtin_toolkit


@pytest.fixture
def toolkit():
    return builtin_toolkit()


@pytest.fixture
def forecast_instance():
    return TaskInstance(
        id="t1",
        series=tuple(float(v) for v in range(1, 13)),
        task_type=TaskType.FORECAST,
        horizon=3,
        scope="synth_forecast_short",
        ground_truth=SealedAnswer([13.0, 14.0, 15.0]),
    )


@pytest.fixture
def trend_instance():
    return TaskInstance(
        id="t2",
        series=(5.0, 5.1, 4.9, 5.0, 5.2, 5.0, 4.8, 5.1),
        task_type=TaskType.TREND,
        horizon=2,
        scope="synth_trend_short",
        label_space=("decreasing", "increasing", "stable"),
        ground_truth=SealedAnswer("stable"),
    )


@pytest.fixture
def seasonal_family():
    return FamilySpec(
        name="seasonal",
        kind="seasonal",
        learn_count=4,
        eval_count=2,
        length=96,
        horizon=24,
        period=24,
    )


@pytest.fixture
def seasonal_instance(seasonal_family):
    instance, _source, _future = generate_sample(seasonal_family, "learning", 0, seed=11)
    return instance
