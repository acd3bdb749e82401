"""Each task builds an eval set once and shares it read-only."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.data import ImageTask, SpeechTask, TranslationTask

TASKS = (TranslationTask, SpeechTask, ImageTask)


def _fields(batch):
    return {f.name: getattr(batch, f.name) for f in dataclasses.fields(batch)}


@pytest.mark.parametrize("task_type", TASKS)
def test_repeated_calls_share_one_frozen_batch(task_type):
    task = task_type(seed=4)
    batch = task.eval_set(12)
    assert task.eval_set(12) is batch
    assert task.eval_set(12, seed_offset=10_000) is batch
    assert task.eval_set(13) is not batch
    assert task.eval_set(12, seed_offset=7) is not batch

    fresh = task_type(seed=4).eval_set(12)
    assert fresh is not batch
    for name, value in _fields(batch).items():
        other = getattr(fresh, name)
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(value, other)
            assert value.dtype == other.dtype
            with pytest.raises(ValueError):
                value.flat[0] = value.flat[-1]
        else:
            assert value == other
            with pytest.raises(TypeError):
                value[0] = value[-1]


@pytest.mark.parametrize("task_type", TASKS)
def test_the_seed_is_part_of_the_key(task_type):
    task = task_type(seed=4)
    batch = task.eval_set(12)
    task.seed = 5
    assert task.eval_set(12) is not batch
    task.seed = 4
    assert task.eval_set(12) is batch


def test_concurrent_first_calls_share_one_batch():
    """Threads racing on a cold key all get the batch that landed."""
    task = ImageTask(seed=6)
    got, errors = [], []
    start = threading.Barrier(4)

    def worker():
        try:
            start.wait(10)
            got.append(task.eval_set(64))
        except Exception as error:   # reported below, not swallowed
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(got) == 4
    assert all(batch is task.eval_set(64) for batch in got)
