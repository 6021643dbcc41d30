"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest


class PoolRecord:
    """What the in-process pool stand-in was asked for.

    `sizes` holds the `max_workers` of each pool started and `inputs` the
    `label` of each item given to `map`, in submission order; `label`
    keeps the whole item unless a test sets it.
    """

    def __init__(self):
        self.sizes = []
        self.inputs = []
        self.label = lambda item: item


@pytest.fixture
def in_process_pool(monkeypatch):
    """Swap the process pool (fit's or the trajectory exporter's) for a stand-in whose `map` runs here, in order.

    Returns the stand-in's `PoolRecord`.
    """
    record = PoolRecord()

    class InProcessPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            calls = list(zip(*iterables))
            record.inputs.extend(record.label(args[0]) for args in calls)
            return (fn(*args) for args in calls)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return record
