"""Self-test of ``harness.py`` on a fake clock.

Importing the harness pins BLAS and puts ``src/`` on ``sys.path`` and
``PYTHONPATH``; the fixture undoes both, so that no later test's
subprocess inherits them.
"""
from __future__ import annotations

import importlib
import json
import math
import os
import sys

import numpy as np  # loaded before the harness, so the pin never reaches this process
import pytest


@pytest.fixture(scope="module")
def harness():
    environ, path = dict(os.environ), list(sys.path)
    try:
        module = importlib.import_module("harness")
        assert {os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")} == {"1"}
        yield module
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path


class FakeClock:
    """A clock that moves only when a fake call spends time on it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def calls(self, durations):
        """A call that takes the next of ``durations`` on this clock and
        returns how many calls came before it."""
        durations, count = iter(durations), [0]

        def call():
            self.now += next(durations)
            count[0] += 1
            return count[0] - 1
        return call


@pytest.fixture
def clock(harness, monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(harness, "clock", fake)
    return fake


def test_blocks_of_one_call_give_median_minimum_and_count(harness, clock):
    call = clock.calls([9.0, 3.0, 1.0, 2.0, 5.0, 4.0])
    timing = harness.time_calls(call, 0.0, 5)
    assert (timing.median_s, timing.min_s, timing.calls) == (3.0, 1.0, 5)


def test_returns_the_warm_up_calls_result(harness, clock):
    assert harness.time_calls(clock.calls([1.0] * 10), 0.0, 3).result == 0


def test_a_block_runs_until_it_has_taken_its_minimum_time(harness, clock):
    # runs of 1, 2 and 4 calls: 1, 3 and then 7 s, the first total >= 5 s
    timing = harness.time_calls(clock.calls([1.0] * 100), 5.0, 3)
    assert (timing.median_s, timing.min_s, timing.calls) == (1.0, 1.0, 21)


def test_the_budget_stops_the_blocks(harness, clock):
    timing = harness.time_calls(clock.calls([1.0] * 100), 0.0, 50, budget_s=3.5)
    assert timing.calls == 4
    slow = harness.time_calls(clock.calls([10.0] * 3), 0.0, 50, budget_s=3.5)
    assert slow.calls == 1


def test_fields_put_the_minimum_beside_the_median(harness, clock):
    row = harness.time_calls(clock.calls([0.0, 2e-3, 1e-3, 4e-3]), 0.0, 3).fields("x_us", 1e6)
    assert list(row) == ["x_us", "x_us_min"]
    assert row["x_us"] == pytest.approx(2e3) and row["x_us_min"] == pytest.approx(1e3)


def test_the_bracket_records_the_mean_kernel_time(harness, clock, monkeypatch):
    # each kernel time is one warm-up call, then one timed call
    monkeypatch.setattr(harness, "reference_kernel", clock.calls([7.0, 2e-3, 7.0, 4e-3]))
    row = harness.bracketed(lambda: {"n": 1})
    assert list(row) == ["n", "kernel_ms"]
    assert row["kernel_ms"] == pytest.approx(3.0)


def test_same_bits(harness):
    a = np.array([0.0, 1.0])
    assert harness.same_bits(a, a.copy())
    assert not harness.same_bits(a, np.array([-0.0, 1.0]))
    assert not harness.same_bits(a, a.astype(np.float32))
    assert not harness.same_bits(np.array([math.nan]), np.array([-math.nan]))


def test_traced_mib_sees_the_peak_and_what_the_result_keeps(harness):
    def call():
        np.ones(1 << 18)            # 2 MiB, freed before the call returns
        return np.ones(1 << 17)     # 1 MiB, kept by the result

    peak, retained = harness.traced_mib(call)
    assert 2.0 <= peak < 3.5
    assert 1.0 <= retained < 1.5


def test_the_writer_names_the_file_by_commit_and_records_the_host(
        harness, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    monkeypatch.setattr(harness, "commit", lambda: "abc1234-dirty")
    harness.write_result("BENCH_test", {"rows": [1, 2]})
    assert capsys.readouterr().out == "wrote BENCH_test_abc1234-dirty.json\n"
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_test_abc1234-dirty.json"]
    doc = json.loads((tmp_path / "BENCH_test_abc1234-dirty.json").read_text())
    assert list(doc) == ["commit", "cpu_count", "numpy", "python", "machine",
                         "blas_threads", "clock", "rows"]
    assert doc["commit"] == "abc1234-dirty" and doc["blas_threads"] == 1
    assert doc["clock"] == "process_time" and doc["rows"] == [1, 2]
