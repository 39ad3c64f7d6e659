"""Tests of the benchmark itself: failed checks are counted, self time is exact.

    python3 -m pytest perfbench
"""

from fractions import Fraction

import pytest

import reference
import run
from layers import Tracer
from lambada_lab import datagen
from workloads import Q6Narrow, Shuffle


class TinyQuery(Q6Narrow):
    """q6-narrow's code path on a table small enough for a unit test."""

    TABLE_BYTES = datagen.ROW_BYTES * 2000
    BASE_FILES = 4
    REPLICAS = 2
    EXTRA_ROWS = 8
    FEWER_FILES = 1


class TinyShuffle(Shuffle):
    """The shuffle's code path on a 4 x 4 grid over 3 buckets."""

    WORKERS = 16
    BUCKETS = 3
    TOTAL_BYTES = 10**6


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_MIN_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)


def measure_once(workload, tracer=None):
    return run.measure(workload, seconds=0, tracer=tracer)


def test_unperturbed_operations_pass():
    for workload in (TinyQuery(1), TinyShuffle(1)):
        m = measure_once(workload)
        assert (m["attempted"], m["failed"]) == (1, 0)


def test_answer_perturbed_by_one_counts_as_failed():
    class Perturbed(TinyQuery):
        def run(self, sim):
            rows, report = super().run(sim)
            rows[0][1][0] += 1
            return rows, report

    m = measure_once(Perturbed(1))
    assert (m["attempted"], m["failed"]) == (1, 1)
    assert m["figures"] == []


def test_shuffle_missing_one_byte_counts_as_failed():
    class LosesAByte(TinyShuffle):
        def run(self, sim):
            final_bytes, trace, makespan_us = super().run(sim)
            final_bytes[0] -= 1
            return final_bytes, trace, makespan_us

    m = measure_once(LosesAByte(1))
    assert (m["attempted"], m["failed"]) == (1, 1)


def test_times_are_scaled_by_the_reference_load_around_them(monkeypatch):
    # a machine at half the nominal speed: every load takes twice as long
    monkeypatch.setattr(reference, "timed_load", lambda: 2 * reference.NOMINAL_S)
    m = measure_once(TinyQuery(3))
    assert m["scaled_host_s"] == pytest.approx([t / 2 for t in m["host_s"]])
    assert m["scaled_setup_s"] == pytest.approx([t / 2 for t in m["setup_s"]])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def busy(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_generators():
    clock = FakeClock()
    tracer = Tracer(clock_fn=clock)

    def inner():
        clock.busy(2.0)
        yield "inner waits"
        clock.busy(3.0)
        return 7

    def outer():
        clock.busy(1.0)
        got = yield from traced_inner()
        clock.busy(4.0)
        yield "outer waits"
        clock.busy(0.5)
        return got

    traced_inner = tracer.traced("inner", inner)
    traced_outer = tracer.traced("outer", outer)

    gen = traced_outer()
    yielded = []
    try:
        while True:
            yielded.append(gen.send(None))
            clock.busy(100.0)  # a virtual wait between resumes: nobody's self time
    except StopIteration as stop:
        result = stop.value

    assert result == 7
    assert yielded == ["inner waits", "outer waits"]
    assert tracer.self_s["inner"] == 5.0
    assert tracer.self_s["outer"] == 5.5
    assert tracer.calls == {"test_self_time_of_nested_generators.<locals>.inner": 1,
                            "test_self_time_of_nested_generators.<locals>.outer": 1}


def test_traced_operation_passes_checks_and_restores_the_program():
    from lambada_lab import engine, scan

    originals = (engine.execute, engine.execute_scan, scan.execute_scan)
    tracer = Tracer().install()
    try:
        m = measure_once(TinyQuery(2), tracer)
    finally:
        tracer.uninstall()
    assert (engine.execute, engine.execute_scan, scan.execute_scan) == originals
    assert (m["attempted"], m["failed"]) == (1, 0)
    [sample] = m["samples"]
    # one row group per file, one file per worker
    assert sample["scan.groups_read"] + sample["scan.groups_pruned"] == 8
    assert sample["substrate.invocations"] == 8
    assert sample["engine.fragment_host_s"] > 0
    assert isinstance(m["figures"][0].usd, Fraction)
