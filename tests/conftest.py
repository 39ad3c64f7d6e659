import hashlib
from collections import defaultdict
from functools import partial

import pytest

from lambada_lab.clock import US_PER_S, SimLoop, Task
from lambada_lab.substrate import RateLimiter


class AdmissionLog:
    """Admitted request times per rate limiter, recorded from outside it."""

    def __init__(self):
        self.times: dict[RateLimiter, list[int]] = defaultdict(list)

    def peak(self, limiter: RateLimiter) -> int:
        """Largest number of admissions in any 1-second window."""
        times = self.times[limiter]
        best = lo = 0
        for hi in range(len(times)):
            while times[hi] - times[lo] >= US_PER_S:
                lo += 1
            best = max(best, hi - lo + 1)
        return best


@pytest.fixture
def admission_log(monkeypatch) -> AdmissionLog:
    log = AdmissionLog()
    try_admit = RateLimiter.try_admit

    def recording(limiter, now_us):
        admitted = try_admit(limiter, now_us)
        if admitted:
            log.times[limiter].append(now_us)
        return admitted

    monkeypatch.setattr(RateLimiter, "try_admit", recording)
    return log


class Schedule:
    """Every event pushed through `SimLoop.call_at`, in order: its time and
    the task it wakes."""

    def __init__(self):
        self.wakes: list[tuple[int, str]] = []

    def __len__(self) -> int:
        return len(self.wakes)

    def times_digest(self) -> str:
        times = [when for when, _ in self.wakes]
        return hashlib.sha256(repr(times).encode()).hexdigest()

    def wakes_digest(self) -> str:
        return hashlib.sha256(repr(self.wakes).encode()).hexdigest()


def woken(fn) -> str:
    """The task an event wakes: its name, else its generator's qualified
    name; a FaaS admission is named after the worker it admits."""
    if isinstance(fn, partial):
        return "admit " + fn.args[0].name
    assert isinstance(fn, Task), fn
    return fn.name or fn.gen.__qualname__


@pytest.fixture
def scheduled(monkeypatch) -> Schedule:
    schedule = Schedule()
    call_at = SimLoop.call_at

    def recording(loop, when_us, fn):
        schedule.wakes.append((when_us, woken(fn)))
        return call_at(loop, when_us, fn)

    monkeypatch.setattr(SimLoop, "call_at", recording)
    return schedule
