from collections import defaultdict

import pytest

from lambada_lab.clock import US_PER_S
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
