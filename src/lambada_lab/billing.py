"""Usage-based billing: request counters, worker GiB-seconds, exact totals.

All money is held as :class:`fractions.Fraction` so the ledger total is
recomputable from the raw counters without rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .config import SimConfig
from .clock import US_PER_S

READ = "read"
WRITE = "write"
LIST = "list"

MILLION = 1_000_000


def request_price(cfg: SimConfig, category: str) -> Fraction:
    """USD for one request of `category`."""
    per_million = {
        READ: cfg.read_req_usd_per_million,
        WRITE: cfg.write_req_usd_per_million,
        LIST: cfg.list_req_usd_per_million,
    }[category]
    return per_million / MILLION


def worker_rate(cfg: SimConfig, memory_mib: int) -> Fraction:
    """USD per second for a worker of the given size."""
    return cfg.worker_usd_per_gib_second * Fraction(memory_mib, 1024)


@dataclass
class BillingLedger:
    """Per-category usage counters; totals are derived, never accumulated.

    Every charge to a ledger with a `parent` is charged to the parent too.
    """

    cfg: SimConfig
    parent: "BillingLedger | None" = field(default=None, repr=False, compare=False)
    request_counts: dict = field(default_factory=dict)  # (category, bucket) -> int
    worker_us: dict = field(default_factory=dict)  # memory_mib -> total virtual us
    throttle_events: int = 0

    def charge_request(self, category: str, bucket: str) -> None:
        key = (category, bucket)
        self.request_counts[key] = self.request_counts.get(key, 0) + 1
        if self.parent is not None:
            self.parent.charge_request(category, bucket)

    def charge_worker(self, memory_mib: int, duration_us: int) -> None:
        self.worker_us[memory_mib] = self.worker_us.get(memory_mib, 0) + duration_us
        if self.parent is not None:
            self.parent.charge_worker(memory_mib, duration_us)

    def record_throttle(self) -> None:
        self.throttle_events += 1
        if self.parent is not None:
            self.parent.record_throttle()

    def count(self, category: str) -> int:
        return sum(n for (cat, _), n in self.request_counts.items() if cat == category)

    @property
    def request_usd(self) -> Fraction:
        return sum(self.count(cat) * request_price(self.cfg, cat) for cat in (READ, WRITE, LIST))

    @property
    def worker_usd(self) -> Fraction:
        total = Fraction(0)
        for memory_mib, us in self.worker_us.items():
            total += worker_rate(self.cfg, memory_mib) * Fraction(us, US_PER_S)
        return total

    @property
    def total_usd(self) -> Fraction:
        return self.request_usd + self.worker_usd


def format_usd(value: Fraction) -> str:
    """Deterministic decimal rendering with enough digits for micro-dollars."""
    return f"{float(value):.12g}"
