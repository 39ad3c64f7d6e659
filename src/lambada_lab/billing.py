"""Usage-based billing: request counters, worker GiB-seconds, exact totals.

All money is held as :class:`fractions.Fraction` so the ledger total is
recomputable from the raw counters without rounding error.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction

from .config import SimConfig
from .clock import US_PER_S

READ = "read"
WRITE = "write"
LIST = "list"

MILLION = 1_000_000


@dataclass(frozen=True)
class PriceSheet:
    read_req_usd_per_million: Fraction
    write_req_usd_per_million: Fraction
    list_req_usd_per_million: Fraction
    worker_usd_per_gib_second: Fraction

    @classmethod
    def from_config(cls, cfg: SimConfig) -> "PriceSheet":
        return cls(
            read_req_usd_per_million=cfg.read_req_usd_per_million,
            write_req_usd_per_million=cfg.write_req_usd_per_million,
            list_req_usd_per_million=cfg.list_req_usd_per_million,
            worker_usd_per_gib_second=cfg.worker_usd_per_gib_second,
        )

    def request_price(self, category: str) -> Fraction:
        per_million = {
            READ: self.read_req_usd_per_million,
            WRITE: self.write_req_usd_per_million,
            LIST: self.list_req_usd_per_million,
        }[category]
        return per_million / MILLION

    def worker_rate(self, memory_mib: int) -> Fraction:
        """USD per second for a worker of the given size."""
        return self.worker_usd_per_gib_second * Fraction(memory_mib, 1024)


@dataclass
class BillingLedger:
    """Per-category usage counters; totals are derived, never accumulated.

    Every charge to a ledger with a `parent` is charged to the parent too.
    """

    prices: PriceSheet
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

    def count(self, category: str, bucket: str | None = None) -> int:
        if bucket is not None:
            return self.request_counts.get((category, bucket), 0)
        return sum(n for (cat, _), n in self.request_counts.items() if cat == category)

    @property
    def request_usd(self) -> Fraction:
        total = Fraction(0)
        for (category, _bucket), n in self.request_counts.items():
            total += n * self.prices.request_price(category)
        return total

    @property
    def worker_usd(self) -> Fraction:
        total = Fraction(0)
        for memory_mib, us in self.worker_us.items():
            total += self.prices.worker_rate(memory_mib) * Fraction(us, US_PER_S)
        return total

    @property
    def total_usd(self) -> Fraction:
        return self.request_usd + self.worker_usd

    def to_csv(self) -> str:
        """Export as `category,bucket,count,unit_price,usd` rows."""
        out = io.StringIO()
        out.write("category,bucket,count,unit_price,usd\n")
        for (category, bucket), n in sorted(self.request_counts.items()):
            price = self.prices.request_price(category)
            out.write(f"{category},{bucket},{n},{format_usd(price)},{format_usd(n * price)}\n")
        for memory_mib, us in sorted(self.worker_us.items()):
            gib_seconds = Fraction(memory_mib, 1024) * Fraction(us, US_PER_S)
            usd = self.prices.worker_usd_per_gib_second * gib_seconds
            out.write(
                f"worker_gib_s,mem{memory_mib},{format_usd(gib_seconds)},"
                f"{format_usd(self.prices.worker_usd_per_gib_second)},{format_usd(usd)}\n"
            )
        out.write(f"total,,,,{format_usd(self.total_usd)}\n")
        return out.getvalue()


def format_usd(value: Fraction) -> str:
    """Deterministic decimal rendering with enough digits for micro-dollars."""
    return f"{float(value):.12g}"
