"""Cost/latency economics: job-scoped scaling curves, always-on crossover
rates, and pay-per-byte query pricing.

The FaaS profile takes its price and bandwidth from `SimConfig`; the VM and
instance figures below are editable assumptions, not measured values.  The
shapes (asymptotes, crossovers) are what the models guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .billing import worker_rate
from .config import MIB, SimConfig
from .substrate import FunctionSpec

TIB = 1024**4

VM = "vm"
FAAS = "faas"


@dataclass(frozen=True)
class ResourceProfile:
    kind: str
    startup_s: Fraction
    scan_mib_per_s: Fraction  # per unit
    unit_usd_per_s: Fraction

    def __post_init__(self):
        if self.kind not in (VM, FAAS):
            raise ValueError(f"kind must be {VM} or {FAAS}")
        if self.startup_s < 0 or self.unit_usd_per_s <= 0 or self.scan_mib_per_s <= 0:
            raise ValueError("startup must be >= 0, price and bandwidth > 0")


def faas_profile(cfg: SimConfig) -> ResourceProfile:
    """A default (2 GiB) function at the simulator's worker price and steady scan rate."""
    price = worker_rate(cfg, FunctionSpec().memory_mib)
    return ResourceProfile(
        FAAS, startup_s=Fraction(4), scan_mib_per_s=cfg.steady_mib_per_s, unit_usd_per_s=price
    )

# assumption: large NVMe-backed instance, ~2.2 GiB/s effective scan rate
VM_PROFILE = ResourceProfile(
    VM,
    startup_s=Fraction(120),
    scan_mib_per_s=Fraction(2200),
    unit_usd_per_s=Fraction("0.216") / 3600,
)


def job_scoped_point(data_bytes: int, profile: ResourceProfile, units: int):
    """(latency_s, cost_usd) for one unit count, billed launch to finish."""
    if units < 1:
        raise ValueError("units must be >= 1")
    latency = profile.startup_s + Fraction(data_bytes) / (
        units * profile.scan_mib_per_s * MIB
    )
    cost = units * latency * profile.unit_usd_per_s
    return latency, cost


def job_scoped_curve(data_bytes: int, profile: ResourceProfile, unit_counts):
    return [
        (units, *job_scoped_point(data_bytes, profile, units)) for units in unit_counts
    ]


def min_cost(data_bytes: int, profile: ResourceProfile, unit_counts) -> Fraction:
    return min(c for _, _, c in job_scoped_curve(data_bytes, profile, unit_counts))


def always_on_crossover(vm_hourly_usd: Fraction, per_query_usd: Fraction) -> Fraction:
    """Queries/hour above which the always-on cluster is cheaper."""
    if per_query_usd <= 0:
        raise errors.DegenerateInput("per-query cost must be positive")
    if vm_hourly_usd <= 0:
        raise errors.DegenerateInput("vm hourly cost must be positive")
    return Fraction(vm_hourly_usd) / Fraction(per_query_usd)


@dataclass(frozen=True)
class QaaSPricing:
    usd_per_tib_scanned: Fraction = Fraction(5)


def qaas_query_cost(bytes_per_used_column, pricing: QaaSPricing) -> Fraction:
    """Bill for scanning the used columns in full, whatever the filter keeps."""
    return Fraction(sum(bytes_per_used_column)) * pricing.usd_per_tib_scanned / TIB


@dataclass(frozen=True)
class InstancePreset:
    name: str
    count: int
    hourly_usd_per_instance: Fraction  # assumption, editable in config


# cluster sizes that hold / stream 1 TB within an interactive target,
# by storage tier; prices are placeholders for current list prices
ALWAYS_ON_PRESETS = (
    InstancePreset("dram-class", 3, Fraction("3.024")),
    InstancePreset("nvme-class", 7, Fraction("4.992")),
    InstancePreset("network-storage-class", 13, Fraction("3.888")),
)


def preset_hourly_usd(preset: InstancePreset) -> Fraction:
    return preset.count * preset.hourly_usd_per_instance


CURVE_CSV_HEADER = "kind,units,latency_s,cost_usd"


def curve_to_csv(kind: str, curve) -> list[str]:
    return [
        f"{kind},{units},{float(lat):.6g},{float(cost):.6g}" for units, lat, cost in curve
    ]
