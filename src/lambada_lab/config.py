"""Simulation configuration: prices, limits, latencies and region presets.

Config files use a plain ``key = value`` format, one entry per line, with
``#`` comments.  Keys mirror the attribute names of :class:`SimConfig`.
The ``LAMBADA_LAB_CONFIG`` environment variable may point at a default file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from .errors import ConfigError

ENV_CONFIG_VAR = "LAMBADA_LAB_CONFIG"

MIB = 1 << 20

# Invocation characteristics per region: single-call latency [ms],
# driver-side aggregate rate [inv/s], worker-side intra-region rate [inv/s].
REGION_PROFILES = {
    "eu": (36, 294, 81),
    "us": (363, 276, 79),
    "sa": (474, 243, 84),
    "ap": (536, 222, 81),
}


@dataclass(frozen=True)
class SimConfig:
    # Request prices (USD per million requests).  Reads are the cheap ones;
    # lists are billed at the write price.
    read_req_usd_per_million: Fraction = Fraction("0.4")
    write_req_usd_per_million: Fraction = Fraction(5)
    list_req_usd_per_million: Fraction = Fraction(5)
    # Worker price, linear in memory: USD per GiB-second.
    worker_usd_per_gib_second: Fraction = Fraction("3.3e-5") * Fraction(1024, 2048)

    # Per-bucket request rate limits.
    bucket_write_limit_per_s: int = 3500
    bucket_read_limit_per_s: int = 5500
    throttle_retry_delay_ms: int = 100
    throttle_max_retries: int = 50

    # Bandwidth shaping per worker NIC.
    steady_mib_per_s: Fraction = Fraction(90)
    burst_cap_mib_per_s: Fraction = Fraction(300)
    burst_credit_mib: Fraction = Fraction((300 - 90) * 3)
    per_connection_mib_per_s: Fraction = Fraction(90)
    first_byte_latency_ms: Fraction = Fraction(20)

    # Invocation model.
    invoke_latency_ms: Fraction = Fraction(100)
    driver_invoke_rate_per_s: Fraction = Fraction(250)
    worker_invoke_rate_per_s: Fraction = Fraction(80)
    concurrency_limit: int = 1000
    max_payload_bytes: int = 256 * 1024

    # Object-store semantics.
    max_key_bytes: int = 1024

    # Message queue.
    queue_poll_latency_ms: int = 10

    # Compute model.
    vcpu_hz: int = 1_000_000_000
    decode_cycles_per_byte: Fraction = Fraction(0)

    def with_region(self, region: str) -> "SimConfig":
        try:
            latency_ms, driver_rate, worker_rate = REGION_PROFILES[region]
        except KeyError:
            raise ConfigError(f"unknown region {region!r}; choose from {sorted(REGION_PROFILES)}")
        return replace(
            self,
            invoke_latency_ms=Fraction(latency_ms),
            driver_invoke_rate_per_s=Fraction(driver_rate),
            worker_invoke_rate_per_s=Fraction(worker_rate),
        )

    def updated(self, **kwargs) -> "SimConfig":
        return replace(self, **kwargs)


# each key's parser, from its field's annotation
_PARSERS = {f.name: {"Fraction": Fraction, "int": int}[f.type] for f in fields(SimConfig)}


def parse_config_text(text: str, base: SimConfig | None = None) -> SimConfig:
    cfg = base or SimConfig()
    overrides: dict = {}
    region = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "region":
            region = value
        elif key in _PARSERS:
            parse = _PARSERS[key]
            try:
                overrides[key] = parse(value)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(
                    f"line {lineno}: {key} = {value!r} is not a valid {parse.__name__}"
                ) from None
        else:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
    if region is not None:
        cfg = cfg.with_region(region)
    return cfg.updated(**overrides)


def load_config(path: str | None = None) -> SimConfig:
    """Load config from `path`, else $LAMBADA_LAB_CONFIG, else defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR)
    if path is None:
        return SimConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
