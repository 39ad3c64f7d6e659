"""Deterministic generator for a lineitem-like numeric table.

All columns are INT64 (prices in cents, flags as small ints); rows are
globally sorted by ship date across files so row-group statistics make
date-range pruning effective.  Replication repeats each file's exact bytes
under new keys, which preserves per-file query properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import lcf

COLUMNS = (
    "shipdate",
    "quantity",
    "extendedprice",
    "discount",
    "tax",
    "returnflag",
    "linestatus",
)
SCHEMA = lcf.Schema(tuple((name, lcf.INT64) for name in COLUMNS))
ROW_BYTES = 8 * len(COLUMNS)
SHIPDATE_DAYS = 2526  # ~7 years of daily dates


@dataclass(frozen=True)
class GenSpec:
    scale_bytes: int = 256 * 1024 * 1024
    files: int = 32
    rows_per_group: int = 4096
    replication: int = 1

    def __post_init__(self):
        if self.files < 1 or self.replication < 1 or self.rows_per_group < 1:
            raise ValueError("files, replication and rows_per_group must be >= 1")
        if self.total_rows < self.files:
            raise ValueError("need at least one row per file")

    @property
    def total_rows(self) -> int:
        return self.scale_bytes // ROW_BYTES


_TABLE_CACHE: dict = {}
_FILE_CACHE: dict = {}


def generate_tables(spec: GenSpec, seed: int) -> list[list[list[int]]]:
    """Column-major tables, one per (pre-replication) file, globally sorted."""
    cached = _TABLE_CACHE.get((spec, seed))
    if cached is not None:
        return cached
    rng = random.Random(seed)
    n = spec.total_rows
    columns = {
        "shipdate": [rng.randrange(SHIPDATE_DAYS) for _ in range(n)],
        "quantity": [rng.randint(1, 50) for _ in range(n)],
        "extendedprice": [rng.randrange(100, 10_000_000) for _ in range(n)],
        "discount": [rng.randint(0, 10) for _ in range(n)],
        "tax": [rng.randint(0, 8) for _ in range(n)],
        "returnflag": [rng.randint(0, 2) for _ in range(n)],
        "linestatus": [rng.randint(0, 1) for _ in range(n)],
    }
    order = sorted(range(n), key=columns["shipdate"].__getitem__)
    columns = {name: [vals[i] for i in order] for name, vals in columns.items()}
    base, extra = divmod(n, spec.files)
    tables = []
    pos = 0
    for i in range(spec.files):
        take = base + (1 if i < extra else 0)
        tables.append([columns[name][pos : pos + take] for name in COLUMNS])
        pos += take
    _TABLE_CACHE[(spec, seed)] = tables
    return tables


def encode_files(spec: GenSpec, seed: int) -> list[tuple[str, bytes]]:
    """(key, bytes) pairs including replicas, deterministic in the seed."""
    cached = _FILE_CACHE.get((spec, seed))
    if cached is not None:
        return cached
    out = []
    for i, table in enumerate(generate_tables(spec, seed)):
        rows = len(table[0])
        groups = [
            [col[g : g + spec.rows_per_group] for col in table]
            for g in range(0, rows, spec.rows_per_group)
        ]
        data = lcf.write_file(SCHEMA, groups)
        for r in range(spec.replication):
            suffix = "" if r == 0 else f"-rep{r}"
            out.append((f"part-{i:05d}{suffix}.lcf", data))
    _FILE_CACHE[(spec, seed)] = out
    return out


def gen(sim, spec: GenSpec, seed: int, bucket: str = "data") -> list[str]:
    """Seed the generated dataset into a bucket; returns the sorted keys."""
    keys = []
    for key, data in encode_files(spec, seed):
        sim.store.seed_object(bucket, key, data)
        keys.append(key)
    return sorted(keys)


def percentile_value(tables, column: str, fraction: float) -> int:
    """Value at the given quantile of a column over all files."""
    idx = COLUMNS.index(column)
    values = sorted(v for table in tables for v in table[idx])
    if not values:
        raise ValueError("no rows generated")
    return values[min(len(values) - 1, int(fraction * (len(values) - 1)))]
