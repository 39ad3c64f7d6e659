"""Deterministic generator for a lineitem-like numeric table.

All columns are INT64 (prices in cents, flags as small ints); rows are
globally sorted by ship date across files so row-group statistics make
date-range pruning effective.  Replication repeats each file's exact bytes
under new keys, which preserves per-file query properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

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
SCHEMA = lcf.Schema(COLUMNS)
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


# (size, offset) of each column's draw in COLUMNS order: the value is
# randrange(offset, offset + size), the same as randint(offset, offset + size - 1)
_DRAWS = (
    (SHIPDATE_DAYS, 0),
    (50, 1),
    (10_000_000 - 100, 100),
    (11, 0),
    (9, 0),
    (3, 0),
    (2, 0),
)


# draws per getrandbits call on the byte path: 256 KiB of words at most
_BYTE_BATCH = 1 << 16


def _draw(getrandbits, count: int, size: int, offset: int = 0) -> list[int]:
    """`count` calls of `randrange(offset, offset + size)` on the Random owning `getrandbits`.

    CPython's `_randbelow_with_getrandbits` takes `size.bit_length()` bits and
    takes them again while the result is >= size.  Taking the outstanding
    count at once and keeping the results below `size` consumes the same
    draws in the same order, so both the values and the stream's position
    afterwards equal `random`'s.

    When k = `size.bit_length()` <= 8 and every value fits in a byte, draws
    come in batches of 32-bit words.  `getrandbits(k)` for k <= 32 is the top
    k bits of one word, and `getrandbits(32 * m)` packs m successive words,
    the first one least significant.  So byte 4i + 3 of its little-endian
    bytes is the top byte of draw i, and one `bytes.translate` shifts it,
    drops the rejected draws and adds the offset.  A batch asks for at most
    the draws still needed, so the stream stops where the loop would.
    """
    if size < 1:
        raise ValueError(f"empty range for randrange({offset}, {offset + size})")
    k = size.bit_length()
    out: list[int] = []
    if k <= 8 and 0 <= offset and offset + size <= 256:
        shift = 8 - k
        # translate deletes the rejected bytes first, so their masked
        # entries are never read
        table = bytes(((b >> shift) + offset) & 0xFF for b in range(256))
        rejected = bytes(b for b in range(256) if b >> shift >= size)
        while len(out) < count:
            m = min(count - len(out), _BYTE_BATCH)
            words = getrandbits(32 * m).to_bytes(4 * m, "little")
            out += words[3::4].translate(table, rejected)
        return out
    while len(out) < count:
        out += [r + offset for r in map(getrandbits, repeat(k, count - len(out))) if r < size]
    return out


def _date_order(ship: list[int]) -> list[int]:
    """Row indices by ship date, equal to sorted(range(n), key=ship.__getitem__).

    A stable counting sort over the SHIPDATE_DAYS dates; ties keep row order.
    """
    by_day: list[list[int]] = [[] for _ in range(SHIPDATE_DAYS)]
    for i, day in enumerate(ship):
        by_day[day].append(i)
    return list(chain.from_iterable(by_day))


def generate_tables(spec: GenSpec, seed: int) -> list[list[list[int]]]:
    """Column-major tables, one per (pre-replication) file, globally sorted.

    Each file gathers its rows of a column with one `itemgetter` built from
    its slice of the ship-date order, so no reordered copy of a whole column
    is made.  Each drawn column is dropped once every file has its rows.
    """
    cached = _TABLE_CACHE.get((spec, seed))
    if cached is not None:
        return cached
    getrandbits = random.Random(seed).getrandbits
    n = spec.total_rows
    columns = [_draw(getrandbits, n, size, offset) for size, offset in _DRAWS]
    order = _date_order(columns[0])
    base, extra = divmod(n, spec.files)
    picks = []
    pos = 0
    for i in range(spec.files):
        take = base + (1 if i < extra else 0)
        picks.append((itemgetter(*order[pos : pos + take]), take))
        pos += take
    del order
    tables: list[list[list[int]]] = [[] for _ in picks]
    for c in range(len(columns)):
        values, columns[c] = columns[c], []
        for table, (pick, take) in zip(tables, picks):
            # itemgetter of one index returns the value, not a 1-tuple
            table.append(list(pick(values)) if take > 1 else [pick(values)])
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
