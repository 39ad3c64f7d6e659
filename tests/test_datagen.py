import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from lambada_lab import datagen
from lambada_lab.config import SimConfig
from lambada_lab.substrate import CloudSim

from helpers import read_footer


def small_spec(rows=2000, files=4, **kw):
    return datagen.GenSpec(scale_bytes=datagen.ROW_BYTES * rows, files=files, **kw)


def test_deterministic_bytes():
    spec = small_spec()
    assert datagen.encode_files(spec, 7) == datagen.encode_files(spec, 7)


def test_different_seeds_differ():
    spec = small_spec()
    assert datagen.encode_files(spec, 7) != datagen.encode_files(spec, 8)


def test_file_count_320():
    sim = CloudSim(SimConfig())
    keys = datagen.gen(sim, small_spec(rows=640, files=320), 1)
    assert len(keys) == 320
    assert len(sim.store.bucket("data").objects) == 320


def test_replication_preserves_file_content():
    spec = small_spec(rows=400, files=4, replication=10)
    pairs = dict(datagen.encode_files(spec, 3))
    assert len(pairs) == 40
    for i in range(4):
        base = pairs[f"part-{i:05d}.lcf"]
        for r in range(1, 10):
            assert pairs[f"part-{i:05d}-rep{r}.lcf"] == base


def test_global_sort_across_files():
    spec = small_spec()
    tables = datagen.generate_tables(spec, 11)
    idx = datagen.COLUMNS.index("shipdate")
    flat = [v for t in tables for v in t[idx]]
    assert flat == sorted(flat)
    # file boundaries respect the order too
    for a, b in zip(tables, tables[1:]):
        assert a[idx][-1] <= b[idx][0]


def test_row_group_stats_reflect_sort():
    spec = small_spec(rows=1000, files=1, rows_per_group=100)
    (key, data), = datagen.encode_files(spec, 5)
    footer = read_footer(data)
    assert len(footer.row_groups) == 10
    idx = datagen.COLUMNS.index("shipdate")
    mins = [rg.chunks[idx].min_value for rg in footer.row_groups]
    maxs = [rg.chunks[idx].max_value for rg in footer.row_groups]
    assert mins == sorted(mins)
    for hi, lo in zip(maxs, mins[1:]):
        assert hi <= lo


def test_value_ranges():
    spec = small_spec(rows=500, files=1)
    (table,) = datagen.generate_tables(spec, 2)
    cols = dict(zip(datagen.COLUMNS, table))
    assert all(1 <= v <= 50 for v in cols["quantity"])
    assert all(0 <= v <= 10 for v in cols["discount"])
    assert all(0 <= v <= 8 for v in cols["tax"])
    assert all(v in (0, 1, 2) for v in cols["returnflag"])
    assert all(v in (0, 1) for v in cols["linestatus"])


def test_percentile_value():
    spec = small_spec()
    tables = datagen.generate_tables(spec, 9)
    idx = datagen.COLUMNS.index("shipdate")
    flat = [v for t in tables for v in t[idx]]
    p98 = datagen.percentile_value(tables, "shipdate", 0.98)
    assert sum(1 for v in flat if v <= p98) / len(flat) >= 0.98


def test_spec_validation():
    with pytest.raises(ValueError):
        datagen.GenSpec(scale_bytes=56, files=10)  # fewer rows than files


# ------------------------------------------------------------ identical draws


def naive_generate_tables(spec, seed):
    """Oracle: one randrange/randint call per value, then a keyed sort and per-column copies."""
    rng = random.Random(seed)
    n = spec.total_rows
    columns = {
        "shipdate": [rng.randrange(datagen.SHIPDATE_DAYS) for _ in range(n)],
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
        tables.append([columns[name][pos : pos + take] for name in datagen.COLUMNS])
        pos += take
    return tables


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64),
    # 1 row, and counts on both sides of the 2526 ship dates so that dates tie
    rows=st.one_of(st.just(1), st.integers(2, 2 * datagen.SHIPDATE_DAYS)),
    files=st.integers(1, 9),
    rows_per_group=st.integers(1, 700),
)
def test_tables_equal_the_naive_generator(seed, rows, files, rows_per_group):
    # the equality rests on CPython's _randbelow_with_getrandbits, so the
    # oracle runs on this interpreter's random, not on stored values
    spec = small_spec(rows=rows, files=min(files, rows), rows_per_group=rows_per_group)
    assert datagen.generate_tables(spec, seed) == naive_generate_tables(spec, seed)


EDGE_SIZES = (
    (1, 0),
    (2, 0),
    # k = 8 fills the byte; 256 and 257 take 9 bits and leave the byte path
    (255, 0),
    (255, 1),
    (128, 128),
    (256, 0),
    (257, 0),
    # small k whose values leave the byte range take the per-value loop
    (9, 247),
    (9, 248),
    (50, 250),
    (3, -2),
    (2**10, 0),
    (2**10 + 1, 3),
    (2**32, 0),
    (2**32 + 1, -7),
)


@pytest.mark.parametrize("size, offset", datagen._DRAWS + EDGE_SIZES)
@pytest.mark.parametrize("seed", [7, 8, 301])
def test_draw_equals_randrange(seed, size, offset):
    ours, theirs = random.Random(seed), random.Random(seed)
    got = datagen._draw(ours.getrandbits, 3000, size, offset)
    assert got == [theirs.randrange(offset, offset + size) for _ in range(3000)]
    assert ours.getstate() == theirs.getstate()


def test_columns_drawn_back_to_back_stay_aligned():
    # every column in generate_tables' order, four small ones in a row last
    ours, theirs = random.Random(22), random.Random(22)
    for size, offset in datagen._DRAWS:
        got = datagen._draw(ours.getrandbits, 5000, size, offset)
        assert got == [theirs.randrange(offset, offset + size) for _ in range(5000)]
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("size, offset", [(2, 0), (50, 1)])
def test_draw_spanning_batches_equals_randrange(size, offset):
    # size 2 rejects about half its draws, so its batches shrink
    ours, theirs = random.Random(5), random.Random(5)
    calls = []

    def getrandbits(k):
        calls.append(k)
        return ours.getrandbits(k)

    count = 3 * datagen._BYTE_BATCH // 2
    got = datagen._draw(getrandbits, count, size, offset)
    assert got == [theirs.randrange(offset, offset + size) for _ in range(count)]
    assert ours.getstate() == theirs.getstate()
    assert calls[0] == 32 * datagen._BYTE_BATCH and len(calls) > 2


@pytest.mark.parametrize("size", [0, -1])
def test_empty_range_raises_like_randrange(size):
    with pytest.raises(ValueError):
        random.Random(1).randrange(0, size)
    with pytest.raises(ValueError, match="empty range"):
        datagen._draw(random.Random(1).getrandbits, 10, size)


# SHA-256 over the seed, key and bytes of every file of seeds 7 and 8, taken
# from the generator that made one randrange/randint call per value.
GOLDEN_FILES_SHA256 = {
    1: "c935040ba9f150585c5adb7395d62c2dfa08a37da766abb7526f544dd5a29f3c",
    3: "aed683e8639420df7c628957b805a4c5ba944f1b10cb6a63f23fa987d769a603",
}


@pytest.mark.parametrize("replication", sorted(GOLDEN_FILES_SHA256))
def test_encoded_files_match_golden_digest(replication):
    spec = small_spec(rows=5000, files=4, rows_per_group=512, replication=replication)
    digest = hashlib.sha256()
    for seed in (7, 8):
        for key, data in datagen.encode_files(spec, seed):
            digest.update(f"{seed}\0{key}\0{len(data)}\0".encode() + data)
    assert digest.hexdigest() == GOLDEN_FILES_SHA256[replication]
