import pytest

from lambada_lab import datagen, lcf
from lambada_lab.config import SimConfig
from lambada_lab.substrate import CloudSim


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
    footer = lcf.read_footer(data)
    assert len(footer.row_groups) == 10
    idx = datagen.COLUMNS.index("shipdate")
    mins = [rg.chunks[idx].stats.min_value for rg in footer.row_groups]
    maxs = [rg.chunks[idx].stats.max_value for rg in footer.row_groups]
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
