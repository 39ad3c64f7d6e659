"""Acceptance gate: one test per headline claim, loud pass lines.

Run with `pytest -v tests/test_acceptance.py`; each criterion is a single
test whose PASSED/FAILED line is the verdict (a CRITERION print is also
emitted for `-s` runs).
"""

import random
import time
from fractions import Fraction

import pytest

from lambada_lab import cli, datagen, econ, engine, exchange, invoke, scan
from lambada_lab.billing import READ, WRITE
from lambada_lab.clock import AllOf
from lambada_lab.config import SimConfig
from lambada_lab.substrate import CloudSim, FunctionSpec, ZeroBlob, cpu_throughput

from helpers import read_footer

MIB = 1024 * 1024
P_CHOICES = (1, 4, 5, 9, 16, 27, 64)


def fresh_sim(**overrides):
    return CloudSim(SimConfig(**overrides))


def hash_oracle(inputs, P):
    out = {p: [] for p in range(P)}
    for records in inputs.values():
        for key, value in records:
            out[key % P].append((key, value))
    return {p: sorted(v) for p, v in out.items()}


def variant_config(variant, **kw):
    wc = exchange.WC_OFFSETS_IN_NAME if variant.endswith("-wc") else exchange.WC_OFF
    return exchange.ExchangeConfig(levels=int(variant[0]), write_combining=wc, **kw)


def test_c01_exchange_matches_hash_partition_oracle():
    rng = random.Random(11)
    start = time.monotonic()
    for i in range(200):
        P = P_CHOICES[i % len(P_CHOICES)]
        inputs = {p: [] for p in range(P)}
        for _ in range(rng.randrange(1, 3 * P + 1)):
            key = rng.randrange(10**6)
            inputs[rng.randrange(P)].append((key, b"r"))
        expect = hash_oracle(inputs, P)
        for variant in exchange.VARIANTS:
            sim = fresh_sim()
            outputs, _ = sim.loop.run_task(
                exchange.run_exchange(sim, inputs, variant_config(variant))
            )
            assert {p: sorted(v) for p, v in outputs.items()} == expect, (
                f"instance {i} P={P} variant={variant}"
            )
    assert time.monotonic() - start < 30
    print("CRITERION 1: PASS")


@pytest.mark.parametrize("P,k", [(16, 2), (64, 2), (256, 2), (27, 3), (64, 3)])
def test_c02_request_counts_match_closed_forms(P, k):
    sim = fresh_sim()
    inputs = {p: [(p, b"x")] for p in range(P)}
    cfg = exchange.ExchangeConfig(levels=k)
    sim.loop.run_task(exchange.run_exchange(sim, inputs, cfg))
    s = exchange.ceil_root(P, k)
    assert sim.ledger.count(READ) == k * P * s
    assert sim.ledger.count(WRITE) == k * P * s
    print(f"CRITERION 2 (P={P}, k={k}): PASS")


def test_c03_exchange_dollar_figures():
    cfg = fresh_sim().cfg
    row = exchange.exchange_cost(4096, "1l", cfg)
    assert abs(float(row.request_usd) - 90.597) <= 0.01
    assert abs(float(row.request_usd) - 100) / 100 <= 0.15
    worker = exchange.exchange_worker_cost(4096, 4 * 1024**4, Fraction(85), cfg)
    # independent closed form: 4096 workers, 2 GiB each way at 85 MiB/s
    assert worker == 4096 * Fraction(2 * 1024, 85) * Fraction("3.3e-5")
    assert abs(float(worker) - 3.3) / 3.3 <= 0.05
    print("CRITERION 3: PASS")


def test_c04_two_level_invocation_beats_direct():
    results = {}
    for strategy in (invoke.DIRECT, invoke.TWO_LEVEL):
        sim = fresh_sim()
        report = sim.loop.run_task(
            invoke.run_plan(sim.driver(), invoke.build_plan(4096, strategy))
        )
        results[strategy] = report.last_initiated_us / 1e6
    assert results[invoke.TWO_LEVEL] <= 3.0
    assert 13.0 <= results[invoke.DIRECT] <= 18.0
    assert results[invoke.DIRECT] / results[invoke.TWO_LEVEL] >= 4
    print("CRITERION 4: PASS")


@pytest.fixture(scope="module")
def sorted_file():
    spec = datagen.GenSpec(
        scale_bytes=datagen.ROW_BYTES * 5000, files=1, rows_per_group=50
    )
    tables = datagen.generate_tables(spec, 3)
    [(key, data)] = datagen.encode_files(spec, 3)
    footer = read_footer(data)
    assert len(footer.row_groups) == 100
    return spec, tables, key, data, footer


class TestC05Pruning:
    def _pct(self, tables, frac):
        return datagen.percentile_value(tables, "shipdate", frac)

    def test_narrow_predicate_prunes_nearly_all(self, sorted_file):
        spec, tables, _, _, footer = sorted_file
        # two middle groups = 2% of rows; nudge past duplicated boundary days
        col = footer.schema.index_of("shipdate")
        stats = [rg.chunks[col] for rg in footer.row_groups]
        lo, hi = stats[49].min_value, stats[50].max_value
        if stats[48].max_value >= lo:
            lo = stats[48].max_value + 1
        if stats[51].min_value <= hi:
            hi = stats[51].min_value - 1
        values = tables[0][datagen.COLUMNS.index("shipdate")]
        selectivity = sum(lo <= v <= hi for v in values) / len(values)
        assert 0.01 <= selectivity <= 0.03
        preds = scan.PredicateSet((("shipdate", lo, hi),), ("quantity",))
        surviving = scan.prune_row_groups(footer, preds)
        assert len(surviving) <= 3  # >= 97 of 100 groups pruned

    def test_wide_predicate_keeps_nearly_all(self, sorted_file):
        spec, tables, _, _, footer = sorted_file
        preds = scan.PredicateSet(
            (("shipdate", self._pct(tables, 0.01), self._pct(tables, 0.99)),),
            ("quantity",),
        )
        assert len(scan.prune_row_groups(footer, preds)) >= 97

    def test_pruning_preserves_output_on_random_predicates(self, sorted_file):
        spec, tables, key, data, _ = sorted_file
        rng = random.Random(5)

        def rows_for(preds, prune):
            sim = fresh_sim()
            sim.store.seed_object("data", key, data)

            def main():
                return (
                    yield from scan.execute_scan(
                        sim, sim.driver(), "data", [key], preds, prune=prune
                    )
                )

            batches, _ = sim.loop.run_task(main())
            cols = [sum((b[i] for b in batches), []) for i in range(2)]
            return sorted(zip(*cols)) if cols and cols[0] else []

        for _ in range(100):
            lo = rng.randrange(datagen.SHIPDATE_DAYS)
            hi = lo + rng.randrange(datagen.SHIPDATE_DAYS // 4)
            preds = scan.PredicateSet(
                (("shipdate", lo, hi),), ("shipdate", "quantity")
            )
            assert rows_for(preds, True) == rows_for(preds, False)
        print("CRITERION 5: PASS")


class TestC06Bandwidth:
    TOTAL = 1024 * MIB

    def _download(self, chunk, conns):
        sim = fresh_sim()
        sim.store.seed_object("blob", "d", ZeroBlob(self.TOTAL))
        ctx = sim.driver()

        def fetch(offsets):
            for off in offsets:
                yield from sim.store.get_object(
                    ctx, "blob", "d", (off, min(off + chunk, self.TOTAL))
                )

        def main():
            starts = list(range(0, self.TOTAL, chunk))
            yield AllOf(
                [sim.loop.spawn(fetch(starts[i::conns])) for i in range(conns)]
            )

        sim.loop.run_task(main())
        seconds = sim.loop.now / 1e6
        return (self.TOTAL / MIB) / seconds, sim.ledger.request_usd

    def test_throughput_and_request_cost(self):
        rate_single, _ = self._download(16 * MIB, 1)
        assert rate_single >= 0.85 * 90
        rate_four, usd = self._download(MIB, 4)
        assert rate_four >= 0.95 * 90
        assert usd == Fraction("4.096e-4")  # 1024 GETs at $0.4/M
        print("CRITERION 6: PASS")


def test_c07_cpu_throughput_ratio():
    ratio = cpu_throughput(3008, 2) / cpu_throughput(1792, 1)
    assert abs(float(ratio) - 1.679) <= 0.001
    print("CRITERION 7: PASS")


@pytest.mark.parametrize("W,reference_s", [(250, 22), (500, 15), (1000, 13)])
def test_c08_exchange_latency_soft_calibration(W, reference_s):
    sim = fresh_sim()
    cfg = exchange.ExchangeConfig(
        levels=2, write_combining=exchange.WC_OFFSETS_IN_NAME, num_buckets=10
    )
    _, _, makespan_us = sim.loop.run_task(
        exchange.run_synthetic_exchange(sim, W, 100 * 10**9, cfg)
    )
    makespan_s = makespan_us / 1e6
    assert 0.5 * reference_s <= makespan_s <= 1.5 * reference_s
    print(f"CRITERION 8 (W={W}): PASS")


@pytest.fixture(scope="module")
def dataset():
    spec = datagen.GenSpec(
        scale_bytes=datagen.ROW_BYTES * 800, files=8, rows_per_group=32
    )
    tables = datagen.generate_tables(spec, 9)
    return spec, tables


class TestC09Engine:
    def _run(self, spec, plan, memory_mib, files_per_worker, seed=9):
        sim = CloudSim(SimConfig())
        keys = datagen.gen(sim, spec, seed)
        rows, _ = sim.loop.run_task(
            engine.execute(
                sim,
                plan,
                keys,
                files_per_worker=files_per_worker,
                spec=FunctionSpec(memory_mib=memory_mib),
            )
        )
        return rows

    @pytest.mark.parametrize("memory_mib", cli.MEMORY_SWEEP)
    @pytest.mark.parametrize("files_per_worker", [1, 2, 4])
    def test_q1_q6_sweep_points_oracle_exact(
        self, dataset, memory_mib, files_per_worker
    ):
        spec, tables = dataset
        cutoff = datagen.percentile_value(tables, "shipdate", 0.9)
        for plan in (engine.q1_plan(cutoff), engine.q6_plan(cutoff // 2, cutoff)):
            rows = self._run(spec, plan, memory_mib, files_per_worker)
            assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)

    def test_q1_q6_sweep_oracle_exact_on_ten_times_the_rows(self):
        spec = datagen.GenSpec(
            scale_bytes=datagen.ROW_BYTES * 8000, files=8, rows_per_group=32
        )
        tables = datagen.generate_tables(spec, 9)
        cutoff = datagen.percentile_value(tables, "shipdate", 0.9)
        for plan in (engine.q1_plan(cutoff), engine.q6_plan(cutoff // 2, cutoff)):
            oracle = engine.reference_execute(tables, datagen.COLUMNS, plan)
            for memory_mib in cli.MEMORY_SWEEP:
                for files_per_worker in (1, 2, 4):
                    rows = self._run(spec, plan, memory_mib, files_per_worker)
                    assert rows == oracle, (memory_mib, files_per_worker)

    def test_replication_scales_additive_aggregates(self, dataset):
        spec, tables = dataset
        rep_spec = datagen.GenSpec(
            scale_bytes=spec.scale_bytes,
            files=spec.files,
            rows_per_group=spec.rows_per_group,
            replication=10,
        )
        plan = engine.q1_plan(datagen.SHIPDATE_DAYS)
        base = self._run(spec, plan, 2048, 1)
        rep = self._run(rep_spec, plan, 2048, 1)
        assert rep == engine.reference_execute(tables * 10, datagen.COLUMNS, plan)
        assert [k for k, _ in rep] == [k for k, _ in base]
        for (_, rep_vals), (_, base_vals) in zip(rep, base):
            assert rep_vals == [10 * v for v in base_vals]
        print("CRITERION 9: PASS")


def test_c10_economics_shape():
    assert econ.always_on_crossover(Fraction(10), Fraction("0.05")) == 200
    hourly, per_query = Fraction("4.992"), Fraction(33, 10**4)
    assert econ.always_on_crossover(hourly, per_query) == hourly / per_query
    data = 10**12
    units = 2**20
    faas_lat, _ = econ.job_scoped_point(data, econ.faas_profile(SimConfig()), units)
    assert faas_lat == 4 + Fraction(data, units * 90 * MIB)  # -> 4 s asymptote
    vm_lat, _ = econ.job_scoped_point(data, econ.VM_PROFILE, units)
    assert vm_lat == 120 + Fraction(data, units * 2200 * MIB)  # -> 120 s
    print("CRITERION 10: PASS")


def test_c11_benchmark_suite_is_deterministic(tmp_path):
    small = ["--scale", str(datagen.ROW_BYTES * 1000), "--files", "4",
             "--rows-per-group", "64"]

    def run_suite(outdir):
        cli.main(["bench", "q1", *small, "-o", str(outdir)])
        cli.main(["bench", "q6", *small, "-o", str(outdir)])
        cli.main(["bench", "exchange", "--workers", "16", "--total-bytes",
                  "16000000", "--buckets", "2", "-o", str(outdir)])
        cli.main(["bench", "invoke", "-P", "256", "-o", str(outdir)])
        cli.main(["bench", "scan-sweep", "-o", str(outdir)])
        cli.main(["bench", "econ", "-o", str(outdir)])

    a, b = tmp_path / "a", tmp_path / "b"
    run_suite(a)
    run_suite(b)
    names = sorted(f.name for f in a.iterdir())
    assert names == sorted(f.name for f in b.iterdir()) and len(names) >= 9
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    print("CRITERION 11: PASS")
