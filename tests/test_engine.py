import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lambada_lab import datagen, engine, errors, invoke, lcf
from lambada_lab.billing import READ, WRITE
from lambada_lab.clock import AllOf
from lambada_lab.config import MIB, SimConfig
from lambada_lab.substrate import CloudSim, FunctionSpec

from helpers import read_footer


def setup_data(rows=2000, files=4, rows_per_group=100, replication=1, seed=7, cfg=None):
    spec = datagen.GenSpec(
        scale_bytes=datagen.ROW_BYTES * rows,
        files=files,
        rows_per_group=rows_per_group,
        replication=replication,
    )
    sim = CloudSim(cfg or SimConfig())
    keys = datagen.gen(sim, spec, seed)
    tables = datagen.generate_tables(spec, seed)
    return sim, keys, tables


def run_query(sim, plan, keys, **kw):
    return sim.loop.run_task(engine.execute(sim, plan, keys, **kw))


class TestPlanBuilding:
    def test_pushdown_and_scopes(self):
        plan = engine.build_plan_from_pipeline(
            [("shipdate", 0, 100)],
            ("returnflag",),
            [("sum", {"col": "quantity"}), ("count", None)],
        )
        assert plan["intervals"] == [["shipdate", 0, 100]]
        # shipdate is read by the filter only: the scan fetches it per group
        assert set(plan["projection"]) == {"returnflag", "quantity"}

    def test_count_only_plan_projects_its_filter_columns(self):
        plan = engine.build_plan_from_pipeline(
            [("shipdate", 0, 100), ("discount", 2, 4)], (), [("count", None)]
        )
        assert plan["projection"] == ["discount", "shipdate"]

    def test_no_filter_projects_used_columns_only(self):
        plan = engine.build_plan_from_pipeline([], (), [("sum", {"col": "quantity"})])
        assert plan["projection"] == ["quantity"]
        assert plan["intervals"] == []

    def test_plan_is_json_serializable(self):
        plan = engine.q1_plan(1000)
        assert json.loads(json.dumps(plan)) == plan


class TestExpressions:
    def test_arith(self):
        row = {"a": 5, "b": 3}
        expr = {"op": "mul", "args": [{"col": "a"}, {"op": "sub", "args": [{"col": "b"}, {"const": 1}]}]}
        assert engine.eval_expr(expr, row) == 10

    def test_compiled_expression_matches_eval(self):
        batch = [[1, 4, 9], [3, 0, 4]]
        expr = {"op": "sub", "args": [
            {"op": "mul", "args": [{"col": "x"}, {"col": "y"}]},
            {"op": "add", "args": [{"col": "x"}, {"const": 2}]},
        ]}
        steps, (slot,) = engine.compile_program([expr], {"x": 0, "y": 1})
        rows = [{"x": x, "y": y} for x, y in zip(*batch)]
        compiled = engine.run_program(steps, batch)[slot]
        assert compiled == [engine.eval_expr(expr, r) for r in rows] == [0, -6, 25]

    def test_shared_subexpressions_are_computed_once(self):
        aggs = engine.q1_plan(1000)["aggs"]
        steps, outputs = engine.compile_program([e for _, e in aggs], {
            name: j for j, name in enumerate(datagen.COLUMNS)
        })
        # quantity, extendedprice, 100, discount, 100 - discount, disc_price,
        # tax, 100 + tax, charge: the shared price, 100 and disc_price once each
        assert len(steps) == 9
        assert outputs[-1] is None and len(set(outputs[:-1])) == 4

    def test_columns_of_expression(self):
        expr = {"op": "add", "args": [{"col": "x"}, {"op": "mul", "args": [{"col": "y"}, {"const": 2}]}]}
        assert engine.expr_columns(expr) == {"x", "y"}


class TestMergePartials:
    def test_simple_sum(self):
        partials = [[[[], [5]]], [[[], [7]]], [[[], [0]]]]
        assert engine.merge_partials(partials) == [[[], [12]]]

    def test_order_independent(self):
        a = [[[1], [2, 3]], [[2], [4, 1]]]
        b = [[[2], [1, 1]], [[3], [9, 9]]]
        assert engine.merge_partials([a, b]) == engine.merge_partials([b, a])

    def test_disjoint_keys_concatenate(self):
        a = [[[1], [5]]]
        b = [[[2], [7]]]
        assert engine.merge_partials([a, b]) == [[[1], [5]], [[2], [7]]]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(-100, 100)), max_size=10
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_matches_flat_recompute(self, shards):
        partials = []
        flat = {}
        for shard in shards:
            local = {}
            for key, val in shard:
                local.setdefault(key, [0])[0] += val
                flat.setdefault(key, [0])[0] += val
            partials.append([[[k], v] for k, v in local.items()])
        assert engine.merge_partials(partials) == sorted(
            [[k], v] for k, v in flat.items()
        )


class TestQueries:
    def test_q6_matches_oracle(self):
        sim, keys, tables = setup_data()
        lo = datagen.percentile_value(tables, "shipdate", 0.40)
        hi = datagen.percentile_value(tables, "shipdate", 0.42)
        plan = engine.q6_plan(lo, hi)
        rows, report = run_query(sim, plan, keys, files_per_worker=2)
        assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)
        assert report.workers == 2

    def test_q1_matches_oracle(self):
        sim, keys, tables = setup_data()
        cutoff = datagen.percentile_value(tables, "shipdate", 0.98)
        plan = engine.q1_plan(cutoff)
        rows, report = run_query(sim, plan, keys)
        assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)
        assert len(rows) <= 6  # 3 return flags x 2 statuses
        assert report.rows == len(rows)

    @pytest.mark.parametrize("memory_mib", [512, 1792, 3008])
    @pytest.mark.parametrize("files_per_worker", [1, 2, 4])
    def test_sweep_points_agree(self, memory_mib, files_per_worker):
        sim, keys, tables = setup_data(rows=800)
        cutoff = datagen.percentile_value(tables, "shipdate", 0.98)
        plan = engine.q1_plan(cutoff)
        rows, _ = run_query(
            sim,
            plan,
            keys,
            files_per_worker=files_per_worker,
            spec=FunctionSpec(memory_mib=memory_mib),
        )
        assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)

    def test_replication_scales_sums(self):
        base_sim, base_keys, tables = setup_data(rows=500, files=2)
        rep_sim, rep_keys, _ = setup_data(rows=500, files=2, replication=10)
        plan = engine.q1_plan(datagen.SHIPDATE_DAYS)
        base_rows, _ = run_query(base_sim, plan, base_keys)
        rep_rows, _ = run_query(rep_sim, plan, rep_keys)
        assert len(rep_keys) == 20
        assert [k for k, _ in rep_rows] == [k for k, _ in base_rows]
        for (_, rep_vals), (_, base_vals) in zip(rep_rows, base_rows):
            assert rep_vals == [10 * v for v in base_vals]

    def test_two_level_strategy_same_answer(self):
        sim, keys, tables = setup_data(rows=1000, files=9)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        rows, _ = run_query(sim, plan, keys, strategy=invoke.TWO_LEVEL)
        assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)

    def test_replicas_decode_each_distinct_footer_once(self):
        """Replicas share footer bytes: each distinct footer is parsed on
        its first read, and every later replica's read is a lookup."""
        R, N = 5, 3
        sim, keys, tables = setup_data(rows=900, files=N, replication=R)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        lcf._decode_footer.cache_clear()
        rows, _ = run_query(sim, plan, keys, strategy=invoke.TWO_LEVEL)
        assert rows == engine.reference_execute(tables * R, datagen.COLUMNS, plan)
        info = lcf._decode_footer.cache_info()
        assert (info.misses, info.hits) == (N, (R - 1) * N)


COLUMN_NAMES = ("c0", "c1", "c2", "c3")
INTS = st.integers(min_value=-20, max_value=20)
INT64S = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def lcf_tables(draw):
    """(schema, files): each file a list of row groups of column lists."""
    names = COLUMN_NAMES[: draw(st.integers(2, 4))]
    schema = lcf.Schema(tuple(names))
    files = []
    for _ in range(draw(st.integers(1, 3))):
        groups = []
        for _ in range(draw(st.integers(1, 3))):
            rows = draw(st.integers(1, 8))
            groups.append([draw(st.lists(INTS, min_size=rows, max_size=rows)) for _ in names])
        files.append(groups)
    return schema, files


def expressions(names, shared=None):
    """Random expression trees; `shared`, when given, is one more leaf, so
    several aggregates can hold the same subexpression."""
    leaves = st.one_of(
        st.sampled_from(names).map(lambda n: {"col": n}),
        INTS.map(lambda v: {"const": v}),
        *([st.just(shared)] if shared is not None else []),
    )

    def extend(children):
        return st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children).map(
            lambda t: {"op": t[0], "args": [t[1], t[2]]}
        )

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def plans(draw, schema):
    """Random plans; a filter column that no key or aggregate reads
    sometimes gets the covering interval, which every group's stats prove,
    so the scan leaves that column unfetched."""
    names = list(schema.names)
    keys = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    shared = draw(expressions(names))
    aggs = [
        ("sum", e)
        for e in draw(st.lists(expressions(names, shared), min_size=1, max_size=3))
    ]
    if draw(st.booleans()):
        aggs.append(("count", None))
    read = set(keys).union(*[engine.expr_columns(e) for _, e in aggs if e is not None])
    intervals = []
    for name in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        if name not in read and draw(st.booleans()):
            intervals.append((name, -(2**63), 2**63 - 1))
            continue
        lo, hi = sorted([draw(INTS), draw(INTS)])
        intervals.append((name, lo, hi))
    return engine.build_plan_from_pipeline(intervals, keys, aggs)


class TestFoldBatch:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 1), st.one_of(INTS, INT64S)),
                min_size=1,
                max_size=10,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_fold_equals_row_oracle(self, batch_rows):
        plan = engine.build_plan_from_pipeline([], ("k",), [("sum", {"col": "v"}), ("count", None)])
        steps, outputs = engine.compile_program([{"col": "v"}, None], {"k": 0, "v": 1})
        batches = [[list(col) for col in zip(*rows)] for rows in batch_rows]
        groups = {}
        for batch in batches:
            engine._fold_batch(groups, batch, [0], steps, outputs)
        folded = sorted([list(k), v] for k, v in groups.items())
        assert json.dumps(folded) == json.dumps(engine.reference_execute(batches, ["k", "v"], plan))


class TestColumnarFragment:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_engine_equals_row_oracle(self, data):
        schema, files = data.draw(lcf_tables())
        plan = data.draw(plans(schema))
        assume(plan["projection"])
        sim = CloudSim(SimConfig())
        keys = []
        for i, groups in enumerate(files):
            keys.append(f"part-{i}.lcf")
            sim.store.seed_object("data", keys[-1], lcf.write_file(schema, groups))
        tables = [
            [sum((g[c] for g in groups), []) for c in range(len(schema))]
            for groups in files
        ]
        rows, _ = run_query(sim, plan, keys, files_per_worker=len(keys))
        oracle = engine.reference_execute(tables, list(schema.names), plan)
        assert json.dumps(rows) == json.dumps(oracle)


class TestFailureModes:
    def test_corrupt_file_is_reported_with_worker_id(self):
        sim, keys, _ = setup_data(rows=400, files=2)
        sim.store.bucket("data").objects[keys[1]] = b"garbage, not columnar"
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        with pytest.raises(errors.WorkerError) as info:
            run_query(sim, plan, keys)
        assert info.value.worker_id == 1
        assert info.value.kind == "BadMagic"

    @pytest.mark.parametrize(
        "plan",
        [
            engine.q6_plan(100, 50),  # an empty shipdate interval
            *[
                engine.build_plan_from_pipeline(
                    [], (), [("sum", {"op": op, "args": [{"col": "quantity"}, {"const": 2}]})]
                )
                for op in ("pow", "ge")
            ],
            *[
                engine.build_plan_from_pipeline(
                    [], (), [("sum", {"op": "mul", "args": [{"col": "quantity"}, {"const": c}]})]
                )
                for c in (1.5, True)
            ],
        ],
        ids=["empty-interval", "unknown-operator", "comparison", "float-constant", "bool-constant"],
    )
    def test_invalid_plan_fails_before_anything_is_billed(self, plan):
        sim, keys, _ = setup_data(files=4)
        with pytest.raises(ValueError):
            run_query(sim, plan, keys)
        assert sim.ledger.request_counts == {}
        assert sim.ledger.worker_us == {}
        assert sim.loop.now == 0

    def test_oom_budget_enforced(self, monkeypatch):
        # a 1 KiB budget for the default worker size
        monkeypatch.setattr(
            engine, "MEMORY_HEADROOM", Fraction(1024, FunctionSpec().memory_mib * MIB)
        )
        sim, keys, _ = setup_data(rows=1000, files=2)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        with pytest.raises(errors.WorkerError) as info:
            run_query(sim, plan, keys)
        assert info.value.kind == "WorkerOutOfMemory"

    def test_crash_in_second_generation_worker_is_not_lost(self, monkeypatch):
        real = engine.run_fragment

        def crash_in_w7(sim, ctx, *args):
            if ctx.name == "w7":
                raise KeyError("lost share")
            return (yield from real(sim, ctx, *args))

        monkeypatch.setattr(engine, "run_fragment", crash_in_w7)
        sim, keys, _ = setup_data(rows=1600, files=16)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        with pytest.raises(RuntimeError, match="never completed") as info:
            run_query(sim, plan, keys, strategy=invoke.TWO_LEVEL)
        assert isinstance(info.value.__cause__, KeyError)

    def test_large_result_spills_to_object_store(self, monkeypatch):
        monkeypatch.setattr(engine, "QUEUE_PAYLOAD_CAP", 512)
        sim, keys, tables = setup_data(rows=600, files=2)
        plan = engine.build_plan_from_pipeline(
            [], ("extendedprice",), [("count", None)]
        )
        rows, _ = run_query(sim, plan, keys)
        assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)
        assert sim.ledger.request_counts[(WRITE, engine.SPILL_BUCKET)] == len(keys)
        # the driver removes each spilled partial once it has read it
        assert not sim.store.bucket(engine.SPILL_BUCKET).objects


class TestConcurrentQueries:
    """Each query on a sim has its own result queue and spill keys."""

    @pytest.mark.parametrize("spill", [False, True])
    def test_two_queries_on_one_sim_are_oracle_exact(self, spill, monkeypatch):
        if spill:
            monkeypatch.setattr(engine, "QUEUE_PAYLOAD_CAP", 0)
        sim, keys, tables = setup_data(rows=1600, files=4)
        plans = [engine.q1_plan(datagen.SHIPDATE_DAYS // 2), engine.q6_plan(0, 2000)]

        def main():
            return (yield AllOf([sim.loop.spawn(engine.execute(sim, p, keys)) for p in plans]))

        reports = []
        for plan, (rows, report) in zip(plans, sim.loop.run_task(main())):
            assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)
            reports.append(report)
        spilled = sim.ledger.request_counts.get((WRITE, engine.SPILL_BUCKET), 0)
        assert spilled == (2 * len(keys) if spill else 0)
        assert not sim.store.bucket(engine.SPILL_BUCKET).objects
        # each query bills only its own driver and workers: the bill it
        # reports on a fresh sim, and the two bills make up the sim's
        for plan, report in zip(plans, reports):
            fresh, fresh_keys, _ = setup_data(rows=1600, files=4)
            _, solo = run_query(fresh, plan, fresh_keys)
            bill = (report.request_usd, report.worker_usd, report.total_usd)
            assert bill == (solo.request_usd, solo.worker_usd, solo.total_usd)
        assert sum(r.total_usd for r in reports) == sim.ledger.total_usd

    def test_sequential_queries_leave_no_spill_objects(self, monkeypatch):
        # every partial spills; each query's driver removes its own spill
        # objects after reading them, off the query's latency and bill
        monkeypatch.setattr(engine, "QUEUE_PAYLOAD_CAP", 0)
        sim, keys, tables = setup_data(rows=1600, files=4)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        expected = engine.reference_execute(tables, datagen.COLUMNS, plan)
        reports = []
        for _ in range(3):
            rows, report = run_query(sim, plan, keys)
            assert rows == expected
            reports.append(report.to_csv_row())
        assert not sim.store.bucket(engine.SPILL_BUCKET).objects
        assert sim.ledger.request_counts[(WRITE, engine.SPILL_BUCKET)] == 3 * len(keys)
        # the reports of the same queries before spill objects were removed;
        # invoke_makespan_us counts from each query's start
        assert reports == ["4,250256,112000,88004,1,2.32e-05,6.633264e-06,2.9833264e-05"] * 3


class TestOverlappedCollect:
    """The driver receives results while it still invokes first-generation
    workers.  A driver rate of 10 invocations/s spaces those out by 100 ms,
    so worker 0 runs its fragment long before worker 3 is invoked."""

    DRIVER_SLOT_US = 100_000

    def setup_slow_driver(self):
        cfg = SimConfig(driver_invoke_rate_per_s=Fraction(10))
        return setup_data(rows=1600, files=16, cfg=cfg)

    def test_first_generation_failure_during_fan_out_is_a_worker_error(self, monkeypatch):
        sim, keys, _ = self.setup_slow_driver()
        sim.store.bucket("data").objects[keys[0]] = b"garbage, not columnar"
        real, failed_at = engine.run_fragment, []

        def timed(sim, ctx, *args):
            try:
                return (yield from real(sim, ctx, *args))
            except errors.SimError:
                failed_at.append(sim.loop.now)
                raise

        monkeypatch.setattr(engine, "run_fragment", timed)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        with pytest.raises(errors.WorkerError) as info:
            run_query(sim, plan, keys, strategy=invoke.TWO_LEVEL)
        assert (info.value.worker_id, info.value.kind) == (0, "BadMagic")
        # 4 first-generation workers: the last is invoked 3 slots in
        assert failed_at[0] < 3 * self.DRIVER_SLOT_US

    def test_spilled_partials_received_during_fan_out_are_exact(self, monkeypatch):
        monkeypatch.setattr(engine, "QUEUE_PAYLOAD_CAP", 512)
        sim, keys, tables = self.setup_slow_driver()
        real, spill_reads = sim.store.get_object, []

        def timed(ctx, bucket, key, byte_range=None):
            if bucket == engine.SPILL_BUCKET:
                spill_reads.append(sim.loop.now)
            return (yield from real(ctx, bucket, key, byte_range))

        sim.store.get_object = timed
        plan = engine.build_plan_from_pipeline([], ("extendedprice",), [("count", None)])
        rows, report = run_query(sim, plan, keys, strategy=invoke.TWO_LEVEL)
        assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)
        assert len(spill_reads) == len(keys)
        assert spill_reads[0] < report.invoke_makespan_us


class TestRequestCount:
    @pytest.mark.parametrize("fraction", [0.5, 0.98])
    def test_q1_gets_match_closed_form_from_footers(self, fraction):
        """GETs = files + sum over surviving groups of (|projection| + the
        filter-only columns whose intervals the group's stats leave open),
        less the chunks that lie inside a file's last FOOTER_TAIL_WINDOW
        bytes, worked out from the footers alone: one tail GET reads each
        footer and those chunks."""
        spec = datagen.GenSpec(
            scale_bytes=datagen.ROW_BYTES * 12000, files=4, rows_per_group=100
        )
        tables = datagen.generate_tables(spec, 7)
        plan = engine.q1_plan(datagen.percentile_value(tables, "shipdate", fraction))
        projection = plan["projection"]
        [(name, lo, hi)] = plan["intervals"]
        assert name not in projection
        expected = skipped = in_tail = 0
        for _, data in datagen.encode_files(spec, 7):
            footer = read_footer(data)
            tail_start = len(data) - lcf.FOOTER_TAIL_WINDOW
            expected += 1  # the footer
            col = footer.schema.index_of(name)
            for rg in footer.row_groups:
                stats = rg.chunks[col]
                if stats.max_value < lo or stats.min_value > hi:
                    continue  # pruned
                proven = lo <= stats.min_value and stats.max_value <= hi
                fetched = [footer.schema.index_of(c) for c in projection]
                if not proven:
                    fetched.append(col)
                served = sum(rg.chunks[c].offset >= tail_start for c in fetched)
                expected += len(fetched) - served
                skipped += proven
                in_tail += served
        assert skipped > 0 and in_tail > 0 and expected > spec.files
        sim = CloudSim(SimConfig())
        keys = datagen.gen(sim, spec, 7)
        before = sim.ledger.count(READ)
        rows, _ = run_query(sim, plan, keys)
        assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)
        assert sim.ledger.count(READ) - before == expected


class TestReport:
    def test_costs_reconcile_with_ledger(self):
        sim, keys, _ = setup_data(rows=500, files=2)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        _, report = run_query(sim, plan, keys)
        assert report.total_usd == sim.ledger.total_usd
        assert report.total_usd == report.request_usd + report.worker_usd
        assert report.worker_usd > 0
        assert report.latency_us >= report.invoke_makespan_us

    def test_dollars_are_per_query_on_a_reused_sim(self):
        sim, keys, _ = setup_data(rows=500, files=2)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        _, first = run_query(sim, plan, keys)
        _, second = run_query(sim, plan, keys)
        assert second.request_usd == first.request_usd
        assert second.worker_usd == first.worker_usd
        assert second.total_usd == first.total_usd == sim.ledger.total_usd / 2

    def test_csv_row_shape(self):
        sim, keys, _ = setup_data(rows=400, files=2)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        _, report = run_query(sim, plan, keys)
        row = report.to_csv_row()
        assert len(row.split(",")) == len(engine.QueryReport.CSV_HEADER.split(","))

    # Reports of the canned queries on a small dataset, with batched receives
    # overlapping the fan-out: a speed-up must not move any of these figures.
    def test_q1_report_pinned(self):
        sim, keys, tables = setup_data()
        plan = engine.q1_plan(datagen.percentile_value(tables, "shipdate", 0.98))
        rows, report = run_query(sim, plan, keys)
        assert report.to_csv_row() == "4,152314,112000,10000,6,1.6e-06,4.001448e-06,5.601448e-06"
        assert rows[0] == [[0, 0], [8288, 1528977730, 145309613511, 15135397701080, 314]]

    def test_q6_report_pinned(self):
        sim, keys, tables = setup_data()
        lo = datagen.percentile_value(tables, "shipdate", 0.40)
        hi = datagen.percentile_value(tables, "shipdate", 0.42)
        rows, report = run_query(sim, engine.q6_plan(lo, hi), keys, files_per_worker=2)
        assert report.to_csv_row() == "2,140628,104000,6000,1,1.6e-06,2.021448e-06,3.621448e-06"
        assert rows == [[[], [76842415]]]
