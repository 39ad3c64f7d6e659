import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambada_lab import datagen, engine, errors, invoke
from lambada_lab.config import SimConfig
from lambada_lab.substrate import CloudSim, FunctionSpec


def setup_data(rows=2000, files=4, rows_per_group=100, replication=1, seed=7):
    spec = datagen.GenSpec(
        scale_bytes=datagen.ROW_BYTES * rows,
        files=files,
        rows_per_group=rows_per_group,
        replication=replication,
    )
    sim = CloudSim(SimConfig())
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
        ops = [op["op"] for op in plan]
        assert ops == ["scan", "partial_agg", "final_agg", "collect"]
        scan_op = plan[0]
        assert scan_op["scope"] == engine.SERVERLESS
        assert scan_op["intervals"] == [["shipdate", 0, 100]]
        assert set(scan_op["projection"]) == {"shipdate", "returnflag", "quantity"}
        assert plan[2]["scope"] == engine.DRIVER

    def test_no_filter_projects_used_columns_only(self):
        plan = engine.build_plan_from_pipeline([], (), [("sum", {"col": "quantity"})])
        assert plan[0]["projection"] == ["quantity"]
        assert plan[0]["intervals"] == []

    def test_non_associative_reduce_rejected(self):
        with pytest.raises(errors.NonAssociativeReduce):
            engine.build_plan_from_pipeline([], (), [("sum", None)], associative=False)

    def test_plan_is_json_serializable(self):
        plan = engine.q1_plan(1000)
        assert json.loads(json.dumps(plan)) == plan
        assert "scan" in engine.plan_pretty(plan)


class TestExpressions:
    def test_arith(self):
        row = {"a": 5, "b": 3}
        expr = {"op": "mul", "args": [{"col": "a"}, {"op": "sub", "args": [{"col": "b"}, {"const": 1}]}]}
        assert engine.eval_expr(expr, row) == 10

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


class TestFailureModes:
    def test_corrupt_file_is_reported_with_worker_id(self):
        sim, keys, _ = setup_data(rows=400, files=2)
        sim.store.bucket("data").objects[keys[1]] = b"garbage, not columnar"
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        with pytest.raises(errors.WorkerError) as info:
            run_query(sim, plan, keys)
        assert info.value.worker_id == 1
        assert info.value.kind == "BadMagic"

    def test_oom_budget_enforced(self):
        sim, keys, _ = setup_data(rows=1000, files=2)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        with pytest.raises(errors.WorkerError) as info:
            run_query(sim, plan, keys, memory_budget_bytes=1024)
        assert info.value.kind == "WorkerOutOfMemory"

    def test_large_result_spills_to_object_store(self, monkeypatch):
        monkeypatch.setattr(engine, "QUEUE_PAYLOAD_CAP", 512)
        sim, keys, tables = setup_data(rows=600, files=2)
        plan = engine.build_plan_from_pipeline(
            [], ("extendedprice",), [("count", None)]
        )
        rows, _ = run_query(sim, plan, keys)
        assert rows == engine.reference_execute(tables, datagen.COLUMNS, plan)
        assert sim.store.bucket(engine.SPILL_BUCKET).objects


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
