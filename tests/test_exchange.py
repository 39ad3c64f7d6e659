import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambada_lab import datagen, engine, errors, exchange
from lambada_lab.billing import LIST, READ, WRITE
from lambada_lab.config import SimConfig
from lambada_lab.clock import US_PER_MS
from lambada_lab.substrate import CloudSim, HostContext, Nic

from helpers import ledger_csv


def fresh_sim(**overrides):
    return CloudSim(SimConfig(**overrides))


def make_inputs(P, n_records, value=b"v"):
    """Records 0..n-1 dealt round-robin to workers."""
    inputs = {p: [] for p in range(P)}
    for i in range(n_records):
        inputs[i % P].append((i, value))
    return inputs


def oracle(inputs, P):
    """Brute-force hash partitioning."""
    out = {p: [] for p in range(P)}
    for records in inputs.values():
        for key, value in records:
            out[key % P].append((key, value))
    return {p: sorted(v) for p, v in out.items()}


def run(sim, inputs, cfg):
    outputs, trace = sim.loop.run_task(exchange.run_exchange(sim, inputs, cfg))
    return {p: sorted(v) for p, v in outputs.items()}, trace


class TestRouting:
    def test_ceil_root(self):
        assert exchange.ceil_root(16, 2) == 4
        assert exchange.ceil_root(17, 2) == 5
        assert exchange.ceil_root(64, 3) == 4
        assert exchange.ceil_root(1, 3) == 1

    def test_route_prefers_natural_peer(self):
        # P=16, s=4: worker 7 = (3,1); level-0 digit swap keeps the high digit
        assert exchange.route(7, 0, 2, 4, 16) == 6
        assert exchange.route(7, 1, 3, 4, 16) == 15

    def test_route_fallback_stays_in_range(self):
        P, k = 5, 2
        s = exchange.ceil_root(P, k)  # 3
        for p in range(P):
            for level in range(k):
                for c in range(s):
                    target = exchange.route(p, level, c, s, P)
                    assert target is None or 0 <= target < P

    def test_sender_map_counts_all_pairs(self):
        P, s = 7, 3
        m = exchange.sender_map(P, 0, s)
        assert sum(len(v) for v in m.values()) == P * s

    def test_distinct_targets_per_sender(self):
        for P in (5, 9, 16, 27):
            s = exchange.ceil_root(P, 2)
            for p in range(P):
                targets = [exchange.route(p, 0, c, s, P) for c in range(s)]
                assert len(set(targets)) == s


class TestBasicExchange:
    def test_identity_hash_sixteen_records(self):
        sim = fresh_sim()
        inputs = {p: [(k, b"x") for k in range(p, 16, 4)] for p in range(4)}
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=1))
        for p in range(4):
            assert [k for k, _ in outputs[p]] == [p, p + 4, p + 8, p + 12]

    def test_degenerate_single_worker(self):
        sim = fresh_sim()
        inputs = {0: [(0, b"a"), (1, b"b")]}
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=1))
        assert outputs[0] == [(0, b"a"), (1, b"b")]
        assert sim.ledger.count(WRITE) == 1
        assert sim.ledger.count(READ) == 1

    def test_quadratic_request_count(self):
        P = 64
        sim = fresh_sim()
        run(sim, make_inputs(P, 256), exchange.ExchangeConfig(levels=1))
        assert sim.ledger.count(READ) == P * P
        assert sim.ledger.count(WRITE) == P * P
        assert sim.ledger.count(LIST) == 0

    def test_empty_partitions_still_written(self):
        sim = fresh_sim()
        inputs = {0: [(0, b"x")], 1: [], 2: [], 3: []}
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=1))
        assert outputs == {0: [(0, b"x")], 1: [], 2: [], 3: []}
        assert sim.ledger.count(WRITE) == 16


class TestMultiLevel:
    def test_two_level_request_count_perfect_square(self):
        P = 16
        sim = fresh_sim()
        run(sim, make_inputs(P, 64), exchange.ExchangeConfig(levels=2))
        assert sim.ledger.count(READ) == 2 * P * 4  # 2P*sqrt(P) = 128
        assert sim.ledger.count(WRITE) == 128

    def test_three_level_request_count_perfect_cube(self):
        P = 27
        sim = fresh_sim()
        run(sim, make_inputs(P, 54), exchange.ExchangeConfig(levels=3))
        assert sim.ledger.count(READ) == 3 * P * 3
        assert sim.ledger.count(WRITE) == 3 * P * 3

    @pytest.mark.parametrize("P", [4, 9, 16, 27])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_ownership_matches_oracle(self, P, levels):
        sim = fresh_sim()
        inputs = make_inputs(P, 5 * P)
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=levels))
        assert outputs == oracle(inputs, P)

    @pytest.mark.parametrize("P", [5, 7, 13])
    def test_ragged_worker_counts(self, P):
        sim = fresh_sim()
        inputs = make_inputs(P, 4 * P)
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=2))
        assert outputs == oracle(inputs, P)

    def test_data_conservation(self):
        P = 9
        sim = fresh_sim()
        inputs = make_inputs(P, 100, value=b"payload")
        outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=2))
        sent = sorted(r for recs in inputs.values() for r in recs)
        received = sorted(r for recs in outputs.values() for r in recs)
        assert sent == received

    @pytest.mark.parametrize("mode", exchange._WC_MODES)
    @pytest.mark.parametrize("P,levels", [(9, 2), (5, 2), (7, 2), (13, 2), (60, 3)])
    def test_synthetic_data_conservation(self, P, levels, mode):
        total = 10**6 + 7
        sim = fresh_sim()
        cfg = exchange.ExchangeConfig(levels=levels, write_combining=mode)
        sizes, trace, _ = sim.loop.run_task(
            exchange.run_synthetic_exchange(sim, P, total, cfg)
        )
        assert sorted(sizes) == list(range(P))
        assert sum(sizes.values()) == total
        assert len(trace) == P * levels


class TestWriteCombining:
    @pytest.mark.parametrize("mode", [exchange.WC_OFFSETS_IN_NAME])
    def test_oracle_equivalence(self, mode):
        P = 9
        sim = fresh_sim()
        inputs = make_inputs(P, 45)
        outputs, _ = run(
            sim, inputs, exchange.ExchangeConfig(levels=2, write_combining=mode)
        )
        assert outputs == oracle(inputs, P)

    def test_offsets_in_name_request_counts(self):
        P = 16
        sim = fresh_sim()
        cfg = exchange.ExchangeConfig(
            levels=2, write_combining=exchange.WC_OFFSETS_IN_NAME
        )
        run(sim, make_inputs(P, 64), cfg)
        assert sim.ledger.count(WRITE) == 2 * P
        assert sim.ledger.count(READ) == 2 * P * 4
        assert sim.ledger.count(LIST) == 2 * P

    def test_empty_partition_boundary_offsets(self):
        # keys 0 and 4 both route to worker 0 at P = 4: worker 0 keeps
        # everything and every worker ships empty slices
        sim = fresh_sim()
        inputs = {0: [(0, b"abc"), (4, b"de")], 1: [], 2: [], 3: []}
        cfg = exchange.ExchangeConfig(levels=1, write_combining=exchange.WC_OFFSETS_IN_NAME)
        outputs, _ = sim.loop.run_task(exchange.run_exchange(sim, inputs, cfg))
        assert sorted(outputs[0]) == [(0, b"abc"), (4, b"de")]
        assert outputs[1] == outputs[2] == outputs[3] == []

    def test_key_too_long_surfaces(self):
        sim = fresh_sim(max_key_bytes=24)
        inputs = make_inputs(9, 18)
        cfg = exchange.ExchangeConfig(levels=1, write_combining=exchange.WC_OFFSETS_IN_NAME)
        with pytest.raises(errors.KeyTooLong):
            sim.loop.run_task(exchange.run_exchange(sim, inputs, cfg))

    @pytest.mark.parametrize("mode", exchange._WC_MODES)
    def test_slow_sender_shows_as_receiver_wait(self, monkeypatch, mode):
        P, slow = 4, 0

        def ctx_factory(p):
            ctx = HostContext(sim, f"xw{p}")
            if p == slow:
                ctx.first_byte_latency_us += 500 * US_PER_MS
            return ctx

        sim = fresh_sim()
        store = sim.store
        landed = {}  # key -> virtual time its put finished
        first_read = {}  # host -> virtual time it sent its first GET or LIST
        put, get, list_ = store.put_object, store.get_object, store.list_objects

        def logged_put(ctx, bucket, key, data):
            yield from put(ctx, bucket, key, data)
            landed[key] = sim.loop.now

        def logged(read):
            def call(ctx, *args):
                first_read.setdefault(ctx.name, sim.loop.now)
                return (yield from read(ctx, *args))

            return call

        monkeypatch.setattr(store, "put_object", logged_put)
        monkeypatch.setattr(store, "get_object", logged(get))
        monkeypatch.setattr(store, "list_objects", logged(list_))
        cfg = exchange.ExchangeConfig(levels=1, write_combining=mode)
        _, trace = sim.loop.run_task(
            exchange.run_exchange(sim, make_inputs(P, 8), cfg, ctx_factory=ctx_factory)
        )
        receivers = [t for t in trace if t.worker != slow]
        assert len(receivers) == P - 1 and all(t.wait_us > 0 for t in receivers)
        # each receiver's wait ends at the very instant the slow sender's
        # file for it lands: its first read goes out then
        naming = exchange.NamingScheme(1, cfg.num_buckets)  # the sim's first run
        for t in receivers:
            if mode == exchange.WC_OFF:
                key = naming.plain_key(0, slow, t.worker)
            else:
                (key,) = [k for k in landed if k.startswith(f"x1/l0/s{slow}-")]
            assert first_read[f"xw{t.worker}"] == landed[key]
        # waiting is free: still one GET per inbound file
        variant = "1l-wc" if mode == exchange.WC_OFFSETS_IN_NAME else "1l"
        row = exchange.exchange_cost(P, variant, sim.cfg)
        assert (sim.ledger.count(READ), sim.ledger.count(WRITE)) == (row.reads, row.writes)

    @pytest.mark.parametrize("mode", exchange._WC_MODES)
    def test_failed_sender_ends_the_run(self, mode):
        # a sender whose first upload fails never writes; its receivers must
        # not wait for it forever, and its error must surface
        P, broken = 4, 0

        class BrokenNic(Nic):
            def reserve(self, nbytes, ready_us):
                raise ValueError("injected egress fault")

        def ctx_factory(p):
            ctx = HostContext(sim, f"xw{p}")
            if p == broken:
                ctx.egress = BrokenNic(sim.nic_shaping)
            return ctx

        sim = fresh_sim()
        cfg = exchange.ExchangeConfig(levels=1, write_combining=mode)
        with pytest.raises(RuntimeError, match="never completed") as info:
            sim.loop.run_task(
                exchange.run_exchange(sim, make_inputs(P, 8), cfg, ctx_factory=ctx_factory)
            )
        cause = info.value.__cause__
        assert isinstance(cause, ValueError) and "injected egress fault" in str(cause)

    def test_in_name_key_round_trip(self):
        naming = exchange.NamingScheme(3, 1)
        key = naming.in_name_key(1, 12, [0, 5, 5, 19])
        assert key == "x3/l1/s12-0_5_5_19-off"
        assert key.startswith(naming.level_prefix(1))
        assert exchange.NamingScheme.parse_in_name(key) == (12, [0, 5, 5, 19])


def ledger_counts(sim):
    return sim.ledger.count(READ), sim.ledger.count(WRITE), sim.ledger.count(LIST)


class TestRunsOnOneSim:
    """Each run on a sim is numbered and its keys carry the number, so a run
    never sees an earlier run's files in the shared buckets."""

    @pytest.mark.parametrize("mode", exchange._WC_MODES)
    def test_two_runs_on_one_sim(self, mode):
        # the second run's LIST must not return the first run's key, whose
        # offsets would cut 5 bytes out of the second run's 90
        sim = fresh_sim()
        cfg = exchange.ExchangeConfig(write_combining=mode)
        variant = "1l-wc" if mode == exchange.WC_OFFSETS_IN_NAME else "1l"
        row = exchange.exchange_cost(2, variant, sim.cfg)
        for value in (b"x" * 5, b"z" * 90):
            inputs = {0: [(1, value)], 1: []}
            before = ledger_counts(sim)
            outputs, _ = run(sim, inputs, cfg)
            assert outputs == oracle(inputs, 2) == {0: [], 1: [(1, value)]}
            delta = tuple(b - a for a, b in zip(before, ledger_counts(sim)))
            assert delta == (row.reads, row.writes, row.lists)
        assert sorted(sim.store.buckets) == ["xchg-0"]

    def test_query_exchange_query_on_one_sim(self):
        sim = fresh_sim()
        spec = datagen.GenSpec(scale_bytes=datagen.ROW_BYTES * 400, files=2, rows_per_group=100)
        keys = datagen.gen(sim, spec, 7)
        tables = datagen.generate_tables(spec, 7)
        plan = engine.q6_plan(0, datagen.SHIPDATE_DAYS)
        expected = engine.reference_execute(tables, datagen.COLUMNS, plan)
        cfg = exchange.ExchangeConfig(levels=2, write_combining=exchange.WC_OFFSETS_IN_NAME)
        inputs = make_inputs(9, 45)
        assert sim.loop.run_task(engine.execute(sim, plan, keys))[0] == expected
        assert run(sim, inputs, cfg)[0] == oracle(inputs, 9)
        assert sim.loop.run_task(engine.execute(sim, plan, keys))[0] == expected


class TestCostModel:
    def test_table_of_closed_forms(self):
        sim = fresh_sim()
        P = 4096
        rows = {v: exchange.exchange_cost(P, v, sim.cfg) for v in exchange.VARIANTS}
        assert rows["1l"].reads == rows["1l"].writes == P * P
        assert rows["1l-wc"].writes == P
        assert rows["2l"].reads == 2 * P * 64
        assert rows["2l-wc"].writes == 2 * P
        assert rows["3l"].reads == 3 * P * 16
        assert rows["3l-wc"].writes == 3 * P
        assert rows["1l"].lists == 0 and rows["2l-wc"].lists == 2 * P
        assert [rows[v].scans for v in exchange.VARIANTS] == [1, 1, 2, 2, 3, 3]

    def test_headline_request_bill(self):
        sim = fresh_sim()
        row = exchange.exchange_cost(4096, "1l", sim.cfg)
        assert abs(float(row.request_usd) - 90.597) < 0.01

    def test_degenerate_single_worker_bill(self):
        sim = fresh_sim()
        for variant in exchange.VARIANTS:
            row = exchange.exchange_cost(1, variant, sim.cfg)
            assert row.reads == row.writes == int(variant[0])
        row = exchange.exchange_cost(1, "1l", sim.cfg)
        assert row.request_usd == Fraction("5.4e-6")

    def test_worker_side_bill(self):
        sim = fresh_sim()
        usd = exchange.exchange_worker_cost(
            4096, 4 * 1024**4, Fraction(85), sim.cfg
        )
        assert abs(float(usd) - 3.3) / 3.3 < 0.05

    def test_simulated_counts_match_closed_forms(self):
        # one bucket, full or ragged grid (several buckets: the grid test
        # below); a solo worker lists its bucket each round like any other
        cases = [(16, "2l"), (16, "2l-wc"), (27, "3l"), (27, "3l-wc"), (1, "1l-wc"), (1, "2l-wc")]
        cases += [(5, "2l"), (5, "2l-wc"), (7, "2l"), (13, "2l-wc"), (60, "3l"), (60, "3l-wc")]
        for P, variant in cases:
            sim = fresh_sim()
            cfg = exchange.ExchangeConfig(
                levels=int(variant[0]),
                write_combining=exchange.WC_OFFSETS_IN_NAME
                if variant.endswith("-wc")
                else exchange.WC_OFF,
            )
            run(sim, make_inputs(P, 4 * P), cfg)
            row = exchange.exchange_cost(P, variant, sim.cfg)
            assert sim.ledger.count(READ) == row.reads
            assert sim.ledger.count(WRITE) == row.writes
            assert sim.ledger.count(LIST) == row.lists
            assert sim.ledger.request_usd == row.request_usd

    @pytest.mark.parametrize(
        "P,variant,buckets,lists",
        [
            (256, "2l-wc", 10, 3840),
            (16, "2l-wc", 3, 96),
            (27, "3l-wc", 4, 243),
            (64, "3l-wc", 2, 256),
        ],
    )
    def test_lists_over_several_buckets_on_a_full_grid(self, P, variant, buckets, lists):
        # each receiver lists every bucket of its senders, s**level apart
        sim = fresh_sim()
        assert exchange.exchange_cost(P, variant, sim.cfg, buckets).lists == lists

    @settings(max_examples=60, deadline=None)
    @given(
        P=st.integers(min_value=1, max_value=64),
        levels=st.integers(min_value=1, max_value=3),
        mode=st.sampled_from(exchange._WC_MODES),
        buckets=st.integers(min_value=1, max_value=4),
    )
    def test_model_equals_ledger_on_the_grid(self, P, levels, mode, buckets):
        sim = fresh_sim()
        cfg = exchange.ExchangeConfig(levels=levels, write_combining=mode, num_buckets=buckets)
        sim.loop.run_task(exchange.run_synthetic_exchange(sim, P, 10**6, cfg))
        variant = f"{levels}l" + ("-wc" if mode == exchange.WC_OFFSETS_IN_NAME else "")
        row = exchange.exchange_cost(P, variant, sim.cfg, buckets)
        ledger = sim.ledger
        assert (ledger.count(READ), ledger.count(WRITE), ledger.count(LIST)) == (
            row.reads,
            row.writes,
            row.lists,
        )
        assert ledger.request_usd == row.request_usd


class TestOffsetsInNameKeys:
    # parsing each listing once per run must not move the makespan or the
    # (GET, PUT, LIST) counts pinned here
    @pytest.mark.parametrize(
        "P,levels,buckets,makespan_us,counts",
        [(16, 2, 3, 2_969_100, (128, 32, 96)), (27, 3, 2, 2_714_757, (243, 81, 162))],
    )
    def test_each_key_parsed_once_per_run(
        self, monkeypatch, P, levels, buckets, makespan_us, counts
    ):
        parse = exchange.NamingScheme.parse_in_name
        calls = []

        def counting(key):
            calls.append(key)
            return parse(key)

        monkeypatch.setattr(exchange.NamingScheme, "parse_in_name", staticmethod(counting))
        sim = fresh_sim()
        cfg = exchange.ExchangeConfig(
            levels=levels, write_combining=exchange.WC_OFFSETS_IN_NAME, num_buckets=buckets
        )
        sizes, _, makespan = sim.loop.run_task(
            exchange.run_synthetic_exchange(sim, P, 10**9, cfg)
        )
        assert len(calls) == levels * P
        assert makespan == makespan_us
        ledger = sim.ledger
        assert (ledger.count(READ), ledger.count(WRITE), ledger.count(LIST)) == counts
        assert sum(sizes.values()) == 10**9


class TestBucketSharding:
    def test_sharding_spreads_peak_bucket_rate(self, admission_log):
        def peak(B):
            sim = fresh_sim()
            cfg = exchange.ExchangeConfig(levels=1, num_buckets=B)
            run(sim, make_inputs(64, 64), cfg)
            return max(
                admission_log.peak(limiter)
                for name, b in sim.store.buckets.items()
                if name.startswith("xchg-")
                for limiter in (b.read_limiter, b.write_limiter)
            )

        assert peak(1) >= 4 * peak(8)

    def test_trace_csv_shape(self):
        sim = fresh_sim()
        _, trace = run(sim, make_inputs(4, 8), exchange.ExchangeConfig(levels=2))
        assert sorted((t.worker, t.level) for t in trace) == [
            (p, level) for p in range(4) for level in range(2)
        ]


class TestPhaseTrace:
    # SHA-256 over every phase row of P=16 two-level runs in each
    # write-combining mode over 1 and 3 buckets; pins the trace's stamps
    TRACE_SHA256 = "4190b7494543236b720b8834593d8641042941939d94f95badde27c2d1022149"

    def test_phase_rows_are_pinned(self):
        rows = []
        for mode in (exchange.WC_OFF, exchange.WC_OFFSETS_IN_NAME):
            for buckets in (1, 3):
                sim = fresh_sim()
                cfg = exchange.ExchangeConfig(
                    levels=2, write_combining=mode, num_buckets=buckets
                )
                _, trace = run(sim, make_inputs(16, 64), cfg)
                rows += [
                    (mode, buckets, t.worker, t.level, t.write_us, t.wait_us, t.read_us)
                    for t in trace
                ]
        assert len(rows) == 2 * 2 * 16 * 2
        digest = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
        assert digest == self.TRACE_SHA256


class TestExchangeDigest:
    # SHA-256 over both operators' outputs, ledgers, phase rows and end
    # times, for each write-combining mode, P in {1, 5, 9, 16, 27}, 1-3
    # levels and 1 or 3 buckets; pins the exchange byte for byte.  The phase
    # rows are hashed sorted: the order in which workers that end a round at
    # the same virtual instant append theirs is not a simulated figure
    EXCHANGE_SHA256 = "1850150d0bb3268c734ab7884fe9398b44ecb6674a2b01aee0287b2ae88a0bda"

    def test_exchange_is_pinned(self):
        digest = hashlib.sha256()
        for mode in (exchange.WC_OFF, exchange.WC_OFFSETS_IN_NAME):
            for P in (1, 5, 9, 16, 27):
                for levels in (1, 2, 3):
                    for buckets in (1, 3):
                        cfg = exchange.ExchangeConfig(
                            levels=levels, write_combining=mode, num_buckets=buckets
                        )
                        sim = fresh_sim()
                        outputs, trace = sim.loop.run_task(
                            exchange.run_exchange(sim, make_inputs(P, 3 * P), cfg)
                        )
                        synth = fresh_sim()
                        sizes, synth_trace, makespan = synth.loop.run_task(
                            exchange.run_synthetic_exchange(synth, P, 10**6 + 7, cfg)
                        )
                        for ran, out, tr in (
                            (sim, outputs, trace),
                            (synth, sizes, synth_trace),
                        ):
                            rows = sorted(tuple(vars(t).values()) for t in tr)
                            key = (mode, P, levels, buckets, sorted(out.items()), rows)
                            digest.update(repr(key + (ran.loop.now,)).encode())
                            digest.update(ledger_csv(ran.ledger).encode())
                        digest.update(repr(makespan).encode())
        assert digest.hexdigest() == self.EXCHANGE_SHA256


@settings(max_examples=20, deadline=None)
@given(
    P=st.sampled_from([4, 5, 9]),
    levels=st.sampled_from([1, 2]),
    keys=st.lists(st.integers(min_value=0, max_value=1000), max_size=30),
)
def test_partition_correctness_property(P, levels, keys):
    sim = fresh_sim()
    inputs = {p: [] for p in range(P)}
    for i, k in enumerate(keys):
        inputs[i % P].append((k, str(i).encode()))
    outputs, _ = run(sim, inputs, exchange.ExchangeConfig(levels=levels))
    assert outputs == oracle(inputs, P)
