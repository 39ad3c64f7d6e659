"""Command-line entry point: dataset generation and benchmark reports.

Every command drives a fresh simulation to completion and writes plain CSV
files; identical config and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import datagen, econ, engine, exchange, invoke
from .billing import format_usd
from .clock import AllOf, US_PER_S
from .config import MIB, SimConfig, load_config
from .errors import ConfigError
from .substrate import CloudSim, FunctionSpec, ZeroBlob

DESK_SCALE_BYTES = 8 * MIB  # keeps bench runs interactive on one core
MEMORY_SWEEP = (512, 1024, 1792, 2048, 3008)
EXCHANGE_REFERENCE_S = {250: 22, 500: 15, 1000: 13}


class OracleMismatch(Exception):
    """A bench's answer differs from the single-node oracle's."""


def _write(outdir: Path, name: str, lines: list[str]) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text("\n".join(lines) + "\n")
    return path


def _gen_spec(args) -> datagen.GenSpec:
    return datagen.GenSpec(
        scale_bytes=args.scale,
        files=args.files,
        rows_per_group=args.rows_per_group,
        replication=args.replication,
    )


def _seeded_sim(cfg: SimConfig, args):
    sim = CloudSim(cfg)
    return sim, datagen.gen(sim, _gen_spec(args), args.seed)


def cmd_gen(cfg: SimConfig, args) -> list[str]:
    spec = _gen_spec(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["key,bytes,rows"]
    rows_per_file = []
    for table in datagen.generate_tables(spec, args.seed):
        rows_per_file.append(len(table[0]))
    for (key, data), rows in zip(
        datagen.encode_files(spec, args.seed),
        [r for r in rows_per_file for _ in range(spec.replication)],
    ):
        (outdir / key).write_bytes(data)
        lines.append(f"{key},{len(data)},{rows}")
    _write(outdir, "manifest.csv", lines)
    return [f"wrote {len(lines) - 1} files to {outdir}"]


def bench_q1(cfg: SimConfig, args, outdir: Path) -> list[str]:
    cfg = cfg.updated(decode_cycles_per_byte=Fraction(args.decode_cycles))
    tables = datagen.generate_tables(_gen_spec(args), args.seed)
    plan = engine.q1_plan(datagen.percentile_value(tables, "shipdate", 0.98))
    oracle = engine.reference_execute(tables * args.replication, datagen.COLUMNS, plan)
    lines = ["memory_mib,files_per_worker,latency_us,rows,request_usd,worker_usd,total_usd"]
    wrong = []  # the memory sizes whose answer differs from the oracle's
    for memory_mib in MEMORY_SWEEP:
        sim, keys = _seeded_sim(cfg, args)
        rows, report = sim.loop.run_task(
            engine.execute(
                sim,
                plan,
                keys,
                files_per_worker=args.files_per_worker,
                spec=FunctionSpec(memory_mib=memory_mib),
            )
        )
        if rows != oracle:
            wrong.append(memory_mib)
        lines.append(
            f"{memory_mib},{args.files_per_worker},{report.latency_us},{len(rows)},"
            f"{format_usd(report.request_usd)},{format_usd(report.worker_usd)},"
            f"{format_usd(report.total_usd)}"
        )
    _write(outdir, "q1.csv", lines)
    if wrong:
        raise OracleMismatch(f"q1: answer at memory {wrong} MiB (MISMATCH vs oracle)")
    return [f"q1: swept memory {MEMORY_SWEEP} (every answer ok vs oracle) -> {outdir / 'q1.csv'}"]


def bench_q6(cfg: SimConfig, args, outdir: Path) -> list[str]:
    tables = datagen.generate_tables(_gen_spec(args), args.seed)
    sim, keys = _seeded_sim(cfg, args)
    lo = datagen.percentile_value(tables, "shipdate", 0.49)
    hi = datagen.percentile_value(tables, "shipdate", 0.51)
    plan = engine.q6_plan(lo, hi)
    rows, report = sim.loop.run_task(
        engine.execute(sim, plan, keys, files_per_worker=args.files_per_worker)
    )
    oracle = engine.reference_execute(tables * args.replication, datagen.COLUMNS, plan)
    lines = [engine.QueryReport.CSV_HEADER, report.to_csv_row()]
    _write(outdir, "q6.csv", lines)
    ok = rows == oracle
    note = (
        f"q6: answer {json.dumps(rows)} ({'ok' if ok else 'MISMATCH'} vs oracle), "
        f"latency {report.latency_us / US_PER_S:.3f}s -> {outdir / 'q6.csv'}"
    )
    if not ok:
        raise OracleMismatch(note)
    return [note]


def bench_exchange(cfg: SimConfig, args, outdir: Path) -> list[str]:
    lines = ["workers,makespan_s,reference_s"]
    notes = []
    for W in args.workers:
        sim = CloudSim(cfg)
        xcfg = exchange.ExchangeConfig(
            levels=2,
            write_combining=exchange.WC_OFFSETS_IN_NAME,
            num_buckets=args.buckets,
        )
        _, _, makespan_us = sim.loop.run_task(
            exchange.run_synthetic_exchange(sim, W, args.total_bytes, xcfg)
        )
        ref = EXCHANGE_REFERENCE_S.get(W, "")
        makespan_s = makespan_us / US_PER_S
        lines.append(f"{W},{makespan_s:.3f},{ref}")
        notes.append(f"exchange: W={W} makespan {makespan_s:.1f}s (reference {ref}s)")
    _write(outdir, "exchange.csv", lines)
    return notes + [f"exchange: -> {outdir / 'exchange.csv'}"]


def bench_invoke(cfg: SimConfig, args, outdir: Path) -> list[str]:
    notes = []
    for strategy in (invoke.DIRECT, invoke.TWO_LEVEL):
        sim = CloudSim(cfg)
        report = sim.loop.run_task(
            invoke.run_plan(sim.driver(), invoke.build_plan(args.P, strategy))
        )
        _write(outdir, f"invoke-{strategy}.csv", report.to_csv().splitlines())
        notes.append(
            f"invoke {strategy}: last initiated {report.last_initiated_us / US_PER_S:.3f}s, "
            f"makespan {report.makespan_us / US_PER_S:.3f}s"
        )
        if strategy == invoke.TWO_LEVEL:
            lines = ["worker,driver_delay_us,call_latency_us,child_span_us"]
            for worker, delay, latency, span in report.phase_breakdown():
                lines.append(f"{worker},{delay},{latency},{span}")
            _write(outdir, "invoke-phases.csv", lines)
    return notes


def bench_scan_sweep(cfg: SimConfig, args, outdir: Path) -> list[str]:
    total = 64 * MIB
    lines = ["chunk_bytes,connections,seconds,mib_per_s,request_usd"]
    for chunk in (64 * 1024, 256 * 1024, MIB, 4 * MIB, 16 * MIB):
        for conns in (1, 4):
            sim = CloudSim(cfg)
            sim.store.seed_object("blob", "data", ZeroBlob(total))
            ctx = sim.driver()

            def fetch(offsets):
                for off in offsets:
                    yield from sim.store.get_object(
                        ctx, "blob", "data", (off, min(off + chunk, total))
                    )

            def main():
                starts = list(range(0, total, chunk))
                shards = [starts[i::conns] for i in range(conns)]
                tasks = [sim.loop.spawn(fetch(s)) for s in shards if s]
                yield AllOf(tasks)

            sim.loop.run_task(main())
            seconds = sim.loop.now / US_PER_S
            rate = total / MIB / seconds
            lines.append(
                f"{chunk},{conns},{seconds:.4f},{rate:.2f},"
                f"{format_usd(sim.ledger.request_usd)}"
            )
    _write(outdir, "scan-sweep.csv", lines)
    return [f"scan-sweep: -> {outdir / 'scan-sweep.csv'}"]


def bench_econ(cfg: SimConfig, args, outdir: Path) -> list[str]:
    units = [2**i for i in range(15)]
    faas = econ.faas_profile(cfg)
    lines = [econ.CURVE_CSV_HEADER]
    for profile in (faas, econ.VM_PROFILE):
        curve = econ.job_scoped_curve(args.data_bytes, profile, units)
        lines.extend(econ.curve_to_csv(profile.kind, curve))
    _write(outdir, "econ-curves.csv", lines)
    per_query_faas = econ.min_cost(args.data_bytes, faas, units)
    per_query_qaas = econ.qaas_query_cost([args.data_bytes], econ.QaaSPricing())
    rows = ["preset,hourly_usd,crossover_vs_faas_per_hr,crossover_vs_qaas_per_hr"]
    for preset in econ.ALWAYS_ON_PRESETS:
        hourly = econ.preset_hourly_usd(preset)
        rows.append(
            f"{preset.name},{format_usd(hourly)},"
            f"{float(econ.always_on_crossover(hourly, per_query_faas)):.4g},"
            f"{float(econ.always_on_crossover(hourly, per_query_qaas)):.4g}"
        )
    _write(outdir, "econ-crossover.csv", rows)
    return [
        f"econ: faas per-query ${float(per_query_faas):.4g}, "
        f"qaas per-query ${float(per_query_qaas):.4g} -> {outdir}"
    ]


BENCHES = {
    "q1": bench_q1,
    "q6": bench_q6,
    "exchange": bench_exchange,
    "invoke": bench_invoke,
    "scan-sweep": bench_scan_sweep,
    "econ": bench_econ,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambada-lab",
        description="Serverless analytics simulator: data generation and benchmarks.",
    )
    parser.add_argument("--config", help="config file (or set LAMBADA_LAB_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--scale", type=int, default=DESK_SCALE_BYTES, help="total bytes")
        p.add_argument("--files", type=int, default=32)
        p.add_argument("--rows-per-group", type=int, default=4096, dest="rows_per_group")
        p.add_argument("--replication", type=int, default=1)
        p.add_argument("--seed", type=int, default=42)

    gen = sub.add_parser("gen", help="write a generated LCF dataset to a directory")
    add_data_flags(gen)
    gen.add_argument("-o", "--out", default="out/dataset")

    bench = sub.add_parser("bench", help="run a benchmark and emit CSV reports")
    bench.add_argument("experiment", choices=sorted(BENCHES))
    add_data_flags(bench)
    bench.add_argument("-o", "--out", default="out")
    bench.add_argument("--files-per-worker", type=int, default=1, dest="files_per_worker")
    bench.add_argument("--decode-cycles", type=int, default=100, dest="decode_cycles")
    bench.add_argument("--workers", type=int, nargs="+", default=[250, 500, 1000])
    bench.add_argument("--total-bytes", type=int, default=100 * 10**9, dest="total_bytes")
    bench.add_argument("--buckets", type=int, default=10)
    bench.add_argument("-P", type=int, default=4096)
    bench.add_argument("--data-bytes", type=int, default=10**12, dest="data_bytes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "gen":
            notes = cmd_gen(cfg, args)
        else:
            notes = BENCHES[args.experiment](cfg, args, Path(args.out))
    except OracleMismatch as err:
        print(err)
        return 1
    except ConfigError as err:
        # a config that fails its checks is a usage error, like a bad flag
        print(f"lambada-lab: error: {err}", file=sys.stderr)
        return 2
    for note in notes:
        print(note)
    return 0


if __name__ == "__main__":
    sys.exit(main())
