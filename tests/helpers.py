"""Readers and an export that only tests use.

The simulator reads a file's footer and chunks through the object store
(`lcf.read_footer_ranged`, `scan.execute_scan`) and reports a bill as a
`QueryReport`.  Tests also decode a whole in-memory file at once, and hash
a ledger's full breakdown; those paths live here.
"""

from __future__ import annotations

import io
from fractions import Fraction

from lambada_lab import lcf
from lambada_lab.billing import BillingLedger, format_usd, request_price
from lambada_lab.clock import US_PER_S


def read_footer(data: bytes) -> lcf.FileFooter:
    """Decode the footer of a complete in-memory LCF file."""
    footer_off, footer_len = lcf.split_trailer(data[-lcf.FOOTER_TAIL_WINDOW :], len(data))
    return lcf.decode_footer(data[footer_off : footer_off + footer_len], footer_off)


def read_table(data: bytes) -> list[list]:
    """Decode a whole file into one column-major table."""
    footer = read_footer(data)
    columns: list[list] = [[] for _ in footer.schema.names]
    for rg in footer.row_groups:
        for column, chunk in zip(columns, rg.chunks):
            raw = data[chunk.offset : chunk.offset + chunk.compressed_len]
            column.extend(lcf.decode_chunk(chunk, raw, rg.row_count))
    return columns


def ledger_csv(ledger: BillingLedger) -> str:
    """A ledger as `category,bucket,count,unit_price,usd` rows."""
    out = io.StringIO()
    out.write("category,bucket,count,unit_price,usd\n")
    for (category, bucket), n in sorted(ledger.request_counts.items()):
        price = request_price(ledger.cfg, category)
        out.write(f"{category},{bucket},{n},{format_usd(price)},{format_usd(n * price)}\n")
    rate = ledger.cfg.worker_usd_per_gib_second
    for memory_mib, us in sorted(ledger.worker_us.items()):
        gib_seconds = Fraction(memory_mib, 1024) * Fraction(us, US_PER_S)
        out.write(
            f"worker_gib_s,mem{memory_mib},{format_usd(gib_seconds)},"
            f"{format_usd(rate)},{format_usd(rate * gib_seconds)}\n"
        )
    out.write(f"total,,,,{format_usd(ledger.total_usd)}\n")
    return out.getvalue()
