"""A fixed pure-Python load that gauges how fast this machine runs at the moment.

The machine's speed drifts in phases that last from seconds to minutes: the
same operation can take twice as long in one phase as in another, and a
whole run can fall in a fast or a slow phase.  The benchmark therefore times
this load right before and right after every operation and scales the
operation's wall time by the load's nominal time over its measured time.
The program under test never runs here, so a change to the program moves
the scaled time exactly as it moves the wall time, while the machine's
phase mostly cancels out.

The load mixes the kinds of work the simulator does, each for about a third
of the time: integer arithmetic in a loop, a dict built per row and
aggregated by key (the engine's row work), and a heap of small objects with
generators and `Fraction` arithmetic (the event loop and `Nic.reserve`).
No single kind tracks the workloads well: a memory-heavy phase slows the
dict and heap work far more than the arithmetic.
"""

from __future__ import annotations

import heapq
import time
from fractions import Fraction

# Wall time of one `load()` on the 2-vCPU machine of the README's figures.
# It only sets the scale: a scaled time reads like a wall time in that
# machine's usual phase.
NOMINAL_S = 0.1


def _arithmetic(n: int = 300_000) -> int:
    s = 0
    for i in range(n):
        s = (s + ((i * 7) ^ (s >> 3))) & 0xFFFFF
    return s


def _rows(n: int = 24_000) -> dict:
    cols = ("a", "b", "c", "d", "e")
    acc: dict[tuple, list[int]] = {}
    for i in range(n):
        row = {c: (i * k) % 97 for k, c in enumerate(cols, 1)}
        key = (row["a"] % 4, row["b"] % 3)
        v = acc.get(key)
        if v is None:
            v = acc[key] = [0, 0, 0]
        v[0] += row["c"]
        v[1] += row["d"] * row["e"]
        v[2] += 1
    return acc


class _Event:
    __slots__ = ("at", "n")

    def __init__(self, at: int, n: int):
        self.at = at
        self.n = n

    def __lt__(self, other: "_Event") -> bool:
        return self.at < other.at


def _events(n: int = 9_000) -> int:
    def steps(k: int):
        x = Fraction(1, k + 1)
        for _ in range(3):
            x = x * Fraction(3, 2) + 1
            yield x

    heap: list[_Event] = []
    for i in range(n):
        heapq.heappush(heap, _Event((i * 7919) % 1000, i))
    out = 0
    while heap:
        e = heapq.heappop(heap)
        if e.n % 8 == 0:
            for v in steps(e.n % 5):
                out += v.numerator % 7
        else:
            out += len(str(e.at))
    return out


def load() -> None:
    """The fixed load; always the same work."""
    _arithmetic()
    _rows()
    _events()


def timed_load() -> float:
    """Wall seconds one `load()` takes now."""
    start = time.perf_counter()
    load()
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` at the nominal speed, given the load's times around them."""
    return seconds * NOMINAL_S * 2 / (before + after)
