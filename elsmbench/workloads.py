"""Workload definitions and the seeded generators that drive them.

Everything the store receives is made here from the ``--seed`` argument:
the loaded records, the operation mix, the request keys and the values.
The generators are the benchmark's own (not the repository's YCSB
package), so a change to the program cannot change the inputs it is
measured on.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

#: Records loaded before every timed run: 16-byte keys and values of 20
#: to 180 bytes (mean 100, the paper's record).  Loaded value lengths
#: follow a fixed sequence, so every seed starts its mix from an LSM tree
#: of the same shape, at the same point of its flush and compaction
#: cycles; written values draw their length from the seed.  Varying the
#: length makes each operation's simulated cost depend on the seed: with
#: fixed-size records a put, or a GET at a given level, costs the same
#: constant for every seed, and a percentile would read the same on
#: every run.
LOAD_RECORDS = 5000
VALUE_BYTES = (20, 180)


def load_length(index: int) -> int:
    """Value length of loaded record ``index`` (the same for every seed)."""
    low, high = VALUE_BYTES
    return low + (index * 97) % (high - low + 1)

#: Scan length is drawn uniformly from this range (YCSB-E).
SCAN_LENGTH = (1, 50)

OP_CLASS = {
    "get": "get",
    "update": "write",
    "insert": "write",
    "delete": "write",
    "scan": "scan",
}
CLASSES = ("get", "write", "scan")

# Key index -> key: a bijection of [0, _PRIME) onto 12-digit numbers, so
# loaded and inserted keys interleave across the whole key space (YCSB's
# hashed insert order) and never collide.
_PRIME = 999_999_999_989
_MULT = 0x5DEECE66D
_OFFSET = 0xB


def key_of(index: int) -> bytes:
    """The 16-byte key of record ``index``."""
    return b"user%012d" % ((index * _MULT + _OFFSET) % _PRIME)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv64(value: int) -> int:
    h = _FNV_OFFSET
    for _ in range(8):
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        h ^= value & 0xFF
        value >>= 8
    return h


class ScrambledZipfian:
    """YCSB's scrambled Zipfian (Gray et al., theta 0.99) over [0, n).

    Ranks are scattered by FNV as in YCSB, then rotated by an offset drawn
    from the generator's seed, so each seed has its own hot keys.
    """

    THETA = 0.99

    def __init__(self, n: int, rng: random.Random) -> None:
        self.n = n
        self.rng = rng
        self.offset = rng.randrange(n)
        theta = self.THETA
        self.alpha = 1.0 / (1.0 - theta)
        self.zetan = math.fsum(1.0 / (i**theta) for i in range(1, n + 1))
        zeta2 = 1.0 + 0.5**theta
        self.half_pow = 0.5**theta
        self.eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - zeta2 / self.zetan)

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + self.half_pow:
            rank = 1
        else:
            rank = int(self.n * (self.eta * u - self.eta + 1) ** self.alpha)
        return (_fnv64(rank) + self.offset) % self.n


@dataclass(frozen=True)
class Workload:
    name: str
    #: (operation, weight) pairs; weights sum to 100.
    mix: tuple[tuple[str, int], ...]
    #: "zipfian" (scrambled, over the loaded records) or "uniform" (over
    #: every key index handed out so far).
    key_dist: str
    #: Mix operations per requested second of run time.  The op count is
    #: fixed (not time-bounded) so simulated metrics depend on the seed
    #: alone; the constant is set so one run lasts about ``--seconds`` on
    #: a 2-core x86 host.
    ops_per_second: int
    #: Kernel page cache given to the store's SimDisk; None keeps the
    #: store's default (the scaled 16 GB RAM, 64 MB at 1/256).
    cache_bytes: int | None
    why: str

    @property
    def write_kind(self) -> str:
        for op, _ in self.mix:
            if OP_CLASS[op] == "write":
                return op
        return "update"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="read-heavy",
            mix=(("get", 95), ("update", 5)),
            key_dist="zipfian",
            ops_per_second=2800,
            cache_bytes=None,
            why="YCSB-B, 95% verified get / 5% update, Zipfian, cache-resident: "
            "the read-proof path works and compaction almost idles",
        ),
        Workload(
            name="update-heavy",
            mix=(("update", 50), ("insert", 30), ("delete", 5), ("get", 15)),
            key_dist="uniform",
            ops_per_second=830,
            cache_bytes=1 << 20,
            why="50% update, 30% insert, 5% delete, 15% verified get, uniform, "
            "page cache at most a quarter of the data on disk: flush, compaction and WAL work",
        ),
        Workload(
            name="scan-heavy",
            mix=(("scan", 95), ("insert", 5)),
            key_dist="zipfian",
            ops_per_second=400,
            cache_bytes=None,
            why="YCSB-E, 95% verified scan of 1-50 keys / 5% insert, Zipfian, "
            "cache-resident: per-entry prover, verifier and block-fetch costs",
        ),
    )
}


class Model:
    """The reference model: live keys, their values, and key order."""

    def __init__(self, records=()) -> None:
        self.values: dict[bytes, bytes] = {}
        self.sorted_keys: list[bytes] = []
        for key, value in records:
            self.put(key, value)

    def put(self, key: bytes, value: bytes) -> None:
        if key not in self.values:
            insort(self.sorted_keys, key)
        self.values[key] = value

    def delete(self, key: bytes) -> None:
        if self.values.pop(key, None) is not None:
            del self.sorted_keys[bisect_left(self.sorted_keys, key)]

    def scan_bounds(self, start: bytes, count: int) -> tuple[bytes, bytes, int, int]:
        """Bounds ``[lo, hi]`` covering ``count`` live keys from ``start``,
        and the slice of ``sorted_keys`` a correct scan returns."""
        first = bisect_left(self.sorted_keys, start)
        last = min(first + count, len(self.sorted_keys))
        if first == last:
            return start, start, first, first
        return start, self.sorted_keys[last - 1], first, last

    def scan(self, first: int, last: int) -> list[tuple[bytes, bytes]]:
        return [(k, self.values[k]) for k in self.sorted_keys[first:last]]

    def live_bytes(self) -> int:
        return sum(len(k) + len(v) for k, v in self.values.items())


class OpStream:
    """Seeded operations for one workload; each op is derived from the
    seed and the model state at the moment it is drawn."""

    def __init__(self, workload: Workload, seed: int, stream: int, next_index: int) -> None:
        self.workload = workload
        self.rng = random.Random(seed * 7919 + stream)
        self.zipf = ScrambledZipfian(LOAD_RECORDS, self.rng)
        self.next_index = next_index
        self._ops = [op for op, _ in workload.mix]
        self._cum = list(itertools.accumulate(weight for _, weight in workload.mix))

    def _existing_index(self) -> int:
        if self.workload.key_dist == "zipfian":
            return self.zipf.next()
        return self.rng.randrange(self.next_index)

    def _value(self) -> bytes:
        return self.rng.randbytes(self.rng.randint(*VALUE_BYTES))

    def draw(self, model: Model, kind: str | None = None) -> tuple:
        """One op: ``("get", key)``, ``("update"/"insert", key, value)``,
        ``("delete", key)`` or ``("scan", lo, hi, first, last)``; the
        kind is drawn from the mix unless ``kind`` is given."""
        if kind is None:
            kind = self._ops[bisect_right(self._cum, self.rng.random() * self._cum[-1])]
        if kind == "insert":
            index = self.next_index
            self.next_index += 1
            return ("insert", key_of(index), self._value())
        if kind == "update":
            return ("update", key_of(self._existing_index()), self._value())
        if kind == "scan":
            start = key_of(self.zipf.next())
            count = self.rng.randint(*SCAN_LENGTH)
            return ("scan", *model.scan_bounds(start, count))
        return (kind, key_of(self._existing_index()))


def load_records(seed: int) -> list[tuple[bytes, bytes]]:
    """The records every store of a run is loaded with, in load order."""
    rng = random.Random(seed * 7919)
    return [(key_of(i), rng.randbytes(load_length(i))) for i in range(LOAD_RECORDS)]
