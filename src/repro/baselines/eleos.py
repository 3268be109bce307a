"""The Eleos baseline: an update-in-place in-memory store in the enclave.

Section 6.1: "we implement a baseline of an in-memory data store ...
the entire dataset is stored in enclave as a sorted array.  To make data
update efficient, we leave 30% of the array space empty ...  we use
Eleos, a state-of-the-art virtual memory management engine in enclave
without calling expensive enclave paging."

Model:

* data lives in one enclave region paged by a *user-space* pager — misses
  cost :attr:`CostModel.userspace_page_miss_us` instead of a hardware EPC
  fault (that is Eleos's contribution), but the working set is the whole
  dataset, so beyond the EPC every probe can miss;
* GETs binary-search the array (log2(n) probes, each touching its slot);
* inserts shift records until the next slack gap (expected 1/slack
  records with uniformly spread gaps); updates overwrite in place;
* recent writes are persisted to disk periodically through an OCall;
* capacity is capped (the paper: "Eleos can scale only to 1 GB data",
  limited by the open-source project).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, insort

from repro.sgx.boundary import WorldBoundary
from repro.sim.costs import PAGE_SIZE
from repro.sgx.memory import EpcPager
from repro.sim.clock import SimClock
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.disk import SimDisk
from repro.sim.scale import GB, ScaleConfig
from repro.telemetry import Telemetry

_REGION = "eleos_array"


class EleosCapacityError(RuntimeError):
    """The dataset outgrew what the Eleos prototype can manage."""


class EleosStore:
    """Sorted-array key-value store in enclave memory, Eleos-style."""

    def __init__(
        self,
        *,
        scale: ScaleConfig | None = None,
        costs: CostModel = DEFAULT_COSTS,
        clock: SimClock | None = None,
        disk: SimDisk | None = None,
        slack: float = 0.30,
        max_data_paper_bytes: float = 1 * GB,
        persist_every: int = 256,
    ) -> None:
        if not 0.0 < slack < 1.0:
            raise ValueError("slack must be in (0, 1)")
        self.scale = scale or ScaleConfig()
        self.costs = costs
        self.clock = clock = clock or SimClock()
        self.disk = disk or SimDisk(self.clock, costs, cache_bytes=self.scale.ram_bytes)
        self.telemetry = Telemetry(clock=lambda: clock.now_us)
        self.boundary = WorldBoundary(clock, costs, self.telemetry)
        # Eleos's user-space paging: same residency model as the EPC, but
        # each miss costs a software relocation instead of an EWB cycle.
        self.pager = EpcPager(
            self.clock,
            costs,
            capacity_bytes=self.scale.epc_bytes,
            fault_cost_us=costs.userspace_page_miss_us,
            fault_category="userspace_page_miss",
        )
        self.slack = slack
        self.max_data_bytes = self.scale.scale_bytes(max_data_paper_bytes)
        self.persist_every = persist_every
        self._keys: list[bytes] = []
        self._values: dict[bytes, tuple[bytes, int]] = {}
        self._data_bytes = 0
        self._ts = 0
        self._writes_since_persist = 0
        self._op_lock = threading.RLock()
        self.disk.create("eleos/persist.log")

    # ------------------------------------------------------------------
    @property
    def record_bytes(self) -> int:
        return self.scale.record_bytes

    def _slot_offset(self, index: int) -> int:
        """Array slot of a record, including the spread-out slack gaps."""
        return int(index * self.record_bytes * (1.0 + self.slack))

    def _touch_slot(self, index: int) -> None:
        faults = self.pager.touch(_REGION, self._slot_offset(index), self.record_bytes)
        if faults:
            # Eleos relocates the page between untrusted memory and the
            # enclave heap on a miss: a cross-boundary copy each way.
            self.clock.charge(
                "eleos_relocate",
                2 * self.costs.enclave_copy_cost(faults * PAGE_SIZE),
            )
        # SUVM's software address translation on every access.
        self.clock.charge("eleos_monitor", 0.4)

    def _search_touches(self, key: bytes) -> int:
        """Binary-search probe sequence (each probe touches its slot).

        Update-in-place stores pay this on *writes* too: "an update
        incurs lookups and random-accesses of the record's previous
        location" (Section 3.1).
        """
        n = len(self._keys)
        if n == 0:
            return 0
        lo_index, hi_index = 0, n - 1
        probes = max(1, int(math.ceil(math.log2(n + 1))))
        position = bisect_left(self._keys, key)
        for _ in range(probes):
            mid = (lo_index + hi_index) // 2
            self._touch_slot(mid)
            if self._keys[mid] < key:
                lo_index = mid + 1
            elif self._keys[mid] > key:
                hi_index = max(mid - 1, 0)
            else:
                break
            if lo_index > hi_index:
                break
        return position

    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> int:
        """Insert or overwrite in place (with the location lookup cost)."""
        with self._op_lock, self.boundary.ecall("put", in_bytes=len(key) + len(value)):
            self._ts += 1
            nbytes = len(key) + len(value)
            index = self._search_touches(key)
            if key not in self._values:
                projected = self._data_bytes + nbytes
                if projected * (1.0 + self.slack) > self.max_data_bytes:
                    raise EleosCapacityError(
                        "Eleos baseline cannot scale past "
                        f"{self.max_data_bytes} bytes (paper: ~1 GB)"
                    )
                insort(self._keys, key)
                self._data_bytes += nbytes
                # Shift records until the next slack gap: expected
                # 1/slack records with uniformly spread gaps.
                shift_records = max(1, int(round(1.0 / self.slack)))
                for step in range(shift_records):
                    self._touch_slot(min(index + step, len(self._keys) - 1))
                self.clock.charge(
                    "dram_copy",
                    self.costs.dram_copy_cost(shift_records * self.record_bytes),
                )
            else:
                self._touch_slot(index)
            self._values[key] = (value, self._ts)
            self._writes_since_persist += 1
            if self._writes_since_persist >= self.persist_every:
                self._persist()
            return self._ts

    def _persist(self) -> None:
        """Flush recent updates to disk through an OCall (Section 6.1)."""
        payload_bytes = self._writes_since_persist * self.record_bytes
        with self.boundary.ocall("persist", in_bytes=payload_bytes):
            self.disk.append("eleos/persist.log", b"\x00" * payload_bytes)
            self.disk.fsync("eleos/persist.log")
        self._writes_since_persist = 0

    def get(self, key: bytes, ts_query: int | None = None) -> bytes | None:
        """Binary-search lookup; only the latest version exists."""
        with self._op_lock, self.boundary.ecall("get", in_bytes=len(key)):
            if not self._keys:
                return None
            self._search_touches(key)
            found = self._values.get(key)
            if found is None:
                return None
            value, ts = found
            if ts_query is not None and ts > ts_query:
                return None  # update-in-place keeps no older versions
            return value

    def delete(self, key: bytes) -> int:
        """Remove the record and close its array slot."""
        with self._op_lock, self.boundary.ecall("delete", in_bytes=len(key)):
            self._ts += 1
            if key in self._values:
                index = self._search_touches(key)
                del self._keys[index]
                entry = self._values.pop(key)
                self._data_bytes -= len(key) + len(entry[0])
            return self._ts

    def scan(
        self, lo: bytes, hi: bytes, ts_query: int | None = None
    ) -> list[tuple[bytes, bytes]]:
        """In-order range read over the sorted array."""
        with self._op_lock, self.boundary.ecall("scan", in_bytes=len(lo) + len(hi)):
            start = bisect_left(self._keys, lo)
            out: list[tuple[bytes, bytes]] = []
            index = start
            while index < len(self._keys) and self._keys[index] <= hi:
                self._touch_slot(index)
                key = self._keys[index]
                value, ts = self._values[key]
                if ts_query is None or ts <= ts_query:
                    out.append((key, value))
                index += 1
            return out

    def flush(self) -> None:
        """Force the pending write buffer out to disk."""
        if self._writes_since_persist:
            self._persist()

    @property
    def current_ts(self) -> int:
        return self._ts

    def __len__(self) -> int:
        return len(self._keys)
