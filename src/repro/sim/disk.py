"""Simulated block storage with a kernel page cache.

Files are byte arrays held in memory; what the simulation adds is *cost*:

* reads served from the kernel page cache charge a syscall plus a DRAM
  copy; true cache misses charge a device seek (if non-sequential) plus a
  per-KB transfer;
* appends land in the page cache and charge the syscall and copy; fsync
  charges the device write-back of dirty bytes;
* ``read_mmap`` models a memory-mapped read: no syscall, a per-page DRAM
  touch when resident, a page-in when not.

The paper's evaluation scans datasets into memory before measuring
(Section 6.1), which ``prefetch`` reproduces.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.clock import SimClock
from repro.sim.costs import KB, PAGE_SIZE, CostModel


class StorageFailure(OSError):
    """Base class for simulated device/IO failures.

    Distinct from :class:`repro.core.errors.AuthenticationError`: these
    model a *broken* host (bad sectors, flaky controllers), not a
    malicious one.
    """


class TransientIOError(StorageFailure):
    """An IO error that may succeed if the call is retried."""


class PersistentIOError(StorageFailure):
    """An IO error that will keep failing no matter how often retried."""


#: Sentinel a fault plan returns from its fsync hook to signal the device
#: acknowledged the sync without actually persisting (fsync loss).
FSYNC_DROPPED = object()
_FSYNC_DROPPED = FSYNC_DROPPED


class SimFile:
    """A named file on the simulated disk."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.data = bytearray()
        self.dirty_bytes = 0
        #: Bytes guaranteed to survive a power loss (advanced by fsync).
        self.synced_bytes = 0

    def __len__(self) -> int:
        return len(self.data)


class SimDisk:
    """A simulated disk: named files, kernel page cache, cost accounting."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        cache_bytes: int | None = None,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self._files: dict[str, SimFile] = {}
        # Kernel page cache: LRU over (file, block index) keys.
        self._cache: OrderedDict[tuple[str, int], None] = OrderedDict()
        self._cache_capacity_blocks = (
            None if cache_bytes is None else max(1, cache_bytes // PAGE_SIZE)
        )
        self._last_block: dict[str, int] = {}
        #: Page-cache block hits/misses over the disk's life, across every
        #: store opened over it (the disk outlives any one store).
        self.cache_hit_blocks = 0
        self.cache_miss_blocks = 0
        #: Optional fault-injection plan (see :mod:`repro.faults.plan`).
        #: Duck-typed so the sim layer never imports the faults layer.
        self.fault_plan = None

    # ------------------------------------------------------------------
    # Fault injection hooks
    # ------------------------------------------------------------------
    def _fault(self, op: str, name: str, data: bytes | None = None):
        """Consult the attached fault plan before a data-path operation.

        The plan may raise :class:`TransientIOError` /
        :class:`PersistentIOError` (injected device failures) or a
        ``SimulatedCrash`` (power loss at an operation count), mutate file
        contents (bit rot), or return replacement data (torn appends).
        Returns ``data`` (possibly shortened) for write-like ops.
        """
        if self.fault_plan is None:
            return data
        return self.fault_plan.on_disk_op(self, op, name, data)

    def _post_fault(self) -> None:
        """Fire any crash the plan deferred until after the operation."""
        if self.fault_plan is not None:
            self.fault_plan.post_disk_op()

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def create(self, name: str) -> SimFile:
        """Create an empty file; error if it already exists."""
        self._fault("create", name)
        if name in self._files:
            raise FileExistsError(name)
        f = SimFile(name)
        self._files[name] = f
        self._post_fault()
        return f

    def open(self, name: str) -> SimFile:
        """Return the file object for ``name``."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def exists(self, name: str) -> bool:
        """True if the named file exists."""
        return name in self._files

    def delete(self, name: str) -> None:
        """Remove a file and drop its cached blocks."""
        self._fault("delete", name)
        self._files.pop(name)
        self._last_block.pop(name, None)
        stale = [key for key in self._cache if key[0] == name]
        for key in stale:
            del self._cache[key]
        self._post_fault()

    def list_files(self) -> list[str]:
        """All file names, sorted."""
        return sorted(self._files)

    def size(self, name: str) -> int:
        """Current size of a file in bytes."""
        return len(self.open(name))

    def total_bytes(self) -> int:
        """Sum of all file sizes (used for storage-overhead reporting)."""
        return sum(len(f) for f in self._files.values())

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def append(self, name: str, data: bytes) -> int:
        """Append ``data``; returns the offset it was written at.

        The write lands in the page cache (syscall + copy); device
        write-back is charged at fsync time.
        """
        data = self._fault("append", name, data)
        f = self.open(name)
        offset = len(f.data)
        f.data += data
        f.dirty_bytes += len(data)
        self.clock.charge("kernel_write", self.costs.kernel_write_us)
        self.clock.charge("dram_copy", self.costs.dram_copy_cost(len(data)))
        self._cache_blocks(name, offset, len(data))
        self._post_fault()
        return offset

    def write_file(self, name: str, data: bytes) -> None:
        """Create-or-replace a whole file (used for SSTable output)."""
        if name in self._files:
            self.delete(name)
        self.create(name)
        self.append(name, bytes(data))

    def write_at(self, name: str, offset: int, data: bytes) -> None:
        """Random-offset overwrite (update-in-place structures need this).

        Charges a seek when non-sequential plus the device transfer — the
        write amplification the paper blames on update-in-place ADSs.
        """
        self._fault("write_at", name, data)
        f = self.open(name)
        end = offset + len(data)
        if end > len(f.data):
            f.data.extend(b"\x00" * (end - len(f.data)))
        f.data[offset:end] = data
        f.synced_bytes = min(f.synced_bytes, offset)
        first_block = offset // PAGE_SIZE
        if first_block != self._last_block.get(name, -2) + 1:
            self.clock.charge("disk_seek", self.costs.disk_seek_us)
        self._last_block[name] = (end - 1) // PAGE_SIZE
        self.clock.charge("kernel_write", self.costs.kernel_write_us)
        self.clock.charge(
            "disk_write", self.costs.disk_transfer_us_per_kb * (len(data) / KB)
        )
        self._cache_blocks(name, offset, len(data))
        self._post_fault()

    def fsync(self, name: str) -> None:
        """Flush dirty bytes to the device."""
        dropped = self._fault("fsync", name)
        f = self.open(name)
        if f.dirty_bytes:
            transfer = self.costs.disk_transfer_us_per_kb * (f.dirty_bytes / KB)
            self.clock.charge("disk_write", transfer)
            f.dirty_bytes = 0
        self.clock.charge("fsync", self.costs.fsync_us)
        # A lying device (fault plan returns the DROP sentinel) acknowledges
        # the fsync without actually making the bytes power-loss durable.
        if dropped is not _FSYNC_DROPPED:
            f.synced_bytes = len(f.data)
        self._post_fault()

    def truncate(self, name: str, size: int) -> None:
        """Shrink a file to ``size`` bytes (used to cut torn WAL tails)."""
        self._fault("truncate", name)
        f = self.open(name)
        if size < len(f.data):
            del f.data[size:]
            f.synced_bytes = min(f.synced_bytes, size)
            f.dirty_bytes = min(f.dirty_bytes, len(f.data))
            stale = [
                key
                for key in self._cache
                if key[0] == name and key[1] > size // PAGE_SIZE
            ]
            for key in stale:
                del self._cache[key]
        self.clock.charge("kernel_write", self.costs.kernel_write_us)
        self._post_fault()

    def read(self, name: str, offset: int, length: int) -> bytes:
        """Read through the kernel (syscall path: pread/fread)."""
        self._fault("read", name)
        f = self.open(name)
        self._charge_read(name, offset, length, syscall=True)
        self._post_fault()
        return bytes(f.data[offset : offset + length])

    def read_mmap(self, name: str, offset: int, length: int) -> bytes:
        """Read through a memory mapping (no syscall on resident pages)."""
        self._fault("read", name)
        f = self.open(name)
        self._charge_read(name, offset, length, syscall=False)
        self._post_fault()
        return bytes(f.data[offset : offset + length])

    # ------------------------------------------------------------------
    # Power loss
    # ------------------------------------------------------------------
    def power_loss(self, rng=None) -> dict[str, int]:
        """Simulate losing power: un-fsynced bytes vanish.

        Every file is truncated back to its last fsynced length.  When a
        seeded ``rng`` is supplied, a random slice of the unsynced tail
        may survive instead — a *torn write*, the case WAL CRCs exist
        for.  File creations are treated as durable (the file survives,
        possibly empty) and deletions as durable; see docs/robustness.md
        for the model's assumptions.  Returns bytes lost per file.
        """
        lost: dict[str, int] = {}
        for f in self._files.values():
            if f.synced_bytes >= len(f.data):
                continue
            keep = f.synced_bytes
            unsynced = len(f.data) - keep
            if rng is not None and unsynced > 1 and rng.random() < 0.5:
                keep += rng.randrange(1, unsynced)  # torn tail survives
            lost[f.name] = len(f.data) - keep
            del f.data[keep:]
            f.dirty_bytes = 0
        # The kernel page cache is RAM: gone.
        self._cache.clear()
        self._last_block.clear()
        return lost

    def prefetch(self, name: str) -> None:
        """Scan a file into the kernel cache (the paper's warm-up step)."""
        f = self.open(name)
        self._cache_blocks(name, 0, len(f.data))

    def prefetch_all(self) -> None:
        """Warm the kernel cache with every file (load-phase helper)."""
        for name in self._files:
            self.prefetch(name)

    # ------------------------------------------------------------------
    # Cache internals
    # ------------------------------------------------------------------
    def _blocks(self, offset: int, length: int) -> range:
        first = offset // PAGE_SIZE
        last = (offset + max(length, 1) - 1) // PAGE_SIZE
        return range(first, last + 1)

    def _charge_read(
        self, name: str, offset: int, length: int, syscall: bool
    ) -> None:
        missed_blocks = 0
        hit_blocks = 0
        for block in self._blocks(offset, length):
            key = (name, block)
            if key in self._cache:
                hit_blocks += 1
                self._cache.move_to_end(key)
                if not syscall:
                    self.clock.charge("dram_touch", self.costs.dram_touch_us)
            else:
                missed_blocks += 1
                self._insert_cached(key)
        self.cache_hit_blocks += hit_blocks
        self.cache_miss_blocks += missed_blocks
        sequential = self._blocks(offset, length)[0] == self._last_block.get(name, -2) + 1
        self._last_block[name] = self._blocks(offset, length)[-1]
        if missed_blocks:
            if not sequential:
                self.clock.charge("disk_seek", self.costs.disk_seek_us)
            transfer = self.costs.disk_transfer_us_per_kb * (
                missed_blocks * PAGE_SIZE / KB
            )
            self.clock.charge("disk_read", transfer)
        if syscall:
            self.clock.charge("kernel_read", self.costs.kernel_read_us)
            self.clock.charge("dram_copy", self.costs.dram_copy_cost(length))

    def _cache_blocks(self, name: str, offset: int, length: int) -> None:
        for block in self._blocks(offset, length):
            self._insert_cached((name, block))

    def _insert_cached(self, key: tuple[str, int]) -> None:
        self._cache[key] = None
        self._cache.move_to_end(key)
        if self._cache_capacity_blocks is not None:
            while len(self._cache) > self._cache_capacity_blocks:
                self._cache.popitem(last=False)
