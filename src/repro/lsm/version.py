"""Level manifest: sorted runs of SSTables and navigation within them.

Following the paper's formulation, every level ``L_i`` (i >= 1) holds one
sorted run — possibly split across several SSTable files, but globally
ordered by (key asc, ts desc) with no key group spanning a file boundary
(the compactor guarantees that).  :class:`LevelRun` provides the three
access patterns the system needs:

* ``lookup`` — a key's whole version group plus its *neighbour* entries
  (the newest records of the adjacent keys), which is exactly what a
  Merkle non-membership proof must exhibit;
* ``range_entries`` — all entries in a key range plus both neighbours,
  feeding SCAN completeness proofs;
* ``iter_entries`` — sequential scan for compaction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from repro.lsm.sstable import BlockFetcher, Entry, SSTableMeta
from repro.sgx.env import ExecutionEnv


@dataclass
class LookupResult:
    """Outcome of a point lookup within one level."""

    group: list[Entry]  # all versions of the key, newest first
    left: Entry | None  # newest entry of the greatest key < target
    right: Entry | None  # newest entry of the smallest key > target


class LevelRun:
    """One level's sorted run of SSTables."""

    def __init__(self, level: int, tables: list[SSTableMeta]) -> None:
        self.level = level
        self.tables = sorted(tables, key=lambda t: t.min_key)
        for prev, cur in zip(self.tables, self.tables[1:]):
            if prev.max_key >= cur.min_key:
                raise ValueError(
                    f"overlapping tables in level {level}: "
                    f"{prev.name} and {cur.name}"
                )

    @property
    def total_bytes(self) -> int:
        return sum(t.size_bytes for t in self.tables)

    @property
    def record_count(self) -> int:
        return sum(t.record_count for t in self.tables)

    @property
    def is_empty(self) -> bool:
        return not self.tables

    @property
    def min_key(self) -> bytes | None:
        return self.tables[0].min_key if self.tables else None

    @property
    def max_key(self) -> bytes | None:
        return self.tables[-1].max_key if self.tables else None

    def may_contain(self, key: bytes) -> bool:
        """Trusted-metadata pre-check: key range plus per-table Bloom."""
        table_index = self._table_for_key(key)
        if table_index is None:
            return False
        meta = self.tables[table_index]
        if key < meta.min_key:
            return False
        return meta.bloom.may_contain(key)

    def _table_for_key(self, key: bytes) -> int | None:
        max_keys = [t.max_key for t in self.tables]
        index = bisect_left(max_keys, key)
        if index >= len(self.tables):
            return None
        return index

    # ------------------------------------------------------------------
    # Cursor-based navigation
    # ------------------------------------------------------------------
    def lookup(self, fetcher: BlockFetcher, key: bytes) -> LookupResult:
        """Find a key's version group and its neighbouring entries."""
        cursor = _RunCursor(self, fetcher)
        position = cursor.seek(key)
        group: list[Entry] = []
        walker = position
        while walker is not None:
            entry = cursor.entry(walker)
            if entry[0].key != key:
                break
            group.append(entry)
            walker = cursor.next(walker)
        right = cursor.entry(walker) if walker is not None else None
        if group:
            left = self._newest_of_prev_group(cursor, position)
        elif position is not None:
            # position is the successor's newest entry
            right = cursor.entry(position)
            left = self._newest_of_prev_group(cursor, position)
        else:
            right = None
            left = self._newest_of_last_group(cursor)
        return LookupResult(group=group, left=left, right=right)

    def get_group(self, fetcher: BlockFetcher, key: bytes) -> list[Entry]:
        """Just the version group of ``key`` (no neighbours), newest first."""
        cursor = _RunCursor(self, fetcher)
        position = cursor.seek(key)
        group: list[Entry] = []
        while position is not None:
            entry = cursor.entry(position)
            if entry[0].key != key:
                break
            group.append(entry)
            position = cursor.next(position)
        return group

    def range_entries(
        self, fetcher: BlockFetcher, lo: bytes, hi: bytes
    ) -> tuple[Entry | None, list[Entry], Entry | None]:
        """All entries with lo <= key <= hi, plus both neighbours."""
        if lo > hi:
            raise ValueError("empty range")
        cursor = _RunCursor(self, fetcher)
        position = cursor.seek(lo)
        entries: list[Entry] = []
        walker = position
        while walker is not None:
            entry = cursor.entry(walker)
            if entry[0].key > hi:
                break
            entries.append(entry)
            walker = cursor.next(walker)
        right = cursor.entry(walker) if walker is not None else None
        if position is not None:
            left = self._newest_of_prev_group(cursor, position)
        else:
            left = self._newest_of_last_group(cursor)
        return left, entries, right

    def iter_entries(self, env: ExecutionEnv) -> Iterator[Entry]:
        """Sequential scan for compaction, bypassing the read buffer."""
        from repro.lsm.sstable import read_block_sequential

        for meta in self.tables:
            for handle in meta.handles:
                yield from read_block_sequential(env, meta, handle)

    def _newest_of_prev_group(
        self, cursor: "_RunCursor", position: "_Position"
    ) -> Entry | None:
        """Newest entry of the key group immediately before ``position``."""
        prev = cursor.prev(position)
        if prev is None:
            return None
        prev_key = cursor.entry(prev)[0].key
        newest = prev
        while True:
            before = cursor.prev(newest)
            if before is None or cursor.entry(before)[0].key != prev_key:
                break
            newest = before
        return cursor.entry(newest)

    def _newest_of_last_group(self, cursor: "_RunCursor") -> Entry | None:
        """Newest entry of the run's greatest key (run's logical tail)."""
        last = cursor.last()
        if last is None:
            return None
        return cursor.entry(cursor.first_of_group_ending_at(last))


_Position = tuple[int, int, int]  # (table index, block index, entry index)


class _RunCursor:
    """Navigates a level run entry-by-entry across blocks and files."""

    def __init__(self, run: LevelRun, fetcher: BlockFetcher) -> None:
        self.run = run
        self.fetcher = fetcher
        # The current block stays pinned (as a LevelDB block iterator
        # pins its data block): moving within it fetches nothing.
        self._pinned: tuple[int, int] | None = None
        self._pinned_entries: list[Entry] = []

    def _block_entries(self, table: int, block: int) -> list[Entry]:
        if self._pinned != (table, block):
            meta = self.run.tables[table]
            self._pinned_entries = self.fetcher.read_block(
                meta, meta.handles[block]
            ).entries
            self._pinned = (table, block)
        return self._pinned_entries

    def entry(self, position: _Position) -> Entry:
        table, block, index = position
        return self._block_entries(table, block)[index]

    def seek(self, key: bytes) -> _Position | None:
        """Position of the first entry with entry.key >= key."""
        tables = self.run.tables
        max_keys = [t.max_key for t in tables]
        table = bisect_left(max_keys, key)
        if table >= len(tables):
            return None
        meta = tables[table]
        block = meta.block_for_key(key)
        if block is None:  # pragma: no cover - table choice guarantees a block
            return None
        entries = self._block_entries(table, block)
        for index, (record, _) in enumerate(entries):
            if record.key >= key:
                return (table, block, index)
        # key falls between this block's last key and the next block.
        return self.next((table, block, len(entries) - 1))

    def next(self, position: _Position) -> _Position | None:
        table, block, index = position
        entries = self._block_entries(table, block)
        if index + 1 < len(entries):
            return (table, block, index + 1)
        meta = self.run.tables[table]
        if block + 1 < len(meta.handles):
            return (table, block + 1, 0)
        if table + 1 < len(self.run.tables):
            return (table + 1, 0, 0)
        return None

    def prev(self, position: _Position) -> _Position | None:
        table, block, index = position
        if index > 0:
            return (table, block, index - 1)
        if block > 0:
            entries = self._block_entries(table, block - 1)
            return (table, block - 1, len(entries) - 1)
        if table > 0:
            meta = self.run.tables[table - 1]
            last_block = len(meta.handles) - 1
            entries = self._block_entries(table - 1, last_block)
            return (table - 1, last_block, len(entries) - 1)
        return None

    def last(self) -> _Position | None:
        if not self.run.tables:
            return None
        table = len(self.run.tables) - 1
        meta = self.run.tables[table]
        block = len(meta.handles) - 1
        entries = self._block_entries(table, block)
        return (table, block, len(entries) - 1)

    def first_of_group_ending_at(self, position: _Position) -> _Position:
        """Newest (first) entry of the group containing ``position``."""
        key = self.entry(position)[0].key
        newest = position
        while True:
            before = self.prev(newest)
            if before is None or self.entry(before)[0].key != key:
                return newest
            newest = before
