"""Group-commit queue: coalesce writes into amortised commit groups.

The sequential eLSM write path pays per PUT: an enclave transition, a
WAL disk write, its share of an fsync, and (under autoseal) a seal.
``GroupCommitQueue`` sits in front of any store exposing
``group_commit(ops)`` — eLSM-P1/P2, the unsecured baseline — and
coalesces consecutive PUT/DELETE ops into one group, submitted when the
group reaches ``group_size`` or (optionally) when the oldest queued op
has waited ``max_delay_us`` of simulated time.  Each submitted group
costs ONE ECall, ONE WAL write, and ONE fsync, so the fixed costs are
amortised across the group; durability is all-or-nothing per group
(acknowledged at :meth:`flush` return, never earlier).

Callers that need read-your-writes must :meth:`flush` before reading —
the YCSB runner (:func:`repro.ycsb.runner.run_phase`) sends its writes
through this queue and flushes it before every READ/SCAN/RMW.
"""

from __future__ import annotations


class GroupCommitQueue:
    """Batches writes for a store's ``group_commit`` entry point."""

    def __init__(
        self,
        store,
        group_size: int = 64,
        max_delay_us: float | None = None,
    ) -> None:
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        if max_delay_us is not None and max_delay_us < 0:
            raise ValueError("max_delay_us must be >= 0")
        self.store = store
        self.group_size = group_size
        self.max_delay_us = max_delay_us
        self._pending: list[tuple] = []
        self._first_enqueued_us: float | None = None
        self.groups_submitted = 0
        self.ops_submitted = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> int:
        """Ops queued but not yet committed (not yet durable)."""
        return len(self._pending)

    def put(self, key: bytes, value: bytes) -> list[int] | None:
        """Queue a PUT; returns the group's timestamps if it submitted."""
        return self._enqueue(("put", key, value))

    def delete(self, key: bytes) -> list[int] | None:
        """Queue a DELETE; returns the group's timestamps if it submitted."""
        return self._enqueue(("delete", key))

    def _enqueue(self, op: tuple) -> list[int] | None:
        if not self._pending:
            self._first_enqueued_us = self.store.clock.now_us
        self._pending.append(op)
        if len(self._pending) >= self.group_size or self._deadline_passed():
            return self.flush()
        return None

    def _deadline_passed(self) -> bool:
        if self.max_delay_us is None or self._first_enqueued_us is None:
            return False
        waited = self.store.clock.now_us - self._first_enqueued_us
        return waited >= self.max_delay_us

    def flush(self) -> list[int]:
        """Submit the pending group now; returns its timestamps.

        This is the durability point for every queued op (one WAL write,
        one fsync, one seal for the whole group).
        """
        if not self._pending:
            return []
        ops, self._pending = self._pending, []
        self._first_enqueued_us = None
        stamps = self.store.group_commit(ops)
        self.groups_submitted += 1
        self.ops_submitted += len(ops)
        return stamps

    def __enter__(self) -> "GroupCommitQueue":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()
