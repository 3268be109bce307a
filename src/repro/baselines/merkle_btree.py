"""Update-in-place Merkle B+-tree: the conventional ADS baseline.

Section 3.4 motivates eLSM against "building a single Merkle tree over
the entire dataset and updating the Merkle tree in place upon data
updates ... with digests stored on disk, the update-in-place digest
structures cause random disk accesses and thus impose high overhead to
the write path."

This is that baseline, built for real: a B+-tree whose every node
carries a hash of its children, nodes stored in fixed slots of a disk
file.  A PUT reads the root-to-leaf path (random reads), rewrites the
path bottom-up (random writes), and re-hashes every node on it.  A GET
returns the value plus a Merkle proof (the child-hash vectors of the
path), verifiable against the trusted root hash.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.cryptoprim.hashing import tagged_hash
from repro.sim.clock import SimClock
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.disk import SimDisk
from repro.sim.scale import ScaleConfig
from repro.telemetry import Telemetry

_NODE_SLOT = 4096
_FILE = "mbt/nodes.dat"


@dataclass
class _Node:
    node_id: int
    is_leaf: bool
    keys: list[bytes] = field(default_factory=list)
    # Leaves: values[i] belongs to keys[i].  Internal: children has
    # len(keys) + 1 entries.
    values: list[tuple[bytes, int]] = field(default_factory=list)
    children: list[int] = field(default_factory=list)
    next_leaf: int | None = None
    digest: bytes = b""


@dataclass(frozen=True)
class MBTProof:
    """Merkle proof for one key: per-level child-hash vectors."""

    key: bytes
    value: bytes | None
    #: Bottom-up per internal level: (child position taken, the node's
    #: separator keys, the node's full child-hash vector).  The leaf is
    #: re-hashed from its fully revealed content.
    leaf_keys: tuple[bytes, ...]
    leaf_values: tuple[tuple[bytes, int], ...]
    levels: tuple[tuple[int, tuple[bytes, ...], tuple[bytes, ...]], ...]


class MerkleBTreeStore:
    """A key-value store authenticated by an update-in-place Merkle tree."""

    def __init__(
        self,
        *,
        scale: ScaleConfig | None = None,
        costs: CostModel = DEFAULT_COSTS,
        clock: SimClock | None = None,
        disk: SimDisk | None = None,
        fanout: int = 64,
        durable: bool = True,
    ) -> None:
        if fanout < 4:
            raise ValueError("fanout must be >= 4")
        self.scale = scale or ScaleConfig()
        self.costs = costs
        self.clock = clock = clock or SimClock()
        self.disk = disk or SimDisk(self.clock, costs, cache_bytes=self.scale.ram_bytes)
        self.telemetry = Telemetry(clock=lambda: clock.now_us)
        self.fanout = fanout
        #: Durable mode fsyncs the node file after every update — the
        #: honest cost of an on-disk ADS whose digests must persist
        #: (the LSM amortises the same durability through its WAL).
        self.durable = durable
        self._nodes: dict[int, _Node] = {}
        self._next_id = 0
        self.disk.create(_FILE)
        root = self._new_node(is_leaf=True)
        self._rehash(root)
        self._root_id = root.node_id
        #: The trusted digest a client keeps (the paper's data owner).
        self.root_hash = root.digest
        self._ts = 0
        self._count = 0

    # ------------------------------------------------------------------
    # Node storage with disk cost accounting
    # ------------------------------------------------------------------
    def _new_node(self, is_leaf: bool) -> _Node:
        node = _Node(node_id=self._next_id, is_leaf=is_leaf)
        self._next_id += 1
        self._nodes[node.node_id] = node
        return node

    def _read_node(self, node_id: int) -> _Node:
        self.disk.read(_FILE, node_id * _NODE_SLOT, _NODE_SLOT)
        return self._nodes[node_id]

    def _write_node(self, node: _Node) -> None:
        self.disk.write_at(_FILE, node.node_id * _NODE_SLOT, b"\x00" * _NODE_SLOT)

    def _rehash(self, node: _Node) -> None:
        if node.is_leaf:
            parts = [b"leaf"] + node.keys + [
                value + ts.to_bytes(8, "little") for value, ts in node.values
            ]
        else:
            parts = [b"node"] + node.keys + [
                self._nodes[child].digest for child in node.children
            ]
        node.digest = tagged_hash(b"mbt", *parts)
        self.clock.charge("hash", self.costs.hash_cost(_NODE_SLOT))

    # ------------------------------------------------------------------
    # Write path: read path down, split as needed, rewrite path up
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> int:
        """Insert/update: read the path, split, re-hash, rewrite, fsync."""
        self._ts += 1
        path = self._descend(key)
        leaf = path[-1]
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = (value, self._ts)
        else:
            leaf.keys.insert(index, key)
            leaf.values.insert(index, (value, self._ts))
            self._count += 1
        # Split overful nodes bottom-up.
        child_split: tuple[bytes, int] | None = None
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            if child_split is not None:
                split_key, new_id = child_split
                position = bisect_right(node.keys, split_key)
                node.keys.insert(position, split_key)
                node.children.insert(position + 1, new_id)
                child_split = None
            if len(node.keys) >= self.fanout:
                child_split = self._split(node, path, depth)
            self._rehash(node)
            self._write_node(node)
        if child_split is not None:
            split_key, new_id = child_split
            old_root = self._root_id
            new_root = self._new_node(is_leaf=False)
            new_root.keys = [split_key]
            new_root.children = [old_root, new_id]
            self._rehash(new_root)
            self._write_node(new_root)
            self._root_id = new_root.node_id
        self.root_hash = self._nodes[self._root_id].digest
        if self.durable:
            self.disk.fsync(_FILE)
        return self._ts

    def _split(self, node: _Node, path: list[_Node], depth: int) -> tuple[bytes, int]:
        """Split an overful node; returns (separator key, new node id)."""
        sibling = self._new_node(is_leaf=node.is_leaf)
        mid = len(node.keys) // 2
        if node.is_leaf:
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling.node_id
            separator = sibling.keys[0]
        else:
            separator = node.keys[mid]
            sibling.keys = node.keys[mid + 1 :]
            sibling.children = node.children[mid + 1 :]
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]
        self._rehash(sibling)
        self._write_node(sibling)
        return separator, sibling.node_id

    def _descend(self, key: bytes) -> list[_Node]:
        """Root-to-leaf path, charging one random node read per level."""
        path = [self._read_node(self._root_id)]
        while not path[-1].is_leaf:
            node = path[-1]
            position = bisect_right(node.keys, key)
            path.append(self._read_node(node.children[position]))
        return path

    # ------------------------------------------------------------------
    # Read path with proofs
    # ------------------------------------------------------------------
    def get(self, key: bytes, ts_query: int | None = None) -> bytes | None:
        """Point lookup (path reads; no proof returned)."""
        proof = self.get_with_proof(key)
        if proof.value is None:
            return None
        if ts_query is not None:
            index = proof.leaf_keys.index(key)
            if proof.leaf_values[index][1] > ts_query:
                return None
        return proof.value

    def get_with_proof(self, key: bytes) -> MBTProof:
        """Point lookup returning a root-anchored Merkle proof."""
        path = self._descend(key)
        leaf = path[-1]
        index = bisect_left(leaf.keys, key)
        value = None
        if index < len(leaf.keys) and leaf.keys[index] == key:
            value = leaf.values[index][0]
        levels: list[tuple[int, tuple[bytes, ...], tuple[bytes, ...]]] = []
        for depth in range(len(path) - 2, -1, -1):
            node = path[depth]
            position = node.children.index(path[depth + 1].node_id)
            hashes = tuple(self._nodes[child].digest for child in node.children)
            levels.append((position, tuple(node.keys), hashes))
        return MBTProof(
            key=key,
            value=value,
            leaf_keys=tuple(leaf.keys),
            leaf_values=tuple(leaf.values),
            levels=tuple(levels),
        )

    def verify_proof(self, proof: MBTProof, root_hash: bytes) -> bool:
        """Client-side verification against a trusted root hash."""
        parts = [b"leaf"] + list(proof.leaf_keys) + [
            value + ts.to_bytes(8, "little") for value, ts in proof.leaf_values
        ]
        digest = tagged_hash(b"mbt", *parts)
        self.clock.charge("hash", self.costs.hash_cost(_NODE_SLOT))
        for position, keys, hashes in proof.levels:
            if position >= len(hashes) or hashes[position] != digest:
                return False
            if len(hashes) != len(keys) + 1:
                return False
            digest = tagged_hash(b"mbt", b"node", *keys, *hashes)
            self.clock.charge("hash", self.costs.hash_cost(_NODE_SLOT))
        return digest == root_hash

    def scan(
        self, lo: bytes, hi: bytes, ts_query: int | None = None
    ) -> list[tuple[bytes, bytes]]:
        """Range read along the linked leaf chain."""
        path = self._descend(lo)
        leaf: _Node | None = path[-1]
        out: list[tuple[bytes, bytes]] = []
        while leaf is not None:
            for key, (value, ts) in zip(leaf.keys, leaf.values):
                if key < lo:
                    continue
                if key > hi:
                    return out
                if ts_query is None or ts <= ts_query:
                    out.append((key, value))
            leaf = (
                self._read_node(leaf.next_leaf)
                if leaf.next_leaf is not None
                else None
            )
        return out

    def delete(self, key: bytes) -> int:
        """Logical delete (B+-tree rebalancing on delete is out of scope)."""
        self._ts += 1
        path = self._descend(key)
        leaf = path[-1]
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            del leaf.keys[index]
            del leaf.values[index]
            self._count -= 1
            for depth in range(len(path) - 1, -1, -1):
                self._rehash(path[depth])
                self._write_node(path[depth])
            self.root_hash = self._nodes[self._root_id].digest
        return self._ts

    def flush(self) -> None:
        """fsync the node file."""
        self.disk.fsync(_FILE)

    @property
    def current_ts(self) -> int:
        return self._ts

    def __len__(self) -> int:
        return self._count
