"""Binary Merkle tree with membership proofs.

The tree is built over an ordered list of leaf hashes.  An odd trailing
node is *promoted* to the next level unchanged (the LevelDB/CT
convention), so proofs must be verified against the leaf count — which
eLSM stores in the enclave alongside each level's root.
"""

from __future__ import annotations

from repro.cryptoprim.hashing import hash_internal, tagged_hash

#: Root of a tree with no leaves (an empty LSM level).
EMPTY_ROOT = tagged_hash(b"elsm/empty-level")


class ProofError(ValueError):
    """Raised when a Merkle proof is malformed or fails verification."""


class MerkleTree:
    """An in-memory Merkle tree over ``n`` ordered leaf hashes."""

    def __init__(self, leaf_hashes: list[bytes]) -> None:
        self._levels: list[list[bytes]] = [list(leaf_hashes)]
        current = self._levels[0]
        while len(current) > 1:
            nxt: list[bytes] = []
            for i in range(0, len(current) - 1, 2):
                nxt.append(hash_internal(current[i], current[i + 1]))
            if len(current) % 2 == 1:
                nxt.append(current[-1])
            self._levels.append(nxt)
            current = nxt

    @property
    def n(self) -> int:
        """Number of leaves."""
        return len(self._levels[0])

    @property
    def root(self) -> bytes:
        if self.n == 0:
            return EMPTY_ROOT
        return self._levels[-1][0]

    def leaf(self, index: int) -> bytes:
        """The leaf hash at an index."""
        return self._levels[0][index]

    def node(self, level: int, index: int) -> bytes:
        """Internal accessor used by range-proof construction."""
        return self._levels[level][index]

    @property
    def height(self) -> int:
        return len(self._levels)

    def auth_path(self, index: int) -> list[bytes]:
        """Sibling hashes from leaf ``index`` up to (not including) the root.

        Promoted nodes contribute no entry; the verifier reconstructs the
        promotion pattern from (index, leaf count).
        """
        if not 0 <= index < self.n:
            raise IndexError(f"leaf index {index} out of range (n={self.n})")
        path: list[bytes] = []
        idx = index
        for level in self._levels[:-1]:
            width = len(level)
            if idx % 2 == 0:
                if idx + 1 < width:
                    path.append(level[idx + 1])
                # else: promoted, no sibling
            else:
                path.append(level[idx - 1])
            idx //= 2
        return path

    def hash_node_count(self) -> int:
        """Internal nodes hashed to build the tree (promotions are free)."""
        return sum(len(level) // 2 for level in self._levels[:-1])


def compute_root(leaf_hash: bytes, index: int, n: int, path: list[bytes]) -> bytes:
    """Recompute the root from a leaf hash and its authentication path.

    Raises :class:`ProofError` if the path has the wrong shape for
    (index, n); the caller compares the returned root with the trusted
    one.
    """
    if n <= 0:
        raise ProofError("cannot verify against an empty tree")
    if not 0 <= index < n:
        raise ProofError(f"leaf index {index} out of range (n={n})")
    h = leaf_hash
    idx, width = index, n
    position = 0
    while width > 1:
        if idx % 2 == 0:
            if idx + 1 < width:
                if position >= len(path):
                    raise ProofError("authentication path too short")
                h = hash_internal(h, path[position])
                position += 1
            # else promoted: h carries up unchanged
        else:
            if position >= len(path):
                raise ProofError("authentication path too short")
            h = hash_internal(path[position], h)
            position += 1
        idx //= 2
        width = (width + 1) // 2
    if position != len(path):
        raise ProofError("authentication path too long")
    return h
