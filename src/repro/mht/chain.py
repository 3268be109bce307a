"""Hash chains over same-key record versions.

Within one LSM level, records sharing a data key are digested in a
temporal hash chain with the *newest* record outermost (Section 5.2:
``h4 = H(<Z,7> || H(<Z,6>))``).  The chain is what forces a malicious
host to reveal every newer version when it tries to serve a stale one:
the leaf hash cannot be recomputed without the newer records' bytes.
"""

from __future__ import annotations

from typing import Sequence

from repro.cryptoprim.hashing import hash_chain_node


def chain_digest(encoded_newest_first: Sequence[bytes]) -> bytes:
    """Digest a full chain of encoded records, newest first."""
    if not encoded_newest_first:
        raise ValueError("a chain must contain at least one record")
    return fold_chain(encoded_newest_first, None)


def fold_chain(
    encoded_newest_first: Sequence[bytes], older_digest: bytes | None
) -> bytes:
    """Digest a chain *prefix* given the digest of its older suffix.

    This is the verifier's workhorse: given the revealed records (newest
    first, ending at the query result) and the 32-byte digest of all
    strictly-older versions, it recomputes the leaf hash.
    """
    if not encoded_newest_first:
        if older_digest is None:
            raise ValueError("empty chain with no suffix digest")
        return older_digest
    digest = older_digest
    for encoded in reversed(list(encoded_newest_first)):
        digest = hash_chain_node(encoded, digest)
    assert digest is not None
    return digest


def suffix_digests(encoded_newest_first: Sequence[bytes]) -> list[bytes | None]:
    """Digest of the strictly-older suffix at each chain position.

    ``result[j]`` is the digest of records ``j+1..m-1`` (``None`` for the
    oldest position) — exactly what gets embedded in record ``j``'s proof
    so that serving it requires no other disk reads.

    The newest record is not hashed: the full-chain digest is
    ``hash_chain_node(encoded[0], result[0])``.
    """
    encoded = list(encoded_newest_first)
    out: list[bytes | None] = [None] * len(encoded)
    for j in range(len(encoded) - 1, 0, -1):
        out[j - 1] = hash_chain_node(encoded[j], out[j])
    return out
