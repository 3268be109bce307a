"""The confidentiality layer (Section 5.6.2).

eLSM can run with keys and values encrypted before anything reaches the
untrusted world.  Keys need *searchable* encryption: deterministic (DE)
for point queries, order-preserving (OPE) for ranges.  Values use a
standard semantically-secure scheme.  The codec sits between the trusted
application and the store, so the digest structure authenticates the
*ciphertext* records — which is exactly what the untrusted host stores
and serves.
"""

from __future__ import annotations

from repro.cryptoprim.det_encrypt import DeterministicCipher
from repro.cryptoprim.ope import OrderPreservingEncoder
from repro.cryptoprim.value_encrypt import ValueCipher

MODE_PLAIN = "plain"
MODE_DETERMINISTIC = "de"
MODE_ORDER_PRESERVING = "ope"


class KeyValueCodec:
    """Encodes keys/values on the way in, decodes on the way out."""

    def __init__(self, mode: str = MODE_PLAIN, secret: bytes = b"") -> None:
        if mode not in (MODE_PLAIN, MODE_DETERMINISTIC, MODE_ORDER_PRESERVING):
            raise ValueError(f"unknown encryption mode: {mode}")
        if mode != MODE_PLAIN and len(secret) < 16:
            raise ValueError("encryption requires a >=16-byte secret")
        self.mode = mode
        self._de = (
            DeterministicCipher(secret) if mode == MODE_DETERMINISTIC else None
        )
        self._ope = (
            OrderPreservingEncoder(secret) if mode == MODE_ORDER_PRESERVING else None
        )
        self._values = ValueCipher(secret) if mode != MODE_PLAIN else None

    @property
    def supports_range(self) -> bool:
        """Only plain and OPE key encodings preserve key order."""
        return self.mode in (MODE_PLAIN, MODE_ORDER_PRESERVING)

    # ------------------------------------------------------------------
    def encode_key(self, key: bytes) -> bytes:
        """Key plaintext -> searchable ciphertext (mode-dependent)."""
        if self._de is not None:
            return self._de.encrypt(key)
        if self._ope is not None:
            return self._ope.encode(key)
        return key

    def encode_range(self, lo: bytes, hi: bytes) -> tuple[bytes, bytes]:
        """Plaintext range -> ciphertext bounds covering it (OPE/plain only)."""
        if self.mode == MODE_PLAIN:
            return lo, hi
        if self._ope is not None:
            return self._ope.range_bounds(lo, hi)
        raise ValueError("deterministic encryption cannot serve range queries")

    def decode_key(self, stored_key: bytes) -> bytes:
        """Stored key -> plaintext."""
        if self._de is not None:
            return self._de.decrypt(stored_key)
        if self._ope is not None:
            return self._ope.decode_key(stored_key).rstrip(b"\x00")
        return stored_key

    def encode_value(self, value: bytes) -> bytes:
        """Value plaintext -> semantically-secure ciphertext."""
        if self._values is not None:
            return self._values.encrypt(value)
        return value

    def decode_value(self, stored_value: bytes) -> bytes:
        """Stored value -> plaintext (authenticity-checked)."""
        if self._values is not None:
            return self._values.decrypt(stored_value)
        return stored_value
