"""Bloom filters.

Two uses in the paper:

* Footnote 2: newer LimeWire leaves publish Bloom filters of their files'
  keywords to ultrapeers (the Query Routing Protocol), cutting publish and
  search costs at the price of losing substring/wildcard matching.
* Section 6.3: term-frequency statistics for the TF/TPF rare-item schemes
  can be Bloom-compressed to shrink their memory footprint.
* The PIER optimizer's Bloom join (:mod:`repro.pier.optimizer`): the
  rarest posting list ships as a Bloom filter instead of a key digest,
  and only probable matches travel back.

The implementation is a classic k-hash Bloom filter over a bit array
(stored in one Python int, which keeps it compact and hashable-free).
"""

from __future__ import annotations

import hashlib
import math

#: maps the byte-per-bit marks of :meth:`BloomFilter.update` to digits
_MARK_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class BloomFilter:
    """A fixed-size Bloom filter with double-hashing.

    False positives occur at roughly ``(1 - e^(-k n / m))^k``; false
    negatives never occur.
    """

    def __init__(self, num_bits: int, num_hashes: int):
        if num_bits < 8:
            raise ValueError(f"need at least 8 bits, got {num_bits}")
        if num_hashes < 1:
            raise ValueError(f"need at least 1 hash, got {num_hashes}")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = 0
        self._count = 0

    @classmethod
    def with_capacity(cls, expected_items: int, false_positive_rate: float = 0.01) -> "BloomFilter":
        """Size the filter for ``expected_items`` at a target FP rate."""
        if expected_items < 1:
            raise ValueError(f"need expected_items >= 1, got {expected_items}")
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError(f"fp rate must be in (0,1), got {false_positive_rate}")
        num_bits = max(8, int(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)))
        num_hashes = max(1, int(round(num_bits / expected_items * math.log(2))))
        return cls(num_bits=num_bits, num_hashes=num_hashes)

    def _positions(self, item: str) -> list[int]:
        """``item``'s ``num_hashes`` bit positions (double hashing) — the
        one home of the formula every add and probe goes through."""
        digest = hashlib.sha1(item.encode("utf-8")).digest()
        num_bits = self.num_bits
        # Positions are (h1 + i * h2) mod num_bits with h2 odd (full
        # cycle); reducing both halves first gives the same positions
        # while the per-position arithmetic stays on small ints.
        h1 = int.from_bytes(digest[:8], "big") % num_bits
        h2 = (int.from_bytes(digest[8:16], "big") | 1) % num_bits
        return [(h1 + i * h2) % num_bits for i in range(self.num_hashes)]

    def add(self, item: str) -> None:
        self.update((item,))

    def update(self, items) -> None:
        """Add every item in one pass: hash each, mark its positions in a
        scratch array of one byte per bit, then fold that into the bit
        array once (rather than rebuilding the big int per set bit)."""
        positions = self._positions
        marks = bytearray(self.num_bits)
        added = 0
        for item in items:
            for position in positions(item):
                marks[position] = 1
            added += 1
        # Reversed, the marks read as the binary digits of the new bits.
        self._bits |= int(marks[::-1].translate(_MARK_DIGITS), 2)
        self._count += added

    def __contains__(self, item: str) -> bool:
        return self.contains_many((item,))[0]

    def contains_many(self, items) -> list[bool]:
        """Batch membership: one flag per item, in order.

        The bit array is unpacked once into a string of binary digits
        (character ``i`` is bit ``i``), so each probe reads one character
        instead of shifting the whole big int per position.
        """
        digits = bin(self._bits)[2:][::-1].ljust(self.num_bits, "0")
        positions = self._positions
        flags: list[bool] = []
        for item in items:
            for position in positions(item):
                if digits[position] != "1":
                    flags.append(False)
                    break
            else:
                flags.append(True)
        return flags

    def __len__(self) -> int:
        """Number of items added (duplicates counted, not distinct items)."""
        return self._count

    @property
    def size_bytes(self) -> int:
        """Wire/storage size of the bit array."""
        return (self.num_bits + 7) // 8

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set; high fill means high false-positive rate."""
        return bin(self._bits).count("1") / self.num_bits

    def estimated_false_positive_rate(self) -> float:
        """FP probability implied by the current fill ratio."""
        return self.fill_ratio**self.num_hashes


def bloom_for_keys(keys, false_positive_rate: float = 0.01) -> BloomFilter:
    """Build a filter over ``keys``, sized for them at the target FP rate.

    The single sizing rule both PIER runtimes (atomic executor and
    streaming dataflow) use for the Bloom join, so the filter a query
    ships is bit-identical whichever runtime executes it. An empty key
    set yields the minimal (8-bit, matches-nothing) filter.
    """
    keys = list(keys)
    if not keys:
        return BloomFilter(num_bits=8, num_hashes=1)
    bloom = BloomFilter.with_capacity(len(keys), false_positive_rate)
    bloom.update(keys)
    return bloom
