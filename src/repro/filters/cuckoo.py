"""Cuckoo filter (Fan et al., CoNEXT'14) as used by F-Barre's LCF/RCFs.

A cuckoo filter stores short fingerprints in a 2-choice hash table and —
unlike a Bloom filter — supports deletion, which F-Barre needs because
filters must track TLB insertions *and* evictions (Section V-A1).

The implementation is deterministic: hashing is a fixed 64-bit mixer, and
eviction victims are chosen round-robin per bucket, so simulations replay
identically for a given seed.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.config import CuckooConfig

#: ``(fingerprint, bucket1, bucket2)`` of one item.
ItemRows = tuple[int, int, int]
#: item -> :data:`ItemRows`, valid for one filter geometry.
RowsMemo = dict[int, ItemRows]


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; a fast, well-distributed 64-bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


#: ``_mix64(fp) & row_mask`` for every possible fingerprint, keyed by
#: (fingerprint_bits, row_mask).  The alternate-bucket hash is recomputed
#: on every kick; the fingerprint space is tiny (2**fingerprint_bits
#: values), so one shared table per geometry replaces the mixer on that
#: path.  Masking inside the table is exact because the row count is a
#: power of two: ``(i ^ mix) & mask == i ^ (mix & mask)`` for any in-range
#: row index ``i``.
_FP_XOR_TABLES: dict[tuple[int, int], list[int]] = {}


def _fp_xor_table(fingerprint_bits: int, row_mask: int) -> list[int]:
    key = (fingerprint_bits, row_mask)
    table = _FP_XOR_TABLES.get(key)
    if table is None:
        table = [_mix64(fp) & row_mask for fp in range(1 << fingerprint_bits)]
        _FP_XOR_TABLES[key] = table
    return table


def cuckoo_rows(item: int, config: CuckooConfig) -> ItemRows:
    """``(fingerprint, bucket1, bucket2)`` of ``item`` under ``config``.

    The unmemoized hash: a pure function of the item and the geometry (it
    is unseeded), so every filter built from one :class:`CuckooConfig`
    agrees on it.  :meth:`CuckooFilter.rows` caches it; the invariant
    checker calls it directly so a cached entry never vouches for itself.
    """
    row_mask = config.rows - 1
    # SplitMix64 inlined for the two item hashes (identical arithmetic to
    # _mix64); fingerprint 0 is reserved so empty slots never alias.
    x = (item * 2 + 1 + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    fp = ((x ^ (x >> 31)) & ((1 << config.fingerprint_bits) - 1)) or 1
    x = (item + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    i1 = (x ^ (x >> 31)) & row_mask
    # Partial-key cuckoo hashing: i2 = i1 ^ hash(fp).
    return fp, i1, i1 ^ _fp_xor_table(config.fingerprint_bits, row_mask)[fp]


class CuckooFilter:
    """Approximate membership with insert/delete (may false-positive).

    ``memo`` caches :func:`cuckoo_rows` per item.  Filters of one geometry
    may share one memo (the simulator gives all its LCFs and RCFs one, so
    each VPN is hashed once per simulation); by default a filter gets its
    own.

    >>> f = CuckooFilter(CuckooConfig(rows=8, ways=2, fingerprint_bits=8))
    >>> f.insert(0xA1)
    True
    >>> f.contains(0xA1)
    True
    >>> f.delete(0xA1)
    True
    >>> f.contains(0xA1)
    False
    """

    def __init__(self, config: CuckooConfig | None = None,
                 memo: RowsMemo | None = None) -> None:
        self.config = config or CuckooConfig()
        self._memo: RowsMemo = memo if memo is not None else {}
        self._buckets: list[list[int]] = [[] for _ in range(self.config.rows)]
        self._fp_xor = _fp_xor_table(self.config.fingerprint_bits,
                                     self.config.rows - 1)
        self._ways = self.config.ways
        self._max_kicks = self.config.max_kicks
        self._kick_cursor = 0
        self._size = 0
        # Above ~95% load a kick chain almost never succeeds; bail out
        # immediately instead (a dropped best-effort update, Section V-A2).
        self._kick_ceiling = int(self.config.capacity * 0.95)

    # -- hashing -----------------------------------------------------------

    def rows(self, item: int) -> ItemRows:
        """:func:`cuckoo_rows` of ``item``, served from the memo."""
        return self._memo.get(item) or self._hash(item)

    def _hash(self, item: int) -> ItemRows:
        """Memo miss: hash ``item`` and remember it."""
        rows = self._memo[item] = cuckoo_rows(item, self.config)
        return rows

    # -- operations --------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def load_factor(self) -> float:
        return self._size / self.config.capacity

    def contains(self, item: int) -> bool:
        """Membership test; false positives possible, negatives exact."""
        fp, i1, i2 = self._memo.get(item) or self._hash(item)
        return fp in self._buckets[i1] or fp in self._buckets[i2]

    def insert(self, item: int, rows: ItemRows | None = None) -> bool:
        """Insert; returns False when the filter is too full (no raise).

        F-Barre's filter updates are best-effort (Section V-A2), so a failed
        insertion is a dropped update, not an error.  ``rows``, when given,
        must equal :meth:`rows` of ``item`` (precomputed by the caller).
        """
        fp, i1, i2 = rows or self._memo.get(item) or self._hash(item)
        buckets = self._buckets
        bucket = buckets[i1]
        if len(bucket) < self._ways:
            bucket.append(fp)
            self._size += 1
            return True
        bucket = buckets[i2]
        if len(bucket) < self._ways:
            bucket.append(fp)
            self._size += 1
            return True
        if self._size >= self._kick_ceiling:
            return False  # saturated: kicking is hopeless, drop the update
        if self._kick(fp, i1, i2):
            self._size += 1
            return True
        return False

    def insert_many(self, items: Sequence[int],
                    rows: Sequence[ItemRows]) -> int:
        """Insert ``items`` in order; returns how many were dropped.

        ``rows[k]`` must equal :meth:`rows` of ``items[k]``.  Leaves exactly
        the state (bucket order, size, kick cursor) of one :meth:`insert`
        per item: the fit and saturation paths run inline, the kick chain
        is the one :meth:`insert` uses.
        """
        if len(rows) != len(items):
            raise ValueError(f"{len(items)} items but {len(rows)} rows")
        buckets = self._buckets
        ways = self._ways
        ceiling = self._kick_ceiling
        size = self._size
        drops = 0
        for fp, i1, i2 in rows:
            bucket = buckets[i1]
            if len(bucket) < ways:
                bucket.append(fp)
                size += 1
                continue
            bucket = buckets[i2]
            if len(bucket) < ways:
                bucket.append(fp)
                size += 1
            elif size < ceiling and self._kick(fp, i1, i2):
                size += 1
            else:
                drops += 1
        self._size = size
        return drops

    def _kick(self, fp: int, i1: int, i2: int) -> bool:
        """Place ``fp`` by displacing residents; both its buckets are full.

        Returns whether it found a home.  Leaves the size to the caller.
        """
        buckets = self._buckets
        cursor = self._kick_cursor
        row = i1 if (cursor & 1) == 0 else i2
        cursor += 1
        chain: list[tuple[int, int]] = []
        record = chain.append
        fp_xor = self._fp_xor
        ways = self._ways
        for _ in range(self._max_kicks):
            bucket = buckets[row]
            victim_slot = cursor % ways  # every bucket on the chain is full
            cursor += 1
            record((row, victim_slot))
            bucket[victim_slot], fp = fp, bucket[victim_slot]
            row ^= fp_xor[fp]
            bucket = buckets[row]
            if len(bucket) < ways:
                bucket.append(fp)
                self._kick_cursor = cursor
                return True
        self._kick_cursor = cursor
        # Unwind the displacement chain so a failed insert drops only the
        # *new* fingerprint, never a resident victim's — this is what makes
        # "no false negatives for resident keys" a hard invariant rather
        # than a high-probability property (the validation subsystem
        # asserts it).
        for kicked_row, slot in reversed(chain):
            bucket = buckets[kicked_row]
            bucket[slot], fp = fp, bucket[slot]
        return False

    def delete(self, item: int, rows: ItemRows | None = None) -> bool:
        """Delete one matching fingerprint; returns whether one was found.

        ``rows`` is the optional precomputed :meth:`rows` of ``item``.
        """
        fp, i1, i2 = rows or self._memo.get(item) or self._hash(item)
        for row in (i1, i2):
            bucket = self._buckets[row]
            if fp in bucket:
                bucket.remove(fp)
                self._size -= 1
                return True
        return False

    def delete_many(self, items: Sequence[int],
                    rows: Sequence[ItemRows]) -> int:
        """:meth:`delete` each item in order; returns how many were found.

        ``rows[k]`` must equal :meth:`rows` of ``items[k]``.
        """
        if len(rows) != len(items):
            raise ValueError(f"{len(items)} items but {len(rows)} rows")
        buckets = self._buckets
        found = 0
        for fp, i1, i2 in rows:
            bucket = buckets[i1]
            if fp not in bucket:
                bucket = buckets[i2]
                if fp not in bucket:
                    continue
            bucket.remove(fp)
            found += 1
        self._size -= found
        return found

    def clear(self) -> None:
        """Drop all fingerprints (used on TLB shootdown, Section VI)."""
        for bucket in self._buckets:
            bucket.clear()
        self._size = 0

    def size_bits(self) -> int:
        """Storage cost in bits (for the Section VII-K area model)."""
        return self.config.capacity * self.config.fingerprint_bits

    def theoretical_false_positive_rate(self) -> float:
        """Upper-bound FP rate: 2b / 2^f (Fan et al., Section VII-K: 1.53%)."""
        return 2 * self.config.ways / (1 << self.config.fingerprint_bits)
