"""Vectorized set-associative TLB state for the batch engine.

The event engine's :class:`repro.memsim.tlb.Tlb` keeps one ``OrderedDict``
per set and touches one entry per event.  The batch engine instead probes
*arrays* of requests against array-shaped TLB state:

* ``tags``  — ``(sets, ways)`` packed ``(pasid << VPN_BITS) | vpn`` keys
  (``EMPTY`` marks free ways);
* ``stamps`` — ``(sets, ways)`` monotonic LRU stamps (bigger = more
  recently used — exactly ``OrderedDict`` move-to-end order).

``probe_many`` is the tentpole's "set-indexed TLB probe with per-way tag
compare": one gather + one equality broadcast answers a whole batch.
Mutation (LRU refresh, fills, evictions) happens at scatter/gather
boundaries so the vectorized probe itself stays read-only.

With one access per batch the sequence probe → refresh/fill degenerates to
the event engine's sequential lookup/insert protocol, which is what the
cross-engine equality suite relies on (``tests/test_batch_engine.py``).
"""

from __future__ import annotations

import numpy as np

from repro.common.config import TlbConfig
from repro.memsim.tlb import TlbEntry

#: VPNs fit comfortably in 40 bits (the PEC descriptor's field width);
#: packing (pasid, vpn) into one int64 keeps the tag compare a single
#: vectorized equality.
VPN_BITS = 48
EMPTY = np.int64(-1)


def pack_keys(pasids: np.ndarray, vpns: np.ndarray) -> np.ndarray:
    """Pack (pasid, vpn) pairs into int64 tags."""
    return (pasids.astype(np.int64) << VPN_BITS) | vpns.astype(np.int64)


class VectorTlb:
    """Array-shaped set-associative TLB with true-LRU replacement.

    Semantically identical to :class:`repro.memsim.tlb.Tlb` for the
    operations the batch engine performs: probe (with LRU refresh),
    fill-with-eviction, invalidate, and shootdown.  Entry payloads
    (:class:`TlbEntry`) are kept in a sidecar dict keyed by packed tag so
    coalescing metadata survives without widening the arrays.
    """

    def __init__(self, config: TlbConfig, name: str = "vtlb") -> None:
        self.config = config
        self.name = name
        self.num_sets = config.sets
        self.ways = config.ways
        self.tags = np.full((self.num_sets, self.ways), EMPTY, dtype=np.int64)
        self.stamps = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        #: Parallel PFN plane: lets a hit batch gather its translations
        #: without touching the payload sidecar.
        self.pfns = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self._clock = 0
        self._payloads: dict[int, TlbEntry] = {}
        self.hits = 0
        self.misses = 0
        self.inserts = 0
        self.evictions = 0
        #: Filter-mirroring hooks (F-Barre), same contract as ``Tlb``.
        self.on_insert = None
        self.on_evict = None

    # -- vectorized read side ------------------------------------------------

    def set_index(self, vpns: np.ndarray) -> np.ndarray:
        """Bulk set-index computation (``vpn % num_sets``, vectorized)."""
        return vpns.astype(np.int64) % self.num_sets

    def probe_many(self, pasids: np.ndarray,
                   vpns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized probe: per-way tag compare over the whole batch.

        Returns ``(hit_mask, way)`` where ``way`` is the matching way for
        hits (undefined for misses).  Read-only: counters and LRU stamps
        are updated by :meth:`commit_hits` at the scatter boundary.
        """
        if len(vpns) == 0:
            empty = np.zeros(0, dtype=bool)
            return empty, np.zeros(0, dtype=np.int64)
        keys = pack_keys(pasids, vpns)
        rows = self.tags[self.set_index(vpns)]          # (batch, ways) gather
        match = rows == keys[:, None]                   # per-way tag compare
        hit = match.any(axis=1)
        way = match.argmax(axis=1)
        return hit, way

    def gather_pfns(self, vpns: np.ndarray, ways: np.ndarray) -> np.ndarray:
        """PFNs of a batch of known hits (pair with :meth:`probe_many`)."""
        return self.pfns[self.set_index(vpns), ways]

    def entry_for(self, pasid: int, vpn: int) -> TlbEntry | None:
        """Payload of a resident entry (non-destructive, like ``Tlb.probe``)."""
        return self._payloads.get((int(pasid) << VPN_BITS) | int(vpn))

    # -- scatter boundary: mutation -----------------------------------------

    def commit_hits(self, pasids: np.ndarray, vpns: np.ndarray,
                    hit_mask: np.ndarray, ways: np.ndarray) -> None:
        """Refresh LRU stamps for a batch of hits (last occurrence wins)."""
        n = int(hit_mask.sum())
        self.hits += n
        self.misses += len(hit_mask) - n
        if n == 0:
            return
        sets = self.set_index(vpns[hit_mask])
        # Monotonic per-access stamps preserve intra-batch order, so a
        # VPN touched later in the batch is more recently used — the same
        # total order the event engine's per-access move_to_end produces.
        stamps = self._clock + 1 + np.flatnonzero(hit_mask)
        self.stamps[sets, ways[hit_mask]] = stamps
        self._clock += len(hit_mask)

    def fill(self, entry: TlbEntry) -> TlbEntry | None:
        """Install one entry; returns the evicted victim, if any.

        Scalar by design: fills are the irregular residue a batch drains
        (misses are rare after warmup), and eviction order must replay the
        event engine's exact per-insert LRU decision.
        """
        key = (entry.pasid << VPN_BITS) | entry.vpn
        set_i = entry.vpn % self.num_sets
        row_tags = self.tags[set_i]
        victim = None
        self._clock += 1
        hit_ways = np.flatnonzero(row_tags == key)
        if hit_ways.size:                      # re-insert: refresh in place
            way = int(hit_ways[0])
        else:
            free = np.flatnonzero(row_tags == EMPTY)
            if free.size:
                way = int(free[0])
            else:                              # evict true-LRU victim
                way = int(self.stamps[set_i].argmin())
                victim_key = int(row_tags[way])
                victim = self._payloads.pop(victim_key)
                self.evictions += 1
                if self.on_evict is not None:
                    self.on_evict(victim)
        self.tags[set_i, way] = key
        self.stamps[set_i, way] = self._clock
        self.pfns[set_i, way] = entry.global_pfn
        self._payloads[key] = entry
        self.inserts += 1
        if self.on_insert is not None:
            self.on_insert(entry)
        return victim

    def invalidate(self, pasid: int, vpn: int) -> TlbEntry | None:
        """Drop one translation (migration / shootdown / test drain path)."""
        key = (int(pasid) << VPN_BITS) | int(vpn)
        set_i = int(vpn) % self.num_sets
        ways = np.flatnonzero(self.tags[set_i] == key)
        if not ways.size:
            return None
        self.tags[set_i, ways[0]] = EMPTY
        entry = self._payloads.pop(key)
        if self.on_evict is not None:
            self.on_evict(entry)
        return entry

    def shootdown(self) -> int:
        """Flush everything; returns how many entries were dropped."""
        dropped = len(self._payloads)
        if self.on_evict is not None:
            for key in sorted(self._payloads):
                self.on_evict(self._payloads[key])
        self.tags.fill(EMPTY)
        self.stamps.fill(0)
        self._payloads.clear()
        return dropped

    def occupancy(self) -> int:
        return len(self._payloads)


def bulk_fingerprint_rows(items: np.ndarray, row_mask: int, fp_mask: int,
                          fp_xor: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :meth:`CuckooFilter.rows` over an item array.

    Replays the scalar SplitMix64 arithmetic with uint64 wraparound, so
    ``(fp, i1, i2)`` match the event engine's filter bit for bit — the
    batch engine's LCF screen must reproduce the exact same false
    positives, not just approximate membership.
    """
    def mix(x: np.ndarray) -> np.ndarray:
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    items = items.astype(np.uint64)
    with np.errstate(over="ignore"):
        fp = (mix(items * np.uint64(2) + np.uint64(1))
              & np.uint64(fp_mask)).astype(np.int64)
        fp[fp == 0] = 1
        i1 = (mix(items) & np.uint64(row_mask)).astype(np.int64)
    i2 = i1 ^ fp_xor[fp]
    return fp, i1, i2


class BulkCuckooView:
    """Read-only vectorized membership screen over a live ``CuckooFilter``.

    The filter's buckets stay authoritative (inserts/deletes/kicks go
    through the scalar filter so displacement chains replay exactly); this
    view mirrors them into a dense array on demand for ``contains_many``.
    """

    def __init__(self, cuckoo) -> None:
        self._cuckoo = cuckoo
        self._fp_xor = np.asarray(cuckoo._fp_xor, dtype=np.int64)
        self._row_mask = cuckoo._row_mask
        self._fp_mask = cuckoo._fp_mask
        self._ways = cuckoo._ways

    def _materialize(self) -> np.ndarray:
        buckets = self._cuckoo._buckets
        table = np.zeros((len(buckets), self._ways), dtype=np.int64)
        for row, bucket in enumerate(buckets):
            for slot, fp in enumerate(bucket):
                table[row, slot] = fp
        return table

    def contains_many(self, items: np.ndarray) -> np.ndarray:
        """Bulk membership: fingerprint-hash the batch, compare both rows.

        Hashing is always vectorized; the row compare densifies the
        buckets only when the batch is large enough to amortize the
        (rows x ways) copy — small candidate screens peek at the two
        authoritative buckets directly.  Both paths are exact (identical
        false positives), only the probe cost differs.
        """
        if len(items) == 0:
            return np.zeros(0, dtype=bool)
        fp, i1, i2 = bulk_fingerprint_rows(items, self._row_mask,
                                           self._fp_mask, self._fp_xor)
        buckets = self._cuckoo._buckets
        if len(items) * 8 < len(buckets):
            return np.fromiter(
                (f in buckets[a] or f in buckets[b]
                 for f, a, b in zip(fp.tolist(), i1.tolist(), i2.tolist())),
                dtype=bool, count=len(items))
        table = self._materialize()
        return ((table[i1] == fp[:, None]).any(axis=1)
                | (table[i2] == fp[:, None]).any(axis=1))
