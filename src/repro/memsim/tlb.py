"""Set-associative, LRU TLB with miss-status-holding registers (MSHRs).

Used for both L1 (per-stream, fully associative in the baseline) and L2
(chiplet-shared, 512-entry 16-way) TLBs, and for the optional IOMMU TLB.

Entries carry the translation payload plus Barre's coalescing metadata: the
decoded PTE coalescing fields and the PEC-buffer data descriptor that the
ATS response piggybacks (Section V-A3), which is what lets F-Barre calculate
sibling PFNs from a TLB entry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.config import TlbConfig
from repro.common.stats import StatSet
from repro.common.trace import NULL_TRACER


@dataclass(slots=True)
class TlbEntry:
    """One translation held in a TLB."""

    pasid: int
    vpn: int
    global_pfn: int
    #: Decoded coalescing PTE fields (None when the page is uncoalesced).
    coal: Any = None
    #: PEC-buffer data descriptor piggybacked on the ATS response.
    pec: Any = None
    #: Cached sibling (coalescing) VPNs, filled by the F-Barre agent on
    #: insert so the matching eviction reuses the same set.
    siblings: Any = None
    #: Cuckoo ``(fp, i1, i2)`` of each sibling, index for index; cached with
    #: ``siblings`` so filter updates hash each sibling once per entry.
    sibling_rows: Any = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.pasid, self.vpn)


class Tlb:
    """A set-associative TLB with true-LRU replacement.

    ``on_insert`` / ``on_evict`` hooks let F-Barre mirror TLB contents into
    its cuckoo filters (Section V-A2) without the TLB knowing about filters.
    """

    def __init__(self, config: TlbConfig, name: str = "tlb") -> None:
        self.config = config
        self.stats = StatSet(name)
        # ``config.sets``/``config.ways`` are derived properties; resolve
        # them once — lookup() runs on every simulated memory access.
        self._num_sets = config.sets
        # Set counts are powers of two in every shipped config; ``vpn & mask``
        # equals ``vpn % num_sets`` for the nonnegative VPNs we index with.
        self._set_mask = (self._num_sets - 1
                          if self._num_sets & (self._num_sets - 1) == 0
                          else None)
        self._ways = config.ways
        self._bump = self.stats.bump
        # Live view of the counter bag: the hot paths increment it inline
        # (same Counter object the StatSet reports, so readouts stay exact).
        self._counters = self.stats.counters
        self._sets: list[OrderedDict[tuple[int, int], TlbEntry]] = [
            OrderedDict() for _ in range(self._num_sets)]
        self.on_insert: Callable[[TlbEntry], None] | None = None
        self.on_evict: Callable[[TlbEntry], None] | None = None
        #: Translation-path tracer (no-op by default); ``trace_label``
        #: prefixes the hit/miss phase stamps ("l1", "l2", "iommu_tlb").
        #: Both are assigned through setters that recompile the lookup
        #: closure, so they may be reassigned any time before the run.
        self._tracer = NULL_TRACER
        self._trace_on = False
        self.trace_label = name.split(".", 1)[0]

    @property
    def tracer(self) -> Any:
        return self._tracer

    @tracer.setter
    def tracer(self, tracer: Any) -> None:
        self._tracer = tracer
        self._trace_on = tracer.enabled
        self._rebuild_lookup()

    @property
    def trace_label(self) -> str:
        return self._trace_label

    @trace_label.setter
    def trace_label(self, label: str) -> None:
        self._trace_label = label
        self._phase_hit = label + "_hit"
        self._phase_miss = label + "_miss"
        self._rebuild_lookup()

    def _rebuild_lookup(self) -> None:
        """Compile ``lookup`` as a per-instance closure.

        The lookup runs on every simulated memory access; binding the set
        list, counter bag, and tracer state as closure cells removes every
        ``self`` attribute load from the hit path.  Rebuilt whenever the
        tracer or trace label changes (both happen only during wiring).
        The untraced variants drop the trace branches outright and index
        sets with a mask; the single-set (fully-associative) variant also
        prebinds the set dict and its LRU splice.  All variants perform
        the identical probes and counter updates, so stats and traces are
        bit-identical across them.
        """
        sets = self._sets
        num_sets = self._num_sets
        set_mask = self._set_mask
        counters = self._counters
        trace_on = self._trace_on
        tracer = self._tracer
        phase_hit = self._phase_hit
        phase_miss = self._phase_miss

        if not trace_on and num_sets == 1:
            entries = sets[0]
            move_to_end = entries.move_to_end

            def lookup(pasid: int, vpn: int) -> TlbEntry | None:
                """Probe the TLB; refreshes LRU on hit."""
                key = (pasid, vpn)
                # Hits are the common case and a miss triggers a walk
                # anyway: direct subscript (zero-cost try in 3.11)
                # beats .get().
                try:
                    entry = entries[key]
                except KeyError:
                    counters["misses"] += 1
                    return None
                move_to_end(key)
                counters["hits"] += 1
                return entry

        elif not trace_on and set_mask is not None:

            def lookup(pasid: int, vpn: int) -> TlbEntry | None:
                """Probe the TLB; refreshes LRU on hit."""
                entries = sets[vpn & set_mask]
                key = (pasid, vpn)
                try:
                    entry = entries[key]
                except KeyError:
                    counters["misses"] += 1
                    return None
                entries.move_to_end(key)
                counters["hits"] += 1
                return entry

        else:

            def lookup(pasid: int, vpn: int) -> TlbEntry | None:
                """Probe the TLB; refreshes LRU on hit."""
                entries = sets[vpn % num_sets]
                key = (pasid, vpn)
                try:
                    entry = entries[key]
                except KeyError:
                    counters["misses"] += 1
                    if trace_on:
                        tracer.phase(pasid, vpn, phase_miss)
                    return None
                entries.move_to_end(key)
                counters["hits"] += 1
                if trace_on:
                    tracer.phase(pasid, vpn, phase_hit)
                return entry

        self.lookup = lookup

    def _set_for(self, vpn: int) -> OrderedDict[tuple[int, int], TlbEntry]:
        return self._sets[vpn % self._num_sets]

    def probe(self, pasid: int, vpn: int) -> TlbEntry | None:
        """Non-destructive probe: no LRU update, no hit/miss accounting.

        Used by coalescing-VPN searches (F-Barre) and peer probes
        (Valkyrie/Least), which must not perturb replacement state.
        """
        return self._sets[vpn % self._num_sets].get((pasid, vpn))

    def insert(self, entry: TlbEntry) -> TlbEntry | None:
        """Install ``entry``; returns the evicted victim, if any."""
        key = (entry.pasid, entry.vpn)
        entries = self._sets[entry.vpn % self._num_sets]
        victim = None
        if key in entries:
            entries.pop(key)
        elif len(entries) >= self._ways:
            _key, victim = entries.popitem(last=False)
            self._counters["evictions"] += 1
            if self.on_evict is not None:
                self.on_evict(victim)
        entries[key] = entry
        self._counters["inserts"] += 1
        if self.on_insert is not None:
            self.on_insert(entry)
        return victim

    def invalidate(self, pasid: int, vpn: int) -> TlbEntry | None:
        """Remove one entry (page migration / shootdown path)."""
        entries = self._set_for(vpn)
        entry = entries.pop((pasid, vpn), None)
        if entry is not None:
            self.stats.bump("invalidations")
            if self.on_evict is not None:
                self.on_evict(entry)
        return entry

    def invalidate_pasid(self, pasid: int) -> int:
        """Flush every entry of one address space (PASID teardown).

        Fires ``on_evict`` per entry so filter mirrors (F-Barre LCF/RCF)
        stay consistent; returns how many entries were dropped.
        """
        dropped = 0
        for entries in self._sets:
            dead = [key for key in entries if key[0] == pasid]
            for key in dead:
                entry = entries.pop(key)
                dropped += 1
                if self.on_evict is not None:
                    self.on_evict(entry)
        if dropped:
            self._counters["pasid_invalidations"] += dropped
        return dropped

    def shootdown(self) -> int:
        """Flush everything; returns how many entries were dropped."""
        dropped = 0
        for entries in self._sets:
            while entries:
                _key, entry = entries.popitem(last=False)
                dropped += 1
                if self.on_evict is not None:
                    self.on_evict(entry)
        self.stats.bump("shootdowns")
        return dropped

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def entries(self) -> list[TlbEntry]:
        """Snapshot of all resident entries (test/debug aid)."""
        return [e for s in self._sets for e in s.values()]


@dataclass(slots=True)
class _MshrSlot:
    waiters: list[Callable[[Any], None]] = field(default_factory=list)


class MshrFile:
    """Miss-status holding registers: merge outstanding misses per key.

    ``allocate`` returns:

    * ``"primary"`` — first miss for the key; the caller must launch the fill.
    * ``"merged"`` — an outstanding miss exists; callback queued behind it.
    * ``"full"``   — no free MSHR; the caller must stall (register with
      :meth:`wait_for_slot` — this backpressure is what Fig 4's MSHR sweep
      exercises).
    """

    def __init__(self, capacity: int, name: str = "mshr") -> None:
        self.capacity = capacity
        self.stats = StatSet(name)
        self._bump = self.stats.bump
        # Live view of the counter bag: the hot paths increment it inline
        # (same Counter object the StatSet reports, so readouts stay exact).
        self._counters = self.stats.counters
        self._slots: dict[Any, _MshrSlot] = {}
        self._slot_waiters: list[Callable[[], None]] = []

    def allocate(self, key: Any, callback: Callable[[Any], None]) -> str:
        slot = self._slots.get(key)
        if slot is not None:
            slot.waiters.append(callback)
            self._counters["merged"] += 1
            return "merged"
        if len(self._slots) >= self.capacity:
            self._counters["stalls"] += 1
            return "full"
        self._slots[key] = _MshrSlot(waiters=[callback])
        self._counters["allocated"] += 1
        return "primary"

    def wait_for_slot(self, retry: Callable[[], None]) -> None:
        """Queue a stalled requester; re-invoked when an MSHR frees up."""
        self._slot_waiters.append(retry)

    def release(self, key: Any, result: Any) -> None:
        """Fill arrived: pop the slot and run every queued callback.

        Stalled requesters are drained while capacity remains: a retried
        requester that no longer needs a slot (its line was filled in the
        meantime) must not strand the ones behind it.
        """
        slot = self._slots.pop(key)
        for waiter in slot.waiters:
            waiter(result)
        while self._slot_waiters and len(self._slots) < self.capacity:
            self._slot_waiters.pop(0)()

    def drop_pasid(self, pasid: int) -> int:
        """Discard outstanding misses of a destroyed address space.

        The waiters are *not* run — their streams are cancelled with the
        PASID, and running them would deliver a dead translation.  Freed
        capacity re-admits stalled requesters just like :meth:`release`.
        """
        dead = [key for key in self._slots
                if isinstance(key, tuple) and key and key[0] == pasid]
        for key in dead:
            del self._slots[key]
        if dead:
            self._counters["teardown_drops"] += len(dead)
        while self._slot_waiters and len(self._slots) < self.capacity:
            self._slot_waiters.pop(0)()
        return len(dead)

    def outstanding(self) -> int:
        return len(self._slots)

    def is_pending(self, key: Any) -> bool:
        return key in self._slots
