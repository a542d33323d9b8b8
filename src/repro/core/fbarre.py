"""F-Barre's chiplet-side machinery: LCF/RCF filters + intra-MCM translation.

Each chiplet owns one :class:`CoalescingAgent` holding

* an **LCF** (local coalescing group filter) mirroring its own L2 TLB
  contents (exact VPNs only), and
* one **RCF per peer** tracking, for each peer, the exact *and* sibling
  coalescing VPNs of that peer's TLB entries (Section V-A2) — so a chiplet
  can discover that *some* peer entry can calculate its VPN without knowing
  the exact entry.

Filter-update messages are best-effort (no acknowledgement) and travel over
the mesh unless oracle sharing is enabled (Fig 19's comparison point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.common.config import CuckooConfig
from repro.common.errors import ConfigError
from repro.common.stats import StatSet
from repro.common.trace import NULL_TRACER
from repro.filters.cuckoo import CuckooFilter
from repro.iommu.pec import PecLogic
from repro.memsim.tlb import Tlb, TlbEntry

#: Per-VPN cuckoo ``(fp, i1, i2)``, index for index with a VPN tuple.
Rows = tuple[tuple[int, int, int], ...]


@dataclass(slots=True)
class FilterUpdate:
    """A batch of Section V-A2's 44-bit messages for one TLB event.

    The wire format is one (command, sender, coalescing VPN) message per
    VPN; the simulator batches the sibling set of one TLB insert/evict into
    a single event and charges the link per 44-bit message.

    ``rows`` carries each VPN's precomputed cuckoo ``(fp, i1, i2)``, index
    for index.  It is simulator bookkeeping, not wire payload: every filter
    in one simulator shares one geometry and the hash is unseeded, so the
    sender hashes each sibling once and every receiving RCF reuses it.
    :meth:`CoalescingAgent.apply_update` requires it.
    """

    command: str  # "add" | "delete"
    sender: int
    pasid: int
    vpns: tuple[int, ...]
    rows: Rows

    def __len__(self) -> int:
        return len(self.vpns)


def require_shared_filter_geometry(
        agents: Iterable[CoalescingAgent]) -> None:
    """Reject agents whose LCF and RCFs do not all share one CuckooConfig.

    :attr:`FilterUpdate.rows` are hashed by the sender and applied by every
    receiver, which is only exact when all filters have one geometry.
    """
    configs = {filt.config for agent in agents
               for filt in (agent.lcf, *agent.rcfs.values())}
    if len(configs) > 1:
        raise ConfigError(
            f"F-Barre filters must share one cuckoo geometry to exchange "
            f"precomputed rows; found {sorted(map(repr, configs))}")


class CoalescingAgent:
    """LCF/RCF bookkeeping and PEC calculation for one chiplet."""

    def __init__(self, chiplet_id: int, num_chiplets: int,
                 cuckoo: CuckooConfig, pec: PecLogic, l2: Tlb, *,
                 max_merge: int = 1,
                 send_update: Callable[[int, FilterUpdate], None]
                 | None = None) -> None:
        self.chiplet_id = chiplet_id
        self.num_chiplets = num_chiplets
        self.pec = pec
        self.l2 = l2
        self.max_merge = max_merge
        #: Translation-path tracer (no-op unless the MCM enables tracing;
        #: assigned after construction, so the setter refreshes the cached
        #: enabled flag).
        self.tracer = NULL_TRACER
        self.stats = StatSet(f"fbarre.{chiplet_id}")
        self._counters = self.stats.counters
        self.lcf = CuckooFilter(cuckoo)
        #: Row hash of this simulator's filter geometry, bound to the inner
        #: filter so the invariant checker's shadows never see it.
        self._rows_of = self.lcf.rows
        self.rcfs: dict[int, CuckooFilter] = {
            peer: CuckooFilter(cuckoo)
            for peer in range(num_chiplets) if peer != chiplet_id}
        #: Peers in ascending id order: the RCF scan and update fan-out order.
        self._peers = tuple(sorted(self.rcfs))
        #: Transport for filter updates; wired by the MCM to the mesh.
        self.send_update = send_update or (lambda peer, update: None)
        l2.on_insert = self._on_l2_insert
        l2.on_evict = self._on_l2_evict

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        self._trace_on = tracer.enabled

    # -- TLB mirroring -------------------------------------------------------

    def _sibling_vpns(self, entry: TlbEntry) -> tuple[tuple[int, ...], Rows]:
        """The entry's coalescing VPNs and their cuckoo rows, cached on it.

        Computed on the entry's first insert; the matching eviction and
        every peer's RCF update reuse both, so each sibling is hashed once
        per TLB entry.
        """
        if entry.siblings is not None:
            return entry.siblings, entry.sibling_rows
        if entry.coal is None:
            siblings: tuple[int, ...] = (entry.vpn,)
        else:
            if entry.pec is not None:
                self.pec.record_descriptor(entry.pec)
            siblings = tuple(self.pec.sibling_vpns(entry.pasid, entry.vpn,
                                                   entry.coal))
        rows_of = self._rows_of
        rows = tuple([rows_of(vpn) for vpn in siblings])
        entry.siblings = siblings
        entry.sibling_rows = rows
        return siblings, rows

    def _on_l2_insert(self, entry: TlbEntry) -> None:
        siblings, rows = self._sibling_vpns(entry)
        # LCF reflects actual TLB contents: exact VPN only (Section V-A2).
        if not self.lcf.insert(entry.vpn, rows[siblings.index(entry.vpn)]):
            self._counters["lcf_insert_drops"] += 1
        self._broadcast("add", entry.pasid, siblings, rows)

    def _on_l2_evict(self, entry: TlbEntry) -> None:
        siblings, rows = self._sibling_vpns(entry)
        self.lcf.delete(entry.vpn, rows[siblings.index(entry.vpn)])
        self._broadcast("delete", entry.pasid, siblings, rows)

    def _broadcast(self, command: str, pasid: int, siblings: tuple[int, ...],
                   rows: Rows) -> None:
        # Receivers only read an update, so one message serves every peer.
        update = FilterUpdate(command=command, sender=self.chiplet_id,
                              pasid=pasid, vpns=siblings, rows=rows)
        send = self.send_update
        for peer in self._peers:
            send(peer, update)
        self._counters["updates_sent"] += len(siblings) * len(self._peers)

    def apply_update(self, update: FilterUpdate) -> None:
        """A peer's filter-update batch arrived (best effort, no ack)."""
        rcf = self.rcfs[update.sender]
        vpns = update.vpns
        rows = update.rows
        if update.command == "add":
            insert = rcf.insert
            drops = 0
            for vpn, vpn_rows in zip(vpns, rows, strict=True):
                if not insert(vpn, vpn_rows):
                    drops += 1
            if drops:
                self._counters["rcf_insert_drops"] += drops
        else:
            delete = rcf.delete
            for vpn, vpn_rows in zip(vpns, rows, strict=True):
                delete(vpn, vpn_rows)
        self._counters["updates_applied"] += len(vpns)

    # -- translation paths -----------------------------------------------------

    def try_local(self, pasid: int, vpn: int) -> TlbEntry | None:
        """Intra-chiplet coalesced translation (Fig 11 steps 3-5, locally).

        On an L2 miss the chiplet's own TLB may hold a *sibling* of the
        requested VPN; candidates are generated with the PEC logic, screened
        by the LCF, and confirmed with a non-destructive TLB probe.
        """
        if self._trace_on:
            self.tracer.phase(pasid, vpn, "lcf_probe")
        candidates = self.pec.candidate_vpns(pasid, vpn,
                                             max_merge=self.max_merge)
        for candidate in candidates:
            if candidate == vpn or not self.lcf.contains(candidate):
                continue
            self._counters["lcf_hits"] += 1
            if self._trace_on:
                self.tracer.phase(pasid, vpn, "lcf_hit")
            sibling = self.l2.probe(pasid, candidate)
            if sibling is None or sibling.coal is None:
                self._counters["lcf_false_positives"] += 1
                if self._trace_on:
                    self.tracer.phase(pasid, vpn, "lcf_false_positive")
                continue
            entry = self._calculated_entry(pasid, vpn, sibling)
            if entry is not None:
                self._counters["local_coalesced"] += 1
                return entry
        return None

    def predict_sharer(self, pasid: int, vpn: int) -> int | None:
        """RCF scan: which peer likely holds a coalescing entry (Fig 11)."""
        rcfs = self.rcfs
        for peer in self._peers:
            if rcfs[peer].contains(vpn):
                self._counters["rcf_hits"] += 1
                if self._trace_on:
                    self.tracer.phase(pasid, vpn, "rcf_hit")
                return peer
        return None

    def handle_peer_request(self, pasid: int, vpn: int) -> TlbEntry | None:
        """Serve a peer's coalescing request (Fig 12 steps 4-7).

        Runs the same candidate + LCF + TLB-probe flow as
        :meth:`try_local`, but an *exact* resident entry also answers
        (the peer's RCF tracks exact VPNs too).
        """
        self.stats.bump("peer_requests")
        exact = self.l2.probe(pasid, vpn)
        if exact is not None:
            self.stats.bump("peer_exact_hits")
            return exact
        entry = self.try_local(pasid, vpn)
        if entry is not None:
            self.stats.bump("peer_calculated")
        return entry

    def _calculated_entry(self, pasid: int, vpn: int,
                          sibling: TlbEntry) -> TlbEntry | None:
        if sibling.pec is not None:
            self.pec.record_descriptor(sibling.pec)
        pfn = self.pec.calculate(pasid, sibling.vpn, sibling.coal, vpn)
        if pfn is None:
            return None
        own = self.pec.synthesize_fields(pasid, vpn, sibling.vpn, sibling.coal)
        return TlbEntry(pasid=pasid, vpn=vpn, global_pfn=pfn,
                        coal=own, pec=sibling.pec)

    # -- maintenance -------------------------------------------------------------

    def shootdown(self) -> None:
        """TLB shootdown: reset all filters (Section VI, *TLB Shootdown*)."""
        self.lcf.clear()
        for rcf in self.rcfs.values():
            rcf.clear()
        self.stats.bump("filter_resets")

    def local_hit_rate(self) -> float:
        """LCF true-positive rate (Fig 17a's ~98.4%)."""
        hits = self.stats.count("lcf_hits")
        if not hits:
            return 0.0
        return 1.0 - self.stats.count("lcf_false_positives") / hits
