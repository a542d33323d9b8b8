"""Coalescing-group math tests, anchored on the paper's worked examples.

The Fig 7a setup: data 1 has 12 pages (VPNs 0x1..0xC) over 4 chiplets with
interlv_gran 3; the driver finds common local PFNs 0x75, 0x88, 0x114; the
chiplet base PFNs are 0xA000, 0xB000, 0xC000, 0xD000.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import AddressError, TranslationError
from repro.mapping import (
    DataDescriptor,
    PEC_ENTRY_BITS,
    PecBuffer,
    calculate_pending_pfn,
    merged_group_vpns,
)
from repro.memsim import PteFields

BASES = (0xA000, 0xB000, 0xC000, 0xD000)


def data1() -> DataDescriptor:
    """Fig 7a data 1 — matches Example 3's PEC buffer entry."""
    return DataDescriptor(data_id=1, pasid=0, start_vpn=0x1, end_vpn=0xC,
                          interlv_gran=3, gpu_map=(0, 1, 2, 3))


class TestExample3PecEntry:
    def test_fields(self):
        d = data1()
        assert d.start_vpn == 0x1 and d.end_vpn == 0xC
        assert d.interlv_gran == 3
        assert d.gpu_map == (0, 1, 2, 3)
        assert d.num_pages == 12

    def test_vpn_to_chiplet(self):
        d = data1()
        # 0x1-0x3 -> GPU0, 0x4-0x6 -> GPU1, 0x7-0x9 -> GPU2, 0xA-0xC -> GPU3
        assert [d.chiplet_of(v) for v in range(0x1, 0xD)] == \
            [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]

    def test_entry_is_118_bits(self):
        assert PEC_ENTRY_BITS == 118
        assert data1().encoded_bits() == 118


class TestGroupMembership:
    def test_groups_partition_data1(self):
        d = data1()
        assert d.group_vpns(0x1) == [0x1, 0x4, 0x7, 0xA]
        assert d.group_vpns(0x2) == [0x2, 0x5, 0x8, 0xB]
        assert d.group_vpns(0x3) == [0x3, 0x6, 0x9, 0xC]

    def test_every_member_sees_same_group(self):
        d = data1()
        for vpn in d.group_vpns(0x2):
            assert d.group_vpns(vpn) == [0x2, 0x5, 0x8, 0xB]

    def test_partial_group_at_data_end(self):
        # 3-page data over 4 chiplets: only 3 members (Fig 7a data 3).
        d = DataDescriptor(data_id=3, pasid=0, start_vpn=0xB1, end_vpn=0xB3,
                           interlv_gran=1, gpu_map=(0, 1, 2, 3))
        assert d.group_vpns(0xB1) == [0xB1, 0xB2, 0xB3]
        assert d.coal_bitmap_for(0xB1) == 0b0111

    def test_multi_round_groups_stay_within_round(self):
        # 24 pages, gran 3, 4 chiplets: two rounds of 12.
        d = DataDescriptor(data_id=9, pasid=0, start_vpn=0, end_vpn=23,
                           interlv_gran=3, gpu_map=(0, 1, 2, 3))
        assert d.group_vpns(0) == [0, 3, 6, 9]
        assert d.group_vpns(12) == [12, 15, 18, 21]  # second round
        assert 12 not in d.group_vpns(0)

    def test_position_rejects_foreign_vpn(self):
        with pytest.raises(TranslationError):
            data1().position(0x100)


class TestExample4PfnCalculation:
    """The paper's Example 4, end to end."""

    def setup_method(self):
        self.desc = data1()
        # PTW finished VPN 0x4 -> PFN 0xB075 (GPU1, local 0x75).
        self.fields = PteFields(present=True, global_pfn=0xB075,
                                coal_bitmap=0b1111, inter_gpu_coal_order=1)

    def test_pending_0xa_resolves_to_0xd075(self):
        pfn = calculate_pending_pfn(self.desc, 0x4, self.fields, 0xA, BASES)
        assert pfn == 0xD075

    def test_all_group_members_resolve(self):
        expect = {0x1: 0xA075, 0x7: 0xC075, 0xA: 0xD075}
        for vpn, pfn in expect.items():
            assert calculate_pending_pfn(self.desc, 0x4, self.fields,
                                         vpn, BASES) == pfn

    def test_same_vpn_returns_pte_pfn(self):
        assert calculate_pending_pfn(self.desc, 0x4, self.fields,
                                     0x4, BASES) == 0xB075

    def test_non_member_returns_none(self):
        # 0x5 is data 1 but a different coalescing group.
        assert calculate_pending_pfn(self.desc, 0x4, self.fields,
                                     0x5, BASES) is None

    def test_foreign_vpn_returns_none(self):
        assert calculate_pending_pfn(self.desc, 0x4, self.fields,
                                     0x100, BASES) is None

    def test_nonparticipant_chiplet_rejected(self):
        fields = PteFields(present=True, global_pfn=0xB075,
                           coal_bitmap=0b0011, inter_gpu_coal_order=1)
        assert calculate_pending_pfn(self.desc, 0x4, fields,
                                     0xA, BASES) is None  # GPU3 not in bitmap
        assert calculate_pending_pfn(self.desc, 0x4, fields,
                                     0x1, BASES) == 0xA075


class TestMergedGroups:
    """Section V-B formulas on a merged (2-group) coalescing group."""

    def setup_method(self):
        # Data of 12 pages starting at 0x1, gran 3; groups for intra 0 and 1
        # are merged: local PFNs 0x75 and 0x76.
        self.desc = data1()
        # PTE for VPN 0x5 = GPU1 (inter 1), intra 1, merged span 2.
        self.fields = PteFields(present=True, global_pfn=0xB076,
                                coal_bitmap=0b1111, inter_gpu_coal_order=1,
                                intra_gpu_coal_order=1, merged_groups=2,
                                extended=True)

    def test_vpn_first_formula(self):
        # VPN_first = VPN - intra - gran*inter = 0x5 - 1 - 3 = 0x1.
        members = merged_group_vpns(self.desc, 0x5, self.fields)
        assert members == [0x1, 0x2, 0x4, 0x5, 0x7, 0x8, 0xA, 0xB]

    def test_pending_pfn_formula(self):
        # 0xB = GPU3 intra 1 -> 0xD000 + 0x76; 0xA = GPU3 intra 0 -> 0xD075.
        assert calculate_pending_pfn(self.desc, 0x5, self.fields,
                                     0xB, BASES) == 0xD076
        assert calculate_pending_pfn(self.desc, 0x5, self.fields,
                                     0xA, BASES) == 0xD075
        assert calculate_pending_pfn(self.desc, 0x5, self.fields,
                                     0x1, BASES) == 0xA075

    def test_outside_merged_span_returns_none(self):
        # intra 2 (VPN 0x6) is not in the 2-merged span {0,1}.
        assert calculate_pending_pfn(self.desc, 0x5, self.fields,
                                     0x6, BASES) is None

    def test_unmerged_extended_pte_behaves_like_standard(self):
        fields = PteFields(present=True, global_pfn=0xB075,
                           coal_bitmap=0b1111, inter_gpu_coal_order=1,
                           merged_groups=1, extended=True)
        assert merged_group_vpns(self.desc, 0x4, fields) == [0x1, 0x4, 0x7, 0xA]


class TestCompactBitmap:
    """Section VI scalability: bitmap holds a sharer count, not a mask."""

    def test_count_semantics(self):
        desc = DataDescriptor(data_id=1, pasid=0, start_vpn=0, end_vpn=15,
                              interlv_gran=1,
                              gpu_map=tuple(range(16)))
        fields = PteFields(present=True, global_pfn=5, coal_bitmap=16,
                           inter_gpu_coal_order=0)
        bases = tuple(i * 1000 for i in range(16))
        assert calculate_pending_pfn(desc, 0, fields, 15, bases,
                                     compact=True) == 15 * 1000 + 5

    def test_count_excludes_tail(self):
        desc = DataDescriptor(data_id=1, pasid=0, start_vpn=0, end_vpn=15,
                              interlv_gran=1, gpu_map=tuple(range(16)))
        fields = PteFields(present=True, global_pfn=5, coal_bitmap=8,
                           inter_gpu_coal_order=0)
        bases = tuple(i * 1000 for i in range(16))
        assert calculate_pending_pfn(desc, 0, fields, 9, bases,
                                     compact=True) is None


class TestPecBuffer:
    def make(self, data_id, pages, pasid=0):
        return DataDescriptor(data_id=data_id, pasid=pasid, start_vpn=data_id * 1000,
                              end_vpn=data_id * 1000 + pages - 1,
                              interlv_gran=1, gpu_map=(0, 1))

    def test_lookup_by_vpn(self):
        buf = PecBuffer(capacity=5)
        buf.insert(self.make(1, 10))
        assert buf.lookup(0, 1005).data_id == 1
        assert buf.lookup(0, 1000).data_id == 1  # both bounds inclusive
        assert buf.lookup(0, 1009).data_id == 1
        assert buf.lookup(0, 999) is None
        assert buf.lookup(0, 1010) is None
        assert buf.lookup(0, 2005) is None
        assert buf.lookup(9, 1005) is None  # wrong pasid

    def test_full_buffer_evicts_smallest(self):
        buf = PecBuffer(capacity=2)
        buf.insert(self.make(1, 5))
        buf.insert(self.make(2, 50))
        evicted = buf.insert(self.make(3, 20))
        assert evicted is not None and evicted.data_id == 1
        assert buf.lookup(0, 2000 + 3) is not None
        assert buf.lookup(0, 3000 + 3) is not None

    def test_smaller_newcomer_is_dropped(self):
        buf = PecBuffer(capacity=1)
        buf.insert(self.make(1, 50))
        dropped = buf.insert(self.make(2, 5))
        assert dropped is not None and dropped.data_id == 2
        assert buf.lookup(0, 1000).data_id == 1

    def test_reinsert_replaces(self):
        buf = PecBuffer(capacity=1)
        buf.insert(self.make(1, 5))
        assert buf.insert(self.make(1, 5)) is None
        assert len(buf) == 1

    def test_size_bits_matches_paper(self):
        assert PecBuffer(capacity=5).size_bits() == 590


class TestDescriptorValidation:
    def test_rejects_empty_range(self):
        with pytest.raises(AddressError):
            DataDescriptor(data_id=1, pasid=0, start_vpn=10, end_vpn=5,
                           interlv_gran=1, gpu_map=(0,))

    def test_rejects_duplicate_gpu_map(self):
        with pytest.raises(AddressError):
            DataDescriptor(data_id=1, pasid=0, start_vpn=0, end_vpn=5,
                           interlv_gran=1, gpu_map=(0, 0))

    def test_rejects_zero_gran(self):
        with pytest.raises(AddressError):
            DataDescriptor(data_id=1, pasid=0, start_vpn=0, end_vpn=5,
                           interlv_gran=0, gpu_map=(0,))


@settings(max_examples=100, deadline=None)
@given(
    gran=st.integers(min_value=1, max_value=8),
    sharers=st.integers(min_value=2, max_value=4),
    rounds=st.integers(min_value=1, max_value=3),
    pte_pick=st.integers(min_value=0, max_value=10_000),
    pending_pick=st.integers(min_value=0, max_value=10_000),
)
def test_property_calculated_pfn_matches_direct_mapping(
        gran, sharers, rounds, pte_pick, pending_pick):
    """PFN calculation must agree with the enforced mapping, for any group.

    We build the ground-truth mapping the driver would enforce (same local
    PFN per group across sharers) and check calculate_pending_pfn against it
    for arbitrary member pairs.
    """
    bases = tuple(i * 100_000 for i in range(sharers))
    pages = gran * sharers * rounds
    desc = DataDescriptor(data_id=1, pasid=0, start_vpn=50,
                          end_vpn=50 + pages - 1, interlv_gran=gran,
                          gpu_map=tuple(range(sharers)))
    # Ground truth: group (round r, intra k) gets local PFN 1000 + r*gran + k.
    def true_pfn(vpn):
        rnd, inter, intra = desc.position(vpn)
        return bases[desc.gpu_map[inter]] + 1000 + rnd * gran + intra

    vpns = list(range(desc.start_vpn, desc.end_vpn + 1))
    pte_vpn = vpns[pte_pick % len(vpns)]
    pending_vpn = vpns[pending_pick % len(vpns)]
    bitmap = 0
    for c in range(sharers):
        bitmap |= 1 << c
    _rnd, inter, _intra = desc.position(pte_vpn)
    fields = PteFields(present=True, global_pfn=true_pfn(pte_vpn),
                       coal_bitmap=bitmap, inter_gpu_coal_order=inter)
    result = calculate_pending_pfn(desc, pte_vpn, fields, pending_vpn, bases)
    if pending_vpn in desc.group_vpns(pte_vpn):
        assert result == true_pfn(pending_vpn)
    else:
        assert result is None
