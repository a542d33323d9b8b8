"""The inlined PEC arithmetic against references built on ``position()``.

``calculate_pending_pfn``, ``PecLogic.candidate_vpns``,
``PecLogic.synthesize_fields`` and the sibling-set helpers
(``DataDescriptor.group_vpns``, ``merged_group_vpns``) spell the
descriptor's membership and position arithmetic out inline.  The
references below are the plain formulations in terms of
:meth:`DataDescriptor.position`; every VPN pair of small descriptors must
agree in the standard, merged (m = 2, 4) and compact-bitmap layouts,
partial last rounds included.
"""

import dataclasses
import pickle

import pytest

from repro.iommu import PecLogic
from repro.mapping import (
    DataDescriptor,
    PecBuffer,
    calculate_pending_pfn,
    merged_group_vpns,
)
from repro.memsim import PteFields

#: Chiplet base PFNs for up to 10 chiplets (the compact layout's GPU_map
#: goes past the standard 8-chiplet bitmap).
BASES = tuple(0x1000 * (c + 1) for c in range(10))


# -- references ------------------------------------------------------------

def _participates(fields, inter, chiplet, compact):
    if compact:
        return inter < fields.coal_bitmap
    return bool(fields.coal_bitmap >> chiplet & 1)


def ref_calculate(desc, pte_vpn, fields, pending_vpn, bases, compact):
    if not (desc.contains(pte_vpn) and desc.contains(pending_vpn)):
        return None
    if pending_vpn == pte_vpn:
        return fields.global_pfn
    gran = desc.interlv_gran
    pte_base = bases[desc.chiplet_of(pte_vpn)]
    if fields.extended and fields.merged_groups > 1:
        first = (pte_vpn - fields.intra_gpu_coal_order
                 - gran * fields.inter_gpu_coal_order)
        j, i = divmod(pending_vpn - first, gran)
        if not (0 <= j < len(desc.gpu_map) and 0 <= i < fields.merged_groups):
            return None
        chiplet = desc.gpu_map[j]
        if not _participates(fields, j, chiplet, compact):
            return None
        return (fields.global_pfn - pte_base - fields.intra_gpu_coal_order
                + bases[chiplet] + i)
    if (pending_vpn - pte_vpn) % gran:
        return None
    rnd, _inter, intra = desc.position(pte_vpn)
    p_rnd, p_inter, p_intra = desc.position(pending_vpn)
    if p_rnd != rnd or p_intra != intra:
        return None
    chiplet = desc.gpu_map[p_inter]
    if not _participates(fields, p_inter, chiplet, compact):
        return None
    return bases[chiplet] + fields.global_pfn - pte_base


def ref_candidates(desc, vpn, max_merge):
    rnd, _inter, intra = desc.position(vpn)
    lo = max(0, intra - (max_merge - 1))
    hi = min(desc.interlv_gran - 1, intra + (max_merge - 1))
    return [desc.vpn_at(rnd, j, i)
            for j in range(len(desc.gpu_map)) for i in range(lo, hi + 1)
            if desc.contains(desc.vpn_at(rnd, j, i))]


def ref_siblings(desc, vpn, fields):
    rnd, _inter, intra = desc.position(vpn)
    if not fields.extended or fields.merged_groups == 1:
        return [desc.vpn_at(rnd, j, intra) for j in range(len(desc.gpu_map))
                if desc.contains(desc.vpn_at(rnd, j, intra))]
    first = (vpn - fields.intra_gpu_coal_order
             - desc.interlv_gran * fields.inter_gpu_coal_order)
    return [first + desc.interlv_gran * j + i
            for j in range(len(desc.gpu_map))
            for i in range(fields.merged_groups)
            if desc.contains(first + desc.interlv_gran * j + i)]


def ref_synthesize(desc, pending_vpn, sibling_vpn, fields, bases, compact):
    if not desc.contains(pending_vpn):
        return None
    pfn = ref_calculate(desc, sibling_vpn, fields, pending_vpn, bases, compact)
    if pfn is None:
        return None
    gran = desc.interlv_gran
    if fields.extended and fields.merged_groups > 1:
        first = (sibling_vpn - fields.intra_gpu_coal_order
                 - gran * fields.inter_gpu_coal_order)
        j, i = divmod(pending_vpn - first, gran)
        return PteFields(present=True, global_pfn=pfn,
                         coal_bitmap=fields.coal_bitmap,
                         inter_gpu_coal_order=j, intra_gpu_coal_order=i,
                         merged_groups=fields.merged_groups, extended=True)
    _rnd, inter, _intra = desc.position(pending_vpn)
    return PteFields(present=True, global_pfn=pfn,
                     coal_bitmap=fields.coal_bitmap,
                     inter_gpu_coal_order=min(inter, 7),
                     extended=fields.extended)


# -- layouts -----------------------------------------------------------------

def _pfn(desc, vpn):
    """A plausible global PFN: chiplet base + round/offset-derived frame."""
    rnd, inter, intra = desc.position(vpn)
    return BASES[desc.gpu_map[inter]] + 0x100 + 8 * rnd + intra


def standard_fields(desc, vpn):
    """Full-group bitmap, and one with the last sharer left out."""
    _rnd, inter, _intra = desc.position(vpn)
    full = 0
    for chiplet in desc.gpu_map:
        full |= 1 << chiplet
    partial = full & ~(1 << desc.gpu_map[-1])
    return [PteFields(present=True, global_pfn=_pfn(desc, vpn),
                      coal_bitmap=bitmap, inter_gpu_coal_order=inter)
            for bitmap in (full, partial)]


def merged_fields(m):
    def build(desc, vpn):
        _rnd, inter, intra = desc.position(vpn)
        full = 0
        for chiplet in desc.gpu_map:
            full |= 1 << chiplet
        return [PteFields(present=True, global_pfn=_pfn(desc, vpn),
                          coal_bitmap=full, inter_gpu_coal_order=inter,
                          intra_gpu_coal_order=intra % m, merged_groups=m,
                          extended=True)]
    return build


def compact_fields(desc, vpn):
    """Counts of participating GPU_map positions: all, all but one, two."""
    _rnd, inter, _intra = desc.position(vpn)
    sharers = len(desc.gpu_map)
    return [PteFields(present=True, global_pfn=_pfn(desc, vpn),
                      coal_bitmap=count, inter_gpu_coal_order=min(inter, 7))
            for count in (sharers, sharers - 1, 2)]


# (name, descriptor, per-VPN PTE fields, compact bitmap).  Every descriptor
# ends inside a round, so the last group is partial.
LAYOUTS = [
    ("standard", DataDescriptor(1, 0, 5, 5 + 3 * 12 + 7, 3, (0, 1, 2, 3)),
     standard_fields, False),
    ("standard-permuted", DataDescriptor(2, 0, 40, 40 + 2 * 8 + 3, 2,
                                         (2, 0, 3, 1)),
     standard_fields, False),
    ("standard-gran1", DataDescriptor(3, 0, 0, 13, 1, tuple(range(8))),
     standard_fields, False),
    ("merged-m2", DataDescriptor(4, 0, 9, 9 + 2 * 16 + 5, 4, (1, 0, 3, 2)),
     merged_fields(2), False),
    ("merged-m4", DataDescriptor(5, 0, 3, 3 + 2 * 16 + 9, 4, (0, 1, 2, 3)),
     merged_fields(4), False),
    ("compact", DataDescriptor(6, 0, 7, 7 + 2 * 20 + 13, 2,
                               tuple(range(9, -1, -1))),
     compact_fields, True),
]


@pytest.mark.parametrize("name,desc,make_fields,compact", LAYOUTS,
                         ids=[layout[0] for layout in LAYOUTS])
def test_calculate_and_synthesize_match_reference(name, desc, make_fields,
                                                  compact):
    pec = PecLogic(PecBuffer(5), BASES, compact_bitmap=compact)
    pec.record_descriptor(desc)
    # One VPN on each side of the data, so out-of-range pairs are covered.
    vpns = range(desc.start_vpn - 1, desc.end_vpn + 2)
    resolved = 0
    for pte_vpn in range(desc.start_vpn, desc.end_vpn + 1):
        for fields in make_fields(desc, pte_vpn):
            for pending in vpns:
                want = ref_calculate(desc, pte_vpn, fields, pending, BASES,
                                     compact)
                assert calculate_pending_pfn(
                    desc, pte_vpn, fields, pending, BASES,
                    compact=compact) == want, (name, pte_vpn, pending)
                assert pec.synthesize_fields(0, pending, pte_vpn, fields) \
                    == ref_synthesize(desc, pending, pte_vpn, fields, BASES,
                                      compact), (name, pte_vpn, pending)
                resolved += want is not None and pending != pte_vpn
    assert resolved > 0  # the layout exercises real calculations


@pytest.mark.parametrize("name,desc,_fields,_compact", LAYOUTS,
                         ids=[layout[0] for layout in LAYOUTS])
@pytest.mark.parametrize("max_merge", [1, 2, 4])
def test_candidate_vpns_match_reference(name, desc, _fields, _compact,
                                        max_merge):
    pec = PecLogic(PecBuffer(5), BASES)
    pec.record_descriptor(desc)
    for vpn in range(desc.start_vpn, desc.end_vpn + 1):
        assert pec.candidate_vpns(0, vpn, max_merge=max_merge) == \
            ref_candidates(desc, vpn, max_merge), (name, vpn)
    assert pec.candidate_vpns(0, desc.end_vpn + 1) == []
    assert pec.candidate_vpns(1, desc.start_vpn) == []  # other PASID


@pytest.mark.parametrize("name,desc,make_fields,_compact", LAYOUTS,
                         ids=[layout[0] for layout in LAYOUTS])
def test_sibling_sets_match_reference(name, desc, make_fields, _compact):
    for vpn in range(desc.start_vpn, desc.end_vpn + 1):
        for fields in make_fields(desc, vpn):
            siblings = merged_group_vpns(desc, vpn, fields)
            assert siblings == ref_siblings(desc, vpn, fields), (name, vpn)
            assert vpn in siblings


# -- the descriptor's derived fields -----------------------------------------

def test_derived_fields_are_set_at_construction():
    desc = DataDescriptor(1, 0, 0x1, 0xC, 3, (0, 1, 2, 3))
    assert desc.num_sharers == 4
    assert desc.round_pages == 12
    narrower = dataclasses.replace(desc, gpu_map=(2, 0))
    assert (narrower.num_sharers, narrower.round_pages) == (2, 6)
    with pytest.raises(TypeError):
        DataDescriptor(1, 0, 0x1, 0xC, 3, (0, 1, 2, 3), 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        desc.round_pages = 1


def test_derived_fields_leave_identity_unchanged():
    desc = DataDescriptor(1, 0, 0x1, 0xC, 3, (0, 1, 2, 3))
    twin = DataDescriptor(data_id=1, pasid=0, start_vpn=0x1, end_vpn=0xC,
                          interlv_gran=3, gpu_map=(0, 1, 2, 3))
    assert repr(desc) == ("DataDescriptor(data_id=1, pasid=0, start_vpn=1, "
                          "end_vpn=12, interlv_gran=3, gpu_map=(0, 1, 2, 3))")
    assert desc == twin and hash(desc) == hash(twin)
    assert hash(desc) == hash((1, 0, 0x1, 0xC, 3, (0, 1, 2, 3)))
    assert desc != dataclasses.replace(desc, data_id=2)
    assert [f.name for f in dataclasses.fields(desc) if f.compare] == [
        "data_id", "pasid", "start_vpn", "end_vpn", "interlv_gran", "gpu_map"]
    clone = pickle.loads(pickle.dumps(desc))
    assert clone == desc and clone.round_pages == 12

