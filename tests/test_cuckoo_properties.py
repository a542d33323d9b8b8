"""Property tests for the cuckoo filter's membership contract.

The F-Barre correctness argument leans on one asymmetry: LCF/RCF lookups
may false-*positive* (cost: a wasted probe) but must never false-
*negative* for a resident key (cost: a missed coalescing opportunity the
validation subsystem treats as a structural bug).  These tests drive the
filter through randomized insert/delete/lookup interleavings against an
exact shadow multiset and assert that contract, plus a bounded empirical
false-positive rate.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import CuckooConfig
from repro.experiments import configs
from repro.filters import CuckooFilter
from repro.filters.cuckoo import cuckoo_rows
from repro.gpu import McmGpuSimulator
from repro.workloads import DataSpec, Workload

KEY = st.integers(min_value=0, max_value=(1 << 40) - 1)

#: (op, key) programs: op 0 = insert, 1 = delete, 2 = lookup.  Keys are
#: drawn from a small pool so deletes and lookups actually collide with
#: earlier inserts.
OPS = st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                         st.integers(min_value=0, max_value=63)),
               min_size=1, max_size=300)


def roomy_filter() -> CuckooFilter:
    return CuckooFilter(CuckooConfig(rows=128, ways=4, fingerprint_bits=12))


@settings(max_examples=60, deadline=None)
@given(ops=OPS, salt=KEY)
def test_property_no_false_negative_for_resident_keys(ops, salt):
    """Whatever the op interleaving, accepted-and-not-deleted keys hit."""
    f = roomy_filter()
    resident: Counter[int] = Counter()
    for op, small_key in ops:
        key = small_key ^ salt
        if op == 0:
            if f.insert(key):
                resident[key] += 1
        elif op == 1 and resident[key] > 0:
            assert f.delete(key)
            resident[key] -= 1
        else:
            if resident[key] > 0:
                assert f.contains(key)
    for key, count in resident.items():
        if count > 0:
            assert f.contains(key)


@settings(max_examples=40, deadline=None)
@given(ops=OPS)
def test_property_size_tracks_successful_operations(ops):
    f = roomy_filter()
    expected = 0
    for op, key in ops:
        if op == 0:
            expected += f.insert(key)
        elif op == 1:
            expected -= f.delete(key)
        assert len(f) == expected
    assert 0 <= len(f) <= f.config.capacity


@settings(max_examples=30, deadline=None)
@given(keys=st.lists(KEY, min_size=1, max_size=150, unique=True))
def test_property_deleting_everything_empties_the_filter(keys):
    f = roomy_filter()
    accepted = [k for k in keys if f.insert(k)]
    for key in accepted:
        assert f.delete(key)
    assert len(f) == 0
    assert not any(f.contains(k) for k in accepted)


def test_failed_insert_leaves_filter_unchanged():
    """Kick-chain exhaustion must unwind: no resident victim is dropped.

    A tiny table with a long kick budget forces real kick chains; every
    failed insert must leave bucket contents exactly as they were (this
    is what upgrades no-false-negative from probable to guaranteed).
    """
    f = CuckooFilter(CuckooConfig(rows=4, ways=2, fingerprint_bits=6,
                                  max_kicks=16))
    # Disable the saturation bail-out so every failure exercises a real
    # exhausted kick chain (the path that must unwind).
    f._kick_ceiling = f.config.capacity + 1
    rng = np.random.default_rng(3)
    resident = []
    saw_failure = False
    for raw in rng.integers(0, 1 << 40, size=200):
        key = int(raw)
        before = [list(b) for b in f._buckets]
        if f.insert(key):
            resident.append(key)
        else:
            saw_failure = True
            assert [list(b) for b in f._buckets] == before
        for r in resident:
            assert f.contains(r)
    assert saw_failure  # the test must actually exercise the undo path


def test_empirical_false_positive_rate_is_bounded():
    """FP rate stays within a small multiple of 2b/2^f at ~70% load."""
    config = CuckooConfig(rows=256, ways=4, fingerprint_bits=10)
    f = CuckooFilter(config)
    rng = np.random.default_rng(17)
    members = set()
    for raw in rng.integers(0, 1 << 39, size=int(config.capacity * 0.7)):
        if f.insert(int(raw)):
            members.add(int(raw))
    probes = [int(v) for v in rng.integers(1 << 39, 1 << 40, size=30000)]
    fp = sum(f.contains(p) for p in probes) / len(probes)
    assert fp <= 3 * f.theoretical_false_positive_rate() + 0.005


@pytest.mark.parametrize("ways", [1, 2, 4])
def test_saturation_is_graceful_across_geometries(ways):
    f = CuckooFilter(CuckooConfig(rows=8, ways=ways, fingerprint_bits=8,
                                  max_kicks=32))
    accepted = []
    for key in range(10 * f.config.capacity):
        before = len(f)
        if f.insert(key):
            accepted.append(key)
            assert len(f) == before + 1
        else:
            assert len(f) == before
    assert len(accepted) == len(f) <= f.config.capacity
    for key in accepted:
        assert f.contains(key)


# -- batched updates: insert_many / delete_many ------------------------------

def _state(f: CuckooFilter):
    return [list(b) for b in f._buckets], f._size, f._kick_cursor


def _insert_path(f: CuckooFilter, item: int) -> str:
    """Which path a per-item ``insert`` of ``item`` takes, then take it."""
    fp, i1, i2 = f.rows(item)
    room = min(len(f._buckets[i1]), len(f._buckets[i2])) < f.config.ways
    saturated = len(f) >= f._kick_ceiling
    ok = f.insert(item)
    if room:
        return "fit"
    if saturated:
        return "ceiling_drop"
    return "kick_success" if ok else "kick_fail"


@pytest.mark.parametrize("geometry", [
    CuckooConfig(rows=8, ways=2, fingerprint_bits=6, max_kicks=4),
    CuckooConfig(rows=16, ways=4, fingerprint_bits=8, max_kicks=2),
    CuckooConfig(rows=4, ways=1, fingerprint_bits=5, max_kicks=8),
])
def test_batched_updates_match_the_per_item_loop(geometry):
    """Same buckets (order too), size, kick cursor and drops, batch by batch.

    Seeded streams of add/delete batches (the shape of F-Barre's
    ``FilterUpdate``) over a small key pool, so inserts collide, fill the
    table, cross the kick ceiling and exhaust kick chains, while deletes
    pull the load back under the ceiling and miss absent keys.
    """
    paths: Counter[str] = Counter()
    for seed in range(12):
        rng = random.Random(seed)
        batched = CuckooFilter(geometry)
        looped = CuckooFilter(geometry)
        pool = [rng.randrange(1 << 40) for _ in range(4 * geometry.capacity)]
        for _ in range(60):
            items = tuple(rng.choice(pool)
                          for _ in range(rng.randint(1, 9)))
            rows = tuple(cuckoo_rows(item, geometry) for item in items)
            if rng.random() < 0.65:
                drops = batched.insert_many(items, rows)
                loop_paths = [_insert_path(looped, item) for item in items]
                paths.update(loop_paths)
                assert drops == sum(p in ("ceiling_drop", "kick_fail")
                                    for p in loop_paths)
            else:
                found = batched.delete_many(items, rows)
                assert found == sum(looped.delete(item) for item in items)
            assert _state(batched) == _state(looped)
    assert set(paths) == {"fit", "ceiling_drop", "kick_success",
                          "kick_fail"}, paths


def test_batched_updates_reject_mismatched_rows():
    f = roomy_filter()
    rows = (cuckoo_rows(1, f.config),)
    with pytest.raises(ValueError):
        f.insert_many((1, 2), rows)
    with pytest.raises(ValueError):
        f.delete_many((), rows)
    assert len(f) == 0


# -- the rows memo -----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(items=st.lists(KEY, min_size=1, max_size=60))
def test_property_memo_rows_equal_the_cold_hash(items):
    f = roomy_filter()
    for item in items:
        f.insert(item)
        f.contains(item ^ 1)
    assert set(items) <= set(f._memo)
    for item, rows in f._memo.items():
        assert rows == cuckoo_rows(item, f.config) == f.rows(item)


def _fbarre_sim() -> McmGpuSimulator:
    workload = Workload(
        abbr="memo", app_name="memo", suite="test", category="mid",
        paper_mpki=1.0, data=(DataSpec("main", pages=96, row_pages=4),),
        pattern="random", weight=1.0, gap=1, num_ctas=8,
        accesses_per_cta=32, params={})
    return McmGpuSimulator(configs.fbarre(seed=5, merge=2), [workload])


def test_simulator_memo_holds_cold_hashes():
    sim = _fbarre_sim()
    sim.run()
    memo = sim.filter_rows_memo
    assert memo
    for item, rows in memo.items():
        assert rows == cuckoo_rows(item, sim.config.cuckoo)


def test_simulators_do_not_share_a_memo():
    """One memo per simulator, shared by all its filters, freed with it."""
    first, second = _fbarre_sim(), _fbarre_sim()
    assert first.filter_rows_memo is not second.filter_rows_memo
    for sim in (first, second):
        filters = [f for agent in sim.agents.values()
                   for f in (agent.lcf, *agent.rcfs.values())]
        assert len(filters) == sim.config.num_chiplets ** 2
        assert all(f._memo is sim.filter_rows_memo for f in filters)
    first.run()
    assert first.filter_rows_memo and not second.filter_rows_memo
