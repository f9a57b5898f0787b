import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import comove.model
from comove import (
    FCI,
    ClusterId,
    ClusterMatrix,
    Column,
    CoMoveError,
    ParameterError,
    Tidset,
    combine_fcis,
    mine_fci,
    shift_times,
)
from comove.model import packed_fci
from oracle import MAX_BRUTE_COLUMNS, brute_combine_fcis, brute_fcis, gen_random_matrix


def _cid(t, o):
    return ClusterId(t, o)


def _tid(*ids):
    return Tidset.from_ids(ids)


def _fci(items, *ids):
    return FCI(tuple(_cid(t, o) for t, o in items), _tid(*ids))


def _combined(*args, **kwargs):
    """combine_fcis's result, which is unordered, in code order."""
    return sorted(combine_fcis(*args, **kwargs), key=lambda f: f.codes)


# ---------------------------------------------------------------------------
# Two-store scenario with every code path: produce, absorb both sides, stop
# ---------------------------------------------------------------------------

def _two_store_instance():
    existing = [_fci([(0, 0)], 0, 1), _fci([(0, 1)], 2, 3)]
    incoming = [_fci([(1, 0)], 0, 1), _fci([(1, 1)], 1, 2, 3)]
    return existing, incoming


def test_combine_two_store_instance():
    existing, incoming = _two_store_instance()
    counters = {}
    got = _combined(existing, incoming, 2, counters=counters)
    assert got == [
        _fci([(0, 0), (1, 0)], 0, 1),
        _fci([(0, 1), (1, 1)], 2, 3),
        _fci([(1, 1)], 1, 2, 3),
    ]
    assert counters == {"pairs": 2, "new": 2, "absorbed_existing": 2,
                        "absorbed_incoming": 1, "stops": 1}


@pytest.mark.parametrize("epsilon", [0, -1, 1.5, "2"])
def test_combine_refuses_an_epsilon_mine_fci_refuses(epsilon):
    # at 0 the disjoint tidsets below would give an itemset with no object
    existing = [_fci([(0, 0)], 0, 1)]
    incoming = [_fci([(1, 0)], 2, 3)]
    m = ClusterMatrix.build(("a",), (0,), [Column(_cid(0, 0), _tid(0))])
    for call in (lambda: combine_fcis(existing, incoming, epsilon),
                 lambda: mine_fci(m, epsilon)):
        with pytest.raises(ParameterError, match="epsilon must be an int >= 1"):
            call()


def test_combine_empty_sides():
    existing, incoming = _two_store_instance()
    counters = {}
    assert _combined([], incoming, 2, counters=counters) == sorted(
        incoming, key=lambda f: f.items)
    assert counters["pairs"] == 0
    assert _combined(existing, [], 2) == sorted(existing, key=lambda f: f.items)
    assert combine_fcis([], [], 2) == []


def test_combine_high_epsilon_keeps_sides_apart():
    existing, incoming = _two_store_instance()
    got = _combined(existing, incoming, 4)
    assert got == sorted(existing + incoming, key=lambda f: f.items)


def test_combine_rejects_shared_column():
    a = [_fci([(0, 0), (5, 0)], 0, 1)]
    b = [_fci([(5, 0)], 0, 1)]
    with pytest.raises(CoMoveError):
        combine_fcis(a, b, 2)
    with pytest.raises(CoMoveError):
        combine_fcis(b, a, 2)


def test_combine_time_interleaved_sides():
    # even and odd timestamps share no column, though their times interleave
    rng = np.random.default_rng(72)
    for _ in range(40):
        m = gen_random_matrix(rng)
        even = _sub(m, [c for c in m.columns if c.cid.time % 2 == 0])
        odd = _sub(m, [c for c in m.columns if c.cid.time % 2 == 1])
        for eps in (1, 2, 3):
            assert _combined(mine_fci(odd, eps), mine_fci(even, eps),
                             eps) == mine_fci(m, eps)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def test_shift_times():
    fcis = [_fci([(0, 0), (2, 1)], 0, 1)]
    got = shift_times(fcis, 10)
    assert got == [_fci([(10, 0), (12, 1)], 0, 1)]
    assert shift_times([], 3) == []
    # original list untouched
    assert fcis[0].items[0] == (0, 0)


# ---------------------------------------------------------------------------
# Random time splits: combining halves equals mining the whole
# ---------------------------------------------------------------------------

def _sub(m: ClusterMatrix, cols) -> ClusterMatrix:
    return ClusterMatrix.build(m.object_labels, m.time_labels, cols, kind=m.kind)


def _halves(m: ClusterMatrix, split: int):
    return (_sub(m, [c for c in m.columns if c.cid.time < split]),
            _sub(m, [c for c in m.columns if c.cid.time >= split]))


def test_random_splits_match_monolithic():
    # sides given in any order merge to the same itemsets
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 60:
        m = gen_random_matrix(rng)
        if m.n_times < 2:
            continue
        checked += 1
        split = int(rng.integers(1, m.n_times))
        left, right = _halves(m, split)
        for eps in (1, 2, 3):
            existing = mine_fci(left, eps)
            incoming = mine_fci(right, eps)
            counters = {}
            got = _combined(existing, incoming, eps, counters=counters)
            assert got == mine_fci(m, eps)
            # the later side given first joins its codes after the other's
            assert _combined(incoming, existing, eps) == got
            shuffled = [[side[i] for i in rng.permutation(len(side))]
                        for side in (existing, incoming)]
            assert _combined(*shuffled, eps) == got
            assert counters["pairs"] <= len(existing) * len(incoming)
            assert counters["stops"] == counters["absorbed_incoming"]
            assert counters["absorbed_existing"] <= len(existing)
            _check_span_structure(got, existing, incoming, split, counters)


def _check_span_structure(result, existing, incoming, split, counters):
    """Every result itemset crossing the split is an existing itemset glued to
    an incoming one whose tidsets intersect to exactly its tidset."""
    ex_by_items = {f.items: f for f in existing}
    in_by_items = {f.items: f for f in incoming}
    spanning = 0
    for f in result:
        left = tuple(c for c in f.items if c.time < split)
        right = tuple(c for c in f.items if c.time >= split)
        if left and right:
            spanning += 1
            assert left in ex_by_items and right in in_by_items
            inter = ex_by_items[left].tidset & in_by_items[right].tidset
            assert inter == f.tidset
        elif left:
            assert f in existing
        else:
            assert f in incoming
    assert spanning == counters["new"]


# ---------------------------------------------------------------------------
# Any column partition: merging the parts' results equals mining the whole
# ---------------------------------------------------------------------------

@st.composite
def _partitioned_matrices(draw):
    """A random matrix, its columns dealt into k random parts, and an order
    of adjacent merges that reduces the k mined parts to one."""
    n_objects = draw(st.integers(1, 8))
    n_times = draw(st.integers(1, 10))
    cols = []
    for t in range(n_times):
        # each object joins one of three clusters or none (-1)
        label = draw(st.lists(st.integers(-1, 2), min_size=n_objects,
                              max_size=n_objects))
        for ordinal, lab in enumerate(sorted(set(label) - {-1})):
            members = [i for i, x in enumerate(label) if x == lab]
            cols.append(Column(ClusterId(t, ordinal), Tidset.from_ids(members)))
    m = ClusterMatrix.build(tuple(f"o{i}" for i in range(n_objects)),
                            tuple(range(n_times)), cols)
    k = draw(st.integers(1, max(1, len(cols))))
    part_of = draw(st.lists(st.integers(0, k - 1), min_size=len(cols),
                            max_size=len(cols)))
    parts = [_sub(m, [c for c, p in zip(cols, part_of) if p == i])
             for i in range(k)]
    merges = [draw(st.integers(0, n - 2)) for n in range(k, 1, -1)]
    return m, parts, merges, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(_partitioned_matrices())
def test_any_column_partition_reduces_to_monolithic(case):
    m, parts, merges, eps = case
    results = [mine_fci(p, eps) for p in parts]
    for i in merges:
        # merged results, unordered, are sides of later merges as they are
        results[i:i + 2] = [combine_fcis(results[i], results[i + 1], eps)]
    want = mine_fci(m, eps)
    assert sorted(results[0], key=lambda f: f.codes) == want
    if m.n_columns <= MAX_BRUTE_COLUMNS:
        assert want == brute_fcis(m, eps)


# ---------------------------------------------------------------------------
# The closed form against the double loop it replaces
# ---------------------------------------------------------------------------

@st.composite
def _split_sides(draw):
    """Two column-disjoint sides of a random matrix, mined, each in a drawn
    order, with the matrix and epsilon.  Objects go past 64 (two or more
    tidset words) as often as not; the split is in time or interleaved."""
    n_objects = draw(st.one_of(st.integers(1, 8), st.integers(60, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_times = draw(st.integers(1, 8))
    cols = []
    for t in range(n_times):
        # each object joins one of three clusters or none (-1); a few
        # groups keep their objects over a time, so tidsets repeat
        stay = rng.random(n_objects) < draw(st.sampled_from([0.0, 0.8]))
        label = np.where(stay, np.arange(n_objects) % 3,
                         rng.integers(-1, 3, n_objects))
        for ordinal, lab in enumerate(sorted(set(label.tolist()) - {-1})):
            cols.append(Column(ClusterId(t, ordinal),
                               Tidset.from_ids(np.flatnonzero(label == lab).tolist())))
    m = ClusterMatrix.build(tuple(f"o{i}" for i in range(n_objects)),
                            tuple(range(n_times)), cols)
    if draw(st.booleans()):
        split = draw(st.integers(0, n_times))  # 0 and n_times leave a side empty
        later = [c.cid.time >= split for c in cols]
    else:
        later = draw(st.lists(st.booleans(), min_size=len(cols), max_size=len(cols)))
    eps = draw(st.sampled_from([1, 2, 3, max(1, n_objects // 8)]))
    sides = [mine_fci(_sub(m, [c for c, x in zip(cols, later) if x == side]), eps)
             for side in (False, True)]
    sides = [draw(st.permutations(side)) if draw(st.booleans()) else side
             for side in sides]
    if draw(st.booleans()):
        sides.reverse()
    return m, sides, eps


@settings(max_examples=300, deadline=None)
@given(_split_sides())
def test_merge_matches_the_double_loop(case):
    m, (existing, incoming), eps = case
    counters = {}
    got = combine_fcis(existing, incoming, eps, counters=counters)
    want, want_counters = brute_combine_fcis(existing, incoming, eps)
    # as a set, each union with the oracle's codes; and every counter
    assert len(got) == len(want) and set(got) == set(want)
    assert {f: f.codes for f in got} == {f: f.codes for f in want}
    assert counters == want_counters
    assert sorted(got, key=lambda f: f.codes) == mine_fci(m, eps)


def test_merge_keeps_equal_support_itemsets_apart():
    # three incoming itemsets of equal support each meet one existing
    # itemset in a tidset of their own: every one of them is a union
    existing = [_fci([(0, 0)], 0, 1, 2, 3, 4, 5)]
    incoming = [_fci([(1, 0)], 0, 1, 6), _fci([(1, 1)], 2, 3, 7),
                _fci([(1, 2)], 4, 5, 8)]
    for side in (incoming, incoming[::-1]):
        counters = {}
        got = combine_fcis(existing, side, 2, counters=counters)
        want, want_counters = brute_combine_fcis(existing, side, 2)
        assert got == want and counters == want_counters
        assert counters == {"pairs": 3, "new": 3, "absorbed_existing": 0,
                            "absorbed_incoming": 0, "stops": 0}


def test_merge_without_bitwise_count(monkeypatch):
    # numpy before 2.0 has no bitwise_count: the merge counts bits itself
    rng = np.random.default_rng(73)
    monkeypatch.setattr(comove.model, "_bitwise_count", None)
    for _ in range(30):
        m = gen_random_matrix(rng, max_objects=150)
        left, right = _halves(m, int(rng.integers(0, m.n_times + 1)))
        for eps in (1, 3, 20):
            existing, incoming = mine_fci(left, eps), mine_fci(right, eps)
            counters = {}
            got = combine_fcis(existing, incoming, eps, counters=counters)
            assert (got, counters) == brute_combine_fcis(existing, incoming, eps)


def test_merge_memory_is_bounded_by_its_tiles():
    # 2 000 x 2 000 itemsets over 128 objects: their pair intersections
    # would take 64 MB at once; the merge holds a tile of them at a time.
    # Gate on memory only, never on time.
    rng = np.random.default_rng(74)
    words = rng.integers(0, 2 ** 63, size=(4000, 2), dtype=np.uint64)
    words |= rng.integers(0, 2 ** 63, size=(4000, 2), dtype=np.uint64)
    masks = [int.from_bytes(w.tobytes(), "little") for w in words]
    existing = [packed_fci(mask, (i << 32,)) for i, mask in enumerate(masks[:2000])]
    incoming = [packed_fci(mask, ((2000 + i) << 32,))
                for i, mask in enumerate(masks[2000:])]
    tracemalloc.start()
    try:
        counters = {}
        got = combine_fcis(existing, incoming, 88, counters=counters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counters["pairs"] == 2000 * 2000 and 0 < counters["new"] < 10_000
    assert len(got) == 4000 + counters["new"]
    assert peak < 4 * 2 ** 20
