import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from oracle import MAX_BRUTE_COLUMNS, brute_fcis, gen_random_matrix


def _cid(t, o):
    return ClusterId(t, o)


def _tid(*ids):
    return Tidset.from_ids(ids)


def _fci(items, *ids):
    return FCI(tuple(_cid(t, o) for t, o in items), _tid(*ids))


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
    got = combine_fcis(existing, incoming, 2, counters=counters)
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
    assert combine_fcis([], incoming, 2, counters=counters) == sorted(
        incoming, key=lambda f: f.items)
    assert counters["pairs"] == 0
    assert combine_fcis(existing, [], 2) == sorted(existing, key=lambda f: f.items)
    assert combine_fcis([], [], 2) == []


def test_combine_high_epsilon_keeps_sides_apart():
    existing, incoming = _two_store_instance()
    got = combine_fcis(existing, incoming, 4)
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
            assert combine_fcis(mine_fci(odd, eps), mine_fci(even, eps),
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
            got = combine_fcis(existing, incoming, eps, counters=counters)
            assert got == mine_fci(m, eps)
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
        results[i:i + 2] = [combine_fcis(results[i], results[i + 1], eps)]
    want = mine_fci(m, eps)
    assert results == [want]
    if m.n_columns <= MAX_BRUTE_COLUMNS:
        assert want == brute_fcis(m, eps)
