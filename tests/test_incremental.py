import numpy as np
import pytest

from comove import (
    FCI,
    ClusterId,
    ParameterError,
    Tidset,
    mine_fci,
    mine_incremental,
    mine_parameter_free,
    nested_block_partition,
    nested_reorder,
    split_blocks,
)
from oracle import gen_random_matrix, gen_random_nested_matrix
from conftest import make_matrix


def _cid(t, o):
    return ClusterId(t, o)


def _tid(*ids):
    return Tidset.from_ids(ids)


# ---------------------------------------------------------------------------
# Block splitting
# ---------------------------------------------------------------------------

def test_split_blocks_even():
    m = make_matrix({(t, 0): [0, 1] for t in range(10)})
    blocks = split_blocks(m, 5)
    assert [len(b) for b in blocks] == [5, 5]
    assert blocks[0][0].cid == (0, 0)
    assert blocks[1][0].cid == (5, 0)


def test_split_blocks_remainder_and_oversize():
    m = make_matrix({(t, 0): [0, 1] for t in range(10)})
    assert [len(b) for b in split_blocks(m, 3)] == [3, 3, 3, 1]
    assert [len(b) for b in split_blocks(m, 10)] == [10]
    assert [len(b) for b in split_blocks(m, 99)] == [10]


def test_split_blocks_keeps_empty_blocks():
    m = make_matrix({(t, 0): [0, 1] for t in range(5)}, n_times=10)
    blocks = split_blocks(m, 5)
    assert len(blocks) == 2
    assert blocks[1] == ()


def test_split_blocks_partitions_columns_in_order():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = gen_random_matrix(rng)
        for bs in (1, 2, 3, m.n_times):
            blocks = split_blocks(m, bs)
            concat = tuple(c for b in blocks for c in b)
            assert concat == m.columns
            for i, b in enumerate(blocks):
                assert all(c.cid.time // bs == i for c in b)


def test_split_blocks_validation():
    m = make_matrix({(0, 0): [0, 1]})
    for bad in (0, -1, 2.5):
        with pytest.raises(ParameterError):
            split_blocks(m, bad)


# ---------------------------------------------------------------------------
# Incremental == monolithic
# ---------------------------------------------------------------------------

def _stable_then_split_matrix():
    """Times 0-1: all four objects in one cluster; times 2-3: two pairs."""
    cells = {(0, 0): [0, 1, 2, 3], (1, 0): [0, 1, 2, 3]}
    for t in (2, 3):
        cells[(t, 0)] = [0, 1]
        cells[(t, 1)] = [2, 3]
    return make_matrix(cells)


def test_incremental_exact_on_split_scenario():
    m = _stable_then_split_matrix()
    got = mine_incremental(m, 2, 2)
    assert got == [
        FCI((_cid(0, 0), _cid(1, 0)), _tid(0, 1, 2, 3)),
        FCI((_cid(0, 0), _cid(1, 0), _cid(2, 0), _cid(3, 0)), _tid(0, 1)),
        FCI((_cid(0, 0), _cid(1, 0), _cid(2, 1), _cid(3, 1)), _tid(2, 3)),
    ]
    assert got == mine_fci(m, 2)


def test_incremental_matches_monolithic_every_block_size():
    rng = np.random.default_rng(31)
    for _ in range(60):
        m = gen_random_matrix(rng)
        for eps in (1, 2):
            want = mine_fci(m, eps)
            for bs in range(1, m.n_times + 2):
                assert mine_incremental(m, eps, bs) == want


def test_incremental_default_block_size():
    m = make_matrix({(t, 0): [0, 1] for t in range(30)})
    # 30 timestamps with the default window of 25 really uses two blocks
    assert mine_incremental(m, 2) == mine_fci(m, 2)


# ---------------------------------------------------------------------------
# Containment reordering
# ---------------------------------------------------------------------------

def test_nested_reorder_sorts_by_size_then_content():
    m = make_matrix({(0, 0): [0, 1], (1, 0): [0, 1, 2, 3], (2, 0): [0, 1, 2],
                     (3, 0): [2, 3]})
    assert [c.members for c in nested_reorder(m)] == [
        _tid(0, 1, 2, 3), _tid(0, 1, 2), _tid(0, 1), _tid(2, 3)]


def test_nested_reorder_permutation_is_valid():
    rng = np.random.default_rng(33)
    for _ in range(40):
        m = gen_random_matrix(rng)
        cols = nested_reorder(m)
        assert sorted(cols, key=lambda c: c.cid) == list(m.columns)
        sizes = [len(c.members) for c in cols]
        assert sizes == sorted(sizes, reverse=True)


# ---------------------------------------------------------------------------
# Nested-run partitioning
# ---------------------------------------------------------------------------

def test_partition_two_chains_and_a_leftover():
    # column order: {0,1,2}>={0,1}, then {3,4}, then {2,3,4}>={3,4}
    m = make_matrix({(0, 0): [0, 1, 2], (1, 0): [0, 1], (2, 0): [3, 4],
                     (3, 0): [2, 3, 4], (4, 0): [3, 4]})
    blocks = nested_block_partition(m.columns)
    assert [[c.cid.time for c in b] for b in blocks] == [[0, 1], [3, 4], [2]]


def test_partition_fully_nested():
    m = make_matrix({(0, 0): [0, 1, 2], (1, 0): [0, 1], (2, 0): [0]})
    blocks = nested_block_partition(m.columns)
    assert blocks == [m.columns, ()]


def test_partition_nothing_nested():
    m = make_matrix({(0, 0): [0, 1], (1, 0): [2, 3], (2, 0): [4, 5]})
    blocks = nested_block_partition(m.columns)
    assert blocks == [m.columns]


def test_partition_empty_matrix():
    assert nested_block_partition(()) == [()]


def test_parameter_free_merges_interleaved_nested_blocks():
    # Two nested chains whose columns alternate in time: the partition lists
    # them by tidset size, the larger chain first, and its first time is
    # the later one; parameter-free mining merges them in time order, and
    # the sides of a merge interleave, their shared objects making unions
    # whose runs come from both.  A leftover column makes the sparse block.
    m = make_matrix({(1, 0): [0, 1, 2, 3, 4, 5], (3, 0): [0, 1, 2, 3, 4],
                     (5, 0): [0, 1, 2, 3], (0, 0): [0, 1, 6], (2, 0): [0, 1],
                     (4, 0): [0], (6, 0): [9]})
    blocks = nested_block_partition(nested_reorder(m))
    assert [[c.cid.time for c in b] for b in blocks] == [[1, 3, 5], [0, 2, 4], [6]]
    for eps in (1, 2, 3):
        assert mine_parameter_free(m, eps) == mine_fci(m, eps)
    # object 0 is in both chains: its itemset's runs join into one
    assert FCI(tuple(_cid(t, 0) for t in range(6)), _tid(0)) in mine_parameter_free(m, 1)
    # and on the matrix nested_reorder's own test sorts
    m = make_matrix({(0, 0): [0, 1], (1, 0): [0, 1, 2, 3], (2, 0): [0, 1, 2],
                     (3, 0): [2, 3]})
    blocks = nested_block_partition(nested_reorder(m))
    assert [[c.cid.time for c in b] for b in blocks] == [[1, 2, 0], [3]]
    assert mine_parameter_free(m, 1) == mine_fci(m, 1)


# ---------------------------------------------------------------------------
# Parameter-free mining
# ---------------------------------------------------------------------------

def test_parameter_free_matches_monolithic():
    rng = np.random.default_rng(34)
    for _ in range(60):
        m = gen_random_matrix(rng)
        for eps in (1, 2, 3):
            assert mine_parameter_free(m, eps) == mine_fci(m, eps)


def test_block_modes_build_each_fci_once(monkeypatch):
    # blocks are mined and merged as packed FCIs, so no FCI's ClusterId
    # tuple is read, let alone built, on the way
    reads = []
    items = FCI.items
    monkeypatch.setattr(FCI, "items", property(
        lambda f: reads.append(f) or items.fget(f)))
    runs = [lambda m, eps: mine_incremental(m, eps, 1),
            lambda m, eps: mine_incremental(m, eps, 7),
            mine_incremental, mine_parameter_free]
    rng = np.random.default_rng(36)
    total = 0
    for _ in range(40):
        m = gen_random_matrix(rng, max_times=40)
        for eps in (1, 2):
            for run in runs:
                total += len(run(m, eps))
    assert reads == [] and total > 0
    [f] = mine_incremental(make_matrix({(0, 0): [0, 1], (1, 0): [0, 1]}), 2)
    assert f.items == (ClusterId(0, 0), ClusterId(1, 0))
    assert reads == [f]  # the counter sees a read


def test_parameter_free_on_nested_chains():
    rng = np.random.default_rng(35)
    for _ in range(40):
        m = gen_random_nested_matrix(rng)
        for eps in (1, 2):
            assert mine_parameter_free(m, eps) == mine_fci(m, eps)
