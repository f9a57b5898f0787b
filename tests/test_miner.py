import sys

import numpy as np
import pytest

from comove import (
    FCI,
    ClusterId,
    ClusterMatrix,
    Column,
    ParameterError,
    Tidset,
    mine_fci,
)
from oracle import (
    SizeGuardError,
    brute_fcis,
    gen_random_matrix,
    gen_random_nested_matrix,
)
from conftest import (
    expanding_trio_matrix,
    make_matrix,
    pair_with_gap_matrix,
    three_column_matrix,
)


def _cid(t, o):
    return ClusterId(t, o)


# ---------------------------------------------------------------------------
# Exact results on hand-built matrices
# ---------------------------------------------------------------------------

def test_three_column_matrix_exact():
    m = three_column_matrix()
    got = mine_fci(m, 2)
    assert got == [
        FCI((_cid(0, 0), _cid(1, 0), _cid(2, 0)), Tidset.from_ids([0, 1])),
        FCI((_cid(0, 0), _cid(2, 0)), Tidset.from_ids([0, 1, 2])),
    ]
    assert mine_fci(m, 3) == [
        FCI((_cid(0, 0), _cid(2, 0)), Tidset.from_ids([0, 1, 2]))]
    assert mine_fci(m, 4) == []


def test_identical_columns_collapse_into_one_itemset():
    m = make_matrix({(0, 0): [0, 1], (1, 0): [0, 1], (2, 0): [0, 1]})
    assert mine_fci(m, 2) == [
        FCI((_cid(0, 0), _cid(1, 0), _cid(2, 0)), Tidset.from_ids([0, 1]))]
    got = mine_fci(pair_with_gap_matrix(), 2)
    assert got == [
        FCI((_cid(0, 0), _cid(2, 0), _cid(3, 0)), Tidset.from_ids([0, 1]))]


def test_growing_group_splits_into_two_itemsets():
    got = mine_fci(expanding_trio_matrix(), 2)
    assert got == [
        FCI((_cid(0, 0), _cid(1, 0), _cid(2, 0), _cid(3, 0)),
            Tidset.from_ids([0, 1])),
        FCI((_cid(2, 0), _cid(3, 0)), Tidset.from_ids([0, 1, 2])),
    ]


def test_single_column_matrix():
    m = make_matrix({(0, 0): [0, 1]})
    assert mine_fci(m, 2) == [FCI((_cid(0, 0),), Tidset.from_ids([0, 1]))]
    assert mine_fci(m, 3) == []


def test_empty_matrix():
    m = ClusterMatrix.build(("a", "b"), (0, 1), [])
    assert mine_fci(m, 1) == []


def test_same_unit_columns_never_combine():
    m = make_matrix({(0, 0): [0, 1], (0, 1): [2, 3], (1, 0): [0, 1, 2, 3]})
    got = mine_fci(m, 2)
    assert got == [
        FCI((_cid(0, 0), _cid(1, 0)), Tidset.from_ids([0, 1])),
        FCI((_cid(0, 1), _cid(1, 0)), Tidset.from_ids([2, 3])),
        FCI((_cid(1, 0),), Tidset.from_ids([0, 1, 2, 3])),
    ]
    assert all(len(set(f.times)) == len(f.items) for f in got)


def test_parameter_validation():
    m = make_matrix({(0, 0): [0, 1]})
    for bad in (0, -1, 1.5):
        with pytest.raises(ParameterError):
            mine_fci(m, bad)


# ---------------------------------------------------------------------------
# Randomized cross-checks against the brute-force oracle
# ---------------------------------------------------------------------------

def _check_fci_invariants(matrix: ClusterMatrix, fcis, epsilon: int):
    col = {c.cid: c.members for c in matrix.columns}
    seen = set()
    for f in fcis:
        assert f.items not in seen
        seen.add(f.items)
        assert f.support >= epsilon
        assert len(f.items) <= matrix.n_times
        assert len(set(f.times)) == len(f.items)  # one column per unit
        inter = -1
        for cid in f.items:
            inter &= col[cid].mask
        assert inter == f.tidset.mask  # tidset really is the intersection


def test_random_matrices_match_bruteforce():
    rng = np.random.default_rng(101)
    # max_times=8 keeps every generated matrix within the oracle's column cap
    for _ in range(150):
        m = gen_random_matrix(rng, max_times=8)
        for eps in (1, 2, 3):
            got = mine_fci(m, eps)
            assert got == brute_fcis(m, eps)
            _check_fci_invariants(m, got, eps)


def test_duplicate_heavy_matrices_match_bruteforce():
    # repeat every timestamp's columns once more so identical tidsets abound
    rng = np.random.default_rng(202)
    for _ in range(100):
        base = gen_random_matrix(rng, max_times=4)
        t = base.n_times
        cols = list(base.columns) + [
            Column(ClusterId(c.cid.time + t, c.cid.ordinal), c.members)
            for c in base.columns]
        m = ClusterMatrix.build(base.object_labels, tuple(range(2 * t)), cols)
        for eps in (1, 2):
            assert mine_fci(m, eps) == brute_fcis(m, eps)


def test_bruteforce_refuses_large_matrices():
    m = make_matrix({(t, 0): [0, 1] for t in range(25)})
    with pytest.raises(SizeGuardError):
        brute_fcis(m, 2)


# ---------------------------------------------------------------------------
# Nested chains: the closed itemsets are the prefixes ending a run of equal
# columns
# ---------------------------------------------------------------------------

def test_nested_chain_prefixes():
    m = make_matrix({(0, 0): [0, 1, 2], (1, 0): [0, 1], (2, 0): [0]})
    assert mine_fci(m, 1) == [
        FCI((_cid(0, 0),), Tidset.from_ids([0, 1, 2])),
        FCI((_cid(0, 0), _cid(1, 0)), Tidset.from_ids([0, 1])),
        FCI((_cid(0, 0), _cid(1, 0), _cid(2, 0)), Tidset.from_ids([0])),
    ]
    assert mine_fci(m, 2) == mine_fci(m, 1)[:2]


def test_nested_equal_run_absorbed():
    m = make_matrix({(0, 0): [0, 1], (1, 0): [0, 1], (2, 0): [0]})
    assert mine_fci(m, 1) == [
        FCI((_cid(0, 0), _cid(1, 0)), Tidset.from_ids([0, 1])),
        FCI((_cid(0, 0), _cid(1, 0), _cid(2, 0)), Tidset.from_ids([0])),
    ]


def test_nested_empty():
    m = ClusterMatrix.build(("a",), (0,), [])
    assert mine_fci(m, 1) == []


def test_nested_matrices_match_bruteforce():
    rng = np.random.default_rng(505)
    for _ in range(120):
        m = gen_random_nested_matrix(rng)  # at most 8 columns: within the guard
        for eps in (1, 2, 3):
            got = mine_fci(m, eps)
            assert got == brute_fcis(m, eps)
            _check_fci_invariants(m, got, eps)


# ---------------------------------------------------------------------------
# Walk depth and interpreter state
# ---------------------------------------------------------------------------

def _chain_matrix(n):
    """n columns, one per timestamp, each holding one object fewer than the
    one before: the closure walk goes one level deeper per column."""
    return make_matrix({(t, 0): range(n - t) for t in range(n)}, n_objects=n)


def test_mining_leaves_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    mine_fci(_chain_matrix(40), 1)
    assert sys.getrecursionlimit() == limit


def test_chain_deeper_than_recursion_limit():
    # The walk must not spend a stack frame per level.  A 1 100-column chain
    # is deeper than the default limit of 1000 and takes about a second to
    # mine; its closed itemsets are its prefixes, one per column.
    n = 1100
    assert n > sys.getrecursionlimit()
    got = mine_fci(_chain_matrix(n), 1)
    assert got == [
        FCI(tuple(_cid(s, 0) for s in range(t + 1)), Tidset.from_ids(range(n - t)))
        for t in range(n)]
