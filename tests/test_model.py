import importlib
import pkgutil
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

import comove
from comove import (
    FCI,
    ClosedSwarm,
    ClusterId,
    ClusterMatrix,
    Column,
    Convoy,
    GroupPattern,
    MatrixKindError,
    MiningParams,
    MovingCluster,
    ParameterError,
    ParseError,
    PeriodicPattern,
    Tidset,
    UniverseError,
    canonical_sort,
)
from comove.model import packed_fci


# ---------------------------------------------------------------------------
# Tidset
# ---------------------------------------------------------------------------

def test_tidset_round_trip():
    t = Tidset.from_ids([4, 1, 7])
    assert t.ids == (1, 4, 7)
    assert t.mask == (1 << 1) | (1 << 4) | (1 << 7)
    assert len(t) == 3
    assert list(t) == [1, 4, 7]
    assert 4 in t and 2 not in t and -1 not in t


def test_tidset_empty():
    t = Tidset(0)
    assert not t
    assert t.ids == ()
    assert len(t) == 0


def test_tidset_rejects_bad_input():
    with pytest.raises(ValueError):
        Tidset(-1)
    with pytest.raises(ValueError):
        Tidset.from_ids([3, -2])


def test_tidset_immutable():
    t = Tidset(5)
    with pytest.raises(AttributeError):
        t.mask = 7


def test_tidset_set_ops():
    a = Tidset.from_ids([0, 1, 2])
    b = Tidset.from_ids([0, 1])
    assert (a & b).ids == (0, 1)
    assert a & a == a
    assert Tidset(1) & Tidset(2) == Tidset(0)


def test_tidset_eq_hash_repr():
    assert Tidset(6) == Tidset.from_ids([1, 2])
    assert Tidset(6) != Tidset(7)
    assert Tidset(6) != 6
    assert hash(Tidset(6)) == hash(Tidset(6))
    assert repr(Tidset.from_ids([0, 3])) == "Tidset({0,3})"


@given(st.sets(st.integers(0, 40)), st.sets(st.integers(0, 40)))
def test_tidset_ops_match_python_sets(a, b):
    ta, tb = Tidset.from_ids(a), Tidset.from_ids(b)
    assert (ta & tb).ids == tuple(sorted(a & b))


# ---------------------------------------------------------------------------
# ClusterMatrix
# ---------------------------------------------------------------------------

def _col(t, o, ids):
    return Column(ClusterId(t, o), Tidset.from_ids(ids))


def test_matrix_build_sorts_columns():
    m = ClusterMatrix.build(("a", "b", "c"), (0, 1),
                            [_col(1, 0, [0]), _col(0, 1, [1]), _col(0, 0, [0])])
    assert [c.cid for c in m.columns] == [
        ClusterId(0, 0), ClusterId(0, 1), ClusterId(1, 0)]
    assert m.n_objects == 3 and m.n_times == 2 and m.n_columns == 3


@pytest.mark.parametrize("labels,times,cols,err", [
    (("a", "a"), (0,), [_col(0, 0, [0])], ParseError),          # dup labels
    (("a", "b"), (1, 0), [_col(0, 0, [0])], ParseError),        # times not increasing
    (("a",), (0,), [_col(3, 0, [0])], ParseError),              # time out of range
    (("a",), (0,), [_col(0, 0, [0]), _col(0, 0, [0])], ParseError),  # dup cid
    (("a", "b"), (0,), [Column(ClusterId(0, 0), Tidset(0))], ParseError),  # empty col
    (("a",), (0,), [_col(0, 0, [0, 1])], UniverseError),        # member out of range
    (("a", "b"), (0,), [_col(0, 0, [0, 1]), _col(0, 1, [1])], ParseError),  # overlap
])
def test_matrix_validation(labels, times, cols, err):
    with pytest.raises(err):
        ClusterMatrix.build(labels, times, cols)


def test_matrix_kind_gates_overlap():
    cols = [_col(0, 0, [0, 1]), _col(0, 1, [1, 2])]
    # same-unit overlap is illegal for every kind, and no kind exists that
    # would allow it
    for kind in ("per-timestamp", "periodic"):
        with pytest.raises(ParseError):
            ClusterMatrix.build(("a", "b", "c"), (0,), cols, kind=kind)
    for kind in ("closed-itemset", "nope"):
        with pytest.raises(MatrixKindError):
            ClusterMatrix.build(("a",), (0,), [_col(0, 0, [0])], kind=kind)


# ---------------------------------------------------------------------------
# FCI
# ---------------------------------------------------------------------------

def test_fci_basics():
    f = FCI((ClusterId(0, 0), ClusterId(2, 1)), Tidset.from_ids([1, 4]))
    assert f.support == 2
    assert f.times == (0, 2)
    assert len(f) == 2


def test_fci_equals_its_packed_form():
    items = (ClusterId(0, 3), ClusterId(2, 1), ClusterId(2**31 - 1, 0))
    f = FCI(items, Tidset.from_ids([1, 4]))
    codes = (3, 2 << 32 | 1, (2**31 - 1) << 32)
    assert f.mask == 0b10010 and f.codes == codes
    g = packed_fci(0b10010, codes)
    assert g == f and f == g and hash(g) == hash(f) and repr(g) == repr(f)
    assert g.items == items and g.tidset == f.tidset and g.support == 2
    assert f != packed_fci(0b10010, codes[:2])
    assert f != packed_fci(0b10000, codes)
    assert f != (items, f.tidset)


def test_fci_validation():
    with pytest.raises(ValueError):
        FCI((), Tidset(1))
    with pytest.raises(ValueError):
        FCI((ClusterId(1, 0), ClusterId(0, 0)), Tidset(1))
    with pytest.raises(ValueError):
        FCI((ClusterId(0, 0), ClusterId(0, 0)), Tidset(1))
    with pytest.raises(ValueError, match="ordinal must be >= 0"):
        FCI((ClusterId(0, -1),), Tidset(1))


def test_fci_times_must_fit_the_item_code():
    # a code is time << 32 | ordinal in an int64, so times lie in
    # [-2**31, 2**31); a negative time is left for the store writer to refuse
    for time in (-2**31, -1, 2**31 - 1):
        (code,) = FCI((ClusterId(time, 2**32 - 1),), Tidset(1)).codes
        assert np.int64(code) == code
    for time in (-2**31 - 1, 2**31, 2**40):
        message = rf"time index must be in \[-2\*\*31, 2\*\*31\), got {time}"
        with pytest.raises(ParseError, match=message):
            FCI((ClusterId(time, 0),), Tidset(1))


# ---------------------------------------------------------------------------
# MiningParams
# ---------------------------------------------------------------------------

def test_mining_params_defaults():
    p = MiningParams()
    assert (p.min_t, p.theta, p.min_c, p.min_wei) == (1, 0.5, 1, 0.0)


@pytest.mark.parametrize("kw", [
    {"min_t": 1.5}, {"min_c": 2.5}, {"min_t": 0}, {"theta": -0.1},
    {"theta": 1.1}, {"min_c": 0}, {"min_wei": 2.0},
])
def test_mining_params_validation(kw):
    with pytest.raises(ParameterError):
        MiningParams(**kw)


# ---------------------------------------------------------------------------
# Patterns and canonical order
# ---------------------------------------------------------------------------

def test_pattern_time_accessors():
    c = Convoy(Tidset(3), 2, 5)
    assert c.times == (2, 3, 4, 5)
    g = GroupPattern(Tidset(3), ((0, 1), (4, 6)), 0.5)
    assert g.times == (0, 1, 4, 5, 6)
    mc = MovingCluster((ClusterId(1, 0), ClusterId(2, 0)), Tidset(1))
    assert (mc.start, mc.end) == (1, 2)
    assert mc.times == (1, 2)
    mc = MovingCluster((ClusterId(3, 1), ClusterId(4, 0), ClusterId(5, 2)), Tidset(1))
    assert mc.times == (3, 4, 5)


def _some_patterns():
    return [
        Convoy(Tidset(3), 0, 2),
        ClosedSwarm(Tidset(3), (0, 2)),
        GroupPattern(Tidset(3), ((0, 1),), 0.4),
        PeriodicPattern(Tidset(7), (0, 1)),
        MovingCluster((ClusterId(0, 0), ClusterId(1, 0)), Tidset(3)),
        ClosedSwarm(Tidset(1), (1, 3)),
    ]


def test_canonical_sort_groups_by_kind():
    out = canonical_sort(_some_patterns())
    assert [p.kind for p in out] == sorted(p.kind for p in _some_patterns())
    assert canonical_sort([]) == []
    assert canonical_sort(out) == out  # idempotent


@given(st.permutations(_some_patterns()))
def test_canonical_sort_order_independent(shuffled):
    assert canonical_sort(shuffled) == canonical_sort(_some_patterns())


def test_canonical_sort_rejects_non_patterns():
    with pytest.raises(TypeError):
        canonical_sort([object()])


# ---------------------------------------------------------------------------
# Package exports
# ---------------------------------------------------------------------------

def test_package_exports_exactly_the_modules_all():
    # the command-line module is the one whose names the package leaves out
    public = {name for name, value in vars(comove).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = set()
    for module in pkgutil.iter_modules(comove.__path__):
        if module.name != "cli":
            declared.update(importlib.import_module(f"comove.{module.name}").__all__)
    assert public == declared
