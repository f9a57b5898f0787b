import io
import random
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import comove.patterns
from comove import (
    FCI,
    MATRIX_KINDS,
    ClosedSwarm,
    ClusterId,
    ClusterMatrix,
    Column,
    Convoy,
    GroupPattern,
    MiningParams,
    MovingCluster,
    PeriodicPattern,
    Tidset,
    UniverseError,
    canonical_sort,
    extract_patterns,
    mine_fci,
    write_patterns_csv,
)
from oracle import (
    brute_closed_swarms,
    brute_convoys,
    brute_extract_patterns,
    brute_group_patterns,
    brute_write_patterns_csv,
    gen_random_matrix,
)
from conftest import (
    expanding_trio_matrix,
    make_matrix,
    pair_with_gap_matrix,
    three_column_matrix,
    two_stint_matrix,
    uniform_periodic_matrix,
)


def _decode(fcis, matrix, params, kind):
    """The patterns of one kind that extract_patterns decodes from fcis."""
    return [p for p in extract_patterns(fcis, matrix, params) if p.kind == kind]


def _tid(*ids):
    return Tidset.from_ids(ids)


def _cid(t, o):
    return ClusterId(t, o)


# ---------------------------------------------------------------------------
# One pattern kind at a time on hand-built scenarios
# ---------------------------------------------------------------------------

def test_swarm_spans_gaps_convoy_does_not():
    m = pair_with_gap_matrix()
    (fci,) = mine_fci(m, 2)
    params = MiningParams(min_t=2)
    assert _decode([fci], m, params, "closed_swarm") == [
        ClosedSwarm(_tid(0, 1), (0, 2, 3))]
    # the lone t=0 item is too short a run; only t=2..3 makes a convoy
    assert _decode([fci], m, params, "convoy") == [Convoy(_tid(0, 1), 2, 3)]
    params1 = MiningParams(min_t=1)
    assert _decode([fci], m, params1, "convoy") == [Convoy(_tid(0, 1), 0, 0),
                                                    Convoy(_tid(0, 1), 2, 3)]


def test_swarm_too_few_times_is_dropped():
    m = pair_with_gap_matrix()
    (fci,) = mine_fci(m, 2)
    assert _decode([fci], m, MiningParams(min_t=4), "closed_swarm") == []


def test_expanding_trio_convoys():
    m = expanding_trio_matrix()
    fcis = mine_fci(m, 2)
    params = MiningParams(min_t=2)
    assert _decode(fcis, m, params, "convoy") == [Convoy(_tid(0, 1), 0, 3), Convoy(_tid(0, 1, 2), 2, 3)]


def test_guard_suppresses_non_maximal_run():
    # at t=0 the pair rides the trio's cluster, so the pair's t=0 "run" is
    # not a convoy of its own; its t=2..3 stretch is
    m = make_matrix({(0, 0): [0, 1, 2], (2, 0): [0, 1, 2], (3, 0): [0, 1]},
                    n_times=4)
    fcis = mine_fci(m, 2)
    params = MiningParams(min_t=1)
    pair = next(f for f in fcis if f.tidset == _tid(0, 1))
    assert _decode([pair], m, params, "convoy") == [Convoy(_tid(0, 1), 2, 3)]
    trio = next(f for f in fcis if f.tidset == _tid(0, 1, 2))
    assert _decode([trio], m, params, "convoy") == [Convoy(_tid(0, 1, 2), 0, 0),
                                                    Convoy(_tid(0, 1, 2), 2, 2)]


def test_two_stint_group_pattern():
    m = two_stint_matrix()
    (fci,) = mine_fci(m, 2)
    params = MiningParams(min_t=2, min_c=2)
    assert _decode([fci], m, params, "group_pattern") == [GroupPattern(
        _tid(0, 1), ((0, 1), (3, 4)), 0.8)]
    assert _decode([fci], m, MiningParams(min_t=2, min_c=3), "group_pattern") == []
    assert _decode([fci], m, MiningParams(min_t=2, min_c=2, min_wei=0.9),
                   "group_pattern") == []


def test_moving_cluster_chain_breaks_on_low_overlap():
    m = make_matrix({(0, 0): [0, 1, 2, 3, 4, 5], (1, 0): [0, 1]})
    pair = next(f for f in mine_fci(m, 2) if f.tidset == _tid(0, 1))
    # Jaccard between the two clusters is 2/6, under the default 0.5
    assert _decode([pair], m, MiningParams(), "moving_cluster") == []
    got = _decode([pair], m, MiningParams(theta=0.33), "moving_cluster")
    assert got == [MovingCluster((_cid(0, 0), _cid(1, 0)), _tid(0, 1))]


def test_moving_cluster_needs_two_consecutive_clusters():
    m = pair_with_gap_matrix()
    (fci,) = mine_fci(m, 2)
    got = _decode([fci], m, MiningParams(theta=0.0), "moving_cluster")
    # the t=0 item stands alone; only the t=2..3 run chains
    assert got == [MovingCluster((_cid(2, 0), _cid(3, 0)), _tid(0, 1))]


def test_moving_cluster_core_can_exceed_itemset_tidset():
    m = expanding_trio_matrix()
    fcis = mine_fci(m, 2)
    params = MiningParams(theta=0.5)
    pair = next(f for f in fcis if f.tidset == _tid(0, 1))
    # the pair's items chain across all four timestamps (Jaccard 1, 2/3, 1);
    # the chain's core is the pair itself
    assert _decode([pair], m, params, "moving_cluster") == [MovingCluster(
        (_cid(0, 0), _cid(1, 0), _cid(2, 0), _cid(3, 0)), _tid(0, 1))]
    trio = next(f for f in fcis if f.tidset == _tid(0, 1, 2))
    assert _decode([trio], m, params, "moving_cluster") == [MovingCluster(
        (_cid(2, 0), _cid(3, 0)), _tid(0, 1, 2))]


def test_periodic_pattern_of_uniform_matrix():
    m = uniform_periodic_matrix()
    (fci,) = mine_fci(m, 2)
    params = MiningParams(min_t=2)
    assert _decode([fci], m, params, "periodic_pattern") == [
        PeriodicPattern(_tid(0, 1, 2), (0, 1, 2))]
    assert _decode([fci], m, MiningParams(min_t=4), "periodic_pattern") == []


def test_context_rejects_foreign_items():
    # Whatever the thresholds: at min_t=2 no guarded run or Jaccard reaches
    # the lone (9, 0), which used to decode into ClosedSwarm(times=(0, 9)).
    # (1, 1) lies between the matrix's columns, (9, 0) past all of them.
    m = three_column_matrix()
    foreign = FCI((_cid(0, 0), _cid(9, 0)), _tid(0, 1))
    between = FCI((_cid(0, 0), _cid(1, 1), _cid(2, 0)), _tid(0, 1))
    for min_t in (1, 2, 5):
        with pytest.raises(UniverseError, match=r"ClusterId\(time=9, ordinal=0\)"):
            extract_patterns([foreign], m, MiningParams(min_t=min_t))
        with pytest.raises(UniverseError, match=r"ClusterId\(time=1, ordinal=1\)"):
            extract_patterns([between], m, MiningParams(min_t=min_t))
    periodic = uniform_periodic_matrix()
    with pytest.raises(UniverseError):
        extract_patterns([foreign], periodic, MiningParams(min_t=1))


def test_itemset_with_objects_outside_its_columns_is_refused():
    # o1 and o3 are clustered apart at t=0, so no itemset holding both can
    # use (0, 0); decoding it would report a swarm the data does not hold
    m = make_matrix({(0, 0): [0, 1], (0, 1): [2, 3], (1, 0): [0, 1, 2, 3]})
    apart = FCI((_cid(0, 0), _cid(1, 0)), _tid(0, 2))
    # an object past the matrix's 64-bit tidset words is in no column at all
    past = FCI((_cid(0, 0),), Tidset(1 << 70 | 3))
    for matrix in (m, make_matrix({(0, 0): [0, 1], (0, 1): [2, 3],
                                   (1, 0): [0, 1, 2, 3]}, kind="periodic")):
        for bad in (apart, past):
            message = (f"itemset {re.escape(str(bad.items))} holds objects "
                       "that are not in all its columns")
            with pytest.raises(UniverseError, match=message):
                extract_patterns(mine_fci(matrix, 1) + [bad], matrix,
                                 MiningParams(min_t=1))
    # an itemset whose tidset lies inside its columns' AND still decodes
    inside = FCI((_cid(0, 0), _cid(1, 0)), _tid(0))
    assert _decode([inside], m, MiningParams(min_t=2), "closed_swarm") == [
        ClosedSwarm(_tid(0), (0, 1))]



# ---------------------------------------------------------------------------
# extract_patterns composition
# ---------------------------------------------------------------------------

def test_extract_patterns_expanding_trio():
    m = expanding_trio_matrix()
    params = MiningParams(min_t=1, theta=0.5)
    got = extract_patterns(mine_fci(m, 2), m, params)
    assert got == canonical_sort([
        ClosedSwarm(_tid(0, 1), (0, 1, 2, 3)),
        ClosedSwarm(_tid(0, 1, 2), (2, 3)),
        Convoy(_tid(0, 1), 0, 3),
        Convoy(_tid(0, 1, 2), 2, 3),
        GroupPattern(_tid(0, 1), ((0, 3),), 1.0),
        GroupPattern(_tid(0, 1, 2), ((2, 3),), 0.5),
        MovingCluster((_cid(0, 0), _cid(1, 0), _cid(2, 0), _cid(3, 0)), _tid(0, 1)),
        MovingCluster((_cid(2, 0), _cid(3, 0)), _tid(0, 1, 2)),
    ])


def test_extract_patterns_deduplicates_moving_clusters():
    # with theta high enough, the pair itemset and the trio itemset both
    # contribute the identical t=0..1 chain; it must appear once
    m = make_matrix({(0, 0): [0, 1, 2], (1, 0): [0, 1, 2], (2, 0): [0, 1]})
    params = MiningParams(min_t=1, theta=0.7)
    got = extract_patterns(mine_fci(m, 2), m, params)
    movers = [p for p in got if p.kind == "moving_cluster"]
    assert movers == [MovingCluster((_cid(0, 0), _cid(1, 0)), _tid(0, 1, 2))]


def test_extract_patterns_reads_columns_in_any_order():
    # ClusterMatrix(...) keeps its columns as given; only build sorts them
    rng = np.random.default_rng(29)
    for _ in range(40):
        m = gen_random_matrix(rng)
        order = rng.permutation(m.n_columns).tolist()
        shuffled = ClusterMatrix(m.object_labels, m.time_labels,
                                 tuple(m.columns[j] for j in order))
        fcis = mine_fci(m, 1)
        params = MiningParams(min_t=1, theta=0.4)
        assert extract_patterns(fcis, shuffled, params) == extract_patterns(
            fcis, m, params)


def test_extract_patterns_periodic_matrix_yields_periodic_only():
    m = uniform_periodic_matrix()
    got = extract_patterns(mine_fci(m, 2), m, MiningParams(min_t=1))
    assert got == [PeriodicPattern(_tid(0, 1, 2), (0, 1, 2))]


def test_closed_swarms_share_one_int_per_time():
    # Ints past 256 are not cached by the interpreter, so a time index held
    # by many swarms is stored once only if the decoder shares it.
    m = make_matrix({(t, o): ids for t in range(300)
                     for o, ids in enumerate([[0, 1], [2]])})
    swarms = _decode(mine_fci(m, 1), m, MiningParams(min_t=2), "closed_swarm")
    assert len(swarms) == 2
    a, b = (s.times[280] for s in swarms)
    assert a == 280 and a is b


# ---------------------------------------------------------------------------
# Randomized cross-checks against the object-subset oracles
# ---------------------------------------------------------------------------

def test_random_matrices_match_pattern_oracles():
    rng = np.random.default_rng(808)
    for _ in range(80):
        m = gen_random_matrix(rng)
        for eps, min_t in ((1, 1), (1, 2), (2, 1), (2, 2)):
            params = MiningParams(min_t=min_t, min_c=1, min_wei=0.0)
            got = extract_patterns(mine_fci(m, eps), m, params)

            def of_kind(kind):
                return {p for p in got if p.kind == kind}

            assert of_kind("closed_swarm") == set(brute_closed_swarms(m, eps, min_t))
            assert of_kind("convoy") == set(brute_convoys(m, eps, min_t))
            assert of_kind("group_pattern") == set(brute_group_patterns(m, eps, params))


# ---------------------------------------------------------------------------
# The whole-array decoder against the item-by-item oracle
# ---------------------------------------------------------------------------

# Thetas a small column pair's Jaccard similarity can equal exactly.
_EXACT_RATIOS = sorted({a / b for b in range(1, 7) for a in range(b + 1)})


@st.composite
def _decodable(draw):
    """A matrix of 1, 63, 64, 65 or 130 objects (tidsets of one to three
    words), of either kind; its closed itemsets plus hand-made ones, some
    with two items at one timestamp; random thresholds.

    Objects ride in a few herds that take a cluster (or none) per
    timestamp, and one object in ten strays to a random slot, so runs,
    guarded runs and chains of every shape occur without the itemset count
    blowing up."""
    n = draw(st.sampled_from([1, 63, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_times = draw(st.integers(1, 8))
    herd = rng.integers(0, 3, size=n)
    columns = []
    for t in range(n_times):
        k = int(rng.integers(1, 4))
        slot = rng.integers(0, k + 1, size=3)[herd]  # 0 = unclustered
        stray = rng.random(n) < 0.1
        slot[stray] = rng.integers(0, k + 1, size=int(stray.sum()))
        masks = sorted({sum(1 << int(o) for o in np.flatnonzero(slot == s))
                        for s in range(1, k + 1)} - {0})
        columns += [Column(ClusterId(t, i), Tidset(mk)) for i, mk in enumerate(masks)]
    m = ClusterMatrix.build(tuple(f"o{i}" for i in range(n)), tuple(range(n_times)),
                            columns, kind=draw(st.sampled_from(MATRIX_KINDS)))
    epsilon = draw(st.integers(1, 3))
    fcis = list(mine_fci(m, epsilon))  # a table: hand-made itemsets join a list
    if columns:
        for picks in draw(st.lists(st.sets(st.integers(0, len(columns) - 1),
                                           min_size=1, max_size=5), max_size=3)):
            mask = -1
            for j in picks:
                mask &= columns[j].members.mask
            fcis.append(FCI(tuple(sorted(columns[j].cid for j in picks)), Tidset(mask)))
    params = MiningParams(
        min_t=draw(st.integers(1, 4)),
        theta=draw(st.one_of(st.sampled_from(_EXACT_RATIOS), st.floats(0, 1))),
        min_c=draw(st.integers(1, 3)),
        min_wei=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    return m, fcis, params


@settings(max_examples=200, deadline=None)
@given(_decodable(), st.sampled_from([1, 2, 256]))
def test_extract_patterns_matches_itemwise_oracle(case, chunk_fcis):
    m, fcis, params = case
    with mock.patch.object(comove.patterns, "_CHUNK_FCIS", chunk_fcis):
        assert (extract_patterns(fcis, m, params)
                == brute_extract_patterns(fcis, m, params))


# ---------------------------------------------------------------------------
# patterns.csv from the decoder's table against the oracle's patterns
# ---------------------------------------------------------------------------

def _csv(write, patterns, m) -> str:
    buf = io.StringIO()
    write(patterns, m, buf)
    return buf.getvalue()


def _check_csv_bytes(fcis, m, params, seed):
    """patterns.csv written from the decoder's table, as ``comove mine``
    writes it, has the bytes of the oracle's patterns written in a shuffled
    order, by the writer and by the row-by-row oracle writer; and the
    table's kind counts are the oracle's."""
    table = extract_patterns(fcis, m, params)
    want = brute_extract_patterns(list(fcis), m, params)
    random.Random(seed).shuffle(want)
    got = _csv(write_patterns_csv, table, m)
    assert got == _csv(write_patterns_csv, want, m) == _csv(brute_write_patterns_csv,
                                                            want, m)
    assert table.kinds() == dict(sorted(Counter(p.kind for p in want).items()))
    return table


def _float_times(m: ClusterMatrix) -> ClusterMatrix:
    return ClusterMatrix(m.object_labels, tuple(t / 10 + 0.25 for t in m.time_labels),
                         m.columns, m.kind)


@settings(max_examples=200, deadline=None)
@given(_decodable(), st.booleans(), st.integers(0, 2**32 - 1))
def test_patterns_csv_from_the_table_has_the_oracle_bytes(case, floats, seed):
    m, fcis, params = case
    _check_csv_bytes(fcis, _float_times(m) if floats else m, params, seed)


@pytest.mark.parametrize("floats", [False, True])
def test_patterns_csv_bytes_on_shared_tidsets_and_cores(floats):
    # {0, 1} travel together at times 0-2 and 5-7 and apart at times 3-4:
    # one itemset of two convoys and a group pattern; {3, 4, 5} ride a
    # six-object cluster at time 2, which theta cuts out of their chain,
    # so two moving clusters of one core; and a periodic matrix of the same
    # columns gives periodic patterns only
    cells = {(t, 0): [0, 1] for t in (0, 1, 2, 5, 6, 7)}
    cells.update({(t, o): ids for t in (3, 4) for o, ids in ((0, [0, 2]), (2, [1]))})
    cells.update({(0, 1): [3, 4, 5], (1, 1): [3, 4, 5], (2, 1): [3, 4, 5, 6, 7, 8],
                  (3, 1): [3, 4, 5], (4, 1): [3, 4, 5]})
    for kind in ("per-timestamp", "periodic"):
        m = make_matrix(cells, kind=kind)
        m = _float_times(m) if floats else m
        for eps, params in ((2, MiningParams(min_t=2, theta=0.6)),
                            (1, MiningParams(min_t=1, theta=0.4, min_c=2))):
            table = _check_csv_bytes(mine_fci(m, eps), m, params, eps)
            if kind == "periodic":
                assert set(table.kinds()) == {"periodic_pattern"}
                continue
            convoys = [p for p in table if p.kind == "convoy" and p.objects == _tid(0, 1)]
            movers = [p for p in table if p.kind == "moving_cluster"
                      and p.objects == _tid(3, 4, 5)]
            assert len(convoys) == 2 and (eps == 1 or len(movers) == 2)

