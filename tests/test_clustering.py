import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import comove.clustering
from comove import (
    DbscanParams,
    MatrixKindError,
    ParameterError,
    SyntheticSpec,
    Tidset,
    TrajectoryDB,
    build_cluster_matrix,
    dbscan_snapshot,
    gen_synthetic,
)
from conftest import make_matrix
from oracle import brute_dbscan_snapshot


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def test_params_defaults():
    p = DbscanParams()
    assert (p.eps, p.min_pts) == (0.001, 2)


@pytest.mark.parametrize("kw", [
    {"eps": 0.0}, {"eps": -1.0}, {"eps": float("nan")}, {"eps": float("inf")},
    {"min_pts": 1}, {"min_pts": 0}, {"min_pts": 2.0},
])
def test_params_validation(kw):
    with pytest.raises(ParameterError):
        DbscanParams(**kw)


# ---------------------------------------------------------------------------
# Single-snapshot clustering
# ---------------------------------------------------------------------------

def _snap(positions, eps, min_pts, ids=None):
    pts = np.asarray(positions, dtype=float)
    if pts.ndim == 1:
        pts = np.stack([pts, np.zeros_like(pts)], axis=1)
    if ids is None:
        ids = np.arange(len(pts))
    return dbscan_snapshot(ids, pts, DbscanParams(eps=eps, min_pts=min_pts))


def test_snapshot_empty():
    assert dbscan_snapshot([], np.empty((0, 2)), DbscanParams()) == []


def test_isolated_points_are_noise():
    assert _snap([0.0, 10.0, 20.0], eps=1.0, min_pts=2) == []


def test_two_close_points_form_a_cluster():
    assert _snap([0.0, 0.5], eps=1.0, min_pts=2) == [Tidset.from_ids([0, 1])]


def test_neighborhood_is_a_closed_ball():
    # distance exactly eps still counts ...
    assert _snap([0.0, 1.0], eps=1.0, min_pts=2) == [Tidset.from_ids([0, 1])]
    # ... but anything beyond does not
    assert _snap([0.0, 1.0 + 1e-9], eps=1.0, min_pts=2) == []


def test_two_separate_triples():
    got = _snap([0.0, 0.4, 0.8, 10.0, 10.4, 10.8], eps=1.0, min_pts=3)
    assert got == [Tidset.from_ids([0, 1, 2]), Tidset.from_ids([3, 4, 5])]


def test_min_pts_counts_the_point_itself():
    # each end point has neighborhood size 2: a cluster at min_pts=2,
    # nothing at min_pts=3
    assert _snap([0.0, 0.9], eps=1.0, min_pts=2) != []
    assert _snap([0.0, 0.9], eps=1.0, min_pts=3) == []


def test_ids_pass_through():
    got = _snap([0.0, 0.5], eps=1.0, min_pts=2, ids=[9, 5])
    assert got == [Tidset.from_ids([5, 9])]


def test_non_finite_coordinates_are_noise():
    # A NaN or infinite coordinate is within eps of nothing, not even of the
    # point itself (two points at the same infinity are NaN apart), so it
    # neither clusters nor adds to a neighbour's density.
    nan, inf = float("nan"), float("inf")
    pts = [(0.0, 0.0), (0.5, 0.0), (nan, 0.0), (0.0, nan), (inf, 0.0),
           (inf, 0.0), (-inf, 0.0), (0.0, -inf), (inf, inf)]
    ids = np.arange(len(pts))
    assert dbscan_snapshot(ids, pts, DbscanParams(eps=1.0, min_pts=2)) == \
        [Tidset.from_ids([0, 1])]
    assert dbscan_snapshot(ids, pts, DbscanParams(eps=1.0, min_pts=3)) == []


def test_negative_object_id_raises():
    with pytest.raises(ValueError, match="non-negative"):
        _snap([0.0, 0.5], eps=1.0, min_pts=2, ids=[-1, 3])


@pytest.mark.parametrize("points, eps", [
    # eps*eps underflows to 0: a pair is within only if its squared gaps
    # underflow as well, which happens far beyond eps
    ([(0.0, 0.0), (1e-170, 0.0), (0.0, 3e-162), (1e-300, 1e-300)], 1e-300),
    # eps*eps overflows: every finite pair is within, even one whose gap
    # overflows
    ([(1.7e308, 0.0), (-1.7e308, 0.0), (0.0, 1.7e308)], 1e200),
    # coordinates at the top of the float range with an ordinary eps
    ([(1.7e308, 0.0), (np.nextafter(1.7e308, 0), 0.0), (-1.7e308, 1.0),
      (-1.7e308, 2.0)], 1.0),
])
def test_snapshot_equals_oracle_at_float_extremes(points, eps):
    ids, pts = np.arange(len(points)), np.array(points)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for min_pts in (2, 3):
            params = DbscanParams(eps=eps, min_pts=min_pts)
            assert dbscan_snapshot(ids, pts, params) == \
                brute_dbscan_snapshot(ids, pts, params)


def test_border_point_joins_first_cluster_by_id():
    # two dense quads with one shared border point equidistant from both;
    # position 3.5 is within eps of exactly one core on each side but has
    # only 3 neighbors itself, so it is never core at min_pts=4
    # (positions are 0.5 multiples so the boundary distances are float-exact)
    positions = [0.0, 0.5, 1.0, 1.5, 3.5, 5.5, 6.0, 6.5, 7.0]
    got = _snap(positions, eps=2.0, min_pts=4)
    assert got == [Tidset.from_ids([0, 1, 2, 3, 4]), Tidset.from_ids([5, 6, 7, 8])]
    # renumber so the right-hand quad carries the smaller ids: the border
    # now belongs to the right-hand cluster instead
    got = _snap(positions, eps=2.0, min_pts=4, ids=[8, 7, 6, 5, 4, 3, 2, 1, 0])
    assert got == [Tidset.from_ids([0, 1, 2, 3, 4]), Tidset.from_ids([5, 6, 7, 8])]
    assert 4 in got[0].ids  # border id 4 sits with the small-id quad each time


def test_row_order_does_not_matter():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 8, size=(20, 2))
    ids = np.arange(20)
    want = dbscan_snapshot(ids, pts, DbscanParams(eps=1.5, min_pts=3))
    for _ in range(10):
        perm = rng.permutation(20)
        got = dbscan_snapshot(ids[perm], pts[perm], DbscanParams(eps=1.5, min_pts=3))
        assert got == want


def _reference_check(ids, pts, params, clusters):
    """Order-independent consistency check: core components via union-find,
    then membership properties that any density clustering with first-touch
    border assignment must satisfy."""
    n = len(ids)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    within = d2 <= params.eps ** 2
    core = within.sum(axis=1) >= params.min_pts

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if core[i] and core[j] and within[i, j]:
                parent[find(i)] = find(j)

    by_id = {int(ids[i]): i for i in range(n)}
    members = [set(c.ids) for c in clusters]

    # disjoint, and ordered by smallest member
    assert sum(len(m) for m in members) == len(set().union(*members)) if members else True
    assert [min(m) for m in members] == sorted(min(m) for m in members)

    # each cluster's cores form exactly one core component
    comp_seen = set()
    for m in members:
        cores_in = {find(by_id[o]) for o in m if core[by_id[o]]}
        assert len(cores_in) == 1
        comp_seen |= cores_in
        root = cores_in.pop()
        # the cluster contains its whole core component
        assert {int(ids[i]) for i in range(n) if core[i] and find(i) == root} <= m
        # every border member touches a core of this cluster
        for o in m:
            i = by_id[o]
            if not core[i]:
                assert any(within[i, by_id[p]] and core[by_id[p]] for p in m)
    # no core component is dropped, none appears twice
    assert comp_seen == {find(i) for i in range(n) if core[i]}

    # exactly the density-reachable points are clustered
    reachable = {int(ids[i]) for i in range(n)
                 if core[i] or any(within[i, j] and core[j] for j in range(n))}
    assert set().union(*members) == reachable if members else reachable == set()


def test_snapshot_against_reference_properties():
    rng = np.random.default_rng(41)
    for trial in range(60):
        n = int(rng.integers(1, 25))
        pts = rng.uniform(0, 6, size=(n, 2))
        params = DbscanParams(eps=float(rng.uniform(0.3, 2.0)),
                              min_pts=int(rng.integers(2, 5)))
        ids = rng.permutation(n * 2)[:n]  # sparse, shuffled object indices
        clusters = dbscan_snapshot(ids, pts, params)
        order = np.argsort(ids)
        _reference_check(ids[order], pts[order], params, clusters)


@st.composite
def _snapshots(draw):
    """One snapshot for the oracle comparison: ids, points and parameters.

    Coordinates lie on a 0.5 lattice, where squared distances are exact, so
    neighbours often sit exactly at eps; points repeat positions from a pool;
    ids are sparse and shuffled; min_pts runs up to n + 1 (then everything
    is noise).  One layout in two has two dense groups with a border point
    between them, within eps of a core on each side, and one more border
    point outside each group.
    """
    n_extra = draw(st.integers(0, 14))
    pool = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                         min_size=1, max_size=max(1, n_extra)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=n_extra, max_size=n_extra))
    points = [(0.5 * pool[i][0], 0.5 * pool[i][1]) for i in picks]
    if draw(st.booleans()):
        # two quads at x 0..1.5 and 5.5..7; at eps 2 and min_pts 4 the point
        # at 3.5 touches a core of each, those at -2 and 9 a core of one
        points += [(x, 0.0) for x in (-2.0, 0.0, 0.5, 1.0, 1.5, 3.5,
                                      5.5, 6.0, 6.5, 7.0, 9.0)]
        eps, min_pts = 2.0, 4
    else:
        eps = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5]))
        min_pts = draw(st.integers(2, max(2, len(points) + 1)))
    n = len(points)
    ids = draw(st.permutations(range(3 * n)))[:n]
    return np.array(ids, dtype=np.int64), np.array(points).reshape(n, 2), \
        DbscanParams(eps=eps, min_pts=min_pts)


@settings(max_examples=400, deadline=None)
@given(_snapshots())
def test_snapshot_equals_bfs_oracle(snapshot):
    ids, points, params = snapshot
    assert dbscan_snapshot(ids, points, params) == \
        brute_dbscan_snapshot(ids, points, params)


# ---------------------------------------------------------------------------
# Whole-database matrix construction
# ---------------------------------------------------------------------------

def _oracle_matrix(db, params):
    """The cluster matrix ``brute_dbscan_snapshot`` gives, timestamp by
    timestamp."""
    cells = {}
    for t in range(db.n_times):
        idx = np.nonzero(db.present[:, t])[0]
        for o, tid in enumerate(brute_dbscan_snapshot(idx, db.xy[idx, t], params)):
            cells[(t, o)] = tid.ids
    return make_matrix(cells, n_objects=db.n_objects, n_times=db.n_times,
                       labels=db.object_labels)


def _traj_db(frames, labels):
    """frames: list (one per time) of {label: (x, y)}."""
    xy = np.full((len(labels), len(frames), 2), np.nan)
    for t, frame in enumerate(frames):
        for label, pos in frame.items():
            xy[labels.index(label), t] = pos
    return TrajectoryDB(tuple(labels), tuple(range(len(frames))), xy)


def test_build_matrix_three_column_shape():
    labels = ["o1", "o2", "o3", "o4", "o5"]
    near = {"o1": (0, 0), "o2": (0.5, 0), "o3": (1.0, 0),
            "o4": (50, 50), "o5": (80, 80)}
    apart = dict(near, o3=(30.0, 0))
    db = _traj_db([near, apart, near], labels)
    m = build_cluster_matrix(db, DbscanParams(eps=1.0, min_pts=2))
    assert m == make_matrix(
        {(0, 0): [0, 1, 2], (1, 0): [0, 1], (2, 0): [0, 1, 2]}, n_objects=5)


def test_build_matrix_skips_absent_objects():
    labels = ["o1", "o2", "o3"]
    db = _traj_db([{"o1": (0, 0), "o2": (0.1, 0)},
                   {"o3": (5, 5)},
                   {}], labels)
    m = build_cluster_matrix(db, DbscanParams(eps=1.0, min_pts=2))
    # t=0 clusters o1,o2; t=1 has one isolated point; t=2 nothing at all
    assert [c.cid for c in m.columns] == [(0, 0)]
    assert m.columns[0].members == Tidset.from_ids([0, 1])
    assert m.n_times == 3


def test_build_matrix_kind_tag():
    db = _traj_db([{"o1": (0, 0), "o2": (0, 0)}], ["o1", "o2"])
    assert build_cluster_matrix(db, DbscanParams(), kind="periodic").kind == "periodic"
    with pytest.raises(MatrixKindError):
        build_cluster_matrix(db, DbscanParams(), kind="closed-itemset")


def test_build_matrix_thread_count_is_invisible():
    rng = np.random.default_rng(7)
    xy = rng.uniform(0, 5, size=(12, 9, 2))
    xy[rng.random((12, 9)) < 0.2] = np.nan
    db = TrajectoryDB(tuple(f"o{i}" for i in range(12)), tuple(range(9)), xy)
    params = DbscanParams(eps=1.2, min_pts=2)
    base = build_cluster_matrix(db, params)
    for threads in (2, 4, 8):
        assert build_cluster_matrix(db, params, threads=threads) == base
    with pytest.raises(ParameterError):
        build_cluster_matrix(db, params, threads=0)


def test_build_matrix_equals_oracle_columns():
    rng = np.random.default_rng(19)
    for trial in range(40):
        n_objects = int(rng.integers(1, 30))
        n_times = int(rng.integers(1, 8))
        xy = np.round(rng.uniform(0, 6, size=(n_objects, n_times, 2)) * 2) / 2
        xy[rng.random((n_objects, n_times)) < 0.3] = np.nan
        db = TrajectoryDB(tuple(f"o{i}" for i in range(n_objects)),
                          tuple(range(n_times)), xy)
        params = DbscanParams(eps=float(rng.choice([0.5, 1.0, 1.5])),
                              min_pts=int(rng.integers(2, 5)))
        assert build_cluster_matrix(db, params) == _oracle_matrix(db, params)


@pytest.mark.parametrize("threads", [1, 2])
def test_build_matrix_equals_oracle_as_snapshot_sizes_shrink_and_grow(threads):
    # Snapshots of very different sizes, including an empty one, side by
    # side in the same steps.
    rng = np.random.default_rng(29)
    sizes = [12, 3, 30, 1, 20, 30, 5, 0, 16]
    n_objects = max(sizes)
    xy = np.round(rng.uniform(0, 5, size=(n_objects, len(sizes), 2)) * 2) / 2
    for t, k in enumerate(sizes):
        xy[rng.permutation(n_objects)[k:], t] = np.nan
    db = TrajectoryDB(tuple(f"o{i:02d}" for i in range(n_objects)),
                      tuple(range(len(sizes))), xy)
    params = DbscanParams(eps=1.0, min_pts=2)
    want = _oracle_matrix(db, params)
    assert want.n_columns > len(sizes)  # clusters to compare, not only noise
    assert build_cluster_matrix(db, params, threads=threads) == want


def _nudge(v: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        v = float(np.nextafter(v, np.copysign(np.inf, ulps)))
    return v


@st.composite
def _grid_databases(draw):
    """A small trajectory database laid out where a grid is most likely to go
    wrong, with its parameters.

    Positions are multiples of eps moved by a few ulps, a previous position
    moved by exactly eps (along an axis or as a 3-4-5 diagonal), or a
    previous position repeated.  Every coordinate is shifted by one offset
    that may be negative or as large as 1e12, where eps = 0.001 is only a
    few ulps wide.
    """
    eps = draw(st.sampled_from([0.001, 0.1, 0.3, 1.0, 2.5]))
    shift = draw(st.sampled_from([0.0, -7.0, 1e3, -1e6, 1e9, 1e12, -1e12]))
    n_objects, n_times = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    xy = np.full((n_objects, n_times, 2), np.nan)
    for t in range(n_times):
        placed = []
        for o in range(n_objects):
            how = draw(st.sampled_from(["absent", "lattice", "eps away", "repeat"]))
            if how == "absent":
                continue
            if how == "lattice" or not placed:
                pos = tuple(_nudge(shift + draw(st.integers(-3, 3)) * eps,
                                   draw(st.integers(-3, 3))) for _ in "xy")
            else:
                x, y = draw(st.sampled_from(placed))
                if how == "eps away":
                    dx, dy = draw(st.sampled_from(
                        [(1, 0), (-1, 0), (0, 1), (0, -1), (0.6, 0.8), (-0.8, 0.6)]))
                    x, y = x + dx * eps, y + dy * eps
                pos = (x, y)
            placed.append(pos)
            xy[o, t] = pos
    db = TrajectoryDB(tuple(f"o{i}" for i in range(n_objects)),
                      tuple(range(n_times)), xy)
    return db, DbscanParams(eps=eps, min_pts=draw(st.integers(2, 4)))


@pytest.mark.parametrize("threads", [1, 2])
@settings(max_examples=150, deadline=None)
@given(case=_grid_databases(),
       budget=st.sampled_from([None, (1, 1), (3, 2), (6, 5)]))
def test_build_matrix_equals_oracle_on_grid_edge_cases(threads, case, budget):
    # Small budgets (points per step, candidate pairs per batch) split
    # batches inside a timestamp and steps across timestamps.
    db, params = case
    step, batch = budget or (comove.clustering._STEP_POINTS,
                             comove.clustering._BATCH_PAIRS)
    with mock.patch.object(comove.clustering, "_STEP_POINTS", step), \
            mock.patch.object(comove.clustering, "_BATCH_PAIRS", batch):
        got = build_cluster_matrix(db, params, threads=threads)
    assert got == _oracle_matrix(db, params)


def test_build_matrix_memory_does_not_grow_with_snapshot_squared():
    # 3 000 objects in one snapshot: a dense n x n distance matrix alone
    # would take 72 MB.  Gate on memory only, never on time.
    db = gen_synthetic(SyntheticSpec(n_objects=3000, n_times=20, n_groups=300,
                                     seed=11))
    tracemalloc.start()
    try:
        matrix = build_cluster_matrix(db, DbscanParams(eps=3, min_pts=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.n_columns > 0
    assert peak < 32 * 2 ** 20
