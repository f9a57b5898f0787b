"""Density clustering of every timestamp and cluster-matrix construction.

The clustering is deliberately written out by hand rather than delegated:
the rest of the pipeline needs byte-identical output across runs and thread
counts, which pins down details most libraries leave open.  Neighborhoods
are closed balls.  A cluster is one connected component of core points (two
cores are connected when each lies in the other's neighborhood) plus the
border points it reaches, and it is known by its smallest core id.  A border
point near several components joins the one whose smallest core id is
lowest.  Clusters are numbered by their smallest member.  This is the rule a
breadth-first DBSCAN gives when it tries seeds in ascending object id and a
border point joins the first cluster that reaches it; here it is computed
with whole-array steps instead of a per-point walk.

Neighbours are found on a grid, as in the exact 2-D grid DBSCAN of Gunawan
(2013) and de Berg, Gunawan & Roeloffzen (2017).  Timestamps are clustered
in steps: runs of consecutive timestamps that hold at most ``_STEP_POINTS``
points between them (a larger timestamp is a step of its own).  A step's
points are sorted once by the key (timestamp, cell column, cell row) of
square cells a little wider than eps, so two points within eps of each other
sit in the same cell or in adjacent ones.  Each point takes as candidates
the points after it in its own cell and those in four of its eight
neighbouring cells; the other four take it in turn.  The grid only proposes
pairs: the float test ``dx*dx + dy*dy <= eps*eps`` decides them, as it would
on a dense distance matrix.  Candidates are tested ``_BATCH_PAIRS`` at a
time, so a step's memory is bounded by its pairs within eps, never by the
square of a snapshot's size.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ingest import TrajectoryDB
from .model import (
    MATRIX_KINDS,
    ClusterId,
    ClusterMatrix,
    Column,
    MatrixKindError,
    ParameterError,
    Tidset,
)

__all__ = ["DbscanParams", "dbscan_snapshot", "build_cluster_matrix"]

# Points per step, and candidate pairs tested per batch within a step.  Larger
# steps amortise more per-call overhead but hold more pairs at once.
_STEP_POINTS = 4096
_BATCH_PAIRS = 1 << 14


@dataclass(frozen=True)
class DbscanParams:
    """Density parameters: eps is the neighborhood radius (closed ball,
    Euclidean), min_pts the minimum neighborhood size for a core point,
    counting the point itself.  min_pts >= 2, so an isolated point is always
    noise, never a singleton cluster."""

    eps: float = 0.001
    min_pts: int = 2

    def __post_init__(self):
        if not (isinstance(self.eps, (int, float)) and math.isfinite(self.eps)
                and self.eps > 0):
            raise ParameterError(f"eps must be a finite number > 0, got {self.eps!r}")
        if not isinstance(self.min_pts, int) or self.min_pts < 2:
            raise ParameterError(f"min_pts must be an int >= 2, got {self.min_pts!r}")


def dbscan_snapshot(ids, points: np.ndarray, params: DbscanParams) -> list[Tidset]:
    """Cluster one timestamp's positions; returns member tidsets ordered by
    smallest member id.  ``ids`` are the object indices (parallel to the rows
    of ``points``); points too sparse to join any cluster yield nothing.
    """
    ids = np.asarray(ids)
    if len(ids) == 0:
        return []
    order = np.argsort(ids, kind="stable")
    points = np.asarray(points, dtype=float)[order]
    return [c.members for c in _cluster(np.zeros(len(ids), dtype=np.intp),
                                        ids[order], points, params)]


def _cell_width(eps: float, m: float) -> float:
    """Width of a grid cell for points whose coordinates are at most ``m``
    in magnitude: wide enough that the cells of a pair that passes the float
    test differ by at most one in each axis, whatever the rounding.

    A pair passes only when its exact coordinate differences are at most
    r(1 + 3u), with r = max(eps, 2^-500) and u = 2^-53 (below 2^-500 the
    squares underflow, so the test cannot tell those distances from eps).
    Each computed quotient x / w is off by at most m*u / w, so a cell wider
    than r(1 + 3u) + 2m*u keeps the two quotients less than 1 apart.  The
    m * 2^-40 term also keeps |x / w| within 2^40.  When eps*eps overflows,
    every pair passes and one cell holds each timestamp.
    """
    if math.isinf(eps * eps):
        return math.inf
    return max(eps, 2.0 ** -500) * (1 + 2.0 ** -30) + m * 2.0 ** -40


def _compress(c: np.ndarray) -> np.ndarray:
    """Renumber cell indices from 1, keeping neighbours adjacent: a gap of
    more than one between sorted distinct indices becomes a gap of two.  The
    indices then stay below twice the point count, so a step's cell keys fit
    in int64."""
    u, inv = np.unique(c, return_inverse=True)
    return np.cumsum(np.r_[1, np.where(np.diff(u) > 1, 2, 1)])[inv]


def _cluster(t: np.ndarray, ids: np.ndarray, xy: np.ndarray,
             params: DbscanParams) -> list[Column]:
    """Cluster the points of one step: ``t`` their timestamps (non-decreasing),
    ``ids`` their object indices (ascending within a timestamp) and ``xy``
    their positions.  Returns the step's columns in (timestamp, smallest
    member) order."""
    # A point with a non-finite coordinate is within eps of nothing, not even
    # of itself, so it is noise.
    finite = np.isfinite(xy).all(axis=1)
    t, ids, xy = t[finite], ids[finite], xy[finite]
    n = len(ids)
    if n == 0:
        return []
    x, y = xy[:, 0].copy(), xy[:, 1].copy()
    w = _cell_width(float(params.eps), float(np.abs(xy).max()))
    cx, cy = _compress(np.floor(x / w)), _compress(np.floor(y / w))
    ry = int(cy.max()) + 2
    key = ((t - t[0]) * (int(cx.max()) + 2) + cx) * ry + cy
    # Positions within a step are int32 unless a step is huge.
    ix = np.int32 if n < 2 ** 28 else np.int64
    order = np.argsort(key).astype(ix)
    key, x, y = key[order], x[order], y[order]

    # Per sorted point, five ranges of sorted positions to pair it with: the
    # rest of its own cell, then the cells above, below-right, right and
    # above-right.  Cell indices start at 1 and stop a row short of ry, so
    # those keys never reach into another column or timestamp.
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    end = np.r_[start[1:], n]
    cell = np.repeat(np.arange(len(start)), end - start)
    ckey = key[start]
    lo = np.empty((n, 5), dtype=ix)
    hi = np.empty((n, 5), dtype=ix)
    lo[:, 0], hi[:, 0] = np.arange(1, n + 1), end[cell]
    for c, off in enumerate((1, ry - 1, ry, ry + 1), 1):
        j = np.minimum(np.searchsorted(ckey, ckey + off), len(ckey) - 1)
        hit = ckey[j] == ckey + off
        lo[:, c] = np.where(hit, start[j], 0)[cell]
        hi[:, c] = np.where(hit, end[j], 0)[cell]
    span = hi - lo
    per_point = span.sum(axis=1)
    span, lo = span.ravel(), lo.ravel()
    total = np.cumsum(per_point)
    cuts = np.unique(np.r_[0, np.searchsorted(
        total, np.arange(_BATCH_PAIRS, total[-1], _BATCH_PAIRS), side="right"), n])

    # Test candidates a batch at a time, with the float operations of a dense
    # matrix: dx*dx + dy*dy <= eps*eps.  Pairs are kept as input positions.
    eps2 = params.eps * params.eps
    pa, pb = [], []
    for p0, p1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        s, o, k = span[5 * p0:5 * p1], lo[5 * p0:5 * p1], per_point[p0:p1]
        src = np.repeat(np.arange(p0, p1, dtype=ix), k)
        dst = np.arange(len(src), dtype=ix) + \
            np.repeat(o - (np.cumsum(s, dtype=ix) - s), s)
        dx = np.repeat(x[p0:p1], k) - x[dst]
        dy = np.repeat(y[p0:p1], k) - y[dst]
        dx *= dx
        dy *= dy
        dx += dy
        near = np.flatnonzero(dx <= eps2)
        pa.append(src[near])
        pb.append(dst[near])
    a, b = order[np.concatenate(pa)], order[np.concatenate(pb)]
    core = np.bincount(a, minlength=n) + np.bincount(b, minlength=n) + 1 \
        >= params.min_pts

    # Label every core point with the smallest input position in its
    # component.  Labels start as the points themselves; each round hooks the
    # label of either end of a core-core pair to the other end's label when
    # that is smaller, then follows labels to their own labels until that
    # settles.  A pair whose ends carry one label keeps it, so it is dropped;
    # stop when none is left.  Labels only fall and stay inside their
    # component, so at the end each component carries its minimum.
    core_a, core_b = core[a], core[b]
    both = np.flatnonzero(core_a & core_b)
    ca = la = a[both]
    cb = lb = b[both]
    lab = np.arange(n, dtype=ix)
    while len(la):
        np.minimum.at(lab, la, lb)
        np.minimum.at(lab, lb, la)
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped
        la, lb = lab[ca], lab[cb]
        apart = np.flatnonzero(la != lb)
        ca, cb, la, lb = ca[apart], cb[apart], la[apart], lb[apart]

    # A border point takes the smallest component label among its core
    # neighbours; a non-core point with none is noise (label n).
    label = np.where(core, lab, n)
    for u, v, edge in ((a, b, core_a > core_b), (b, a, core_b > core_a)):
        edge = np.flatnonzero(edge)
        np.minimum.at(label, v[edge], lab[u[edge]])
    member = np.flatnonzero(label < n)
    if len(member) == 0:
        return []
    mid = ids[member]
    if mid.min() < 0:
        raise ValueError(f"object index must be non-negative, got {mid.min()}")

    # Input positions run in (timestamp, id) order, so a cluster's first
    # member is its smallest; number the clusters in that order and set each
    # one's bits in a byte run from its smallest to its largest member.
    root = label[member]
    first = np.full(n, n)
    np.minimum.at(first, root, member)
    by_cluster = np.argsort(first[root], kind="stable")
    cl, mid = first[root][by_cluster], mid[by_cluster].astype(np.int64)
    opens = np.r_[True, cl[1:] != cl[:-1]]
    head, cl = np.flatnonzero(opens), np.cumsum(opens) - 1
    low = mid[head] >> 3
    size = (mid[np.r_[head[1:], len(mid)] - 1] >> 3) - low + 1
    offset = np.cumsum(size) - size
    buf = np.zeros(int(offset[-1] + size[-1]), dtype=np.uint8)
    np.bitwise_or.at(buf, offset[cl] + (mid >> 3) - low[cl],
                     (1 << (mid & 7)).astype(np.uint8))
    raw = buf.tobytes()
    times = t[member][by_cluster][head]
    ordinals = np.arange(len(head)) - np.searchsorted(times, times)
    return [Column(ClusterId(tm, k),
                   Tidset(int.from_bytes(raw[s:s + z], "little") << 8 * lw))
            for tm, k, s, z, lw in zip(times.tolist(), ordinals.tolist(),
                                       offset.tolist(), size.tolist(), low.tolist())]


def build_cluster_matrix(db: TrajectoryDB, params: DbscanParams, *,
                         kind: str = "per-timestamp", threads: int = 1) -> ClusterMatrix:
    """Cluster every timestamp of the database and assemble the 0-1 matrix.

    ``kind`` tags the result (use "periodic" when db is a sub-trajectory
    database from periodic decomposition).  ``threads`` clusters steps of
    timestamps concurrently; output is identical for any thread count.
    """
    if kind not in MATRIX_KINDS:
        raise MatrixKindError(
            f"cannot build a {kind!r} matrix from trajectories")
    if not isinstance(threads, int) or threads < 1:
        raise ParameterError(f"threads must be an int >= 1, got {threads!r}")
    present = db.present
    bounds, held = [0], 0
    for t, k in enumerate(present.sum(axis=0).tolist()):
        if held and held + k > _STEP_POINTS:
            bounds.append(t)
            held = 0
        held += k
    bounds.append(db.n_times)

    def step(a: int, b: int) -> list[Column]:
        tt, oo = np.nonzero(present[:, a:b].T)
        return _cluster(tt + a, oo, db.xy[oo, tt + a], params)

    if threads > 1 and len(bounds) > 2:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            per_step = list(ex.map(step, bounds[:-1], bounds[1:]))
    else:
        per_step = [step(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    columns = tuple(c for found in per_step for c in found)
    return ClusterMatrix(db.object_labels, db.time_labels, columns, kind)
