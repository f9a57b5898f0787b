"""Per-snapshot density clustering and cluster-matrix construction.

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
with whole-array steps per snapshot instead of a per-point walk.
"""

from __future__ import annotations

import math
import threading
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


class _Scratch:
    """Two float buffers that one thread reuses for the n x n differences of
    every snapshot it clusters, so that a snapshot does not page in fresh
    arrays; they grow to the largest snapshot seen."""

    def __init__(self):
        self.dx = self.dy = np.empty(0)

    def pair(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self.dx.size < n * n:
            self.dx, self.dy = np.empty(n * n), np.empty(n * n)
        return self.dx[:n * n].reshape(n, n), self.dy[:n * n].reshape(n, n)


def dbscan_snapshot(ids, points: np.ndarray, params: DbscanParams) -> list[Tidset]:
    """Cluster one timestamp's positions; returns member tidsets ordered by
    smallest member id.  ``ids`` are the object indices (parallel to the rows
    of ``points``); points too sparse to join any cluster yield nothing.
    """
    return _dbscan(ids, points, params, _Scratch())


def _dbscan(ids, points, params: DbscanParams, scratch: _Scratch) -> list[Tidset]:
    ids = np.asarray(ids)
    points = np.asarray(points, dtype=float)
    n = len(ids)
    if n == 0:
        return []
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    points = points[order]

    # Squared distances as dx*dx + dy*dy: the same float operations, in the
    # same order, as summing the squared difference vector over its two axes.
    dx, dy = scratch.pair(n)
    np.subtract(points[:, 0, None], points[None, :, 0], out=dx)
    np.subtract(points[:, 1, None], points[None, :, 1], out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    within = dx <= params.eps * params.eps
    core = np.count_nonzero(within, axis=1) >= params.min_pts
    cores = np.nonzero(core)[0]
    m = len(cores)
    if m == 0:
        return []

    # Label every core point with the smallest core index of its component:
    # take the smallest label among its core neighbours, then follow labels
    # to their own labels until that settles; stop when a round changes
    # nothing.  Labels only fall and stay inside their component, so at the
    # fixed point each component carries its minimum.  A row's first
    # neighbour in label order holds its smallest neighbouring label, and
    # every core point neighbours itself, so that first neighbour exists.
    core_adj = within[cores][:, cores]
    lab = np.arange(m)
    while True:
        by_label = np.argsort(lab, kind="stable")
        nxt = lab[by_label][core_adj[:, by_label].argmax(axis=1)]
        while True:
            jumped = nxt[nxt]
            if np.array_equal(jumped, nxt):
                break
            nxt = jumped
        if np.array_equal(nxt, lab):
            break
        lab = nxt

    # A border point takes the smallest component label among its core
    # neighbours; a non-core point with none is noise (label m).
    label = np.full(n, m)
    label[cores] = lab
    border = np.nonzero(~core)[0]
    if len(border):
        touch = within[border][:, cores[by_label]]
        label[border] = np.where(touch.any(axis=1),
                                 lab[by_label][touch.argmax(axis=1)], m)
    member = np.nonzero(label < m)[0]

    # Set each cluster's bits in one array, one row per cluster.  Points are
    # in id order, so a cluster's first member is its smallest id, and the
    # rows are put in that order.
    _, first, which = np.unique(label[member], return_index=True,
                                return_inverse=True)
    member_ids = ids[member]
    low = int(member_ids[0])
    if low < 0:
        raise ValueError(f"object index must be non-negative, got {low}")
    bits = np.zeros((len(first), int(member_ids[-1]) - low + 1), dtype=bool)
    bits[which, member_ids - low] = True
    packed = np.packbits(bits, axis=1, bitorder="little")[np.argsort(first)]
    return [Tidset(int.from_bytes(row.tobytes(), "little") << low) for row in packed]


def build_cluster_matrix(db: TrajectoryDB, params: DbscanParams, *,
                         kind: str = "per-timestamp", threads: int = 1) -> ClusterMatrix:
    """Cluster every timestamp of the database and assemble the 0-1 matrix.

    ``kind`` tags the result (use "periodic" when db is a sub-trajectory
    database from periodic decomposition).  ``threads`` clusters timestamps
    concurrently; output is identical for any thread count.
    """
    if kind not in MATRIX_KINDS:
        raise MatrixKindError(
            f"cannot build a {kind!r} matrix from trajectories")
    if not isinstance(threads, int) or threads < 1:
        raise ParameterError(f"threads must be an int >= 1, got {threads!r}")
    present = db.present
    local = threading.local()  # one _Scratch per worker thread

    def snapshot(t: int) -> list[Tidset]:
        idx = np.nonzero(present[:, t])[0]
        if len(idx) == 0:
            return []
        if not hasattr(local, "scratch"):
            local.scratch = _Scratch()
        return _dbscan(idx, db.xy[idx, t], params, local.scratch)

    if threads > 1 and db.n_times > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            per_time = list(ex.map(snapshot, range(db.n_times)))
    else:
        per_time = [snapshot(t) for t in range(db.n_times)]

    columns = [Column(ClusterId(t, i), tid)
               for t, tids in enumerate(per_time) for i, tid in enumerate(tids)]
    return ClusterMatrix(db.object_labels, db.time_labels, tuple(columns), kind)
