"""Decoding mined closed itemsets into co-movement patterns.

``extract_patterns`` is the one decoder: it reads each itemset once and
yields every pattern kind the matrix supports, which callers filter by
``kind``.  Its :class:`ExtractionContext` carries the matrix the itemsets
were mined from (pattern shape depends on the full column tidsets, not just
the itemset) and the thresholds.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .model import (
    FCI,
    ClosedSwarm,
    ClusterId,
    ClusterMatrix,
    Convoy,
    GroupPattern,
    MiningParams,
    MovingCluster,
    Pattern,
    PeriodicPattern,
    Tidset,
    UniverseError,
    canonical_sort,
)

__all__ = ["ExtractionContext", "extract_patterns"]


class ExtractionContext:
    """Matrix + parameters that ``extract_patterns`` decodes against."""

    def __init__(self, matrix: ClusterMatrix, params: MiningParams):
        self.matrix = matrix
        self.params = params
        self._columns: dict[ClusterId, Tidset] | None = None
        self._jaccard: dict[tuple[ClusterId, ClusterId], float] = {}

    @property
    def n_times(self) -> int:
        return self.matrix.n_times

    def column_tidset(self, cid: ClusterId) -> Tidset:
        if self._columns is None:
            self._columns = self.matrix.column_map()
        try:
            return self._columns[cid]
        except KeyError:
            raise UniverseError(
                f"itemset references column {cid} absent from the matrix") from None

    def column_jaccard(self, a: ClusterId, b: ClusterId) -> float:
        """Jaccard similarity of two columns' full tidsets, memoised per
        pair: it depends on the matrix alone, not on the itemset asking."""
        key = (a, b)
        value = self._jaccard.get(key)
        if value is None:
            x = self.column_tidset(a).mask
            y = self.column_tidset(b).mask
            value = self._jaccard[key] = (x & y).bit_count() / (x | y).bit_count()
        return value


def _consecutive_runs(items: Sequence[ClusterId]) -> list[list[ClusterId]]:
    runs: list[list[ClusterId]] = []
    for it in items:
        if runs and it.time == runs[-1][-1].time + 1:
            runs[-1].append(it)
        else:
            runs.append([it])
    return runs


def _guarded_segments(fci: FCI, runs: list[list[ClusterId]],
                      ctx: ExtractionContext) -> list[tuple[int, int]]:
    """Maximal consecutive item runs of length >= min_t over which the FCI's
    objects are exactly the objects sharing those clusters (the intersection
    of the full column tidsets adds nobody).  ``runs`` are the consecutive
    runs of the FCI's items, which are already in time order."""
    segments = []
    for run in runs:
        if len(run) < ctx.params.min_t:
            continue
        inter = -1
        for it in run:
            inter &= ctx.column_tidset(it).mask
        if inter == fci.tidset.mask:
            segments.append((run[0].time, run[-1].time))
    return segments


def _moving_clusters(runs: list[list[ClusterId]],
                     ctx: ExtractionContext) -> list[MovingCluster]:
    """Maximal chains inside the item runs whose adjacent full tidsets
    overlap by at least theta (Jaccard), with at least two (and min_t)
    clusters each."""
    theta = ctx.params.theta
    min_len = max(2, ctx.params.min_t)
    out = []
    for run in runs:
        chain: list[ClusterId] = [run[0]]
        for prev, cur in zip(run, run[1:]):
            if ctx.column_jaccard(prev, cur) >= theta:
                chain.append(cur)
            else:
                if len(chain) >= min_len:
                    out.append(chain)
                chain = [cur]
        if len(chain) >= min_len:
            out.append(chain)
    result = []
    for chain in out:
        core = -1
        for it in chain:
            core &= ctx.column_tidset(it).mask
        result.append(MovingCluster(tuple(chain), Tidset(core)))
    return result


def _group_pattern(fci: FCI, segments: list[tuple[int, int]],
                   ctx: ExtractionContext) -> GroupPattern | None:
    """The guarded segments as one group pattern, kept when there are at
    least min_c of them covering at least min_wei of the time span."""
    if len(segments) < ctx.params.min_c:
        return None
    weight = sum(b - a + 1 for a, b in segments) / ctx.n_times
    if weight < ctx.params.min_wei:
        return None
    return GroupPattern(fci.tidset, tuple(segments), weight)


def extract_patterns(fcis: Iterable[FCI], ctx: ExtractionContext) -> list[Pattern]:
    """Decode a set of closed itemsets into every pattern kind the matrix
    supports, deduplicated and canonically ordered.

    Each itemset spanning at least min_t time units is a swarm: a periodic
    pattern on a periodic matrix, which yields nothing else, and a closed
    swarm otherwise.  Per-timestamp matrices add a convoy per guarded run,
    the moving clusters of the runs and the group pattern of the guarded
    runs.
    """
    swarm = PeriodicPattern if ctx.matrix.kind == "periodic" else ClosedSwarm
    patterns: list[Pattern] = []
    movers: set[MovingCluster] = set()
    for fci in fcis:
        times = tuple(sorted({it.time for it in fci.items}))
        if len(times) >= ctx.params.min_t:
            patterns.append(swarm(fci.tidset, times))
        if swarm is PeriodicPattern:
            continue
        runs = _consecutive_runs(fci.items)
        segments = _guarded_segments(fci, runs, ctx)
        patterns.extend(Convoy(fci.tidset, a, b) for a, b in segments)
        movers.update(_moving_clusters(runs, ctx))
        g = _group_pattern(fci, segments, ctx)
        if g is not None:
            patterns.append(g)
    patterns.extend(movers)
    return canonical_sort(patterns)
