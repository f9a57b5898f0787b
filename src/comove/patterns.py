"""Decoding mined closed itemsets into co-movement patterns.

``extract_patterns`` is the one decoder: it reads each itemset once and
yields every pattern kind the matrix supports, which callers filter by
``kind``.  Its :class:`ExtractionContext` carries the matrix the itemsets
were mined from (pattern shape depends on the full column tidsets, not just
the itemset) and the thresholds.

Itemsets are decoded a chunk at a time as whole arrays, from their packed
fields: every item code becomes a column index, item times are read off the
columns, and column tidsets become rows of ``(n_columns, W)`` uint64
words.  An itemset whose tidset is not inside the AND of its columns' words
(one ``np.bitwise_and.reduceat``) is refused before anything is decoded.
Consecutive runs are breaks in the item times; a run is guarded when the AND
of its columns' words equals the itemset's tidset; moving-cluster chains
break where the Jaccard similarity of two adjacent columns, computed once per
distinct pair, falls below theta, and their cores are another ``reduceat``.
Pattern objects are built only for what is emitted, and ClusterIds only
for the moving-cluster chains, from the matrix's own columns.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .model import (
    FCI,
    ClosedSwarm,
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
    code_item,
    item_code,
)

__all__ = ["ExtractionContext", "extract_patterns"]

# Itemsets decoded per step: bounds the arrays a decode holds at once.
_CHUNK_FCIS = 256

_codes = attrgetter("codes")


class ExtractionContext:
    """Matrix + parameters that ``extract_patterns`` decodes against."""

    def __init__(self, matrix: ClusterMatrix, params: MiningParams):
        self.matrix = matrix
        self.params = params

    @property
    def n_times(self) -> int:
        return self.matrix.n_times


def _words(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Bitmasks as rows of ``n_words`` little-endian uint64 words."""
    n_bytes = 8 * n_words
    buf = b"".join([m.to_bytes(n_bytes, "little") for m in masks])
    return np.frombuffer(buf, dtype="<u8").reshape(len(masks), n_words)


def _mask(words: np.ndarray) -> int:
    return int.from_bytes(words.tobytes(), "little")


class _Columns:
    """The matrix's columns as decoding tables, plus the adjacency test of
    moving-cluster chains memoised per column pair: it depends on the matrix
    alone, not on the itemset asking."""

    def __init__(self, matrix: ClusterMatrix, theta: float):
        columns = matrix.columns
        self.cids = [c.cid for c in columns]
        self.index = {item_code(*cid): j for j, cid in enumerate(self.cids)}
        self.masks = [c.members.mask for c in columns]
        self.time = np.array([c.cid.time for c in columns], dtype=np.intp)
        self.n_words = max(1, -(-matrix.n_objects // 64))
        self.words = _words(self.masks, self.n_words)
        self.theta = theta
        # Pair codes prev * n_columns + cur seen so far, sorted, and whether
        # each pair's Jaccard similarity reaches theta.
        self._pairs = np.empty(0, dtype=np.int64)
        self._linked = np.empty(0, dtype=bool)

    def positions(self, codes: list[int]) -> np.ndarray:
        try:
            return np.fromiter(map(self.index.__getitem__, codes), np.intp, len(codes))
        except KeyError as e:
            raise UniverseError(f"itemset references column {code_item(e.args[0])} "
                                "absent from the matrix") from None

    def linked(self, prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
        """Whether Jaccard(prev[i], cur[i]) >= theta, for column index arrays."""
        n = len(self.masks)
        pair = prev.astype(np.int64) * n + cur
        at = np.searchsorted(self._pairs, pair)
        known = np.zeros(len(pair), dtype=bool)
        if len(self._pairs):
            known = self._pairs[np.minimum(at, len(self._pairs) - 1)] == pair
        if not known.all():
            new = np.unique(pair[~known])
            linked = []
            for p in new.tolist():
                x, y = (self.masks[j] for j in divmod(p, n))
                linked.append((x & y).bit_count() / (x | y).bit_count() >= self.theta)
            pairs = np.concatenate([self._pairs, new])
            order = np.argsort(pairs, kind="stable")
            self._pairs = pairs[order]
            self._linked = np.concatenate([self._linked, linked])[order]
            at = np.searchsorted(self._pairs, pair)
        return self._linked[at]


def _decode_chunk(fcis: list[FCI], cols: _Columns, ctx: ExtractionContext,
                  patterns: list[Pattern], movers: dict[bytes, MovingCluster]) -> None:
    """Append one chunk's swarms, convoys and group patterns to ``patterns``
    and its moving clusters to ``movers``, keyed by their column sequence."""
    params = ctx.params
    code_lists = list(map(_codes, fcis))
    codes = list(chain.from_iterable(code_lists))
    col = cols.positions(codes)
    t = cols.time[col]
    sizes = np.fromiter(map(len, code_lists), np.intp, len(fcis))
    offset = np.zeros(len(fcis) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offset[1:])
    owner = np.repeat(np.arange(len(fcis)), sizes)
    starts_fci = np.zeros(len(codes), dtype=bool)
    starts_fci[offset[:-1]] = True

    # Every object of an itemset must be in all its columns.  A mined one
    # always is; a hand-edited store row need not be, and would decode into
    # patterns the data does not hold.
    words = cols.words[col]
    fci_words = _words([f.mask for f in fcis], cols.n_words)
    shared = np.bitwise_and.reduceat(words, offset[:-1], axis=0)
    outside = (fci_words & ~shared).any(axis=1)
    if outside.any():
        f = fcis[int(outside.argmax())]
        raise UniverseError(
            f"itemset {f.items} holds objects that are not in all its columns")

    # Swarms: the distinct item times.  Only a hand-made itemset can hold two
    # items at one time.
    repeated = ~starts_fci
    repeated[1:] &= t[1:] == t[:-1]
    repeated[0] = False
    n_repeated = np.bincount(owner[repeated], minlength=len(fcis))
    swarm = PeriodicPattern if ctx.matrix.kind == "periodic" else ClosedSwarm
    times = t.tolist()
    for fci, a, b, n_times, repeats in zip(
            fcis, offset[:-1].tolist(), offset[1:].tolist(),
            (sizes - n_repeated).tolist(), n_repeated.tolist()):
        if n_times >= params.min_t:
            patterns.append(swarm(fci.tidset, tuple(
                dict.fromkeys(times[a:b]) if repeats else times[a:b])))
    if swarm is PeriodicPattern:
        return

    # Consecutive runs, and the guarded ones among them: convoys.
    breaks = starts_fci.copy()
    breaks[1:] |= t[1:] != t[:-1] + 1
    run_start = np.flatnonzero(breaks)
    run_len = np.diff(run_start, append=len(codes))
    run_owner = owner[run_start]
    guarded = (run_len >= params.min_t) & (
        np.bitwise_and.reduceat(words, run_start, axis=0)
        == fci_words[run_owner]).all(axis=1)
    segments: dict[int, list[tuple[int, int]]] = {}
    first = t[run_start[guarded]].tolist()
    last = t[run_start[guarded] + run_len[guarded] - 1].tolist()
    for f, a, b in zip(run_owner[guarded].tolist(), first, last):
        patterns.append(Convoy(fcis[f].tidset, a, b))
        segments.setdefault(f, []).append((a, b))

    # Group patterns: at least min_c guarded runs covering min_wei of the span.
    for f, segs in segments.items():
        if len(segs) >= params.min_c:
            weight = sum(b - a + 1 for a, b in segs) / ctx.n_times
            if weight >= params.min_wei:
                patterns.append(GroupPattern(fcis[f].tidset, tuple(segs), weight))

    # Moving clusters: runs cut where adjacent columns overlap below theta.
    inside = np.flatnonzero(~breaks)
    chain_breaks = breaks.copy()
    chain_breaks[inside] = ~cols.linked(col[inside - 1], col[inside])
    chain_start = np.flatnonzero(chain_breaks)
    chain_len = np.diff(chain_start, append=len(codes))
    kept = chain_len >= max(2, params.min_t)
    cores = np.bitwise_and.reduceat(words, chain_start, axis=0)[kept]
    # A chain is its column sequence (the core follows from it), so equal
    # chains of different itemsets are recognised by their bytes in ``col``.
    col_bytes = col.tobytes()
    step = col.itemsize
    for k, (s, n) in enumerate(zip(chain_start[kept].tolist(),
                                   chain_len[kept].tolist())):
        key = col_bytes[s * step:(s + n) * step]
        if key not in movers:
            movers[key] = MovingCluster(
                tuple(map(cols.cids.__getitem__, col[s:s + n].tolist())),
                Tidset(_mask(cores[k])))


def extract_patterns(fcis: Iterable[FCI], ctx: ExtractionContext) -> list[Pattern]:
    """Decode a set of closed itemsets into every pattern kind the matrix
    supports, deduplicated and canonically ordered.

    Each itemset spanning at least min_t time units is a swarm: a periodic
    pattern on a periodic matrix, which yields nothing else, and a closed
    swarm otherwise.  Per-timestamp matrices add a convoy per guarded run,
    the moving clusters of the runs and the group pattern of the guarded
    runs.  An item that is not a column of the matrix raises UniverseError.
    """
    cols = _Columns(ctx.matrix, ctx.params.theta)
    patterns: list[Pattern] = []
    movers: dict[bytes, MovingCluster] = {}
    it = iter(fcis)
    while chunk := list(islice(it, _CHUNK_FCIS)):
        _decode_chunk(chunk, cols, ctx, patterns, movers)
    patterns.extend(movers.values())
    return canonical_sort(patterns)
