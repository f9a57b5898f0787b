"""Decoding mined closed itemsets into co-movement patterns.

``extract_patterns`` is the one decoder: it reads each itemset once and
yields every pattern kind the matrix supports, which callers filter by
``kind``.  It decodes against the matrix the itemsets were mined from
(pattern shape depends on the full column tidsets, not just the itemset) and
the shape thresholds of :class:`MiningParams`; support was fixed when the
itemsets were mined.

Itemsets are read as a table (``FciTable``), a chunk of rows at a time, as
whole arrays: each row's runs are spelled out into item codes with one
``np.repeat``, every item code becomes a column index by binary search, item
times are the codes' high bits, and column tidsets become rows of uint64
words.  An itemset whose tidset is not inside the AND of its columns' words
(one ``np.bitwise_and.reduceat``) is refused before anything is decoded.
A swarm's times are its distinct item times, held as segments of
consecutive times; convoy runs are breaks in the item times, guarded when
the AND of their columns' words equals the itemset's tidset; moving-cluster
chains break where the Jaccard similarity of two adjacent columns falls
below theta, and their cores are another ``reduceat``.  A chunk takes each
distinct adjacent pair's similarity once, from popcounts of the AND and OR
of the pair's words.

The decoder's output is one table (``PatternTable``): for each pattern its
kind, its tidset (an index into the distinct tidsets), its time segments,
its chain of columns (moving clusters only) and its weight.  Canonical order
comes from one rank per distinct tidset, whose ids are computed once, and
each kind's small secondary key; patterns that tie on those are ordered by
their full key.  ``write_patterns_csv`` formats rows straight from the
table; Pattern objects are built only when the table is read as a sequence.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .model import (
    _ITEM_BITS,
    FCI,
    ClosedSwarm,
    ClusterMatrix,
    Convoy,
    FciTable,
    GroupPattern,
    MiningParams,
    MovingCluster,
    Pattern,
    PeriodicPattern,
    Tidset,
    UniverseError,
    _fit_words,
    _n_words,
    _popcount,
    _run_items,
    _spans,
    _starts,
    _words,
    canonical_sort,
    code_item,
    item_code,
)

__all__ = ["extract_patterns", "PatternTable"]

# Itemsets decoded per step: bounds the arrays a decode holds at once.
_CHUNK_FCIS = 256

# Pattern kinds by name, which is their canonical order.
_KINDS = ("closed_swarm", "convoy", "group_pattern", "moving_cluster", "periodic_pattern")
_SWARM, _CONVOY, _GROUP, _MOVER, _PERIODIC = range(len(_KINDS))
_LISTED = (_SWARM, _PERIODIC)  # kinds whose times field lists every time


class _Columns:
    """The matrix's columns in cid order as decoding tables: their item codes,
    ClusterIds and tidsets as rows of uint64 words, and one shared int per
    time index for the swarms' time tuples."""

    def __init__(self, matrix: ClusterMatrix):
        # ClusterMatrix.build sorts its columns, ClusterMatrix(...) need not
        columns = sorted(matrix.columns, key=lambda c: c.cid)
        self.cids = [c.cid for c in columns]
        self.codes = np.array([item_code(*cid) for cid in self.cids], np.int64)
        self.time_ints = list(range(matrix.n_times))
        self.n_words = _n_words(matrix.n_objects)
        self.words = _words([c.members.mask for c in columns], self.n_words)

    def positions(self, codes: np.ndarray) -> np.ndarray:
        at = np.searchsorted(self.codes, codes)
        absent = np.searchsorted(self.codes, codes, "right") == at
        if absent.any():
            raise UniverseError(f"itemset references column "
                                f"{code_item(int(codes[absent.argmax()]))} absent "
                                "from the matrix")
        return at


class PatternTable(Sequence):
    """Decoded patterns in canonical order, as one table, and a sequence of
    Pattern objects built on first read.

    Pattern ``i`` is of kind ``_KINDS[kind[i]]`` with the objects of
    distinct tidset ``tid[i]``, whose ids are ``ids[tid[i]]``; its time
    segments ``(a, b)``, inclusive time indices, are ``seg_a`` and ``seg_b``
    at ``seg_start[i]:seg_start[i + 1]``; a moving cluster's chain is the
    column indices (into ``cids``) ``chain[chain_start[i]:chain_start[i +
    1]]``; ``weight[i]`` is its weight.  A swarm's segments are its times'
    runs of consecutive ones, a convoy's and a moving cluster's its span,
    a group pattern's its segments."""

    def __init__(self, kind, tid, ids, seg_start, seg_a, seg_b, chain_start, chain,
                 weight, cids, time_ints, patterns=None):
        self.kind, self.tid, self.ids = kind, tid, ids
        self.seg_start, self.seg_a, self.seg_b = seg_start, seg_a, seg_b
        self.chain_start, self.chain, self.weight = chain_start, chain, weight
        self.cids, self.time_ints, self._patterns = cids, time_ints, patterns

    @classmethod
    def of(cls, patterns: Iterable[Pattern], matrix: ClusterMatrix) -> "PatternTable":
        """The table of ``patterns``, which it puts in canonical order.  Its
        moving clusters' chains are not kept: reading it gives ``patterns``."""
        patterns = canonical_sort(patterns)
        distinct: dict[int, int] = {}
        ids, kind, tid, segs, weight = [], [], [], [], []
        n_times = matrix.n_times
        for p in patterns:
            d = distinct.setdefault(p.objects.mask, len(distinct))
            if d == len(ids):
                ids.append(p.objects.ids)
            k = _KINDS.index(p.kind)
            if k in _LISTED:  # its times' runs of consecutive ones
                s = []
                for t in p.times:
                    if s and t == s[-1][1] + 1:
                        s[-1] = (s[-1][0], t)
                    else:
                        s.append((t, t))
                w = len(p.times) / n_times
            elif k == _GROUP:
                s, w = list(p.segments), p.weight
            else:
                s = [(p.start, p.end)]
                w = (p.end - p.start + 1) / n_times
            kind.append(k)
            tid.append(d)
            segs.append(s)
            weight.append(w)
        flat = list(chain.from_iterable(segs))
        a, b = (np.array(x, np.int64) for x in (zip(*flat) if flat else ((), ())))
        empty = np.zeros(len(patterns) + 1, np.int64)
        return cls(np.array(kind, np.int64), np.array(tid, np.intp), ids,
                   _starts(np.fromiter(map(len, segs), np.int64, len(segs))), a, b,
                   empty, np.zeros(0, np.intp), np.array(weight, np.float64),
                   None, None, patterns)

    def __len__(self) -> int:
        return len(self.kind)

    def kinds(self) -> dict[str, int]:
        """The number of patterns of each kind present, by kind name."""
        counts = np.bincount(self.kind, minlength=len(_KINDS)).tolist()
        return {k: n for k, n in zip(_KINDS, counts) if n}

    def patterns(self) -> list[Pattern]:
        if self._patterns is None:
            self._patterns = self._build()
        return self._patterns

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.patterns())

    def __getitem__(self, i):
        return self.patterns()[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PatternTable, list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __add__(self, other) -> list[Pattern]:
        return list(self) + list(other)

    def __radd__(self, other) -> list[Pattern]:
        return list(other) + list(self)

    def __repr__(self) -> str:
        return f"PatternTable({self.patterns()!r})"

    def _build(self) -> list[Pattern]:
        tidsets = list(map(Tidset.from_ids, self.ids))
        time_ints, cids = self.time_ints, self.cids
        seg = list(zip(self.seg_a.tolist(), self.seg_b.tolist()))
        bounds, links = self.seg_start.tolist(), self.chain_start.tolist()
        chain_cols = self.chain.tolist()
        out: list[Pattern] = []
        for i, (k, d, w) in enumerate(zip(self.kind.tolist(), self.tid.tolist(),
                                          self.weight.tolist())):
            objects, segs = tidsets[d], seg[bounds[i]:bounds[i + 1]]
            if k in _LISTED:
                times = tuple(chain.from_iterable(time_ints[a:b + 1] for a, b in segs))
                out.append((ClosedSwarm if k == _SWARM else PeriodicPattern)(objects, times))
            elif k == _CONVOY:
                out.append(Convoy(objects, *segs[0]))
            elif k == _GROUP:
                out.append(GroupPattern(objects, tuple(segs), w))
            else:
                out.append(MovingCluster(tuple(map(
                    cids.__getitem__, chain_cols[links[i]:links[i + 1]])), objects))
        return out


class _Parts:
    """The patterns a decode has found so far, chunk by chunk: per pattern
    its kind, tidset row (into the ``n_rows`` itemsets' words, then the
    cores'), first and second sort keys, segment count, weight and chain
    length; the segments, chains and cores themselves; and the column
    sequences of the moving clusters, as bytes."""

    def __init__(self, n_rows: int):
        self.n_rows, self.n_cores, self.movers = n_rows, 0, set()
        self.kind, self.tid, self.key1, self.key2 = [], [], [], []
        self.n_segs, self.weight, self.n_chain = [], [], []
        self.seg_a, self.seg_b, self.chain, self.cores = [], [], [], []

    def add(self, kind, tid, key1, key2, n_segs, weight, seg_a, seg_b,
            n_chain=None, chain=None):
        n = len(tid)
        self.kind.append(np.full(n, kind, np.int64))
        self.tid.append(tid)
        self.key1.append(key1)
        self.key2.append(key2)
        self.n_segs.append(n_segs)
        self.weight.append(weight)
        self.seg_a.append(seg_a)
        self.seg_b.append(seg_b)
        self.n_chain.append(np.zeros(n, np.int64) if n_chain is None else n_chain)
        if chain is not None:
            self.chain.append(chain)


def _decode_chunk(table: FciTable, r0: int, r1: int, fci_words: np.ndarray,
                  cols: _Columns, matrix: ClusterMatrix, params: MiningParams,
                  parts: _Parts) -> None:
    """Add the patterns of rows ``r0:r1`` of ``table``, whose tidsets are
    ``fci_words`` at the matrix's word width, to ``parts``; a moving cluster
    whose column sequence ``parts`` already holds is left out."""
    n_times = matrix.n_times
    a, b = table.row_start[r0], table.row_start[r1]
    first, last = table.first[a:b], table.last[a:b]
    codes = _run_items(first, last)
    offset = _starts(((last - first) >> _ITEM_BITS) + 1)[table.row_start[r0:r1 + 1] - a]
    col = cols.positions(codes)
    t = codes >> _ITEM_BITS
    owner = np.repeat(np.arange(r0, r1), offset[1:] - offset[:-1])
    starts_fci = np.zeros(len(codes), dtype=bool)
    starts_fci[offset[:-1]] = True

    # Every object of an itemset must be in all its columns.  A mined one
    # always is; a hand-edited store row need not be, and would decode into
    # patterns the data does not hold.
    words = cols.words[col]
    shared = np.bitwise_and.reduceat(words, offset[:-1], axis=0)
    own = fci_words[r0:r1]
    outside = (own & ~shared).any(axis=1) | table.words[r0:r1, cols.n_words:].any(axis=1)
    if outside.any():
        f = table[r0 + int(outside.argmax())]
        raise UniverseError(
            f"itemset {f.items} holds objects that are not in all its columns")

    # Swarms: the distinct item times, as segments of consecutive ones.  Only
    # a hand-made itemset can hold two items at one time.
    distinct = starts_fci.copy()
    distinct[1:] |= t[1:] != t[:-1]
    td, new_row = t[distinct], starts_fci[distinct]
    heads = new_row.copy()
    heads[1:] |= td[1:] != td[:-1] + 1
    head_at = np.flatnonzero(heads)
    seg_owner = owner[distinct][head_at]
    seg_a = td[head_at]
    seg_b = td[np.append(head_at[1:], len(td)) - 1]
    count = np.bincount(owner[distinct] - r0, minlength=r1 - r0)
    kept = np.flatnonzero(count >= params.min_t)
    segs = np.bincount(seg_owner - r0, minlength=r1 - r0)
    keep_seg = (count >= params.min_t)[seg_owner - r0]
    swarm = _PERIODIC if matrix.kind == "periodic" else _SWARM
    firsts = seg_a[np.searchsorted(seg_owner, kept + r0)]
    parts.add(swarm, kept + r0, firsts, np.zeros(len(kept), np.int64), segs[kept],
              count[kept] / n_times, seg_a[keep_seg], seg_b[keep_seg])
    if swarm == _PERIODIC:
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
    g_owner, g_len = run_owner[guarded], run_len[guarded]
    g_a = t[run_start[guarded]]
    g_b = g_a + g_len - 1
    ones = np.ones(len(g_a), np.int64)
    parts.add(_CONVOY, g_owner, g_a, g_b, ones, g_len / n_times, g_a, g_b)

    # Group patterns: at least min_c guarded runs covering min_wei of the span.
    n_guarded = np.bincount(g_owner - r0, minlength=r1 - r0)
    covered = np.bincount(g_owner - r0, weights=g_len, minlength=r1 - r0)
    weight = covered.astype(np.int64) / n_times
    group = np.flatnonzero((n_guarded >= params.min_c) & (n_guarded > 0)
                           & (weight >= params.min_wei))
    in_group = np.isin(g_owner, group + r0)
    at = np.searchsorted(g_owner, group + r0)
    parts.add(_GROUP, group + r0, g_a[at], g_b[at], n_guarded[group], weight[group],
              g_a[in_group], g_b[in_group])

    # Moving clusters: runs cut where adjacent columns overlap below theta.
    # Both popcounts are exact below 2**53, so the ratio is the correctly
    # rounded Jaccard similarity; no column is empty, so no union is 0.
    inside = np.flatnonzero(~breaks)
    n = len(cols.cids)
    pair, at = np.unique(col[inside - 1].astype(np.int64) * n + col[inside],
                         return_inverse=True)
    x, y = cols.words[pair // n], cols.words[pair % n]
    chain_breaks = breaks.copy()
    chain_breaks[inside] = (_popcount(x & y) / _popcount(x | y) < params.theta)[at]
    chain_start = np.flatnonzero(chain_breaks)
    chain_len = np.diff(chain_start, append=len(codes))
    long = chain_len >= max(2, params.min_t)
    # A chain is its column sequence (the core follows from it), so equal
    # chains of different itemsets are recognised by their bytes in ``col``.
    col_bytes = col.tobytes()
    step = col.itemsize
    new, movers = [], parts.movers
    for k, s, m in zip(np.flatnonzero(long).tolist(), chain_start[long].tolist(),
                       chain_len[long].tolist()):
        key = col_bytes[s * step:(s + m) * step]
        if key not in movers:
            movers.add(key)
            new.append(k)
    new = np.array(new, np.intp)
    s, m = chain_start[new], chain_len[new]
    if len(new):
        parts.cores.append(np.bitwise_and.reduceat(words, chain_start, axis=0)[new])
    core_rows = parts.n_rows + parts.n_cores + np.arange(len(new))
    parts.n_cores += len(new)
    parts.add(_MOVER, core_rows, col[s].astype(np.int64), col[s + 1].astype(np.int64),
              np.ones(len(new), np.int64), m / n_times, t[s], t[s + m - 1],
              m, col[_spans(s, m)])


def extract_patterns(fcis: Iterable[FCI] | FciTable, matrix: ClusterMatrix,
                     params: MiningParams) -> PatternTable:
    """Decode a set of closed itemsets (FCIs or a table of them) into every
    pattern kind the matrix supports, deduplicated and canonically ordered,
    as a table that builds its Pattern objects when they are read.

    Each itemset spanning at least min_t time units is a swarm: a periodic
    pattern on a periodic matrix, which yields nothing else, and a closed
    swarm otherwise.  Per-timestamp matrices add a convoy per guarded run,
    the moving clusters of the runs and the group pattern of the guarded
    runs.  An item that is not a column of the matrix raises UniverseError,
    and so does an itemset holding an object that is not in all its columns.
    """
    cols = _Columns(matrix)
    table = fcis if isinstance(fcis, FciTable) else FciTable.of(fcis)
    fci_words = _fit_words(table.words, cols.n_words)
    parts = _Parts(len(table))
    for r0 in range(0, len(table), _CHUNK_FCIS):
        _decode_chunk(table, r0, min(len(table), r0 + _CHUNK_FCIS), fci_words, cols,
                      matrix, params, parts)
    return _assemble(parts, fci_words, cols)


def _cat(arrays: list, dtype) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.zeros(0, dtype)


def _assemble(parts: _Parts, fci_words: np.ndarray, cols: _Columns) -> PatternTable:
    """The table of the patterns in ``parts``, in canonical order: by kind,
    then by the rank of their tidset's ids among the distinct tidsets, then
    by each kind's first two keys, then, among patterns that tie on all of
    those, by their full canonical key."""
    kind = _cat(parts.kind, np.int64)
    tid = _cat(parts.tid, np.int64)
    key1, key2 = _cat(parts.key1, np.int64), _cat(parts.key2, np.int64)
    n_segs, n_chain = _cat(parts.n_segs, np.int64), _cat(parts.n_chain, np.int64)
    weight = _cat(parts.weight, np.float64)
    seg_a, seg_b = _cat(parts.seg_a, np.int64), _cat(parts.seg_b, np.int64)
    chain_cols = _cat(parts.chain, np.intp)
    words = np.concatenate([fci_words] + parts.cores)

    # distinct tidsets of the patterns, each one's ids once, ranked by them
    used, inverse = np.unique(tid, return_inverse=True)
    distinct, to_distinct = np.unique(words[used], axis=0, return_inverse=True)
    tid = to_distinct.reshape(-1)[inverse.reshape(-1)]
    bits = np.unpackbits(distinct.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little")
    row, obj = np.nonzero(bits)
    bounds = np.searchsorted(row, np.arange(len(distinct) + 1)).tolist()
    obj = obj.tolist()
    ids = [tuple(obj[a:b]) for a, b in zip(bounds, bounds[1:])]
    by_ids = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), np.int64)
    rank[by_ids] = np.arange(len(ids))

    seg_start, chain_start = _starts(n_segs), _starts(n_chain)
    order = np.lexsort((key2, key1, rank[tid], kind))
    keys = np.stack([kind, rank[tid], key1, key2])[:, order]
    tie = np.zeros(len(order) + 1, bool)
    tie[1:-1] = (keys[:, 1:] == keys[:, :-1]).all(axis=0)
    if tie.any():
        order = order.tolist()
        seg_list = list(zip(seg_a.tolist(), seg_b.tolist()))
        sb, cb = seg_start.tolist(), chain_start.tolist()
        chain_list = chain_cols.tolist()

        def full_key(i):
            segs = seg_list[sb[i]:sb[i + 1]]
            if kind[i] in _LISTED:
                return tuple(chain.from_iterable(range(a, b + 1) for a, b in segs))
            return segs, chain_list[cb[i]:cb[i + 1]], weight[i]

        # each run of ties, from the pattern before its first tie
        start = np.flatnonzero(tie[1:] & ~tie[:-1]).tolist()
        end = np.flatnonzero(tie[:-1] & ~tie[1:]).tolist()
        for a, b in zip(start, end):
            order[a:b + 1] = sorted(order[a:b + 1], key=full_key)
        order = np.array(order, np.intp)

    seg_runs = _spans(seg_start[order], n_segs[order])
    chain_runs = _spans(chain_start[order], n_chain[order])
    return PatternTable(kind[order], tid[order], ids, _starts(n_segs[order]),
                        seg_a[seg_runs], seg_b[seg_runs], _starts(n_chain[order]),
                        chain_cols[chain_runs], weight[order], cols.cids, cols.time_ints)
