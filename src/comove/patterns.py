"""Decoding mined closed itemsets into co-movement patterns.

``extract_patterns`` is the one decoder: it reads each itemset once and
yields every pattern kind the matrix supports, which callers filter by
``kind``.  It decodes against the matrix the itemsets were mined from
(pattern shape depends on the full column tidsets, not just the itemset) and
the shape thresholds of :class:`MiningParams`; support was fixed when the
itemsets were mined.

Itemsets are decoded a chunk at a time as whole arrays, from their packed
fields: every item code becomes a column index by binary search, item times
are the codes' high bits, and column tidsets become rows of uint64 words.
An itemset whose tidset is not inside the AND of its columns' words (one
``np.bitwise_and.reduceat``) is refused before anything is decoded.
Consecutive runs are breaks in the item times; a run is guarded when the AND
of its columns' words equals the itemset's tidset; moving-cluster chains
break where the Jaccard similarity of two adjacent columns falls below theta,
and their cores are another ``reduceat``.  A chunk takes each distinct
adjacent pair's similarity once, from byte-table popcounts of the AND and OR
of the pair's words, so nothing but the output is kept between chunks.
Pattern objects are built only for what is emitted, and ClusterIds only
for the moving-cluster chains, from the matrix's own columns.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .model import (
    _ITEM_BITS,
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

__all__ = ["extract_patterns"]

# Itemsets decoded per step: bounds the arrays a decode holds at once.
_CHUNK_FCIS = 256

_codes = attrgetter("codes")


def _words(masks: Sequence[int], n_words: int) -> np.ndarray:
    """Bitmasks as rows of ``n_words`` little-endian uint64 words."""
    n_bytes = 8 * n_words
    buf = b"".join([m.to_bytes(n_bytes, "little") for m in masks])
    return np.frombuffer(buf, dtype="<u8").reshape(len(masks), n_words)


def _mask(words: np.ndarray) -> int:
    return int.from_bytes(words.tobytes(), "little")


# Set bits per byte value: ``np.bitwise_count`` needs numpy 2.
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a C-contiguous ``(rows, W)`` uint64 array."""
    return _BYTE_BITS[words.view(np.uint8)].sum(axis=1, dtype=np.int64)


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
        self.n_words = max(1, -(-matrix.n_objects // 64))
        self.words = _words([c.members.mask for c in columns], self.n_words)

    def positions(self, codes: np.ndarray) -> np.ndarray:
        at = np.searchsorted(self.codes, codes)
        absent = np.searchsorted(self.codes, codes, "right") == at
        if absent.any():
            raise UniverseError(f"itemset references column "
                                f"{code_item(int(codes[absent.argmax()]))} absent "
                                "from the matrix")
        return at


def _decode_chunk(fcis: list[FCI], cols: _Columns, matrix: ClusterMatrix,
                  params: MiningParams, patterns: list[Pattern],
                  movers: dict[bytes, MovingCluster]) -> None:
    """Append one chunk's swarms, convoys and group patterns to ``patterns``
    and its moving clusters to ``movers``, keyed by their column sequence."""
    code_lists = list(map(_codes, fcis))
    sizes = np.fromiter(map(len, code_lists), np.intp, len(fcis))
    codes = np.fromiter(chain.from_iterable(code_lists), np.int64, sizes.sum())
    col = cols.positions(codes)
    t = codes >> _ITEM_BITS
    offset = np.zeros(len(fcis) + 1, dtype=np.intp)
    np.cumsum(sizes, out=offset[1:])
    owner = np.repeat(np.arange(len(fcis)), sizes)
    starts_fci = np.zeros(len(codes), dtype=bool)
    starts_fci[offset[:-1]] = True

    # Every object of an itemset must be in all its columns.  A mined one
    # always is; a hand-edited store row need not be, and would decode into
    # patterns the data does not hold.
    words = cols.words[col]
    masks = [f.mask for f in fcis]
    shared = np.bitwise_and.reduceat(words, offset[:-1], axis=0)
    try:
        fci_words = _words(masks, cols.n_words)
        outside = (fci_words & ~shared).any(axis=1)
    except OverflowError:  # an object past the last word is in no column
        outside = np.array([m.bit_length() > 64 * cols.n_words for m in masks])
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
    swarm = PeriodicPattern if matrix.kind == "periodic" else ClosedSwarm
    times = list(map(cols.time_ints.__getitem__, t.tolist()))
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
            weight = sum(b - a + 1 for a, b in segs) / matrix.n_times
            if weight >= params.min_wei:
                patterns.append(GroupPattern(fcis[f].tidset, tuple(segs), weight))

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


def extract_patterns(fcis: Iterable[FCI], matrix: ClusterMatrix,
                     params: MiningParams) -> list[Pattern]:
    """Decode a set of closed itemsets into every pattern kind the matrix
    supports, deduplicated and canonically ordered.

    Each itemset spanning at least min_t time units is a swarm: a periodic
    pattern on a periodic matrix, which yields nothing else, and a closed
    swarm otherwise.  Per-timestamp matrices add a convoy per guarded run,
    the moving clusters of the runs and the group pattern of the guarded
    runs.  An item that is not a column of the matrix raises UniverseError,
    and so does an itemset holding an object that is not in all its columns.
    """
    cols = _Columns(matrix)
    patterns: list[Pattern] = []
    movers: dict[bytes, MovingCluster] = {}
    it = iter(fcis)
    while chunk := list(islice(it, _CHUNK_FCIS)):
        _decode_chunk(chunk, cols, matrix, params, patterns, movers)
    patterns.extend(movers.values())
    return canonical_sort(patterns)
