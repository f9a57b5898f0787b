"""Merging the closed itemsets of two column-disjoint sides.

Two matrices that share no column can be mined apart and merged exactly: the
closed itemsets of the combined matrix are fully determined by the two sides'
own closed itemsets.  The same merge folds newly appended timestamps into a
stored result and joins the per-block results of incremental and nested
mining.

``combine_fcis`` computes the merge in closed form.  With each side walked
in a stable sort by support, and ``o`` and ``n`` itemsets of the existing
and the incoming side:

- the combined tidsets are the distinct pairwise intersections ``o ∩ n``
  with support >= epsilon;
- a combined itemset's items are, on each side, those of the itemset of
  least support among the pairs that produce its tidset: the first pair in
  (``n``, ``o``) walk order.  That itemset is the side's closure of the
  tidset, so ties in support cannot change it;
- a side's itemset survives exactly when its own tidset is not produced.

The tidsets are rows of uint64 words, and the pairs are intersected and
counted a tile of at most ``_TILE_WORDS`` words at a time, so a merge holds
under 1 MiB of pair arrays however large its sides.  Each tile keeps its
pairs of support >= epsilon, and the tidsets they produce, each with its
first pair, are kept across tiles.

The counters describe a support-ascending double loop over the sides that
stops a row of ``n`` at the first ``o`` that contains it and skips an ``o``
once an ``n`` contains it; the loop is not run, its counts are derived:

- ``dead_at(o)`` is the first ``n`` in walk order that contains ``o``, where
  ``o``'s support is >= epsilon;
- ``stop(n)`` is the first ``o`` in walk order that contains ``n``, where
  ``n``'s support is >= epsilon;
- ``pairs`` is the sum over ``n`` of the ``o`` up to ``stop(n)`` (or all of
  them) whose ``dead_at`` is not before ``n``;
- ``absorbed_existing`` counts the ``o`` with a ``dead_at``;
  ``absorbed_incoming`` and ``stops`` both count the ``n`` with a ``stop``;
- ``new`` counts the distinct tidsets produced.

The merge itself (``_merge``) takes each side's tidsets as one ``(rows,
W)`` word array and returns indices: the surviving rows of each side, and
the pairs (existing row, incoming row) whose unions are new.
``combine_fcis`` packs two FCI lists into words and builds its FCIs from
those indices.  A combined FCI is lazy: it keeps the itemsets it joins
and builds its codes from theirs on first read, so the merge builds no
item codes.

An append merges the rows of a store (``comove.store``) without building
an FCI for any of them.  The existing side is then the store's rows, which
carry their tidsets as words and hold items of the store's times only.
If every incoming item lies after those, the sides share no column without
any further check, and the result is a ``_Merge``: the indices above, from
which the store writer copies each kept row's line and places each union
by its stored row.  Reading the ``_Merge`` builds the FCIs, in the order
``combine_fcis`` returns them for FCI lists.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter

import numpy as np

from .model import FCI, CoMoveError, check_epsilon, code_item, item_code, packed_fci
from .patterns import _bits, _popcount, _words

__all__ = ["combine_fcis", "shift_times"]

# uint64 words of pair intersections per tile: 512 KiB, with the tile's
# popcounts and pair indices under 1 MiB in all.
_TILE_WORDS = 1 << 16

_codes = attrgetter("codes")


class _Union(FCI):
    """A combined itemset: its tidset mask and the two itemsets it joins,
    ``head`` before ``tail`` in code order when ``apart``, else interleaved
    with it.  Its codes are built from theirs on first read, which then lets
    both go.  (A property, as in the store's ``_StoredFCI``.)"""

    __slots__ = ("head", "tail", "apart", "_codes")

    @property
    def codes(self) -> tuple[int, ...]:
        codes = self._codes
        if codes is None:
            codes = self.head.codes + self.tail.codes
            self._codes = codes = codes if self.apart else tuple(sorted(codes))
            self.head = self.tail = None
        return codes

    def bounds(self) -> tuple[int, int]:
        if self._codes is not None:
            return self._codes[0], self._codes[-1]
        (a, b), (c, d) = self.head.bounds(), self.tail.bounds()
        return (a, d) if self.apart else (min(a, c), max(b, d))


def _union(mask: int, head: FCI, tail: FCI, apart: bool) -> _Union:
    f = object.__new__(_Union)
    f.mask, f.head, f.tail, f.apart = mask, head, tail, apart
    f._codes = f._items = f._tidset = None
    return f


def shift_times(fcis: list[FCI], offset: int) -> list[FCI]:
    """Move every item's time index by offset (re-basing itemsets mined on a
    local time axis onto a combined one)."""
    shift = item_code(offset, 0)  # adds offset to the time of every code
    return [packed_fci(f.mask, tuple([c + shift for c in f.codes]))
            for f in fcis]


def _distinct_codes(fcis: list[FCI]) -> np.ndarray:
    return np.unique(np.fromiter(chain.from_iterable(map(_codes, fcis)), np.int64))


def _check_disjoint_columns(existing: list[FCI], incoming: list[FCI]) -> int:
    """Raise unless the sides share no column.  Return 1 when every existing
    code precedes every incoming one, -1 when every incoming code precedes
    every existing one, 0 when the code ranges interleave."""
    if not existing or not incoming:
        return 0

    def span(fcis):
        firsts, lasts = zip(*[f.bounds() for f in fcis])
        return min(firsts), max(lasts)

    # Sides whose code ranges do not overlap, as in every append and block
    # merge, share no column; only interleaved sides need their codes.
    (lo_a, hi_a), (lo_b, hi_b) = span(existing), span(incoming)
    if hi_a < lo_b or hi_b < lo_a:
        return 1 if hi_a < lo_b else -1
    shared = np.intersect1d(_distinct_codes(existing), _distinct_codes(incoming),
                            assume_unique=True)
    if len(shared):
        raise CoMoveError(
            f"both sides use column {code_item(int(shared[0]))}; combined "
            "itemsets need sides that share no column")
    return 0


def _first_per_pair_tidset(words: list[np.ndarray], key: np.ndarray):
    """The distinct tidsets of pairs, given as one array per word, each with
    its pair of least ``key``: (its words, one array per word; its key)."""
    order = np.lexsort([key, *words])
    key = key[order]
    words = [wk[order] for wk in words]
    head = np.zeros(len(key), bool)
    head[0] = True
    for wk in words:
        head[1:] |= wk[1:] != wk[:-1]
    return [wk[head] for wk in words], key[head]


def _joined(found):
    """``_first_per_pair_tidset`` of the concatenated pieces ``found``."""
    words, keys = zip(*found)
    return _first_per_pair_tidset(list(map(np.concatenate, zip(*words))),
                                  np.concatenate(keys))


def _pair_tiles(a: np.ndarray, b: np.ndarray, sup_a, sup_b, epsilon: int):
    """Intersect every tidset of ``b`` with every tidset of ``a``, given as
    ``(W, rows)`` word arrays, a tile at a time.  Return the keys
    ``n * len(a) + o`` of the first pair producing each distinct tidset of
    support >= epsilon, in key order, and ``dead_at`` and ``stop``
    (``len(b)`` and ``len(a)`` where there is none)."""
    w, na = a.shape
    nb = b.shape[1]
    ca = max(1, min(na, _TILE_WORDS // w))
    cb = max(1, _TILE_WORDS // (ca * w))
    dead = np.full(na, nb, np.int64)
    stop = np.full(nb, na, np.int64)
    found = []  # (words, keys) of the tidsets each tile produced
    held = bound = 0
    for b0 in range(0, nb, cb):
        for a0 in range(0, na, ca):
            # one (b rows, a rows) array per word: a long inner axis is fast
            g = [(bk[b0:b0 + cb, None] & ak[None, a0:a0 + ca]).ravel()
                 for ak, bk in zip(a, b)]
            support = _bits(g[0]).astype(np.int64)
            for gk in g[1:]:
                support += _bits(gk)
            keep = np.flatnonzero(support >= epsilon)
            if not len(keep):
                continue
            n, o = np.divmod(keep, min(ca, na - a0))
            n += b0
            o += a0
            support = support[keep]
            # Pairs run n-major within a tile: the first pair of an o is its
            # least n, the first pair of an n its least o.
            inside = np.flatnonzero(support == sup_a[o])  # o inside n
            first_o, at_o = np.unique(o[inside], return_index=True)
            dead[first_o] = np.minimum(dead[first_o], n[inside[at_o]])
            inside = np.flatnonzero(support == sup_b[n])  # n inside o
            first_n, at_n = np.unique(n[inside], return_index=True)
            stop[first_n] = np.minimum(stop[first_n], o[inside[at_n]])
            found.append(_first_per_pair_tidset([gk[keep] for gk in g], n * na + o))
            held += len(found[-1][1])
            if held > 2 * bound + (1 << 12):  # keep what is held near the distinct
                found = [_joined(found)]
                held = bound = len(found[0][1])
    if not found:
        return np.zeros(0, np.int64), dead, stop
    return np.sort(_joined(found)[1]), dead, stop


def _pairs(dead: np.ndarray, stop: np.ndarray) -> int:
    """The pairs the double loop visits: for each n, the o up to ``stop(n)``
    (all of them without one) that no earlier n contains."""
    na, nb = len(dead), len(stop)
    last = np.minimum(stop, na - 1)
    total = int(last.sum()) + nb
    gone = np.flatnonzero(dead < nb)  # the o some n contains
    step = max(1, (1 << 20) // max(1, len(gone)))
    for n0 in range(0, nb, step):
        rows = np.arange(n0, min(nb, n0 + step))
        total -= int(((gone[None] <= last[rows, None])
                      & (dead[gone][None] < rows[:, None])).sum())
    return total


def _merge(a: np.ndarray, b: np.ndarray, epsilon: int, counters: dict | None):
    """The merge of sides with tidsets ``a`` and ``b``, ``(rows, W)`` word
    arrays, each walked in a stable sort by support: the rows of ``a`` and
    of ``b`` that survive, each in walk order, and the (``a`` rows, ``b``
    rows) of the pairs whose unions are new, in order of first pair.
    ``counters``, when given, receives the five counters."""
    na, nb = len(a), len(b)
    sup_a, sup_b = _popcount(a), _popcount(b)
    walk_a, walk_b = np.argsort(sup_a, kind="stable"), np.argsort(sup_b, kind="stable")
    keys, dead, stop = _pair_tiles(np.ascontiguousarray(a[walk_a].T),
                                   np.ascontiguousarray(b[walk_b].T),
                                   sup_a[walk_a], sup_b[walk_b], epsilon)
    n, o = np.divmod(keys, max(1, na))
    if counters is not None:
        absorbed = int((stop < na).sum())
        counters.update(pairs=_pairs(dead, stop), new=len(keys),
                        absorbed_existing=int((dead < nb).sum()),
                        absorbed_incoming=absorbed, stops=absorbed)
    return walk_a[dead == nb], walk_b[stop == na], (walk_a[o], walk_b[n])


class _Merge:
    """``_merge``'s result on ``existing`` and ``incoming``: ``old`` and
    ``new`` their surviving rows, ``pairs`` the rows of each union.
    ``order`` is ``_check_disjoint_columns``' answer, ``words`` the incoming
    tidsets.  Iterating it builds the FCIs ``combine_fcis`` returns."""

    __slots__ = ("existing", "incoming", "old", "new", "pairs", "order", "words")

    def __init__(self, existing, incoming, old, new, pairs, order, words):
        self.existing, self.incoming, self.old, self.new = existing, incoming, old, new
        self.pairs, self.order, self.words = pairs, order, words

    def __len__(self) -> int:
        return len(self.old) + len(self.new) + len(self.pairs[0])

    def __iter__(self):
        existing, incoming, order = self.existing, self.incoming, self.order
        yield from map(existing.__getitem__, self.old.tolist())
        yield from map(incoming.__getitem__, self.new.tolist())
        for o, n in zip(*map(np.ndarray.tolist, self.pairs)):
            o, n = existing[o], incoming[n]
            yield (_union(o.mask & n.mask, n, o, True) if order < 0 else
                   _union(o.mask & n.mask, o, n, order > 0))


def combine_fcis(existing: list[FCI], incoming: list[FCI], epsilon: int, *,
                 counters: dict | None = None) -> list[FCI]:
    """Closed itemsets of the combined matrix from the two sides' own.

    ``existing`` and ``incoming`` must be mined from matrices that share no
    column; their columns may interleave in time.  The result equals mining
    the combined matrix directly, as a set: the list holds the surviving
    existing itemsets, then the surviving incoming ones, each side in order
    of support, then the combined itemsets in order of their first pair
    (see the module docstring).  Sort it by ``codes`` where order matters.
    ``counters``, when given, receives pairs, new, absorbed_existing,
    absorbed_incoming and stops, which follow the order the sides are walked
    in: (support, codes) for sides given in code order.

    ``existing`` may also be a store's rows as ``comove.store``'s
    ``read_fci_table`` reads them.  When every incoming item lies after the
    store's times and every incoming tidset fits its words, the result is a
    ``_Merge``: the same itemsets in the same order, as rows, built when it
    is iterated.
    """
    check_epsilon(epsilon)
    incoming = list(incoming)
    rows = getattr(existing, "words", None)  # a store's rows (see above)
    if rows is not None and all(f.codes[0] >= existing.end
                                and f.mask.bit_length() <= 64 * rows.shape[1]
                                for f in incoming):
        words = _words([f.mask for f in incoming], rows.shape[1])
        return _Merge(existing, incoming, *_merge(rows, words, epsilon, counters), 1,
                      words)
    existing = list(existing)
    order = _check_disjoint_columns(existing, incoming)
    masks = [f.mask for f in existing] + [f.mask for f in incoming]
    words = _words(masks, max(1, -(-max(map(int.bit_length, masks), default=0) // 64)))
    na = len(existing)
    return list(_Merge(existing, incoming, *_merge(words[:na], words[na:], epsilon,
                                                   counters), order, None))
