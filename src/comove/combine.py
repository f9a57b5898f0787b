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
the pairs (existing row, incoming row) whose unions are new.  On itemset
tables (``FciTable``), ``_merge_tables`` turns those indices into the
merged table: the surviving rows, then each union's tidset words ANDed and
its runs both rows' runs, in code order, joined where one goes on in the
other.  Sides apart in time are concatenated, the earlier first, and joined
at the junction; interleaved sides have each union's runs sorted by first
code.  The block merges call it with the order of their sides, which they
know; ``combine_fcis`` checks first that its sides share no column, packs
FCI lists into tables and returns the merged table's FCIs.

An append merges the rows of a store (``comove.store``) without building
an FCI for any of them.  The existing side is then the store's rows, which
carry their tidsets as words and hold items of the store's times only.
If every incoming item lies after those, the sides share no column without
any further check, and the result is a ``_Merge``: the indices above, from
which the store writer copies each kept row's line and places each union
by its stored row.  Reading the ``_Merge`` builds the FCIs, every stored
row's at once, in the order ``combine_fcis`` returns them for FCI lists.
"""

from __future__ import annotations

import numpy as np

from .model import (
    FCI,
    CoMoveError,
    FciTable,
    _bits,
    _fit_words,
    _joined_runs,
    _popcount,
    _run_items,
    _spans,
    _starts,
    _words,
    check_epsilon,
    code_item,
    item_code,
    packed_fci,
)

__all__ = ["combine_fcis", "shift_times"]

# uint64 words of pair intersections per tile: 512 KiB, with the tile's
# popcounts and pair indices under 1 MiB in all.
_TILE_WORDS = 1 << 16


def shift_times(fcis, offset: int):
    """Move every item's time index by offset (re-basing itemsets mined on a
    local time axis onto a combined one): a table's runs, or a list's FCIs."""
    shift = item_code(offset, 0)  # adds offset to the time of every code
    if isinstance(fcis, FciTable):
        return FciTable(fcis.words, fcis.row_start, fcis.first + shift, fcis.last + shift)
    return [packed_fci(f.mask, tuple([c + shift for c in f.codes])) for f in fcis]


def _check_disjoint_columns(existing: FciTable, incoming: FciTable) -> int:
    """Raise unless the sides share no column.  Return 1 when every existing
    code precedes every incoming one, -1 when every incoming code precedes
    every existing one, 0 when the code ranges interleave."""
    if not len(existing) or not len(incoming):
        return 0
    # Sides whose code ranges do not overlap, as in every append and block
    # merge, share no column; only interleaved sides need their codes.
    lo_a, hi_a = existing.first.min(), existing.last.max()
    lo_b, hi_b = incoming.first.min(), incoming.last.max()
    if hi_a < lo_b or hi_b < lo_a:
        return 1 if hi_a < lo_b else -1
    shared = np.intersect1d(_run_items(existing.first, existing.last),
                            _run_items(incoming.first, incoming.last))
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


def _merge_tables(a: FciTable, b: FciTable, epsilon: int, order: int,
                  counters: dict | None = None) -> FciTable:
    """The merge of tables ``a`` and ``b``, sides that share no column:
    ``order`` is 1 where every code of ``a`` precedes every code of ``b``,
    -1 where it follows them, 0 where they may interleave.  The rows are
    the surviving rows of ``a``, then of ``b``, each in walk order, then the
    unions in order of first pair.

    Every row is gathered as two spans of the sides' runs: a survivor's own
    and none, a union's rows' in the order of their sides.  A union's runs
    never overlap in time, so where the sides interleave they are sorted by
    first code; then each run that goes on in the next is joined with it."""
    old, new, (o, n) = _merge(a.words, b.words, epsilon, counters)
    none = np.zeros(len(old) + len(new), np.int64)
    sa, la = a.row_start[:-1], a.row_start[1:] - a.row_start[:-1]
    sb, lb = b.row_start[:-1] + len(a.first), b.row_start[1:] - b.row_start[:-1]
    heads, tails = (sa[o], la[o]), (sb[n], lb[n])
    if order < 0:
        heads, tails = tails, heads
    spans = np.empty((len(none) + len(o), 2, 2), np.int64)  # row, span, start/length
    spans[:, 0, 0] = np.concatenate([sa[old], sb[new], heads[0]])
    spans[:, 0, 1] = np.concatenate([la[old], lb[new], heads[1]])
    spans[:, 1, 0] = np.concatenate([none, tails[0]])
    spans[:, 1, 1] = np.concatenate([none, tails[1]])
    runs = _spans(spans[:, :, 0].ravel(), spans[:, :, 1].ravel())
    first = np.concatenate([a.first, b.first])[runs]
    last = np.concatenate([a.last, b.last])[runs]
    lengths = spans[:, 0, 1] + spans[:, 1, 1]
    row_start = _starts(lengths)
    words = np.concatenate([a.words[old], b.words[new], a.words[o] & b.words[n]])
    if len(o):
        if order == 0:  # by first code, row by row
            by = np.lexsort((first, np.repeat(np.arange(len(lengths)), lengths)))
            first, last = first[by], last[by]
        row_start, first, last = _joined_runs(first, last, row_start)
    return FciTable(words, row_start, first, last)


class _Merge:
    """``_merge``'s result on a store's rows ``existing`` and the FCIs
    ``incoming`` of later times: ``old`` and ``new`` their surviving rows,
    ``pairs`` the rows of each union, ``words`` the incoming tidsets.
    Iterating it builds the FCIs ``combine_fcis`` returns."""

    __slots__ = ("existing", "incoming", "old", "new", "pairs", "words")

    def __init__(self, existing, incoming, old, new, pairs, words):
        self.existing, self.incoming, self.old, self.new = existing, incoming, old, new
        self.pairs, self.words = pairs, words

    def __len__(self) -> int:
        return len(self.old) + len(self.new) + len(self.pairs[0])

    def __iter__(self):
        # a store's rows build all their FCIs at once
        existing, incoming = list(self.existing), self.incoming
        yield from map(existing.__getitem__, self.old.tolist())
        yield from map(incoming.__getitem__, self.new.tolist())
        for o, n in zip(*map(np.ndarray.tolist, self.pairs)):
            o, n = existing[o], incoming[n]
            yield packed_fci(o.mask & n.mask, o.codes + n.codes)


def combine_fcis(existing, incoming, epsilon: int, *,
                 counters: dict | None = None) -> list[FCI]:
    """Closed itemsets of the combined matrix from the two sides' own.

    ``existing`` and ``incoming`` (FCI lists or tables) must be mined from
    matrices that share no column; their columns may interleave in time.
    The result equals mining the combined matrix directly, as a set: the
    list holds the surviving existing itemsets, then the surviving incoming
    ones, each side in order of support, then the combined itemsets in order
    of their first pair (see the module docstring).  Sort it by ``codes``
    where order matters.  ``counters``, when given, receives pairs, new,
    absorbed_existing, absorbed_incoming and stops, which follow the order
    the sides are walked in: (support, codes) for sides given in code order.

    ``existing`` may also be a store's rows as ``comove.store``'s
    ``read_fci_table`` reads them: one table, which builds every row's FCI
    at once when it is iterated.  When every incoming item lies after the
    store's times and every incoming tidset fits its words, the result is a
    ``_Merge``: the same itemsets in the same order, as rows, built when it
    is iterated.
    """
    check_epsilon(epsilon)
    end = getattr(existing, "end", None)  # a store's rows (see above)
    if end is not None:
        rows = existing.words
        incoming = list(incoming)
        if all(f.codes[0] >= end and f.mask.bit_length() <= 64 * rows.shape[1]
               for f in incoming):
            words = _words([f.mask for f in incoming], rows.shape[1])
            return _Merge(existing, incoming, *_merge(rows, words, epsilon, counters),
                          words)
    a, b = (s if isinstance(s, FciTable) else FciTable.of(s) for s in (existing, incoming))
    w = max(a.words.shape[1], b.words.shape[1])
    a = FciTable(_fit_words(a.words, w), a.row_start, a.first, a.last)
    b = FciTable(_fit_words(b.words, w), b.row_start, b.first, b.last)
    order = _check_disjoint_columns(a, b)
    return list(_merge_tables(a, b, epsilon, order, counters))
