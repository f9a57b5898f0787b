"""Merging the closed itemsets of two column-disjoint sides.

Two matrices that share no column can be mined apart and merged exactly: the
closed itemsets of the combined matrix are fully determined by the two sides'
own closed itemsets.  Every combined itemset touching both sides is the union
of one itemset from each side — specifically the most specific pair whose
tidsets intersect to the combined tidset — and an original itemset survives
unchanged exactly when no combined itemset ends up with its tidset.  The same
merge folds newly appended timestamps into a stored result and joins the
per-block results of incremental and nested mining.

``combine_fcis`` implements that: a support-ascending double loop over both
sides, intersecting tidsets.  Walking supports upward makes the first pair
producing a given tidset exactly the most specific one, so a first-hit-wins
record of produced tidsets suffices for exactness.  Two shortcuts drop work
without changing the result: an existing itemset whose tidset is fully inside
an incoming one is absorbed and never revisited, and the scan for one
incoming itemset stops once its whole tidset has been matched, since any
later pairing is covered by an earlier, more specific itemset.

The loop runs on :class:`~comove.model.Row` itemsets, ints and tuples of
ints, rather than FCI and ClusterId objects.  Rows, as the miner and an
itemset store give them, go through as they are, so the block merges and
an append build no FCI; FCIs given to ``combine_fcis`` are converted on the
way in and out.
"""

from __future__ import annotations

from operator import itemgetter

from .model import (
    FCI,
    ClusterId,
    CoMoveError,
    Row,
    code_item,
    fci_rows,
    row_fcis,
)

__all__ = ["combine_fcis", "should_update", "shift_times"]

#: An incoming batch smaller than this fraction of the existing span is cheap
#: enough to combine in place; anything bigger is worth a fresh full mine.
UPDATE_FRACTION = 0.15

_codes = itemgetter(1)


def should_update(existing_span: int, incoming_span: int) -> bool:
    """True when the incoming time span is small relative to the existing one
    (strictly less than 15 percent), i.e. when combining beats re-mining."""
    if existing_span < 0 or incoming_span < 0:
        raise ValueError("time spans must be non-negative")
    return incoming_span < UPDATE_FRACTION * existing_span


def shift_times(fcis: list[FCI], offset: int) -> list[FCI]:
    """Move every item's time index by offset (re-basing itemsets mined on a
    local time axis onto a combined one)."""
    return [FCI(tuple(ClusterId(c.time + offset, c.ordinal) for c in f.items),
                f.tidset) for f in fcis]


def _check_disjoint_columns(existing: list[Row], incoming: list[Row]):
    if not existing or not incoming:
        return

    def span(rows):
        return min(r.codes[0] for r in rows), max(r.codes[-1] for r in rows)

    # Sides whose code ranges do not overlap, as in every append, share no
    # column; only interleaved sides need the sets.
    (lo_a, hi_a), (lo_b, hi_b) = span(existing), span(incoming)
    if hi_a < lo_b or hi_b < lo_a:
        return
    shared = (set().union(*(r.codes for r in existing))
              & set().union(*(r.codes for r in incoming)))
    if shared:
        raise CoMoveError(
            f"both sides use column {code_item(min(shared))}; combined itemsets "
            "need sides that share no column")


def combine_fcis(existing: list[FCI], incoming: list[FCI], epsilon: int, *,
                 counters: dict | None = None) -> list[FCI]:
    """Closed itemsets of the combined matrix from the two sides' own.

    ``existing`` and ``incoming`` must be mined from matrices that share no
    column; their columns may interleave in time.  The result equals mining
    the combined matrix directly, sorted by items.  ``counters``, when
    given, receives loop statistics (pairs, new, absorbed_existing,
    absorbed_incoming, stops).

    Both sides may instead be :class:`~comove.model.Row` lists, as
    :attr:`~comove.store.FciStore.rows` gives them; the result is then rows
    too.
    """
    sides = [list(existing), list(incoming)]
    given_rows = any(isinstance(r, Row) for side in sides for r in side[:1])
    old, new = (side if given_rows else fci_rows(side) for side in sides)
    _check_disjoint_columns(old, new)
    stats = {"pairs": 0, "new": 0, "absorbed_existing": 0,
             "absorbed_incoming": 0, "stops": 0}

    old.sort(key=_support_codes)
    new.sort(key=_support_codes)
    old_dead = [False] * len(old)
    new_dead = [False] * len(new)
    produced: dict[int, Row] = {}

    for ni, cin in enumerate(new):
        in_mask = cin.mask
        for oi, cex in enumerate(old):
            if old_dead[oi]:
                continue
            stats["pairs"] += 1
            gamma = cex.mask & in_mask
            if gamma.bit_count() < epsilon:
                continue
            if gamma not in produced:
                produced[gamma] = _union(gamma, cex, cin)
                stats["new"] += 1
            if gamma == cex.mask:
                old_dead[oi] = True
                stats["absorbed_existing"] += 1
            if gamma == in_mask:
                new_dead[ni] = True
                stats["absorbed_incoming"] += 1
                stats["stops"] += 1
                break

    result = [r for r, dead in zip(old, old_dead) if not dead]
    result += [r for r, dead in zip(new, new_dead) if not dead]
    result += produced.values()
    result.sort(key=_codes)
    if counters is not None:
        counters.update(stats)
    return result if given_rows else row_fcis(result)


def _support_codes(r: Row):
    return r.mask.bit_count(), r.codes


def _union(mask: int, a: Row, b: Row) -> Row:
    """The row of a's and b's items with tidset ``mask``.  Its item text is
    the two sides' text joined when one side's items all precede the
    other's, as they do in every append."""
    if b.codes[0] < a.codes[0]:
        a, b = b, a
    if a.codes[-1] < b.codes[0]:
        text = None if a.items_text is None or b.items_text is None \
            else f"{a.items_text};{b.items_text}"
        return Row(mask, a.codes + b.codes, None, text)
    return Row(mask, tuple(sorted(a.codes + b.codes)))
