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
"""

from __future__ import annotations

from .model import FCI, ClusterId, CoMoveError, Tidset

__all__ = ["combine_fcis", "should_update", "shift_times"]

#: An incoming batch smaller than this fraction of the existing span is cheap
#: enough to combine in place; anything bigger is worth a fresh full mine.
UPDATE_FRACTION = 0.15


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


def _check_disjoint_columns(existing: list[FCI], incoming: list[FCI]):
    shared = (set().union(*(f.items for f in existing))
              & set().union(*(f.items for f in incoming)))
    if shared:
        raise CoMoveError(
            f"both sides use column {min(shared)}; combined itemsets need "
            "sides that share no column")


def combine_fcis(existing: list[FCI], incoming: list[FCI], epsilon: int, *,
                 counters: dict | None = None) -> list[FCI]:
    """Closed itemsets of the combined matrix from the two sides' own.

    ``existing`` and ``incoming`` must be mined from matrices that share no
    column; their columns may interleave in time.  The result equals mining
    the combined matrix directly.  ``counters``, when given, receives loop
    statistics (pairs, new, absorbed_existing, absorbed_incoming, stops).
    """
    _check_disjoint_columns(existing, incoming)
    stats = {"pairs": 0, "new": 0, "absorbed_existing": 0,
             "absorbed_incoming": 0, "stops": 0}

    old = sorted(existing, key=lambda f: (f.support, f.items))
    new = sorted(incoming, key=lambda f: (f.support, f.items))
    old_dead = [False] * len(old)
    new_dead = [False] * len(new)
    produced: dict[int, FCI] = {}

    for ni, cin in enumerate(new):
        in_mask = cin.tidset.mask
        for oi, cex in enumerate(old):
            if old_dead[oi]:
                continue
            stats["pairs"] += 1
            gamma = cex.tidset.mask & in_mask
            if gamma.bit_count() < epsilon:
                continue
            if gamma not in produced:
                produced[gamma] = FCI(tuple(sorted(cex.items + cin.items)),
                                      Tidset(gamma))
                stats["new"] += 1
            if gamma == cex.tidset.mask:
                old_dead[oi] = True
                stats["absorbed_existing"] += 1
            if gamma == in_mask:
                new_dead[ni] = True
                stats["absorbed_incoming"] += 1
                stats["stops"] += 1
                break

    result = [f for f, dead in zip(old, old_dead) if not dead]
    result += [f for f, dead in zip(new, new_dead) if not dead]
    result += list(produced.values())
    result.sort(key=lambda f: f.items)
    if counters is not None:
        counters.update(stats)
    return result
