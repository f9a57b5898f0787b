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

The merge reads each FCI's tidset mask and first and last item codes
(``FCI.bounds``), and the item codes of the two sides of each union it makes
(of every itemset only when the sides' code ranges interleave), and builds
the combined itemsets packed, so the block merges and an append never build
ClusterId or Tidset objects.  Each side is walked in a stable sort by support alone, so a
side given in code order is walked in (support, codes) order.  The result is
not sorted: an append hands it to ``write_fci_store``, which orders the rows
it writes, and the block merges sort it by codes.  Itemsets read from a store
build their codes on first use, so an append builds the codes of the stored
itemsets its unions extend and no others.
"""

from __future__ import annotations

from operator import attrgetter

from .model import FCI, CoMoveError, check_epsilon, code_item, item_code, packed_fci

__all__ = ["combine_fcis", "shift_times"]

_codes = attrgetter("codes")


def _support(f: FCI) -> int:
    return f.mask.bit_count()


def shift_times(fcis: list[FCI], offset: int) -> list[FCI]:
    """Move every item's time index by offset (re-basing itemsets mined on a
    local time axis onto a combined one)."""
    shift = item_code(offset, 0)  # adds offset to the time of every code
    return [packed_fci(f.mask, tuple([c + shift for c in f.codes]))
            for f in fcis]


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
    # merge, share no column; only interleaved sides need the sets.
    (lo_a, hi_a), (lo_b, hi_b) = span(existing), span(incoming)
    if hi_a < lo_b or hi_b < lo_a:
        return 1 if hi_a < lo_b else -1
    shared = (set().union(*map(_codes, existing))
              & set().union(*map(_codes, incoming)))
    if shared:
        raise CoMoveError(
            f"both sides use column {code_item(min(shared))}; combined itemsets "
            "need sides that share no column")
    return 0


def combine_fcis(existing: list[FCI], incoming: list[FCI], epsilon: int, *,
                 counters: dict | None = None) -> list[FCI]:
    """Closed itemsets of the combined matrix from the two sides' own.

    ``existing`` and ``incoming`` must be mined from matrices that share no
    column; their columns may interleave in time.  The result equals mining
    the combined matrix directly, as a set: the list holds the surviving
    existing itemsets, then the surviving incoming ones, each side in order
    of support, then the unions in the order the loop made them.  Sort it by
    ``codes`` where order matters.  ``counters``, when given, receives loop
    statistics (pairs, new, absorbed_existing, absorbed_incoming, stops),
    which follow the order the loop walks the sides in: (support, codes)
    for sides given in code order.
    """
    check_epsilon(epsilon)
    old, new = list(existing), list(incoming)
    order = _check_disjoint_columns(old, new)
    stats = {"pairs": 0, "new": 0, "absorbed_existing": 0,
             "absorbed_incoming": 0, "stops": 0}

    old.sort(key=_support)  # stable: a side in code order stays so per support
    new.sort(key=_support)
    old_dead = [False] * len(old)
    new_dead = [False] * len(new)
    produced: dict[int, FCI] = {}

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
                # sides in code order concatenate; interleaved ones merge
                # their two ascending runs in sorted's linear time
                codes = (cex.codes + cin.codes if order > 0 else
                         cin.codes + cex.codes if order < 0 else
                         tuple(sorted(cex.codes + cin.codes)))
                produced[gamma] = packed_fci(gamma, codes)
                stats["new"] += 1
            if gamma == cex.mask:
                old_dead[oi] = True
                stats["absorbed_existing"] += 1
            if gamma == in_mask:
                new_dead[ni] = True
                stats["absorbed_incoming"] += 1
                stats["stops"] += 1
                break

    result = [f for f, dead in zip(old, old_dead) if not dead]
    result += [f for f, dead in zip(new, new_dead) if not dead]
    result += produced.values()
    if counters is not None:
        counters.update(stats)
    return result

