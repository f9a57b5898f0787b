"""Frequent-closed-itemset mining over cluster matrices.

The miner walks prefix-preserving closure extensions over the column order of
the matrix: a node's itemset is extended by one column, closed by absorbing
every column whose tidset contains the new intersection, and the extension is
kept only when the closure leaves the prefix before the extension column
untouched.  Each closed itemset is therefore generated exactly once, without a
duplicate table.  A node's closure columns contain every deeper tidset, so
they leave the list of columns its subtree scans: a nested chain of n columns
costs O(n^2) column tests, and one miner serves every block shape.

:func:`mine_columns` emits the itemsets as one table (``FciTable``): their
tidsets as words and their items as runs, which :func:`mine_fci` puts in
code order.  An itemset's columns are those of its distinct masks, so its
runs are theirs, found once per mask, in code order and joined; no item is
spelled out, and no FCI is built until one is read.

The "at most one column per time unit" rule never needs explicit handling:
every matrix kind keeps same-unit columns disjoint, so two same-unit columns
share no object, and their intersection is empty and falls under any support
threshold >= 1.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .model import (
    ClusterMatrix,
    Column,
    FciTable,
    _code_runs,
    _joined_runs,
    _n_words,
    _spans,
    _starts,
    _words,
    check_epsilon,
    item_code,
)

__all__ = ["mine_fci"]


def mine_fci(matrix: ClusterMatrix, epsilon: int) -> FciTable:
    """All frequent closed itemsets of the matrix, in canonical item order,
    as a table that builds their FCIs when they are read.

    Every returned itemset uses at most one column per time unit, has support
    >= epsilon, and admits no strict valid superset with the same tidset.
    """
    return mine_columns(matrix.columns, matrix.n_objects, epsilon).in_code_order()


def mine_columns(columns: Sequence[Column], n_objects: int,
                 epsilon: int) -> FciTable:
    """``mine_fci``'s itemsets, rows in the walk's order, of the matrix
    that ``columns`` of a valid matrix over ``n_objects`` objects form,
    without building and re-checking it: a prefix-preserving closure
    extension walk."""
    check_epsilon(epsilon)
    codes = [item_code(*c.cid) for c in columns]
    full = (1 << n_objects) - 1
    # Columns with identical tidsets always enter a closure together (the
    # closure is "every column containing the tidset"), so the walk runs over
    # the distinct masks and the item lists fan back out afterwards.  Stable
    # groups repeat their tidset across long time runs, making this the
    # difference between hundreds and thousands of columns.
    masks: list[int] = []
    groups: list[list[int]] = []
    index: dict[int, int] = {}
    for j, col in enumerate(columns):
        g = index.get(col.members.mask)
        if g is None:
            index[col.members.mask] = len(masks)
            masks.append(col.members.mask)
            groups.append([j])
        else:
            groups[g].append(j)

    live0 = [j for j in range(len(masks)) if masks[j].bit_count() >= epsilon]
    root_items = tuple(j for j in live0 if masks[j] == full)
    results: list[tuple[tuple[int, ...], int]] = []
    if root_items:
        results.append((root_items, full))

    # Depth-first walk over an explicit stack of extension tasks: column j
    # extends the closed itemset x_items with tidset tid.  live holds the
    # frequent columns outside x_items, in column order; closure columns
    # contain every deeper tidset, so they never need a second look.  A
    # refinement chain drops at least one object per level and can be as
    # deep as there are objects, past the interpreter's recursion limit, so
    # the walk does not recurse.
    live0 = [j for j in live0 if masks[j] != full]
    stack = [(j, root_items, full, live0) for j in reversed(live0)]
    while stack:
        j, x_items, tid, live = stack.pop()
        new_tid = tid & masks[j]
        closure: list[int] = []
        new_live: list[int] = []
        for k in live:
            inter = masks[k] & new_tid
            if inter == new_tid:  # column k covers the whole new tidset
                if k < j:
                    break  # closure would edit the prefix: not a ppc extension
                closure.append(k)
            elif inter.bit_count() >= epsilon:
                new_live.append(k)
        else:
            items = x_items + tuple(closure)
            results.append((items, new_tid))
            # Of the children with one tidset only the first is pushed: a
            # later one meets it in its live list, covering its tidset
            # before its column, and would be rejected.
            first: dict[int, int] = {}
            for j2 in new_live:
                if j2 > j:
                    first.setdefault(new_tid & masks[j2], j2)
            stack.extend((j2, items, new_tid, new_live)
                         for j2 in reversed(first.values()))

    # Each distinct mask's columns as runs.  An itemset's runs are its
    # masks' runs, which never share a time (same-time columns share no
    # object), so sorted by first code and joined where one goes on in the
    # next, they are the itemset's maximal runs.
    group_codes = [sorted([codes[j] for j in g]) for g in groups]
    group_runs, run_first, run_last = _code_runs(
        np.fromiter(chain.from_iterable(group_codes), np.int64, len(codes)),
        np.fromiter(map(len, group_codes), np.intp, len(groups)))
    n_groups = np.fromiter((len(items) for items, _ in results), np.intp, len(results))
    flat = np.fromiter(chain.from_iterable(items for items, _ in results), np.intp,
                       n_groups.sum())
    lengths = group_runs[flat + 1] - group_runs[flat]
    runs = _spans(group_runs[flat], lengths)
    row_start = _starts(lengths)[_starts(n_groups)]
    by = np.lexsort((run_first[runs], np.repeat(np.arange(len(results)),
                                                row_start[1:] - row_start[:-1])))
    return FciTable(_words([tid for _, tid in results], _n_words(n_objects)),
                    *_joined_runs(run_first[runs[by]], run_last[runs[by]], row_start))
