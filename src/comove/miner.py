"""Frequent-closed-itemset mining over cluster matrices.

The miner walks prefix-preserving closure extensions over the column order of
the matrix: a node's itemset is extended by one column, closed by absorbing
every column whose tidset contains the new intersection, and the extension is
kept only when the closure leaves the prefix before the extension column
untouched.  Each closed itemset is therefore generated exactly once, without a
duplicate table.  A node's closure columns contain every deeper tidset, so
they leave the list of columns its subtree scans: a nested chain of n columns
costs O(n^2) column tests, and one miner serves every block shape.

:func:`mine_columns` emits the itemsets as packed FCIs (a tidset mask and
item codes), which :func:`mine_fci` returns and the block merges combine.

The "at most one column per time unit" rule never needs explicit handling:
every matrix kind keeps same-unit columns disjoint, so two same-unit columns
share no object, and their intersection is empty and falls under any support
threshold >= 1.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from .model import FCI, ClusterMatrix, Column, check_epsilon, item_code, packed_fci

__all__ = ["mine_fci"]


def mine_fci(matrix: ClusterMatrix, epsilon: int) -> list[FCI]:
    """All frequent closed itemsets of the matrix, in canonical item order.

    Every returned itemset uses at most one column per time unit, has support
    >= epsilon, and admits no strict valid superset with the same tidset.
    """
    return mine_columns(matrix.columns, matrix.n_objects, epsilon)


def mine_columns(columns: Sequence[Column], n_objects: int,
                 epsilon: int) -> list[FCI]:
    """``mine_fci`` on the matrix that ``columns`` of a valid matrix over
    ``n_objects`` objects form, without building and re-checking it: a
    prefix-preserving closure extension walk."""
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
            stack.extend((j2, items, new_tid, new_live)
                         for j2 in reversed(new_live) if j2 > j)

    fcis = [packed_fci(tid, tuple(sorted([codes[j] for k in items for j in groups[k]])))
            for items, tid in results]
    fcis.sort(key=attrgetter("codes"))
    return fcis
