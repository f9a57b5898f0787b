"""Frequent-closed-itemset mining over cluster matrices.

The miner walks prefix-preserving closure extensions over the column order of
the matrix: a node's itemset is extended by one column, closed by absorbing
every column whose tidset contains the new intersection, and the extension is
kept only when the closure leaves the prefix before the extension column
untouched.  Each closed itemset is therefore generated exactly once, without a
duplicate table.

The "at most one column per time unit" rule never needs explicit handling:
every matrix kind keeps same-unit columns disjoint, so two same-unit columns
share no object, and their intersection is empty and falls under any support
threshold >= 1.
"""

from __future__ import annotations

from .model import FCI, ClusterMatrix, NotNestedError, ParameterError, Tidset

__all__ = ["mine_fci", "mine_fci_nested"]


def _check_epsilon(epsilon: int):
    if not isinstance(epsilon, int) or epsilon < 1:
        raise ParameterError(f"epsilon must be an int >= 1, got {epsilon!r}")


def mine_fci(matrix: ClusterMatrix, epsilon: int) -> list[FCI]:
    """All frequent closed itemsets of the matrix, in canonical item order.

    Every returned itemset uses at most one column per time unit, has support
    >= epsilon, and admits no strict valid superset with the same tidset.
    """
    _check_epsilon(epsilon)
    if not matrix.columns:
        return []
    return _mine_ppc(matrix, epsilon)


# ---------------------------------------------------------------------------
# Prefix-preserving closure extension
# ---------------------------------------------------------------------------

def _mine_ppc(matrix: ClusterMatrix, epsilon: int) -> list[FCI]:
    cids = [c.cid for c in matrix.columns]
    n = matrix.n_objects
    full = (1 << n) - 1
    # Columns with identical tidsets always enter a closure together (the
    # closure is "every column containing the tidset"), so the walk runs over
    # the distinct masks and the item lists fan back out afterwards.  Stable
    # groups repeat their tidset across long time runs, making this the
    # difference between hundreds and thousands of columns.
    masks: list[int] = []
    groups: list[list[int]] = []
    index: dict[int, int] = {}
    for j, col in enumerate(matrix.columns):
        g = index.get(col.members.mask)
        if g is None:
            index[col.members.mask] = len(masks)
            masks.append(col.members.mask)
            groups.append([j])
        else:
            groups[g].append(j)

    live0 = [j for j in range(len(masks)) if masks[j].bit_count() >= epsilon]
    root_items = [j for j in live0 if masks[j] == full]
    results: list[tuple[tuple[int, ...], int]] = []
    if root_items:
        results.append((tuple(root_items), full))

    # Depth-first walk over an explicit stack of extension tasks: column j
    # extends the closed itemset x_set with tidset tid, whose surviving
    # columns are live.  A refinement chain drops at least one object per
    # level and can be as deep as there are objects, past the interpreter's
    # recursion limit, so the walk does not recurse.
    root_x = frozenset(root_items)
    stack = [(j, root_x, full, live0) for j in reversed(live0) if j not in root_x]
    while stack:
        j, x_set, tid, live = stack.pop()
        new_tid = tid & masks[j]
        if new_tid.bit_count() < epsilon:
            continue
        new_items: list[int] = []
        new_live: list[int] = []
        for k in live:
            inter = masks[k] & new_tid
            if inter.bit_count() < epsilon:
                continue
            if inter == new_tid:  # column k covers the whole new tidset
                if k < j and k not in x_set:
                    break  # closure would edit the prefix: not a ppc extension
                new_items.append(k)
            new_live.append(k)
        else:
            results.append((tuple(new_items), new_tid))
            x2 = frozenset(new_items)
            stack.extend((j2, x2, new_tid, new_live) for j2 in reversed(new_live)
                         if j2 > j and j2 not in x2)

    fcis = [FCI(tuple(sorted(cids[j] for k in items for j in groups[k])),
                Tidset(tid))
            for items, tid in results]
    fcis.sort(key=lambda f: f.items)
    return fcis


# ---------------------------------------------------------------------------
# Nested blocks: closed sets are the prefixes ending a run of equal columns
# ---------------------------------------------------------------------------

def mine_fci_nested(matrix: ClusterMatrix, epsilon: int) -> list[FCI]:
    """Miner for blocks whose columns, in the order given, form a nested chain
    (each column's tidset contains the next one's).  Closed itemsets of such a
    block are exactly the prefixes ending where the tidset changes, so mining
    is a single linear scan.  Output matches mine_fci on the same block.
    """
    _check_epsilon(epsilon)
    cols = matrix.columns
    if not cols:
        return []
    masks = [c.members.mask for c in cols]
    for i in range(len(masks) - 1):
        if masks[i + 1] & ~masks[i]:
            raise NotNestedError(
                f"columns {cols[i].cid} and {cols[i + 1].cid} are not nested "
                "(the later tidset is not contained in the earlier one)")
    fcis = []
    for i, m in enumerate(masks):
        if m.bit_count() < epsilon:
            break
        if i + 1 < len(masks) and masks[i + 1] == m:
            continue  # closure absorbs the equal column to the right
        items = tuple(sorted(c.cid for c in cols[:i + 1]))
        fcis.append(FCI(items, Tidset(m)))
    fcis.sort(key=lambda f: f.items)
    return fcis

