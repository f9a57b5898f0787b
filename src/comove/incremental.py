"""Block-incremental and parameter-free mining.

Instead of mining a big matrix in one pass, the engine splits its columns
into blocks, mines each block's closed itemsets locally, and merges the local
results with :func:`~comove.combine.combine_fcis`, the same exact merge that
folds appended timestamps into a stored result.  Blocks never share a column,
which is all the merge needs, so merging every block's result gives the
monolithic answer exactly, including itemset contents.  Merging runs as a
balanced reduction: each round combines adjacent pairs of results, so no
side grows to the whole answer while the other stays one block wide.

The parameter-free variant skips choosing a block size: columns are reordered
so that containment chains sit next to each other, chains become nested
blocks, and whatever is left goes into one sparse block.  Every block, nested
or not, is mined by :func:`~comove.miner.mine_columns`, the miner behind
:func:`~comove.miner.mine_fci`.

Blocks are mined and merged as packed FCIs (tidset masks and item codes),
so no ClusterId or Tidset object is built for any itemset on the way.
"""

from __future__ import annotations

from .combine import combine_fcis
from .miner import mine_columns
from .model import FCI, ClusterMatrix, Column, ParameterError

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "split_blocks",
    "mine_incremental",
    "nested_reorder",
    "nested_block_partition",
    "mine_parameter_free",
]

DEFAULT_BLOCK_SIZE = 25


def split_blocks(matrix: ClusterMatrix,
                 block_size: int) -> list[tuple[Column, ...]]:
    """Cut the time axis into consecutive windows of block_size timestamps;
    each window's columns form one block (possibly empty), window i at
    position i."""
    if not isinstance(block_size, int) or block_size < 1:
        raise ParameterError(f"block_size must be an int >= 1, got {block_size!r}")
    n_blocks = max(1, -(-matrix.n_times // block_size))
    buckets: list[list[Column]] = [[] for _ in range(n_blocks)]
    for col in matrix.columns:
        buckets[col.cid.time // block_size].append(col)
    return [tuple(cols) for cols in buckets]


def _mine_blocks(parent: ClusterMatrix, blocks: list[tuple[Column, ...]],
                 epsilon: int) -> list[FCI]:
    """Mine every block on its own, then merge the local results pairwise
    until one is left."""
    results = [mine_columns(cols, parent.n_objects, epsilon) for cols in blocks]
    while len(results) > 1:
        merged = [combine_fcis(results[i], results[i + 1], epsilon)
                  for i in range(0, len(results) - 1, 2)]
        if len(results) % 2:
            merged.append(results[-1])
        results = merged
    return results[0]


def mine_incremental(matrix: ClusterMatrix, epsilon: int,
                     block_size: int | None = None) -> list[FCI]:
    """Mine the matrix block by block; the result equals mine_fci(matrix,
    epsilon) for every block size."""
    bs = DEFAULT_BLOCK_SIZE if block_size is None else block_size
    return _mine_blocks(matrix, split_blocks(matrix, bs), epsilon)


# ---------------------------------------------------------------------------
# Parameter-free: containment-ordered columns, nested blocks, one sparse block
# ---------------------------------------------------------------------------

def _is_nested(left: Column, right: Column) -> bool:
    return right.members.mask & ~left.members.mask == 0


def nested_reorder(matrix: ClusterMatrix) -> tuple[ClusterMatrix, tuple[int, ...]]:
    """Reorder columns to put containment chains next to each other.

    Primary order: tidset size descending, ties broken on tidset content so
    equal columns group together.  A single left-to-right pass then swaps
    adjacent columns whenever the swap creates a nested adjacency without
    destroying one.  Returns the reordered matrix plus the permutation
    (original column index per new position).
    """
    order = sorted(range(len(matrix.columns)),
                   key=lambda j: (-len(matrix.columns[j].members),
                                  matrix.columns[j].members.ids))
    cols = [matrix.columns[j] for j in order]

    def adjacent_flags(i: int) -> list[bool]:
        """Nestedness of the three adjacencies a swap at (i, i+1) can touch."""
        return [
            0 <= a and a + 1 < len(cols) and _is_nested(cols[a], cols[a + 1])
            for a in (i - 1, i, i + 1)
        ]

    for i in range(len(cols) - 1):
        before = adjacent_flags(i)
        cols[i], cols[i + 1] = cols[i + 1], cols[i]
        order[i], order[i + 1] = order[i + 1], order[i]
        after = adjacent_flags(i)
        gained = sum(after) > sum(before)
        lost = any(b and not a for b, a in zip(before, after))
        if not (gained and not lost):
            cols[i], cols[i + 1] = cols[i + 1], cols[i]
            order[i], order[i + 1] = order[i + 1], order[i]

    reordered = ClusterMatrix(matrix.object_labels, matrix.time_labels,
                              tuple(cols), matrix.kind)
    return reordered, tuple(order)


def nested_block_partition(matrix: ClusterMatrix) -> list[tuple[Column, ...]]:
    """Split a (reordered) matrix into maximal nested runs of at least two
    columns plus one sparse block holding everything else.  The sparse block
    always comes last, even when empty."""
    cols = matrix.columns
    blocks: list[tuple[Column, ...]] = []
    spare: list[Column] = []
    i = 0
    while i < len(cols):
        j = i
        while j + 1 < len(cols) and _is_nested(cols[j], cols[j + 1]):
            j += 1
        if j > i:
            blocks.append(tuple(cols[i:j + 1]))
        else:
            spare.append(cols[i])
        i = j + 1
    blocks.append(tuple(spare))
    return blocks


def mine_parameter_free(matrix: ClusterMatrix, epsilon: int) -> list[FCI]:
    """Incremental mining without a block-size parameter: blocks come from
    the data's own containment structure.  Result equals mine_fci."""
    reordered, _ = nested_reorder(matrix)
    return _mine_blocks(matrix, nested_block_partition(reordered), epsilon)
