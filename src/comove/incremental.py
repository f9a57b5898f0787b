"""Block-incremental and parameter-free mining.

Instead of mining a big matrix in one pass, the engine splits its columns
into blocks, mines each block's closed itemsets locally, and merges the local
results with :func:`~comove.combine.combine_fcis`, the same exact merge that
folds appended timestamps into a stored result.  Blocks never share a column,
which is all the merge needs, so merging every block's result gives the
monolithic answer exactly, including itemset contents.  Merging runs as a
balanced reduction: each round combines adjacent pairs of results, so no
side grows to the whole answer while the other stays one block wide.

The parameter-free variant skips choosing a block size: one sort puts the
columns in order of tidset size, then content, so containment chains sit
next to each other; each maximal nested run becomes a block, and whatever is
left goes into one sparse block.  Any column partition merges to the exact
answer, so the partition only decides how many merges run, and the merges,
not the sort, are this mode's cost.  Every block, nested or not, is mined by
:func:`~comove.miner.mine_columns`, the miner behind
:func:`~comove.miner.mine_fci`.

Blocks are mined and merged as packed FCIs (tidset masks and item codes),
so no ClusterId or Tidset object is built for any itemset on the way.
"""

from __future__ import annotations

from operator import attrgetter

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

_codes = attrgetter("codes")


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
    until one is left, and sort that by codes, as the miner's are.  The
    merges collect no counters, and any order of their sides gives the same
    itemsets, so the results in between stay in merge order."""
    results = [mine_columns(cols, parent.n_objects, epsilon) for cols in blocks]
    while len(results) > 1:
        merged = [combine_fcis(results[i], results[i + 1], epsilon)
                  for i in range(0, len(results) - 1, 2)]
        if len(results) % 2:
            merged.append(results[-1])
        results = merged
    return sorted(results[0], key=_codes)


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


def nested_reorder(matrix: ClusterMatrix) -> tuple[Column, ...]:
    """The matrix's columns with containment chains next to each other:
    tidset size descending, ties broken on tidset content so equal columns
    group together."""
    return tuple(sorted(matrix.columns,
                        key=lambda c: (-len(c.members), c.members.ids)))


def nested_block_partition(cols: tuple[Column, ...]) -> list[tuple[Column, ...]]:
    """Split a column sequence into maximal nested runs of at least two
    columns plus one sparse block holding everything else.  The sparse block
    always comes last, even when empty."""
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
    return _mine_blocks(matrix, nested_block_partition(nested_reorder(matrix)),
                        epsilon)
