#!/usr/bin/env python3
"""Block-incremental and nested mining produce the same itemsets, faster.

The monolithic miner walks the whole cluster matrix at once.  The
incremental miner cuts the matrix into vertical blocks, mines each block
on its own, and then merges the blocks' local results pairwise with the
same exact merge that folds appended timestamps into a stored result.
The parameter-free variant picks
its own blocks by looking for nested column runs (each column's member
set containing the next one's), where the closed itemsets are simply the
run's prefixes; the same miner finds them in one pass down the chain.
"""
import time

from comove import (
    DbscanParams,
    SyntheticSpec,
    build_cluster_matrix,
    combine_fcis,
    gen_synthetic,
    mine_fci,
    mine_incremental,
    mine_parameter_free,
    nested_block_partition,
    nested_reorder,
    split_blocks,
)
from comove.model import ClusterId, ClusterMatrix, Column, Tidset


def timed(label, fn):
    t0 = time.perf_counter()
    out = fn()
    print(f"  {label:<28} {time.perf_counter() - t0:6.2f} s "
          f"({len(out)} itemsets)")
    return out


def main():
    spec = SyntheticSpec(n_objects=100, n_times=600, n_groups=5,
                         switch_prob=0.003, seed=11)
    db = gen_synthetic(spec)
    matrix = build_cluster_matrix(db, DbscanParams(eps=3.0, min_pts=2))
    print(f"field: {len(db.object_labels)} objects x {len(db.time_labels)} "
          f"timestamps -> {len(matrix.columns)} columns\n")

    print("mining the same matrix four ways (identical results):")
    mono = timed("monolithic", lambda: mine_fci(matrix, 5))
    for bs in (25, 100):
        got = timed(f"incremental, block={bs}",
                    lambda: mine_incremental(matrix, 5, block_size=bs))
        assert got == mono
    got = timed("parameter-free", lambda: mine_parameter_free(matrix, 5))
    assert got == mono

    # What the incremental path does internally: mine each block alone,
    # then merge neighbouring results until one is left.
    blocks = split_blocks(matrix, 100)
    local = [mine_fci(ClusterMatrix(matrix.object_labels, matrix.time_labels, b), 5)
             for b in blocks]
    print(f"\nwith block=100: {len(blocks)} blocks, local itemsets per block "
          f"{[len(r) for r in local]}")
    while len(local) > 1:
        merged = [combine_fcis(local[i], local[i + 1], 5)
                  for i in range(0, len(local) - 1, 2)]
        local = merged + local[len(merged) * 2:]
        print(f"  after a round of pairwise merges: {[len(r) for r in local]}")
    assert sorted(local[0], key=lambda f: f.codes) == mono  # merges are unordered

    # In a nested chain every prefix that ends where the members shrink is
    # closed, and nothing else is.
    labels = tuple(f"o{i}" for i in range(4))
    chain = ClusterMatrix.build(
        labels, (0, 1, 2),
        [Column(ClusterId(0, 0), Tidset.from_ids([0, 1, 2, 3])),
         Column(ClusterId(1, 0), Tidset.from_ids([0, 1, 2])),
         Column(ClusterId(2, 0), Tidset.from_ids([0, 1]))])
    print("\na fully nested column run mines to its prefixes:")
    for f in mine_fci(chain, 1):
        members = ",".join(labels[i] for i in f.tidset.ids)
        print(f"  times {tuple(c.time for c in f.items)} -> {members}")

    parts = nested_block_partition(nested_reorder(matrix))
    nested_cols = sum(len(b) for b in parts[:-1])
    print(f"\nparameter-free partition after reordering the big matrix: "
          f"{len(parts) - 1} nested runs covering {nested_cols} columns, "
          f"{len(parts[-1])} columns left in the sparse block")


if __name__ == "__main__":
    main()
