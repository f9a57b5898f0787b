#!/usr/bin/env python3
"""End-to-end tour: synthetic herd -> clusters -> itemsets -> patterns.

Generates trajectories for three groups of animals that occasionally swap
members, clusters every timestamp with DBSCAN, mines the frequent closed
itemsets from the 0-1 cluster matrix and decodes them into swarms, convoys,
moving clusters and group patterns.  Results are printed and also written to
demos/output/ as CSV and GeoJSON.
"""
from pathlib import Path

from comove import (
    ClosedSwarm,
    Convoy,
    DbscanParams,
    GroupPattern,
    MiningParams,
    MovingCluster,
    SyntheticSpec,
    build_cluster_matrix,
    extract_patterns,
    gen_synthetic,
    mine_fci,
    write_patterns_csv,
    write_patterns_geojson,
)

OUT = Path(__file__).parent / "output"


def names(matrix, tidset):
    return ",".join(matrix.object_labels[i] for i in tidset.ids)


def describe(p, matrix):
    if isinstance(p, ClosedSwarm):
        return f"swarm   {names(matrix, p.objects)} at times {p.times}"
    if isinstance(p, Convoy):
        return f"convoy  {names(matrix, p.objects)} from t={p.start} to t={p.end}"
    if isinstance(p, MovingCluster):
        chain = " -> ".join(f"t{c.time}" for c in p.clusters)
        return f"mover   core {names(matrix, p.objects)} along {chain}"
    if isinstance(p, GroupPattern):
        stints = ", ".join(f"[{s}..{e}]" for s, e in p.segments)
        return (f"group   {names(matrix, p.objects)} in stints {stints} "
                f"(weight {p.weight:.2f})")
    return str(p)


def main():
    spec = SyntheticSpec(n_objects=12, n_times=30, n_groups=3,
                         switch_prob=0.05, seed=7)
    db = gen_synthetic(spec)
    print(f"generated {len(db.object_labels)} objects over "
          f"{len(db.time_labels)} timestamps in {spec.n_groups} groups")

    matrix = build_cluster_matrix(db, DbscanParams(eps=3.0, min_pts=2))
    print(f"cluster matrix: {len(matrix.columns)} columns "
          f"(one per cluster per timestamp)")

    fcis = mine_fci(matrix, 3)
    print(f"mined {len(fcis)} frequent closed itemsets at support >= 3\n")

    patterns = extract_patterns(fcis, matrix,
                                MiningParams(min_t=5, min_wei=0.5))
    print(f"{len(patterns)} patterns lasting at least 5 timestamps:")
    for p in patterns:
        print("  " + describe(p, matrix))

    OUT.mkdir(exist_ok=True)
    write_patterns_csv(patterns, matrix, OUT / "patterns.csv")
    write_patterns_geojson(patterns, matrix, db, OUT / "patterns.geojson")
    print(f"\nwrote {OUT / 'patterns.csv'} and {OUT / 'patterns.geojson'}")


if __name__ == "__main__":
    main()
