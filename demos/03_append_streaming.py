#!/usr/bin/env python3
"""Appending new observations without re-mining the whole history.

A tracker has mined sixty days of data.  Twenty more days arrive.  Instead
of re-clustering and re-mining all eighty days, we mine only the new window
and combine its closed itemsets with the stored ones pair by pair.  The
result is identical to a full re-mine, and the counters show how little
work the combination step did.
"""
import time

from comove import (
    DbscanParams,
    SyntheticSpec,
    TrajectoryDB,
    build_cluster_matrix,
    combine_fcis,
    gen_synthetic,
    mine_fci,
    shift_times,
)

EPSILON = 4


def window(db, start, stop):
    """The same objects restricted to a slice of the time axis."""
    return TrajectoryDB(db.object_labels, db.time_labels[start:stop],
                        db.xy[:, start:stop])


def main():
    spec = SyntheticSpec(n_objects=40, n_times=80, n_groups=4,
                         switch_prob=0.01, seed=3)
    db = gen_synthetic(spec)
    params = DbscanParams(eps=3.0, min_pts=2)

    # Day 0..59 were mined long ago; their itemsets sit in a store.
    history = window(db, 0, 60)
    existing = mine_fci(build_cluster_matrix(history, params), EPSILON)
    print(f"history: 60 days, {len(existing)} stored closed itemsets")

    # Twenty new days arrive.  Only they get clustered and mined; their
    # time units are then shifted to sit after the history.
    fresh = window(db, 60, 80)
    incoming = shift_times(
        mine_fci(build_cluster_matrix(fresh, params), EPSILON), 60)
    print(f"arrival: 20 days, {len(incoming)} new closed itemsets")

    counters = {}
    t0 = time.perf_counter()
    combined = combine_fcis(existing, incoming, EPSILON, counters=counters)
    t_combine = time.perf_counter() - t0
    print(f"\ncombined into {len(combined)} itemsets in "
          f"{t_combine * 1000:.1f} ms")
    print(f"  pairs inspected      {counters['pairs']}")
    print(f"  spanning itemsets    {counters['new']}")
    print(f"  absorbed (existing)  {counters['absorbed_existing']}")
    print(f"  absorbed (incoming)  {counters['absorbed_incoming']}")
    print(f"  early stops          {counters['stops']}")

    t0 = time.perf_counter()
    full = mine_fci(build_cluster_matrix(db, params), EPSILON)
    t_full = time.perf_counter() - t0
    assert sorted(combined, key=lambda f: f.codes) == full  # the merge is unordered
    print(f"\nfull re-mine of all 80 days: {t_full * 1000:.1f} ms "
          f"-> identical itemsets")


if __name__ == "__main__":
    main()
