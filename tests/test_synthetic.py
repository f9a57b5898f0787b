import io

import numpy as np
import pytest

from comove import (
    ClosedSwarm,
    DbscanParams,
    MiningParams,
    ParameterError,
    SyntheticSpec,
    Tidset,
    build_cluster_matrix,
    extract_patterns,
    gen_synthetic,
    mine_fci,
    parse_trajectories,
    write_trajectories,
)


def test_spec_defaults_and_validation():
    s = SyntheticSpec()
    assert (s.n_objects, s.n_times, s.n_groups) == (100, 100, 4)
    for kw in ({"n_objects": 0}, {"n_times": 0}, {"n_groups": 0},
               {"n_groups": 1.5}, {"switch_prob": -0.1}, {"switch_prob": 1.1},
               {"spread": -1.0}, {"spread": float("inf")}):
        with pytest.raises(ParameterError):
            SyntheticSpec(**kw)


def test_same_seed_same_database():
    spec = SyntheticSpec(n_objects=20, n_times=15, n_groups=3, switch_prob=0.1,
                         seed=42)
    assert gen_synthetic(spec) == gen_synthetic(spec)
    other = SyntheticSpec(n_objects=20, n_times=15, n_groups=3, switch_prob=0.1,
                          seed=43)
    assert gen_synthetic(other) != gen_synthetic(spec)


def test_shapes_and_labels():
    db = gen_synthetic(SyntheticSpec(n_objects=12, n_times=5, n_groups=2))
    assert db.xy.shape == (12, 5, 2)
    assert db.time_labels == tuple(range(5))
    assert db.object_labels[0] == "o01" and db.object_labels[-1] == "o12"
    assert db.object_labels == tuple(sorted(db.object_labels))
    assert db.present.all()  # synthetic data has no gaps


def test_stable_groups_stay_clustered():
    # no switching, tight spread: every timestamp clusters exactly into the
    # round-robin groups, so the pipeline finds one all-span swarm per group
    spec = SyntheticSpec(n_objects=9, n_times=8, n_groups=3, switch_prob=0.0,
                         spread=0.1, seed=7)
    db = gen_synthetic(spec)
    matrix = build_cluster_matrix(db, DbscanParams(eps=2.0, min_pts=2))
    patterns = extract_patterns(mine_fci(matrix, 3), matrix,
                                MiningParams(min_t=8))
    swarms = [p for p in patterns if p.kind == "closed_swarm"]
    assert swarms == [
        ClosedSwarm(Tidset.from_ids([0, 3, 6]), tuple(range(8))),
        ClosedSwarm(Tidset.from_ids([1, 4, 7]), tuple(range(8))),
        ClosedSwarm(Tidset.from_ids([2, 5, 8]), tuple(range(8))),
    ]


def test_single_group_spans_everything():
    spec = SyntheticSpec(n_objects=6, n_times=10, n_groups=1, spread=0.2, seed=3)
    db = gen_synthetic(spec)
    matrix = build_cluster_matrix(db, DbscanParams(eps=2.0, min_pts=2))
    fcis = mine_fci(matrix, 6)
    assert len(fcis) == 1
    assert fcis[0].tidset == Tidset.from_ids(range(6))
    assert fcis[0].times == tuple(range(10))


def test_groups_stay_far_apart_without_switching():
    spec = SyntheticSpec(n_objects=8, n_times=50, n_groups=4, spread=0.5, seed=5)
    db = gen_synthetic(spec)
    # group centers start 1000 apart and drift at most 0.3/step for 50 steps,
    # so objects of different groups can never come near each other
    for t in (0, 25, 49):
        pos = db.xy[:, t, :]
        for i in range(8):
            for j in range(i + 1, 8):
                d = np.hypot(*(pos[i] - pos[j]))
                if i % 4 == j % 4:
                    assert d < 10
                else:
                    assert d > 900


def test_csv_round_trip():
    spec = SyntheticSpec(n_objects=11, n_times=6, n_groups=2, switch_prob=0.2,
                         seed=13)
    db = gen_synthetic(spec)
    buf = io.StringIO()
    write_trajectories(db, buf)
    buf.seek(0)
    assert parse_trajectories(buf) == db
