"""End-to-end checks of the whole toolkit: worked examples with frozen
results, randomized equivalence against brute-force enumeration, mode and
thread determinism, and an informational runtime comparison of the mining
modes.  Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
verdicts and the runtime report."""
import io
import time

import numpy as np

from comove import (
    FCI,
    ClosedSwarm,
    ClusterId,
    Convoy,
    DbscanParams,
    GroupPattern,
    MiningParams,
    PeriodicPattern,
    SyntheticSpec,
    Tidset,
    build_cluster_matrix,
    combine_fcis,
    extract_patterns,
    gen_synthetic,
    mine_fci,
    mine_incremental,
    mine_parameter_free,
    parse_trajectories,
    periodic_decompose,
)
from comove.cli import main as cli_main
from comove.model import ClusterMatrix
from oracle import (
    brute_closed_swarms,
    brute_convoys,
    brute_group_patterns,
    gen_random_matrix,
    gen_random_nested_matrix,
)
from conftest import (
    expanding_trio_matrix,
    pair_with_gap_matrix,
    three_column_matrix,
    two_stint_matrix,
)


def _cid(t, o):
    return ClusterId(t, o)


def _tid(*ids):
    return Tidset.from_ids(ids)


def _fci(items, *ids):
    return FCI(tuple(_cid(t, o) for t, o in items), _tid(*ids))


def _report(capsys, line):
    with capsys.disabled():
        print(line)


# ---------------------------------------------------------------------------
# 1. Worked example: five objects, three timestamps, frozen itemsets
# ---------------------------------------------------------------------------

def test_worked_example_mines_exact_itemsets_and_patterns(capsys):
    m = three_column_matrix()
    t0 = time.perf_counter()
    fcis = mine_fci(m, 2)
    pats = extract_patterns(fcis, m, MiningParams(min_t=2))
    elapsed = time.perf_counter() - t0
    assert fcis == [
        FCI((_cid(0, 0), _cid(1, 0), _cid(2, 0)), _tid(0, 1)),
        FCI((_cid(0, 0), _cid(2, 0)), _tid(0, 1, 2)),
    ]
    assert ClosedSwarm(_tid(0, 1, 2), (0, 2)) in pats
    assert Convoy(_tid(0, 1), 0, 2) in pats
    assert elapsed < 1.0
    _report(capsys, f"PASS  worked example: both frozen itemsets, their swarm "
                    f"and convoy, in {elapsed * 1000:.1f} ms")


# ---------------------------------------------------------------------------
# 2. Definition scenarios with stated results
# ---------------------------------------------------------------------------

def test_definition_scenarios_reproduce_stated_patterns(capsys):
    # a pair clustered at times 0, 2, 3: the swarm spans the gap
    m = pair_with_gap_matrix()
    pats = extract_patterns(mine_fci(m, 2), m, MiningParams(min_t=2))
    assert [p for p in pats if isinstance(p, ClosedSwarm)] == [
        ClosedSwarm(_tid(0, 1), (0, 2, 3))]

    # a pair joined by a third object halfway: two overlapping convoys
    m = expanding_trio_matrix()
    pats = extract_patterns(mine_fci(m, 2), m, MiningParams(min_t=2))
    assert [p for p in pats if isinstance(p, Convoy)] == [
        Convoy(_tid(0, 1), 0, 3), Convoy(_tid(0, 1, 2), 2, 3)]

    # two stints with a break: one group pattern covering 4 of 5 timestamps
    m = two_stint_matrix()
    pats = extract_patterns(
        mine_fci(m, 2), m, MiningParams(min_t=2, min_c=1, min_wei=0.5))
    groups = [p for p in pats if isinstance(p, GroupPattern)]
    assert groups == [GroupPattern(_tid(0, 1), ((0, 1), (3, 4)), 0.8)]
    assert groups[0].weight == 4 / 5

    # a commuter looping a 4-stop route three times, one detour on the third
    # loop: the two stated periodic patterns over the sub-trajectories
    route = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]
    rows = ["object_id,timestamp,x,y\n"]
    for t in range(12):
        x, y = route[t % 4] if t != 9 else (10.0, 50.0)
        rows.append(f"bird,{t},{x},{y}\n")
    db = parse_trajectories(io.StringIO("".join(rows)))
    sub = periodic_decompose(db, 4).sub_db
    pm = build_cluster_matrix(sub, DbscanParams(eps=0.5, min_pts=2),
                              kind="periodic")
    pats = extract_patterns(mine_fci(pm, 2), pm, MiningParams(min_t=2))
    assert pats == [
        PeriodicPattern(_tid(0, 1), (0, 1, 2, 3)),
        PeriodicPattern(_tid(0, 1, 2), (0, 2, 3)),
    ]
    _report(capsys, "PASS  definition scenarios: gapped swarm, both convoys, "
                    "4/5-weight group, both periodic patterns")


# ---------------------------------------------------------------------------
# 3. Randomized equivalence with brute-force enumeration
# ---------------------------------------------------------------------------

def test_pipeline_matches_brute_force_enumeration(capsys):
    rng = np.random.default_rng(201)
    t0 = time.perf_counter()
    n_settings = 0
    for _ in range(200):
        m = gen_random_matrix(rng)
        for eps in (1, 2, 3):
            fcis = mine_fci(m, eps)
            for min_t in (1, 2, 3):
                params = MiningParams(min_t=min_t)
                pats = extract_patterns(fcis, m, params)
                assert {p for p in pats if isinstance(p, ClosedSwarm)} == set(
                    brute_closed_swarms(m, eps, min_t))
                assert {p for p in pats if isinstance(p, Convoy)} == set(
                    brute_convoys(m, eps, min_t))
                assert {p for p in pats if isinstance(p, GroupPattern)} == set(
                    brute_group_patterns(m, eps, params))
                n_settings += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(capsys, f"PASS  brute-force equivalence: swarms, convoys and "
                    f"group patterns identical on 200 random matrices x 9 "
                    f"threshold settings ({n_settings} runs, {elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# 4. Block-incremental mining equals monolithic for every block size
# ---------------------------------------------------------------------------

def test_incremental_equals_monolithic_for_every_block_size(capsys):
    rng = np.random.default_rng(202)
    n_runs = 0
    for _ in range(200):
        m = gen_random_matrix(rng)
        for eps in (1, 2, 3):
            mono = mine_fci(m, eps)
            for bs in range(1, m.n_times + 1):
                assert mine_incremental(m, eps, block_size=bs) == mono
                n_runs += 1
    _report(capsys, f"PASS  incremental mining: identical itemsets for every "
                    f"block size on 200 random matrices ({n_runs} runs)")


# ---------------------------------------------------------------------------
# 5. Nested and parameter-free modes equal monolithic
# ---------------------------------------------------------------------------

def test_nested_modes_equal_monolithic(capsys):
    rng = np.random.default_rng(203)
    for _ in range(200):
        m = gen_random_matrix(rng)
        for eps in (1, 2, 3):
            assert mine_parameter_free(m, eps) == mine_fci(m, eps)
    for _ in range(120):
        m = gen_random_nested_matrix(rng)
        for eps in (1, 2):
            assert mine_parameter_free(m, eps) == mine_fci(m, eps)
    _report(capsys, "PASS  parameter-free mining matches monolithic on 200 "
                    "random matrices and 120 nested matrices")


# ---------------------------------------------------------------------------
# 6. Combining itemsets of a time split equals re-mining the whole range
# ---------------------------------------------------------------------------

def test_append_combination_equals_full_remine(capsys):
    # four-object instance exercising produce, absorb-both-sides and the
    # early stop, with frozen results
    existing = [_fci([(0, 0)], 0, 1), _fci([(0, 1)], 2, 3)]
    incoming = [_fci([(1, 0)], 0, 1), _fci([(1, 1)], 1, 2, 3)]
    counters = {}
    got = sorted(combine_fcis(existing, incoming, 2, counters=counters),
                 key=lambda f: f.codes)  # the merge's result is unordered
    assert got == [
        _fci([(0, 0), (1, 0)], 0, 1),
        _fci([(0, 1), (1, 1)], 2, 3),
        _fci([(1, 1)], 1, 2, 3),
    ]
    assert counters == {"pairs": 2, "new": 2, "absorbed_existing": 2,
                        "absorbed_incoming": 1, "stops": 1}

    rng = np.random.default_rng(204)
    checked = 0
    while checked < 200:
        m = gen_random_matrix(rng)
        if m.n_times < 2:
            continue
        checked += 1
        split = int(rng.integers(1, m.n_times))
        left = ClusterMatrix.build(
            m.object_labels, m.time_labels,
            [c for c in m.columns if c.cid.time < split], kind=m.kind)
        right = ClusterMatrix.build(
            m.object_labels, m.time_labels,
            [c for c in m.columns if c.cid.time >= split], kind=m.kind)
        for eps in (1, 2, 3):
            assert sorted(combine_fcis(mine_fci(left, eps), mine_fci(right, eps),
                                       eps), key=lambda f: f.codes) == mine_fci(m, eps)
    _report(capsys, "PASS  append-time combination: equals re-mining the "
                    "whole range on 200 random time splits, frozen "
                    "four-object instance reproduced")


# ---------------------------------------------------------------------------
# 7. Thread-count determinism through the command line
# ---------------------------------------------------------------------------

def test_cli_outputs_identical_across_thread_counts(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    assert cli_main(["gen", str(traj), "--objects", "100", "--times", "500",
                     "--groups", "5", "--switch-prob", "0.003",
                     "--seed", "11"]) == 0
    outs = []
    for name, threads in (("t1", "1"), ("t8", "8")):
        out = tmp_path / name
        assert cli_main(["mine", str(traj), str(out), "--eps", "3.0",
                         "--minpts", "2", "--epsilon", "5",
                         "--mode", "incremental", "--threads", threads]) == 0
        outs.append(((out / "patterns.csv").read_bytes(),
                     (out / "fcis.tsv").read_bytes()))
    assert outs[0] == outs[1]
    n_rows = outs[0][0].count(b"\n") - 1
    _report(capsys, f"PASS  thread determinism: --threads 1 and --threads 8 "
                    f"wrote byte-identical outputs for 100 objects x 500 "
                    f"timestamps ({n_rows} pattern rows)")


# ---------------------------------------------------------------------------
# 8. Informational runtime comparison of the mining modes
# ---------------------------------------------------------------------------

def test_mode_runtimes_reported_and_outputs_identical(capsys):
    spec = SyntheticSpec(n_objects=100, n_times=1000, n_groups=5,
                         switch_prob=0.003, seed=11)
    db = gen_synthetic(spec)
    t0 = time.perf_counter()
    m = build_cluster_matrix(db, DbscanParams(eps=3.0, min_pts=2))
    t_cluster = time.perf_counter() - t0

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0

    mono, t_mono = timed(lambda: mine_fci(m, 5))
    runs = [("monolithic", t_mono)]
    for bs in (5, 25, 100):
        got, t = timed(lambda: mine_incremental(m, 5, block_size=bs))
        assert got == mono
        runs.append((f"incremental(block={bs})", t))
    got, t = timed(lambda: mine_parameter_free(m, 5))
    assert got == mono
    runs.append(("parameter-free", t))

    _report(capsys, f"INFO  100 objects x 1000 timestamps -> "
                    f"{len(m.columns)} columns, {len(mono)} itemsets "
                    f"(clustering {t_cluster:.2f} s)")
    _report(capsys, "INFO  " + " | ".join(f"{name} {t:.2f} s"
                                          for name, t in runs))
    _report(capsys, "INFO  runtimes are informational; block sizes of a few "
                    "tens of timestamps are expected to sit in the fastest "
                    "band")
    _report(capsys, "PASS  mode benchmark: all five mining runs returned the "
                    "identical itemset list")
