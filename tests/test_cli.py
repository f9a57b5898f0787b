import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from comove import (
    FCI,
    DbscanParams,
    FciStore,
    build_cluster_matrix,
    combine_fcis,
    interpolate,
    mine_fci,
    parse_trajectories,
    read_fci_store,
    shift_times,
    write_fci_store,
)
from comove import cli
from comove import combine as combine_module
from comove import model as model_module
from comove import store as store_module
from comove.cli import main
from comove.store import read_fci_table
from oracle import brute_write_fci_store


def _gen(tmp_path, name="traj.csv", **kw):
    args = {"objects": 10, "times": 12, "groups": 2, "spread": 0.1, "seed": 1}
    args.update(kw)
    path = tmp_path / name
    rc = main(["gen", str(path),
               "--objects", str(args["objects"]), "--times", str(args["times"]),
               "--groups", str(args["groups"]), "--spread", str(args["spread"]),
               "--seed", str(args["seed"]),
               "--switch-prob", str(args.get("switch_prob", 0.0))])
    assert rc == 0
    return path


MINE_FLAGS = ["--eps", "2.0", "--minpts", "2", "--epsilon", "2"]


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_is_deterministic(tmp_path):
    a = _gen(tmp_path, "a.csv", seed=5)
    b = _gen(tmp_path, "b.csv", seed=5)
    c = _gen(tmp_path, "c.csv", seed=6)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert a.read_text().startswith("object_id,timestamp,x,y\n")


# ---------------------------------------------------------------------------
# mine
# ---------------------------------------------------------------------------

def test_mine_writes_store_and_patterns(tmp_path, capsys):
    traj = _gen(tmp_path)
    out = tmp_path / "out"
    assert main(["mine", str(traj), str(out)] + MINE_FLAGS) == 0
    assert (out / "fcis.tsv").exists()
    assert (out / "patterns.csv").exists()
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["command"] == "mine"
    assert summary["mode"] == "monolithic"
    assert summary["n_fcis"] >= 1
    assert summary["n_patterns"] == sum(summary["patterns"].values())
    assert set(summary["patterns"]) <= {
        "closed_swarm", "convoy", "group_pattern", "moving_cluster",
        "periodic_pattern"}


def test_mine_modes_agree_byte_for_byte(tmp_path):
    traj = _gen(tmp_path, objects=20, times=30, groups=3, switch_prob=0.05)
    outputs = []
    for name, extra in (("mono", ["--mode", "monolithic"]),
                        ("incr", ["--mode", "incremental", "--block-size", "7"]),
                        ("incr2", ["--mode", "incremental"]),
                        ("nest", ["--mode", "nested"])):
        out = tmp_path / name
        assert main(["mine", str(traj), str(out)] + MINE_FLAGS + extra) == 0
        outputs.append(((out / "fcis.tsv").read_bytes(),
                        (out / "patterns.csv").read_bytes()))
    assert all(o == outputs[0] for o in outputs[1:])


def test_mine_threads_agree_byte_for_byte(tmp_path):
    traj = _gen(tmp_path, objects=20, times=30, groups=3, switch_prob=0.05)
    outs = []
    for name, n in (("t1", "1"), ("t4", "4")):
        out = tmp_path / name
        assert main(["mine", str(traj), str(out)] + MINE_FLAGS
                    + ["--mode", "incremental", "--threads", n]) == 0
        outs.append(((out / "fcis.tsv").read_bytes(),
                     (out / "patterns.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_mine_minpts_spelling_variants(tmp_path):
    traj = _gen(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["mine", str(traj), str(a), "--eps", "2.0", "--minpts", "3"]) == 0
    assert main(["mine", str(traj), str(b), "--eps", "2.0", "--min-pts", "3"]) == 0
    assert (a / "fcis.tsv").read_bytes() == (b / "fcis.tsv").read_bytes()


def test_mine_pre_clustered_matches_direct(tmp_path):
    traj = _gen(tmp_path)
    cols = tmp_path / "cols.tsv"
    assert main(["convert", "columns", str(traj), str(cols),
                 "--eps", "2.0", "--minpts", "2"]) == 0
    direct, pre = tmp_path / "direct", tmp_path / "pre"
    assert main(["mine", str(traj), str(direct)] + MINE_FLAGS) == 0
    assert main(["mine", str(cols), str(pre), "--pre-clustered",
                 "--epsilon", "2"]) == 0
    # the same store, but only a store clustered here records its clustering
    clustering = "# clustering\teps=2.0\tmin_pts=2\tinterpolate=True\n"
    direct_store = (direct / "fcis.tsv").read_text()
    assert clustering in direct_store
    assert direct_store.replace(clustering, "") == (pre / "fcis.tsv").read_text()
    assert (direct / "patterns.csv").read_bytes() == (pre / "patterns.csv").read_bytes()


def test_mine_emit_geojson(tmp_path):
    traj = _gen(tmp_path)
    out = tmp_path / "out"
    assert main(["mine", str(traj), str(out), "--emit", "both"] + MINE_FLAGS) == 0
    doc = json.loads((out / "patterns.geojson").read_text())
    assert doc["type"] == "FeatureCollection"
    n_rows = len((out / "patterns.csv").read_text().strip().splitlines()) - 1
    assert len(doc["features"]) == n_rows


def test_mine_periodic_route(tmp_path):
    # one commuter looping a 4-stop route three times, with a detour at the
    # second stop of the third loop
    route = [(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]
    rows = ["object_id,timestamp,x,y\n"]
    for t in range(12):
        x, y = route[t % 4] if t != 9 else (10.0, 50.0)
        rows.append(f"bird,{t},{x},{y}\n")
    traj = tmp_path / "route.csv"
    traj.write_text("".join(rows))
    out = tmp_path / "out"
    assert main(["mine", str(traj), str(out), "--period", "4",
                 "--eps", "0.5", "--minpts", "2", "--epsilon", "2"]) == 0
    assert (out / "patterns.csv").read_text() == (
        "kind,objects,times,weight\n"
        "periodic_pattern,bird#0;bird#1,0;1;2;3,1.0\n"
        "periodic_pattern,bird#0;bird#1;bird#2,0;2;3,0.75\n"
    )
    assert (out / "fcis.tsv").read_text() == (
        "# epsilon\t2\n"
        "# clustering\teps=0.5\tmin_pts=2\tinterpolate=True\n"
        "# n_objects\t3\n"
        "# time_range\t0\t3\n"
        "# objects\tbird#0,bird#1,bird#2\n"
        "# times\t0,1,2,3\n"
        "2\tbird#0,bird#1\t0..3:0\n"
        "3\tbird#0,bird#1,bird#2\t0:0;2..3:0\n"
    )


# ---------------------------------------------------------------------------
# append
# ---------------------------------------------------------------------------

def _split_csv(src, dest_a, dest_b, cut):
    lines = src.read_text().splitlines(keepends=True)
    head, body = lines[0], lines[1:]
    a = [l for l in body if int(l.split(",")[1]) < cut]
    b = [l for l in body if int(l.split(",")[1]) >= cut]
    dest_a.write_text(head + "".join(a))
    dest_b.write_text(head + "".join(b))


def test_append_equals_full_remine(tmp_path, capsys):
    full = _gen(tmp_path, "full.csv", objects=12, times=20, groups=3,
                switch_prob=0.05)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    _split_csv(full, first, second, 12)

    out_first = tmp_path / "of"
    out_app = tmp_path / "oa"
    out_full = tmp_path / "ofull"
    assert main(["mine", str(first), str(out_first)] + MINE_FLAGS) == 0
    assert main(["append", str(second), str(out_app),
                 "--store", str(out_first / "fcis.tsv"),
                 "--eps", "2.0", "--minpts", "2"]) == 0
    assert main(["mine", str(full), str(out_full)] + MINE_FLAGS) == 0
    assert (out_app / "fcis.tsv").read_bytes() == (out_full / "fcis.tsv").read_bytes()

    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-2])
    assert summary["command"] == "append"
    assert {"pairs", "new", "absorbed_existing", "absorbed_incoming",
            "stops"} <= set(summary)
    assert "update_was_recommended" not in summary


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: gaps are interpolated per batch, so a gap "
                   "that straddles the append boundary stays open")
def test_append_across_a_trajectory_gap_equals_full_remine(tmp_path):
    # b is not seen at time 2: a full mine fills the gap from times 1 and 3
    # and writes 0..3:0; the store mined from times 0-2 cannot, and the
    # append of time 3 writes 0..1:0;3:0
    full = tmp_path / "full.csv"
    full.write_text("object_id,timestamp,x,y\na,0,0,0\na,1,0,0\na,2,0,0\na,3,0,0\n"
                    "b,0,0,1\nb,1,0,1\nb,3,0,1\n")
    assert main(["mine", str(full), str(tmp_path / "full")] + MINE_FLAGS) == 0
    assert (tmp_path / "full" / "fcis.tsv").read_text().endswith("\n2\ta,b\t0..3:0\n")
    base = _cut_csv(full, tmp_path / "base.csv", 0, 3)
    assert main(["mine", str(base), str(tmp_path / "base")] + MINE_FLAGS) == 0
    assert main(["append", str(_cut_csv(full, tmp_path / "batch.csv", 3, 4)),
                 str(tmp_path / "app"), "--store", str(tmp_path / "base" / "fcis.tsv")]
                + APPEND_FLAGS) == 0
    assert (tmp_path / "app" / "fcis.tsv").read_text() == (
        tmp_path / "full" / "fcis.tsv").read_text()


def test_append_rejects_epsilon_mismatch(tmp_path):
    traj = _gen(tmp_path)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    _split_csv(traj, first, second, 6)
    out = tmp_path / "out"
    assert main(["mine", str(first), str(out)] + MINE_FLAGS) == 0
    assert main(["append", str(second), str(tmp_path / "x"),
                 "--store", str(out / "fcis.tsv"), "--epsilon", "3"]) == 2


def test_append_rejects_overlapping_times(tmp_path, capsys):
    traj = _gen(tmp_path)
    out = tmp_path / "out"
    assert main(["mine", str(traj), str(out)] + MINE_FLAGS) == 0
    # appending the very same time range must fail
    assert main(["append", str(traj), str(tmp_path / "x"),
                 "--store", str(out / "fcis.tsv"), "--eps", "2.0"]) == 2
    assert "not strictly after" in capsys.readouterr().err


def _cut_csv(src, dest, lo, hi):
    """The rows of ``src`` with timestamps in [lo, hi), header kept."""
    lines = src.read_text().splitlines(keepends=True)
    dest.write_text(lines[0] + "".join(
        l for l in lines[1:] if lo <= int(l.split(",")[1]) < hi))
    return dest


APPEND_FLAGS = ["--eps", "2.0", "--minpts", "2"]


def test_append_chain_matches_the_fci_merge(tmp_path, capsys):
    # Each batch of the CLI chain writes what merging FCIs through the
    # public functions writes, with the same merge counters.
    full = _gen(tmp_path, "full.csv", objects=14, times=45, groups=3,
                switch_prob=0.05)
    assert main(["mine", str(_cut_csv(full, tmp_path / "base.csv", 0, 20)),
                 str(tmp_path / "b0")] + MINE_FLAGS) == 0
    store, new_total = tmp_path / "b0" / "fcis.tsv", 0
    for k in range(5):
        batch = _cut_csv(full, tmp_path / f"batch{k}.csv", 20 + 5 * k, 25 + 5 * k)
        out = tmp_path / f"b{k + 1}"
        capsys.readouterr()
        assert main(["append", str(batch), str(out), "--store", str(store)]
                    + APPEND_FLAGS) == 0
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])

        prev = read_fci_store(store)
        db = interpolate(parse_trajectories(batch))
        matrix = build_cluster_matrix(db.align_to(prev.object_labels),
                                      DbscanParams(eps=2.0, min_pts=2))
        counters: dict = {}
        fcis = combine_fcis(list(prev.fcis),
                            shift_times(mine_fci(matrix, prev.epsilon),
                                        len(prev.time_labels)),
                            prev.epsilon, counters=counters)
        want = FciStore(prev.epsilon, prev.object_labels,
                        prev.time_labels + db.time_labels, tuple(fcis),
                        prev.clustering)
        buf, oracle_buf = io.StringIO(), io.StringIO()
        write_fci_store(want, buf)
        brute_write_fci_store(want, oracle_buf)
        got = (out / "fcis.tsv").read_text()
        assert got == buf.getvalue() == oracle_buf.getvalue()
        assert {key: summary[key] for key in counters} == counters
        assert summary["n_existing"] == len(prev.fcis)
        assert summary["n_combined"] == len(fcis)
        new_total += counters["new"]
        store = out / "fcis.tsv"
    assert new_total > 0


def test_append_reports_the_store_runs_it_read(tmp_path, capsys):
    # 9 items in 6 runs: 0..2:0 is three items, 0:0;2:0 two runs of one.
    store = tmp_path / "fcis.tsv"
    store.write_text("# epsilon\t1\n# objects\ta,b\n# times\t0,1,2\n"
                     "2\ta,b\t0..2:0\n1\ta\t0..1:0;2:1\n1\tb\t0:0;2:0\n"
                     "1\ta\t0:1\n")
    batch = tmp_path / "batch.csv"
    batch.write_text("object_id,timestamp,x,y\na,3,0,0\nb,3,0,1\n")
    assert main(["append", str(batch), str(tmp_path / "out"), "--store", str(store)]
                + APPEND_FLAGS) == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert {key: summary[key] for key in summary if key.startswith("store_")} == {
        "store_rows": 4, "store_items": 9, "store_runs": 6}


def test_append_to_a_store_of_one_field_per_item_equals_full_remine(tmp_path):
    # data/itemwise_fcis.tsv is fcis.tsv as comove wrote it before runs: one
    # time:ordinal field per item and no clustering line.  It was mined with
    # MINE_FLAGS from times 0-29 of the trajectories generated below.
    old = Path(__file__).parent / "data" / "itemwise_fcis.tsv"
    store = read_fci_store(old)
    assert read_fci_table(old).fcis.keys is None and store.clustering is None
    rewritten = tmp_path / "runs.tsv"
    write_fci_store(store, rewritten)
    assert len(rewritten.read_bytes()) < len(old.read_bytes())
    assert read_fci_store(rewritten) == store

    full = _gen(tmp_path, "full.csv", objects=14, times=45, groups=3,
                switch_prob=0.05)
    batch = _cut_csv(full, tmp_path / "batch.csv", 30, 45)
    assert main(["append", str(batch), str(tmp_path / "a"), "--store", str(old)]
                + APPEND_FLAGS) == 0
    assert main(["mine", str(full), str(tmp_path / "m")] + MINE_FLAGS) == 0
    remined = (tmp_path / "m" / "fcis.tsv").read_text()
    assert (tmp_path / "a" / "fcis.tsv").read_text() == remined.replace(
        "# clustering\teps=2.0\tmin_pts=2\tinterpolate=True\n", "")


@pytest.mark.parametrize("flags, error", [
    (["--eps", "0.0001", "--minpts", "5"],
     "eps 0.0001 does not match the store's eps 1.0"),
    (["--eps", "1", "--minpts", "5"], "min_pts 5 does not match the store's min_pts 2"),
    (["--eps", "1", "--no-interpolate"],
     "interpolate False does not match the store's interpolate True"),
])
@pytest.mark.parametrize("command", ["append", "convert-patterns"])
def test_other_clustering_flags_exit_2_before_any_output(tmp_path, capsys,
                                                          command, flags, error):
    # A store records the clustering it was mined with; without the check,
    # appending or decoding with other flags exits 0 and mixes itemsets of
    # two clusterings.
    traj = _gen(tmp_path)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    _split_csv(traj, first, second, 6)
    assert main(["mine", str(first), str(tmp_path / "m"), "--eps", "1",
                 "--minpts", "2", "--epsilon", "2"]) == 0
    store, dest = tmp_path / "m" / "fcis.tsv", tmp_path / "out"
    argv = (["append", str(second), str(dest), "--store", str(store)]
            if command == "append" else
            ["convert", "patterns", str(store), str(first), str(dest)])
    capsys.readouterr()
    assert main(argv + flags) == 2
    assert f"comove: error: {error}\n" in capsys.readouterr().err
    assert not dest.exists()
    if command == "append":
        # a store that records no clustering is appended to as before
        store.write_text("".join(line for line in store.read_text().splitlines(True)
                                 if not line.startswith("# clustering\t")))
        assert main(argv + flags) == 0


def test_append_builds_fcis_for_the_batch_only(tmp_path, monkeypatch):
    # The stored and the batch itemsets are read, mined, merged and written
    # packed, so an append reads no FCI's ClusterId tuple, whatever the store
    # holds; and onto a store as the writer writes it, the stored rows stay
    # one table from read to write, so no FCI is built for a stored row and
    # no union FCI at all (the merge's unions of stored rows are built only
    # in reading it, by packed_fci).
    full = _gen(tmp_path, "full.csv", objects=14, times=45, groups=3,
                switch_prob=0.05)
    batch = _cut_csv(full, tmp_path / "batch.csv", 40, 45)
    reads, made = [], []
    items, row_fcis, union = FCI.items, model_module._row_fcis, combine_module.packed_fci
    sizes = []
    for span in (10, 35):
        base = _cut_csv(full, tmp_path / f"base{span}.csv", 0, span)
        assert main(["mine", str(base), str(tmp_path / f"m{span}")] + MINE_FLAGS) == 0
        store = tmp_path / f"m{span}" / "fcis.tsv"
        sizes.append(len(read_fci_store(store).fcis))
        with monkeypatch.context() as m:
            m.setattr(FCI, "items", property(
                lambda f: reads.append(f) or items.fget(f)))
            m.setattr(model_module, "_row_fcis", lambda rows: made.extend(
                ["rows"] * isinstance(rows, store_module._StoreRows)) or row_fcis(rows))
            m.setattr(combine_module, "packed_fci",
                      lambda *a: made.append("union") or union(*a))
            assert main(["append", str(batch), str(tmp_path / f"a{span}"),
                         "--store", str(store)] + APPEND_FLAGS) == 0
            assert reads == [] and made == []
            assert read_fci_store(store).fcis[0].items and len(reads) == 1
            assert made == ["rows"]
            reads.clear()
            made.clear()
    small_store, big_store = sizes
    assert big_store > 2 * small_store


_TWO_PAIRS = "# epsilon\t2\n# objects\ta,b,c,d\n# times\t0,1,2\n2\ta,b\t0..2:0\n"


@pytest.mark.parametrize("row, error", [
    ("2\tc,d\t0..2:1\n", None),
    ("2\tc,d\t0..7:1\n", "line 5: unknown time label '7'"),
    ("2\tc,d\t2:1;0..1:1\n", "line 5: FCI items must be strictly ascending"),
    ("2\tc,c\t0..2:1\n", "line 5: support 2 does not match 2 member ids"),
    ("2\tc,d\t0..1:1;2:1\n", None),        # a run that is not maximal
    ("2\td,c\t0..2:1\n", None),            # ids out of universe order
    ("02\tc,d\t0..2:1\n", None),           # a support not as written
])
def test_append_checks_the_rows_its_merge_never_touches(tmp_path, capsys, row, error):
    # The batch clusters a and b only, so the merge joins the first row and
    # never builds the codes of the second; the append still refuses a
    # faulty second row, naming its line, and writes nothing, and writes the
    # rows read otherwise than the writer writes them as it writes them.
    store = tmp_path / "fcis.tsv"
    store.write_text(_TWO_PAIRS + row)
    batch = tmp_path / "batch.csv"
    batch.write_text("object_id,timestamp,x,y\na,3,0,0\nb,3,0,1\n"
                     "c,3,50,50\nd,3,-50,-50\n")
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["append", str(batch), str(out), "--store", str(store)] + APPEND_FLAGS)
    if error is not None:
        assert rc == 2
        assert f"comove: error: {store}: {error}\n" in capsys.readouterr().err
        assert not out.exists()
        return
    assert rc == 0
    assert (out / "fcis.tsv").read_text() == (
        "# epsilon\t2\n# n_objects\t4\n# time_range\t0\t3\n# objects\ta,b,c,d\n"
        "# times\t0,1,2,3\n2\ta,b\t0..3:0\n2\tc,d\t0..2:1\n")


def test_the_parser_is_built_once_and_keeps_no_values(monkeypatch):
    # main() parses every call with one parser; each call sees only its own
    # flags, and the defaults of those it does not give
    seen = []
    monkeypatch.setattr(cli, "_cmd_append", lambda args: seen.append(vars(args)) or 0)
    monkeypatch.setattr(cli, "_cmd_mine",
                        lambda args, parser: seen.append(vars(args)) or 0)
    assert main(["append", "in.csv", "out", "--store", "s.tsv", "--eps", "2"]) == 0
    assert main(["mine", "in.csv", "out"]) == 0
    assert cli.build_parser() is cli.build_parser()
    append, mine = seen
    assert (append["command"], append["eps"], append["store"]) == ("append", 2.0, "s.tsv")
    assert (mine["command"], mine["eps"], mine["epsilon"]) == ("mine", 0.001, 2)
    assert "store" not in mine and "mode" not in append


# ---------------------------------------------------------------------------
# convert patterns
# ---------------------------------------------------------------------------

def test_convert_patterns_matches_mine(tmp_path):
    traj = _gen(tmp_path)
    out = tmp_path / "mined"
    assert main(["mine", str(traj), str(out)] + MINE_FLAGS) == 0
    out2 = tmp_path / "converted"
    assert main(["convert", "patterns", str(out / "fcis.tsv"), str(traj),
                 str(out2), "--eps", "2.0", "--minpts", "2"]) == 0
    assert (out / "patterns.csv").read_bytes() == (out2 / "patterns.csv").read_bytes()


def test_convert_patterns_rejects_wrong_trajectories(tmp_path, capsys):
    traj = _gen(tmp_path, "a.csv", seed=1)
    other = _gen(tmp_path, "b.csv", seed=1, objects=11)
    out = tmp_path / "mined"
    assert main(["mine", str(traj), str(out)] + MINE_FLAGS) == 0
    assert main(["convert", "patterns", str(out / "fcis.tsv"), str(other),
                 str(tmp_path / "x"), "--eps", "2.0"]) == 2
    assert "different object universes" in capsys.readouterr().err


def test_convert_patterns_rejects_foreign_item_alone_in_time(tmp_path, capsys):
    # 5:9 names no column; at --min-t 2 no guarded run or Jaccard reaches it,
    # so only mapping every item to its column catches it
    traj = _gen(tmp_path)
    out = tmp_path / "mined"
    assert main(["mine", str(traj), str(out)] + MINE_FLAGS) == 0
    store = out / "fcis.tsv"
    with open(store, "a") as fh:
        fh.write("2\to01,o02\t0:0;1:0;5:9\n")
    dest = tmp_path / "converted"
    capsys.readouterr()
    assert main(["convert", "patterns", str(store), str(traj), str(dest),
                 "--eps", "2.0", "--minpts", "2", "--min-t", "2"]) == 2
    assert "absent from the matrix" in capsys.readouterr().err
    assert not dest.exists()


def test_convert_patterns_rejects_itemset_outside_its_columns(tmp_path, capsys):
    # o01 and o02 sit in the disjoint clusters 3:0 and 3:1, so no itemset
    # holding both can use those columns
    traj = _gen(tmp_path)
    out = tmp_path / "mined"
    assert main(["mine", str(traj), str(out)] + MINE_FLAGS) == 0
    store = out / "fcis.tsv"
    with open(store, "a") as fh:
        fh.write("2\to01,o02\t3:0;3:1;4:0\n")
    dest = tmp_path / "converted"
    capsys.readouterr()
    assert main(["convert", "patterns", str(store), str(traj), str(dest),
                 "--eps", "2.0", "--minpts", "2", "--min-t", "1"]) == 2
    assert "not in all its columns" in capsys.readouterr().err
    assert not (dest / "patterns.csv").exists()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(tmp_path):
    for argv in ([], ["mine"], ["mine", "in.csv"], ["bogus"],
                 ["mine", "a", "b", "--no-such-flag"],
                 ["mine", "a", "b", "--mode", "bogus"]):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 1
    # flag combinations rejected up front
    traj = _gen(tmp_path)
    with pytest.raises(SystemExit) as ei:
        main(["mine", str(traj), str(tmp_path / "o"),
              "--pre-clustered", "--period", "4"])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["mine", str(traj), str(tmp_path / "o"),
              "--pre-clustered", "--emit", "geojson"])
    assert ei.value.code == 1
    for mode in ([], ["--mode", "monolithic"], ["--mode", "nested"]):
        with pytest.raises(SystemExit) as ei:
            main(["mine", str(traj), str(tmp_path / "o"), "--block-size", "7"]
                 + mode)
        assert ei.value.code == 1
    assert not (tmp_path / "o").exists()


def test_data_errors_exit_2(tmp_path):
    assert main(["mine", str(tmp_path / "missing.csv"), str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("a,1,zero,0\n")
    assert main(["mine", str(bad), str(tmp_path / "o")]) == 2
    assert main(["mine", str(bad), str(tmp_path / "o"), "--epsilon", "0"]) == 2


@pytest.mark.parametrize("case, message", [
    ("undecodable-csv", "can't decode byte 0xff"),
    ("undecodable-store", "can't decode byte 0xff"),
    ("over-long-field", "field larger than field limit"),
], ids=["undecodable-csv", "undecodable-store", "over-long-field"])
def test_unreadable_input_exits_2(tmp_path, capsys, case, message):
    traj = _gen(tmp_path)
    out = tmp_path / "o"
    argv = ["mine", str(traj), str(out), "--eps", "2.0", "--minpts", "2"]
    bad = traj
    if case == "undecodable-csv":
        lines = traj.read_bytes().split(b"\n")
        lines[3] = b"\xff\xfe" + lines[3]
        traj.write_bytes(b"\n".join(lines))
    elif case == "undecodable-store":
        store = tmp_path / "s" / "fcis.tsv"
        assert main(argv[:2] + [str(store.parent)] + argv[3:]) == 0
        store.write_bytes(store.read_bytes() + b"2\to\xff\t0:0\n")
        argv = ["append", str(traj), str(out), "--store", str(store)]
        bad = store
    else:
        with open(traj, "a") as fh:
            fh.write("x" * 140_000 + ",99,0,0\n")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"comove: error: {bad}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("bad_line, message", [
    ("nan\t0\ta,b", "time label 'nan' is not finite"),
    ("1\t4294967296\ta,b", "ordinal must be < 2**32"),
], ids=["nan-time", "ordinal-too-big"])
def test_mine_pre_clustered_rejects_a_bad_line(tmp_path, capsys, bad_line, message):
    cols = tmp_path / "cols.tsv"
    cols.write_text(f"0\t0\ta,b\n{bad_line}\nnan\t1\tc,d\ninf\t0\ta,b\n")
    out = tmp_path / "o"
    assert main(["mine", "--pre-clustered", str(cols), str(out), "--epsilon", "2"]) == 2
    assert f"line 2: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mine", "{missing}", "{out}"],
    ["mine", "{missing}", "{out}", "--pre-clustered"],
    ["append", "{missing}", "{out}", "--store", "{missing}"],
    ["convert", "columns", "{missing}", "{out}/cols.tsv"],
    ["convert", "patterns", "{missing}", "{missing}", "{out}"],
], ids=["mine", "mine-pre-clustered", "append", "convert-columns",
        "convert-patterns"])
def test_threads_below_one_exit_2_before_any_io(tmp_path, capsys, argv):
    # the input does not exist, so only a check made before reading it can
    # report the thread count
    missing, out = tmp_path / "missing.csv", tmp_path / "out"
    argv = [a.format(missing=missing, out=out) for a in argv]
    assert main(argv + ["--threads", "0"]) == 2
    assert "threads must be an int >= 1, got 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "0"], "epsilon must be an int >= 1, got 0"),
    (["--mode", "incremental", "--block-size", "0"],
     "block_size must be an int >= 1 or None, got 0"),
], ids=["epsilon", "block-size"])
def test_mine_refuses_support_and_block_size_before_any_io(tmp_path, capsys,
                                                           flags, message):
    # the input does not exist, so only a check made before reading it can
    # report the flag
    argv = ["mine", str(tmp_path / "missing.csv"), str(tmp_path / "out")]
    assert main(argv + flags) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mine_rejects_object_id_with_separator(tmp_path):
    traj = tmp_path / "traj.csv"
    traj.write_text('"a,b",0,0,0\n"a,b",1,0,0\nc,0,0,0\nc,1,0,0\n')
    out = tmp_path / "o"
    assert main(["mine", str(traj), str(out)] + MINE_FLAGS) == 2
    assert not (out / "fcis.tsv").exists()


@pytest.mark.parametrize("label", ["a,b", "a\tb"])
def test_convert_columns_rejects_object_id_with_separator(tmp_path, capsys, label):
    # the columns file joins member ids with ',' between tabs, so "a,b"
    # would read back as two objects and "a\tb" not at all
    traj = tmp_path / "traj.csv"
    traj.write_text(f'"{label}",0,0,0\n"{label}",1,0,0\nc,0,0,0\nc,1,0,0\n')
    cols = tmp_path / "cols.tsv"
    assert main(["convert", "columns", str(traj), str(cols), "--eps", "2.0"]) == 2
    assert "comove: error: object id" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["traj.csv"]


def test_mine_and_convert_reject_object_id_with_pattern_separator(tmp_path):
    # pattern files join member ids with ';', so "a;b" would read back as
    # two members; the store alone could hold it, but no output is written
    traj = tmp_path / "traj.csv"
    traj.write_text("a;b,0,0,0\na;b,1,0,0\nc,0,0,0\nc,1,0,0\n")
    out = tmp_path / "o"
    for emit in ("csv", "geojson", "both"):
        assert main(["mine", str(traj), str(out), "--emit", emit]
                    + MINE_FLAGS) == 2
        assert not out.exists()
    store = tmp_path / "fcis.tsv"
    write_fci_store(FciStore(2, ("a;b", "c"), (0, 1), ()), store)
    assert main(["convert", "patterns", str(store), str(traj), str(out),
                 "--emit", "both", "--eps", "2.0"]) == 2
    assert not (out / "patterns.csv").exists()
    assert not (out / "patterns.geojson").exists()


# ---------------------------------------------------------------------------
# Console script
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("cmd", [["comove"], [sys.executable, "-m", "comove.cli"]],
                         ids=["script", "module"])
def test_console_script_smoke(tmp_path, cmd):
    if shutil.which(cmd[0]) is None:
        pytest.skip(f"{cmd[0]} not on PATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = tmp_path / "t.csv"
    r = subprocess.run(cmd + ["gen", str(out), "--objects", "4", "--times", "3"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert out.exists()
    summary = json.loads(r.stderr.strip().splitlines()[-1])
    assert summary["command"] == "gen"
    r = subprocess.run(cmd + ["--help"], capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert "mine" in r.stdout and "append" in r.stdout
    r = subprocess.run(cmd + ["mine", str(tmp_path / "missing.csv"),
                              str(tmp_path / "o")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 2
    assert "comove: error:" in r.stderr
