import io
import json
import math
from dataclasses import replace
from itertools import chain
from operator import lt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comove import (
    FCI,
    ClusterId,
    ClusterMatrix,
    Column,
    Convoy,
    ClosedSwarm,
    FciStore,
    GroupPattern,
    MiningParams,
    MovingCluster,
    ParseError,
    PeriodicPattern,
    Tidset,
    TrajectoryDB,
    UniverseError,
    combine_fcis,
    extract_patterns,
    mine_fci,
    parse_trajectories,
    read_cluster_columns,
    read_fci_store,
    write_cluster_columns,
    write_fci_store,
    write_patterns_csv,
    write_patterns_geojson,
    write_trajectories,
)
from comove import store as store_module
from comove.model import PeriodicPattern
from oracle import (
    brute_read_fci_store,
    brute_write_fci_store,
    brute_write_patterns_csv,
    brute_write_trajectories,
    gen_random_matrix,
)
from conftest import expanding_trio_matrix, make_matrix, three_column_matrix


def _round_trip(write, read, value):
    buf = io.StringIO()
    write(value, buf)
    buf.seek(0)
    return read(buf)


# ---------------------------------------------------------------------------
# Trajectory CSV
# ---------------------------------------------------------------------------

def test_trajectory_round_trip():
    rng = np.random.default_rng(9)
    xy = rng.uniform(-100, 100, size=(5, 7, 2))
    xy[rng.random((5, 7)) < 0.3] = np.nan
    xy[:, 0] = rng.uniform(size=(5, 2))  # every object observed somewhere
    xy[0, :] = rng.uniform(size=(7, 2))  # every timestamp observed somewhere
    db = TrajectoryDB(tuple(f"o{i}" for i in range(5)), tuple(range(7)), xy)
    assert _round_trip(write_trajectories, parse_trajectories, db) == db


def test_trajectory_write_format():
    db = TrajectoryDB(("a",), (3,), np.array([[[0.25, -1.5]]]))
    buf = io.StringIO()
    write_trajectories(db, buf)
    assert buf.getvalue() == "object_id,timestamp,x,y\na,3,0.25,-1.5\n"


def test_trajectory_round_trip_with_float_time_labels():
    # an ISO stamp with a fractional second parses to a float label, which
    # is written back as ISO-8601 UTC with microseconds
    src = ("object_id,timestamp,x,y\n"
           "a,2021-01-01T00:00:00.5Z,0,0\n"
           "a,2021-01-01T00:00:01Z,1,1\n"
           "b,1969-12-31T23:59:59.25Z,2,2\n")
    db = parse_trajectories(io.StringIO(src))
    assert db.time_labels == (-0.75, 1609459200.5, 1609459201)
    buf = io.StringIO()
    write_trajectories(db, buf)
    assert "a,2021-01-01T00:00:00.500000+00:00,0.0,0.0\n" in buf.getvalue()
    buf.seek(0)
    assert parse_trajectories(buf) == db


@pytest.mark.parametrize("label", [1609459200.1234567, 1e20, math.nan])
def test_trajectory_write_refuses_a_float_label_iso_cannot_hold(tmp_path, label):
    db = TrajectoryDB(("a",), (0, label), np.zeros((1, 2, 2)))
    buf = io.StringIO()
    with pytest.raises(ParseError, match="no exact ISO-8601 form"):
        write_trajectories(db, buf)
    assert buf.getvalue() == ""
    with pytest.raises(ParseError):
        write_trajectories(db, tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


def test_trajectory_write_to_path(tmp_path):
    db = TrajectoryDB(("a",), (0,), np.zeros((1, 1, 2)))
    p = tmp_path / "out.csv"
    write_trajectories(db, p)
    assert parse_trajectories(p) == db


# " s" would read back as "s", "a" and " a" as one object observed twice,
# "" not at all, and "a\rb" is left unquoted by csv before Python 3.13
@pytest.mark.parametrize("label", ["", " ", " s", "s ", "a\rb", "\ta"])
def test_trajectory_write_refuses_ids_that_do_not_read_back(tmp_path, label):
    db = TrajectoryDB(("a", label), (0,), np.zeros((2, 1, 2)))
    buf = io.StringIO()
    with pytest.raises(ParseError, match="cannot be written to a trajectory CSV") \
            as refused:
        write_trajectories(db, buf)
    assert repr(label) in str(refused.value)
    assert buf.getvalue() == ""
    with pytest.raises(ParseError):
        write_trajectories(db, tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []


# ids csv must quote, and characters that need no quoting
_ODD_IDS = st.text(st.sampled_from('ab,"\n é;\u4e2d'), min_size=1, max_size=4)


@st.composite
def _trajectory_dbs(draw):
    labels = draw(st.lists(_ODD_IDS.filter(lambda o: o == o.strip()),
                           min_size=1, max_size=5, unique=True))
    times = draw(st.one_of(
        st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=6, unique=True),
        # float labels with an exact ISO-8601 form, written as ISO-8601
        st.lists(st.builds(lambda s, k: s + k / 8, st.integers(-10**9, 4 * 10**9),
                           st.integers(1, 7)),
                 min_size=1, max_size=6, unique=True)))
    n = len(labels) * len(times)
    # 0 unobserved, 1 observed, 2 a finite x with a NaN y
    cells = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    coords = draw(st.lists(st.floats(allow_nan=False), min_size=2 * n, max_size=2 * n))
    xy = np.array(coords, dtype=float).reshape(len(labels), len(times), 2)
    xy[(cells == 0).reshape(len(labels), len(times))] = np.nan
    xy[(cells == 2).reshape(len(labels), len(times)), 1] = np.nan
    return TrajectoryDB(tuple(labels), tuple(times), xy)


@pytest.mark.parametrize("batch", [1, 3, store_module._WRITE_CELLS])
@settings(max_examples=150, deadline=None)
@given(db=_trajectory_dbs())
def test_trajectory_writer_matches_the_row_by_row_oracle(batch, db):
    want = io.StringIO()
    brute_write_trajectories(db, want)
    got = io.StringIO()
    with mock.patch.object(store_module, "_WRITE_CELLS", batch):
        write_trajectories(db, got)
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------------------
# Cluster-column dump
# ---------------------------------------------------------------------------

def test_cluster_columns_round_trip_random():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 30:
        m = gen_random_matrix(rng)
        covered_objects = set()
        covered_times = set()
        for c in m.columns:
            covered_objects.update(c.members.ids)
            covered_times.add(c.cid.time)
        if covered_objects != set(range(m.n_objects)) \
                or covered_times != set(range(m.n_times)):
            continue  # the format only keeps what some column mentions
        checked += 1
        assert _round_trip(write_cluster_columns, read_cluster_columns, m) == m


def test_cluster_columns_drop_uncovered_universe():
    # objects o4,o5 are in no cluster, so reading the dump shrinks the
    # universe to the three mentioned objects
    m = three_column_matrix()
    assert m.n_objects == 5
    got = _round_trip(write_cluster_columns, read_cluster_columns, m)
    assert got == make_matrix(
        {(0, 0): [0, 1, 2], (1, 0): [0, 1], (2, 0): [0, 1, 2]}, n_objects=3)


def test_cluster_columns_format_and_comments():
    got = read_cluster_columns(io.StringIO(
        "# clusters\n\n0.5\t0\tb,a\n2\t0\tc,d\n"))
    assert got.time_labels == (0.5, 2)
    assert got.object_labels == ("a", "b", "c", "d")
    assert got.columns[0].members == Tidset.from_ids([0, 1])

    buf = io.StringIO()
    write_cluster_columns(got, buf)
    assert buf.getvalue() == "0.5\t0\ta,b\n2\t0\tc,d\n"


@pytest.mark.parametrize("text", [
    "",                        # nothing
    "# only a comment\n",
    "0\t0\n",                  # missing members field
    "x\t0\ta\n",               # bad time label
    "nan\t0\ta\n",             # non-finite time labels
    "inf\t0\ta\n",
    "-inf\t0\ta\n",
    "0\tx\ta\n",               # bad ordinal
    "0\t-1\ta\n",              # negative ordinal
    "0\t0\ta,,b\n",            # empty member
    "0\t0\ta,a\n",             # repeated member
    "0\t0\ta\n0\t0\tb\n",      # duplicate cluster id
    "0\t0\ta,b\n0\t1\tb,c\n",  # overlapping clusters at one timestamp
])
def test_cluster_columns_rejects(text):
    with pytest.raises(ParseError):
        read_cluster_columns(io.StringIO(text))


# "a,b" would read back as two objects, " a" as "a", and "a\tb" not at all
@pytest.mark.parametrize("label", ["", "a,b", " a", "a ", "a\tb", "a\nb", "a\rb"])
def test_cluster_columns_refuse_ids_that_do_not_read_back(tmp_path, label):
    m = ClusterMatrix.build(("c", label), (0,),
                            [Column(ClusterId(0, 0), Tidset.from_ids([0, 1]))])
    buf = io.StringIO()
    with pytest.raises(ParseError, match="cannot be written to a columns file") \
            as refused:
        write_cluster_columns(m, buf)
    assert repr(label) in str(refused.value)
    assert buf.getvalue() == ""
    with pytest.raises(ParseError):
        write_cluster_columns(m, tmp_path / "cols.tsv")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Itemset store
# ---------------------------------------------------------------------------

def test_fci_store_round_trip_random():
    rng = np.random.default_rng(29)
    for _ in range(30):
        m = gen_random_matrix(rng)
        store = FciStore(2, m.object_labels, m.time_labels,
                         tuple(mine_fci(m, 2)))
        assert _round_trip(write_fci_store, read_fci_store, store) == store


def test_fci_store_header_and_rows():
    m = three_column_matrix()
    store = FciStore(2, m.object_labels, m.time_labels, tuple(mine_fci(m, 2)))
    buf = io.StringIO()
    write_fci_store(store, buf)
    assert buf.getvalue() == (
        "# epsilon\t2\n"
        "# n_objects\t5\n"
        "# time_range\t0\t2\n"
        "# objects\to1,o2,o3,o4,o5\n"
        "# times\t0,1,2\n"
        "2\to1,o2\t0..2:0\n"
        "3\to1,o2,o3\t0:0;2:0\n"
    )


def test_fci_store_float_times_and_empty():
    store = FciStore(3, ("a", "b"), (0.5, 1.75), ())
    assert _round_trip(write_fci_store, read_fci_store, store) == store
    store = FciStore(2, ("a",), (), ())
    assert _round_trip(write_fci_store, read_fci_store, store) == store


@st.composite
def _stores(draw, min_size=0):
    labels = draw(st.lists(
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
        .filter(lambda o: o == o.rstrip() and not any(c in o for c in ",\t\n\r")),
        min_size=min_size, max_size=6, unique=True))
    times = tuple(sorted(draw(st.one_of(
        st.sets(st.integers(-10**6, 10**6), min_size=min_size, max_size=6),
        st.sets(st.floats(-1e6, 1e6, allow_nan=False), min_size=min_size,
                max_size=6)))))
    fcis = {}
    if labels and times:
        cids = st.builds(ClusterId, st.integers(0, len(times) - 1), st.integers(0, 3))
        for items in draw(st.lists(st.sets(cids, min_size=1), min_size=min_size,
                                   max_size=8)):
            ids = draw(st.sets(st.integers(0, len(labels) - 1), min_size=1))
            fcis[tuple(sorted(items))] = Tidset.from_ids(ids)
    least = min((len(tid) for tid in fcis.values()), default=9)
    return FciStore(draw(st.integers(1, least)), tuple(labels), times,
                    tuple(FCI(items, tid) for items, tid in sorted(fcis.items())))


@settings(max_examples=200, deadline=None)
@given(_stores())
def test_fci_store_round_trip_and_rewrite_property(store):
    first = io.StringIO()
    write_fci_store(store, first)
    first.seek(0)
    again = read_fci_store(first)
    assert again == store
    second = io.StringIO()
    write_fci_store(again, second)
    assert second.getvalue() == first.getvalue()


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as e:
        return None, (type(e), str(e), getattr(e, "line", None))


def _mutate_line(draw, line: str, labels: list[str]) -> str:
    """One store row made odd: a spelling the reader accepts but the writer
    never writes, or a fault the reader must refuse."""
    fields = line.split("\t")
    if len(fields) != 3:
        return line
    support, ids, items = fields
    members, tokens = ids.split(","), items.split(";")
    kind = draw(st.sampled_from([
        "ordinal", "ordinal", "member_added", "member_added", "member_added",
        "members_reversed", "member_repeated", "same_time", "items_swapped",
        "unknown_member", "unknown_time", "fields"]))
    k = draw(st.integers(0, len(tokens) - 1))
    t, _, o = tokens[k].partition(":")
    extra = [label for label in labels if label not in members]
    if kind == "member_added" and extra:
        members.insert(draw(st.integers(0, len(members) - 1)),
                       draw(st.sampled_from(extra)))
        support = str(len(members))
    elif kind == "ordinal":
        spelling = draw(st.sampled_from(["0{}", "+{}", " {}", "{} ", "{}_0",
                                         "{}\r", "-{}", "x{}", "{}.0"]))
        tokens[k] = f"{t}:{spelling.format(o)}"
    elif kind == "members_reversed":
        members.reverse()
    elif kind == "member_repeated":
        members.append(members[0])
        if draw(st.booleans()):
            support = str(len(members))
    elif kind == "same_time":
        tokens.insert(k + draw(st.integers(0, 1)), f"{t}:{o}1")
    elif kind == "items_swapped" and len(tokens) > 1:
        tokens[k], tokens[k - 1] = tokens[k - 1], tokens[k]
    elif kind == "unknown_member":
        members[draw(st.integers(0, len(members) - 1))] = "\u2603?"
    elif kind == "unknown_time":
        tokens[k] = f"{t}9.5:{o}"
    elif kind == "fields":
        return draw(st.sampled_from([f"{support}\t{ids}",
                                     f"{support}\t{ids}\t{items}\t",
                                     f"\t{ids}\t{items}"]))
    return f"{support}\t{','.join(members)}\t{';'.join(tokens)}"


@st.composite
def _store_texts(draw):
    """The text of a random store, then row mutations, inserted blank and
    comment lines, dropped lines and CRLF line ends."""
    buf = io.StringIO()
    brute_write_fci_store(draw(_stores(min_size=1)), buf)
    lines = buf.getvalue().split("\n")[:-1]
    labels = next(ln for ln in lines if ln.startswith("# objects\t"))[10:].split(",")
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["row"] * 6 + ["insert", "drop"]))
        rows = [i for i, ln in enumerate(lines) if ln.strip() and ln[0] != "#"]
        if kind == "insert":
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(["", "   ", "# note", "#", "\t"])))
        elif kind == "drop" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif kind == "row" and rows:
            i = draw(st.sampled_from(rows))
            lines[i] = _mutate_line(draw, lines[i], labels)
    return (draw(st.sampled_from(["\n", "\r\n"]))).join(lines + [""])


def _assert_read_as_the_oracle_reads(text: str):
    """The store, or the error (type, message, line), and the bytes the
    store is written back as, agree with the line-by-line oracle's."""
    got, error = _outcome(read_fci_store, io.StringIO(text))
    want, want_error = _outcome(brute_read_fci_store, io.StringIO(text))
    assert error == want_error
    assert got == want
    if got is not None:
        written, write_error = _outcome(_written, write_fci_store, got)
        assert (written, write_error) == _outcome(_written, brute_write_fci_store, want)
        # the store keeps its rows' text when the rows are in strictly
        # ascending code order and every row lists its ids in universe order
        # and writes its items as maximal runs with canonical ordinals
        index = {label: i for i, label in enumerate(got.object_labels)}
        t_index = {store_module._fmt_time(t): i for i, t in enumerate(got.time_labels)}

        def spelled(ids: str, items: str) -> bool:
            order = [index[m] for m in ids.split(",")]
            runs = []  # (first time, last time, ordinal text)
            for run in items.split(";"):
                times, _, o = run.partition(":")
                first, _, last = times.partition("..")
                runs.append((t_index[first], t_index[last or first], o))
            return order == sorted(order) and all(
                o == str(int(o)) for _, _, o in runs) and not any(
                (a, int(o)) == (b + 1, int(p))
                for (a, _, o), (_, b, p) in zip(runs[1:], runs))
        rows = [line.split("\t") for line in text.split("\n")
                if line.strip() and line[0] != "#"]
        codes = [f.codes for f in want.fcis]
        assert (got.text is not None) == (all(map(lt, codes, codes[1:])) and all(
            spelled(ids, items) for _, ids, items in rows))


@settings(max_examples=400, deadline=None)
@given(_store_texts())
def test_fci_store_codec_matches_line_by_line_oracle(text):
    _assert_read_as_the_oracle_reads(text)


# "1:1" is text-wise a leading part of "1:10", and "1:0" of "10:0", without
# ending where an item ends.
_SHARED_TIMES = ("1", "2", "10", "11")


@st.composite
def _front_coded_texts(draw):
    """Store text whose rows share long leading runs of items: in the order
    they were drawn, sorted, reversed or shuffled; a row may repeat the one
    before or be a leading part of it.  Some items are spelled as the writer
    never writes them, in every row or in one; one row may get a fault among
    the items it does not share with the row before it."""
    universe = [(t, o) for t in range(len(_SHARED_TIMES)) for o in (0, 1, 10)]
    rows, prev = [], []
    for _ in range(draw(st.integers(1, 8))):
        head = prev[:draw(st.integers(0, len(prev)))]
        rest = [i for i in universe if not head or i > head[-1]]
        tail = draw(st.sets(st.sampled_from(rest), min_size=0 if head else 1,
                            max_size=4)) if rest else set()
        prev = head + sorted(tail)
        rows.append(prev)
    order = draw(st.sampled_from(["drawn", "sorted", "reversed", "shuffled"]))
    if order == "sorted":
        rows.sort()
    elif order == "reversed":
        rows.sort(reverse=True)
    elif order == "shuffled":
        rows = draw(st.permutations(rows))
    odd = draw(st.sets(st.sampled_from(universe), max_size=2))
    lines = [(draw(st.lists(st.sampled_from("abc"), min_size=1, unique=True)),
              [f"{_SHARED_TIMES[t]}:{'0' * ((t, o) in odd)}{o}" for t, o in items])
             for items in rows]
    r = len(lines) - 1 - draw(st.integers(0, len(lines) - 1))  # last row first
    tokens = lines[r][1]
    if draw(st.booleans()):  # one row spells one item oddly
        k = draw(st.integers(0, len(tokens) - 1))
        t, _, o = tokens[k].partition(":")
        tokens[k] = f"{t}:+{o}"
    if draw(st.booleans()):
        before = lines[r - 1][1] if r else []
        shared = next((i for i, (a, b) in enumerate(zip(tokens, before)) if a != b),
                      min(len(tokens), len(before)))
        k = draw(st.integers(shared, len(tokens)))
        bad = draw(st.sampled_from([
            "9:0", "1:x", "1:-1", f"1:{2**32}", f"1:{2**32 - 1}", "", "1:0", "11:10",
            tokens[k - 1] if k else "1:0"]))
        if k < len(tokens) and draw(st.booleans()):
            tokens[k] = bad
        else:
            tokens.insert(k, bad)
    return ("# epsilon\t1\n# objects\ta,b,c\n# times\t" + ",".join(_SHARED_TIMES)
            + "\n" + "".join(f"{len(m)}\t{','.join(m)}\t{';'.join(tokens)}\n"
                             for m, tokens in lines))


@settings(max_examples=400, deadline=None)
@given(_front_coded_texts())
def test_fci_store_rows_sharing_leading_items_match_the_oracle(text):
    _assert_read_as_the_oracle_reads(text)


@pytest.mark.parametrize("rows", [
    ["1:0;1:1;2:0", "1:0;1:1", "1:0"],         # each a leading part of the last
    ["1:0;1:1", "1:0;1:1", "1:0;1:1;2:0"],     # repeated, then extended
    ["1:1;2:0", "1:10"],                       # text shared past an item's end
    ["1:10", "1:1;2:0"],
    ["1:0;2:0", "10:0"],
    ["1:01;2:0", "1:01;2:1", "1:1;2:1"],       # an odd spelling in a shared run
    ["1:0;2:0", "1:0;2:0;2:0"],                # a repeat at the junction
    ["1:0;2:1", "1:0;2:1;2:0"],                # a descent at the junction
    ["1:0;2:1", "1:0;2:1;"],                   # an empty item after a shared run
    ["1:0;2:1", "1:0;2:1;7:0"],                # an unknown time after a shared run
    [";1:0"],                                  # an empty first item
    ["1:0", ";1:0"],
])
def test_fci_store_rows_sharing_leading_items(rows):
    _assert_read_as_the_oracle_reads(
        "# epsilon\t1\n# objects\ta\n# times\t1,2,10\n"
        + "".join(f"1\ta\t{items}\n" for items in rows))


# "1..10" runs from the first label to the third, "1..1" and "10..1" do not
# end after they start.
_RUN_TIMES = ("1", "2", "10", "11", "12")


@st.composite
def _run_texts(draw):
    """Store text whose rows write their items as runs, maximal or split
    anywhere.  One row may get a fault: an unknown start or end label, an
    end not after its start, runs that overlap or descend, or a bad or
    oddly spelled ordinal."""
    n = len(_RUN_TIMES)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        runs = []  # [first time, last time, ordinal]
        for t, o in sorted(draw(st.sets(st.tuples(st.integers(0, n - 1),
                                                  st.integers(0, 2)),
                                        min_size=1, max_size=8))):
            if runs and (t, o) == (runs[-1][1] + 1, runs[-1][2]) and draw(st.booleans()):
                runs[-1][1] = t
            else:
                runs.append([t, t, o])
        rows.append([[_RUN_TIMES[a], _RUN_TIMES[b] if b > a else None, str(o)]
                     for a, b, o in runs])
    tokens = draw(st.sampled_from(rows))
    k = draw(st.integers(0, len(tokens) - 1))
    a = _RUN_TIMES.index(tokens[k][0])
    kind = draw(st.sampled_from(["none", "start", "end", "not_after", "overlap",
                                 "descend", "ordinal"]))
    if kind == "start":
        tokens[k][0] = draw(st.sampled_from(["9", "1.0", "", "x"]))
    elif kind == "end":
        tokens[k][1] = draw(st.sampled_from(["9", "1.0", "", "2..10", "12:"]))
    elif kind == "not_after":
        tokens[k][1] = _RUN_TIMES[draw(st.integers(0, a))]
    elif kind == "overlap":
        b = _RUN_TIMES.index(tokens[k][1] or tokens[k][0])
        first = draw(st.integers(a, b))
        last = draw(st.integers(first, n - 1))
        tokens.insert(k + 1, [_RUN_TIMES[first], _RUN_TIMES[last] if last > first
                              else None, draw(st.sampled_from(["0", "1", "2"]))])
    elif kind == "descend" and len(tokens) > 1:
        j = draw(st.integers(0, len(tokens) - 2))
        tokens[j], tokens[j + 1] = tokens[j + 1], tokens[j]
    elif kind == "ordinal":
        tokens[k][2] = draw(st.sampled_from(["x", "-1", str(2**32), str(2**32 - 1), "",
                                             "+1", "01", " 2", "1.0"]))
    lines = [";".join(f"{a}..{b}:{o}" if b is not None else f"{a}:{o}"
                      for a, b, o in row) for row in rows]
    return ("# epsilon\t1\n# objects\ta\n# times\t" + ",".join(_RUN_TIMES) + "\n"
            + "".join(f"1\ta\t{items}\n" for items in lines))


@settings(max_examples=400, deadline=None)
@given(_run_texts())
def test_fci_store_runs_match_the_oracle(text):
    _assert_read_as_the_oracle_reads(text)


@pytest.mark.parametrize("items, error", [
    ("0..1:0;2:0", None),                       # not maximal: read, text dropped
    ("0..2:0;1:1", "FCI items must be strictly ascending"),
    ("0..0:0", "run '0..0:0' does not end after it starts"),
    ("2..1:0", "run '2..1:0' does not end after it starts"),
    ("0..9:0", "unknown time label '9'"),
    ("0..1:x", "unparseable item '0..1:x'"),
])
def test_fci_store_reads_runs(items, error):
    text = f"# epsilon\t1\n# objects\ta\n# times\t0,1,2\n1\ta\t{items}\n"
    for read in (read_fci_store, brute_read_fci_store):
        if error is None:
            store = read(io.StringIO(text))
            assert store.fcis == (FCI(tuple(ClusterId(t, 0) for t in range(3)),
                                      Tidset(1)),)
            assert store.text is None
            assert _written(write_fci_store, store).endswith("1\ta\t0..2:0\n")
            continue
        with pytest.raises(ParseError) as refused:
            read(io.StringIO(text))
        assert (str(refused.value), refused.value.line) == (f"line 4: {error}", 4)


@pytest.mark.parametrize("line, clustering", [
    ("eps=1.5\tmin_pts=3\tinterpolate=False",
     {"eps": 1.5, "min_pts": 3, "interpolate": False}),
    ("min_pts=3\tinterpolate=True\teps=2", {"eps": 2.0, "min_pts": 3, "interpolate": True}),
    ("eps=1.5\tmin_pts=3", None),
    ("eps=x\tmin_pts=3\tinterpolate=True", None),
    ("eps=1.5\tmin_pts=3\tinterpolate=yes", None),
])
def test_fci_store_clustering_line(line, clustering):
    text = f"# epsilon\t1\n# clustering\t{line}\n# objects\ta\n# times\t0\n1\ta\t0:0\n"
    for read in (read_fci_store, brute_read_fci_store):
        if clustering is None:
            with pytest.raises(ParseError, match="unparseable clustering"):
                read(io.StringIO(text))
            continue
        store = read(io.StringIO(text))
        assert store.clustering == clustering
        written = _written(write_fci_store, store)
        assert written == _written(brute_write_fci_store, store)
        assert "# clustering\teps=" in written


def test_fci_store_rows_share_their_item_codes():
    # each distinct item is one int object, whichever runs hold it, in a
    # store read at once (out of code order, so it keeps no text) and in
    # one read row by row (one row lists its ids out of universe order)
    for first in ("2\ta,b\t1..2:0\n", "2\tb,a\t1..2:0\n"):
        store = read_fci_store(io.StringIO(
            "# epsilon\t1\n# objects\ta,b\n# times\t0,1,2,3\n" + first
            + "1\ta\t0..3:0\n1\tb\t2:0;3:1\n1\tb\t3:1\n"))
        assert store.text is None
        items: dict = {}
        for f in store.fcis:
            for code in f.codes:
                assert items.setdefault(code, code) is code
        assert len(items) == 5


@pytest.mark.parametrize("ids", ["a", "b,a"], ids=["at-once", "row-by-row"])
def test_fci_store_item_pool_holds_only_the_stored_items(ids):
    # 1 997 ordinals, each at one of 2 000 times, and ordinal 0 again over
    # the last three: building every row's codes makes the 2 000 stored
    # items, not an item for every time of every ordinal
    n = 2000
    rows = [f"{ids.count(',') + 1}\t{ids}\t0:0\n"]
    rows += [f"1\ta\t{t}:{t}\n" for t in range(1, n - 3)]
    text = (f"# epsilon\t1\n# objects\ta,b\n# times\t{','.join(map(str, range(n)))}\n"
            + "".join(rows) + f"1\ta\t{n - 3}..{n - 1}:0\n")
    store = read_fci_store(io.StringIO(text))
    assert (store.text is None) == (ids != "a")
    pool = store.fcis[0]._rows
    assert all(f._rows is pool for f in store.fcis)
    assert store == brute_read_fci_store(io.StringIO(text))  # builds every row's codes
    assert len(pool.pool) == n
    assert store.fcis[-1].codes[-1] is pool.pool[3]  # ordinal 0 at time 1 999


def test_fci_store_rows_build_their_codes_on_first_use():
    # a store in code order builds no item codes when read; a row builds its
    # codes when they are first read, each run's once, shared by the rows
    # holding that run, and its first and last codes are known without them
    text = ("# epsilon\t1\n# objects\ta,b\n# times\t0,1,2,3\n"
            "1\ta\t0..3:0\n2\ta,b\t1..2:0\n1\tb\t1..2:0;3:1\n1\tb\t3:1\n")
    store = read_fci_store(io.StringIO(text))
    assert store.text is not None
    assert [f.bounds() for f in store.fcis] == [
        (0, 3 << 32), (1 << 32, 2 << 32), (1 << 32, 3 << 32 | 1),
        (3 << 32 | 1, 3 << 32 | 1)]
    assert store.text.pool is None and store.text.run_codes == {}
    second, third, fourth = store.fcis[1:]
    assert third.codes == (1 << 32, 2 << 32, 3 << 32 | 1)
    assert second.codes[0] is third.codes[0] and fourth.codes[0] is third.codes[2]
    assert sorted(store.text.run_codes) == [1, 2]  # the runs of the rows read
    assert store == brute_read_fci_store(io.StringIO(text))


@settings(max_examples=200, deadline=None)
@given(_stores(min_size=1), st.data())
def test_fci_store_read_modify_write_matches_the_oracle_writer(store, data):
    # a read store merged with itemsets at appended times, as an append
    # does, is written as the oracle writes it, whatever text it copies
    buf = io.StringIO()
    brute_write_fci_store(store, buf)
    read = read_fci_store(io.StringIO(buf.getvalue()))
    assert read.text is not None
    n, extra = len(read.time_labels), data.draw(st.integers(1, 3))
    cids = st.builds(ClusterId, st.integers(n, n + extra - 1), st.integers(0, 2))
    incoming = {tuple(sorted(items)): Tidset.from_ids(ids) for items, ids in data.draw(
        st.lists(st.tuples(st.sets(cids, min_size=1),
                           st.sets(st.integers(0, len(read.object_labels) - 1),
                                   min_size=1)), max_size=4))}
    fcis = combine_fcis(read.fcis, [FCI(i, t) for i, t in incoming.items()], 1)
    times = read.time_labels + tuple(read.time_labels[-1] + k for k in range(1, extra + 1))
    merged = replace(read, time_labels=times, fcis=tuple(fcis))
    assert _written(write_fci_store, merged) == _written(brute_write_fci_store, merged)


@settings(max_examples=200, deadline=None)
@given(_stores(min_size=1), st.data())
def test_fci_store_append_builds_no_stored_row_codes(store, data):
    # an append's merge and write build no stored row's codes: a union keeps
    # its stored side, whose line the writer copies; and it writes what the
    # oracle writes of the store read line by line and merged with the same
    # batch
    buf = io.StringIO()
    brute_write_fci_store(store, buf)
    read = read_fci_store(io.StringIO(buf.getvalue()))
    brute = brute_read_fci_store(io.StringIO(buf.getvalue()))
    assert read.text is not None
    n, extra = len(read.time_labels), data.draw(st.integers(1, 3))
    cids = st.builds(ClusterId, st.integers(n, n + extra - 1), st.integers(0, 2))
    incoming = [FCI(i, Tidset.from_ids(t)) for i, t in {
        tuple(sorted(items)): ids for items, ids in data.draw(st.lists(st.tuples(
            st.sets(cids, min_size=1),
            st.sets(st.integers(0, len(read.object_labels) - 1), min_size=1)),
            max_size=4))}.items()]
    times = read.time_labels + tuple(read.time_labels[-1] + k for k in range(1, extra + 1))
    built, codes = [], store_module._StoreRows.codes
    with mock.patch.object(store_module._StoreRows, "codes",
                           lambda rows, rank: built.append(rank) or codes(rows, rank)):
        merged = combine_fcis(read.fcis, incoming, read.epsilon)
        written = _written(write_fci_store, replace(
            read, time_labels=times, fcis=tuple(merged)))
    assert built == []
    want = combine_fcis(brute.fcis, incoming, brute.epsilon)
    assert written == _written(brute_write_fci_store, replace(
        brute, time_labels=times, fcis=tuple(want)))


def test_fci_store_reader_counts_rows_items_and_runs():
    # 0..2:0 is three items in one run; 0:0;2:0 two runs, as 1 is not 2's
    # time before.
    text = ("# epsilon\t1\n# objects\ta,b\n# times\t0,1,2\n"
            "2\ta,b\t0..2:0\n1\ta\t0..1:0;2:1\n1\tb\t0:0;2:0\n1\ta\t0:1\n")
    counters: dict = {}
    store = read_fci_store(io.StringIO(text), counters=counters)
    assert counters == {"rows": 4, "items": 9, "runs": 6}
    assert store == brute_read_fci_store(io.StringIO(text))


def _written(write, store) -> str:
    buf = io.StringIO()
    write(store, buf)
    return buf.getvalue()


def test_fci_store_rows_carry_only_the_text_the_writer_writes():
    # one row spelled otherwise than the writer writes it, or out of code
    # order, drops the text of the whole store, which is then written from
    # its codes
    rows = "2\ta,b\t0:0;1:2\n1\ta\t0:0;1:3\n"
    header = _HEADER.replace("# objects", "# n_objects\t2\n# time_range\t0\t1\n"
                             "# objects")
    for odd, fixed in [
        ("", ""),
        ("2\tb,a\t0:1\n", "2\ta,b\t0:1\n"),    # ids out of universe order
        ("1\tb\t0:02\n", "1\tb\t0:2\n"),        # an ordinal not in canonical form
        ("1\ta\t0:3;1:+4\n", "1\ta\t0:3;1:4\n"),
        ("02\ta,b\t0:1\n", "2\ta,b\t0:1\n"),   # a support not in canonical form
    ]:
        store = read_fci_store(io.StringIO(_HEADER + rows + odd))
        assert (store.text is None) == bool(odd)
        if store.text is not None:
            assert (store.text.labels, store.text.tl) == (("a", "b"), ("0", "1"))
            assert store.text.lines == rows.splitlines()
        assert store == replace(store, text=None)
        assert _written(write_fci_store, store) == _written(
            brute_write_fci_store, store) == header + rows + fixed


def test_fci_store_formats_the_items_its_text_does_not_cover(monkeypatch):
    # a union that absorbed a stored itemset has its tidset but more items,
    # which can extend the stored itemset's last run, so only its ids are
    # copied and its items are formatted from their codes; so are those of
    # an itemset with another stored itemset's tidset
    read = read_fci_store(io.StringIO(_HEADER + "2\ta,b\t0..1:0\n1\ta\t1:1\n"))
    fcis = (FCI((ClusterId(0, 0), ClusterId(1, 0), ClusterId(2, 0)), Tidset(0b11)),
            FCI((ClusterId(0, 5), ClusterId(2, 1)), Tidset(0b01)))
    store = replace(read, time_labels=(0, 1, 2), fcis=fcis)
    formatted = []
    run_texts = store_module._run_texts
    monkeypatch.setattr(store_module, "_run_texts", lambda rows, tl: formatted.extend(
        chain.from_iterable(rows)) or run_texts(rows, tl))
    assert _written(write_fci_store, store).endswith(
        "2\ta,b\t0..2:0\n1\ta\t0:5;2:1\n")
    assert formatted == [0, 1 << 32, 2 << 32, 5, 2 << 32 | 1]
    assert _written(write_fci_store, store) == _written(brute_write_fci_store, store)


@pytest.mark.parametrize("rows", [
    "1\ta\t0:0\n1\ta\t1:0\n",
    "1\ta\t1:0\n1\ta\t0..1:0\n",
    "2\ta,b\t0:0\n2\ta,b\t0:0;1:1\n1\tb\t0..1:0\n",
    "1\ta\t0..1:0\n1\ta\t1:0\n",
    "2\ta,b\t0:0\n1\tb\t0..1:0\n2\ta,b\t0:0;1:1\n",
])
def test_fci_store_rows_sharing_a_tidset_are_written_as_the_oracle_writes(rows):
    # the store keeps its text only when its rows are in code order
    store = read_fci_store(io.StringIO(_HEADER + rows))
    codes = [f.codes for f in store.fcis]
    assert (store.text is not None) == all(map(lt, codes, codes[1:]))
    assert _written(write_fci_store, store) == _written(brute_write_fci_store, store)


def test_fci_store_written_back_formats_nothing(monkeypatch):
    # a canonical store read and written back copies every row's text: no
    # item is formatted unless the text is dropped, and the writer formats
    # member ids from tidset masks, expanding no tidset
    m = gen_random_matrix(np.random.default_rng(41))
    buf = io.StringIO()
    write_fci_store(FciStore(1, m.object_labels, m.time_labels,
                             tuple(mine_fci(m, 1))), buf)
    formatted, expanded = [], []
    run_texts, tidset = store_module._run_texts, FCI.tidset
    monkeypatch.setattr(store_module, "_run_texts", lambda rows, tl: formatted.extend(
        chain.from_iterable(rows)) or run_texts(rows, tl))
    monkeypatch.setattr(FCI, "tidset", property(
        lambda f: expanded.append(f) or tidset.fget(f)))
    read = read_fci_store(io.StringIO(buf.getvalue()))
    assert _written(write_fci_store, read) == buf.getvalue()
    assert formatted == [] and expanded == [] and read.fcis
    assert _written(write_fci_store, replace(read, text=None)) == buf.getvalue()
    assert formatted and expanded == []


@pytest.mark.parametrize("objects, times", [
    (("x", "y"), (0, 1, 2)),        # objects relabelled
    (("b", "a"), (0, 1, 2)),        # objects reordered
    (("a", "b"), (5, 6, 7)),        # times re-based
    (("a", "b"), (0, 1.0, 2)),      # a time equal to, but not written as, one read
    (("a", "b"), (0,)),             # times cut short
    (("x", "y"), (0, 1, 2, 3)),     # times extended, objects relabelled
])
def test_fci_store_text_is_not_copied_under_other_labels(objects, times):
    text = ("# epsilon\t1\n# objects\ta,b\n# times\t0,1,2\n"
            "2\ta,b\t0:0;1:2\n1\ta\t0:0;2:1\n1\tb\t0:1\n")
    read = read_fci_store(io.StringIO(text))
    fcis = read.fcis + tuple(combine_fcis(
        read.fcis, [FCI((ClusterId(len(times) - 1, 9),), Tidset(0b11))], 1))
    if len(times) < 3:  # keep only items the shorter time table can name
        fcis = tuple(f for f in fcis if f.times[-1] < len(times))
    store = replace(read, object_labels=objects, time_labels=times, fcis=fcis)
    assert store.text is not None
    assert _written(write_fci_store, store) == _written(brute_write_fci_store, store)


def test_fci_store_ordinals_must_fit_the_item_code():
    # items are packed as time << 32 | ordinal, so 2**32 and up are refused
    # by the reader and by the FCI constructor
    top = 2**32 - 1
    got = read_fci_store(io.StringIO(_HEADER + f"1\ta\t0:{top}\n"))
    assert got.fcis[0].items == (ClusterId(0, top),)
    assert _written(write_fci_store, replace(got, text=None)).endswith(
        f"1\ta\t0:{top}\n")
    with pytest.raises(ParseError, match=r"ordinal must be < 2\*\*32") as info:
        read_fci_store(io.StringIO(_HEADER + f"1\ta\t0:0\n1\ta\t0:{top + 1}\n"))
    assert info.value.line == 5
    with pytest.raises(ParseError, match=r"ordinal must be < 2\*\*32"):
        FCI((ClusterId(0, top + 1),), Tidset(1))


_HEADER = "# epsilon\t1\n# objects\ta,b\n# times\t0,1\n"


@pytest.mark.parametrize("text", [
    "1\ta\t0:0\n",                       # no header at all
    "# objects\ta\n# times\t0\n",        # missing epsilon
    "# epsilon\t0\n# objects\ta\n# times\t0\n",
    "# epsilon\tx\n# objects\ta\n# times\t0\n",
    "# epsilon\t1\n# n_objects\t9\n# objects\ta\n# times\t0\n",
    "# epsilon\t1\n# time_range\t0\t9\n# objects\ta\n# times\t0,1\n",
    "# epsilon\t1\n# objects\ta\n# times\t1,0\n",
    "# epsilon\t1\n# objects\ta\n# times\t0,nan\n",   # non-finite times
    "# epsilon\t1\n# objects\ta\n# times\t0,inf\n",
    "# epsilon\t1\n# objects\ta\n# times\t-inf,0\n",
    _HEADER + "1\ta\n",                  # wrong field count
    _HEADER + "x\ta\t0:0\n",             # bad support
    _HEADER + "2\ta\t0:0\n",             # support does not match members
    _HEADER + "1\tz\t0:0\n",             # unknown object
    _HEADER + "1\ta\t7:0\n",             # unknown time label
    _HEADER + "1\ta\t0:x\n",             # bad ordinal
    _HEADER + "1\ta\t0:-1\n",            # negative ordinal
    _HEADER + "1\ta\t1:0;0:0\n",         # items out of order
    "# epsilon\t1\n# objects\ta,b,a\n# times\t0\n",   # a repeated object id
    "# epsilon\t2\n# objects\ta,b\n# times\t0\n1\ta\t0:0\n",  # support < epsilon
])
def test_fci_store_rejects(text):
    with pytest.raises(ParseError):
        read_fci_store(io.StringIO(text))


@pytest.mark.parametrize("text, error, line", [
    ("# epsilon\t1\n# objects\ta,b,a\n# times\t0\n2\ta,b\t0:0\n",
     "store header repeats object id 'a'", None),
    ("# epsilon\t2\n# objects\ta,b\n# times\t0\n2\ta,b\t0:0\n1\ta\t0:0\n",
     "line 5: support 1 is below the store's epsilon 2", 5),
])
def test_fci_store_refusals_name_their_cause(text, error, line):
    for read in (read_fci_store, brute_read_fci_store):
        with pytest.raises(ParseError) as refused:
            read(io.StringIO(text))
        assert (str(refused.value), refused.value.line) == (error, line)


def test_fci_store_cached_item_does_not_hide_a_later_error():
    # row 2 repeats row 1's valid item before its own bad one
    text = _HEADER + "1\ta\t0:0\n1\tb\t0:0;0:x\n"
    with pytest.raises(ParseError) as info:
        read_fci_store(io.StringIO(text))
    assert info.value.line == 5


@pytest.mark.parametrize("label", ["", "a,b", "a\tb", "a\nb", "a\rb", "b ", " "])
def test_fci_store_rejects_unstorable_object_ids(label):
    store = FciStore(1, ("a0", label), (0,),
                     (FCI((ClusterId(0, 0),), Tidset.from_ids([0, 1])),))
    buf = io.StringIO()
    with pytest.raises(ParseError):
        write_fci_store(store, buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("time", [-1, 2, 7])
def test_fci_store_refuses_an_item_outside_its_time_labels(time):
    # A negative index must not be written as a label counted from the end.
    fcis = (FCI((ClusterId(0, 1),), Tidset(0b11)),
            FCI((ClusterId(time, 0),), Tidset(0b01)))
    store = FciStore(1, ("a", "b"), (0, 1), fcis)
    # the reference refuses it the same way, and neither writes anything
    for write in (write_fci_store, brute_write_fci_store):
        buf = io.StringIO()
        with pytest.raises(ParseError) as refused:
            write(store, buf)
        assert str(refused.value) == (
            f"item ClusterId(time={time}, ordinal=0) cannot be stored: its "
            "time index is outside the store's 2 time labels")
        assert type(refused.value) is ParseError and buf.getvalue() == ""


def test_fci_store_failed_write_keeps_existing_file(tmp_path):
    path = tmp_path / "fcis.tsv"
    good = FciStore(1, ("a",), (0,), (FCI((ClusterId(0, 0),), Tidset.from_ids([0])),))
    write_fci_store(good, path)
    before = path.read_bytes()
    # item time index 5 is outside the single time label
    bad = FciStore(1, ("a",), (0,), (FCI((ClusterId(5, 0),), Tidset.from_ids([0])),))
    with pytest.raises(ParseError):
        write_fci_store(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["fcis.tsv"]


def test_failed_pattern_and_column_writes_keep_existing_file(tmp_path):
    m = expanding_trio_matrix()
    db = TrajectoryDB(m.object_labels, m.time_labels, np.zeros((3, 4, 2)))
    patterns = extract_patterns(mine_fci(m, 2), m, MiningParams())
    # time index 9 has no label in the four-timestamp matrix; the convoy
    # sorts after rows that are already formatted
    bad = patterns + [Convoy(Tidset.from_ids([0, 1]), 9, 9)]
    # an object label that is not a string fails on the second column
    bad_m = ClusterMatrix.build(("a", 5), (0,), [
        Column(ClusterId(0, 0), Tidset.from_ids([0])),
        Column(ClusterId(0, 1), Tidset.from_ids([1]))])
    for name, write, fail, error in [
        ("patterns.csv", lambda p: write_patterns_csv(patterns, m, p),
         lambda p: write_patterns_csv(bad, m, p), IndexError),
        ("patterns.geojson", lambda p: write_patterns_geojson(patterns, m, db, p),
         lambda p: write_patterns_geojson(bad, m, db, p), IndexError),
        ("columns.tsv", lambda p: write_cluster_columns(m, p),
         lambda p: write_cluster_columns(bad_m, p), TypeError),
    ]:
        path = tmp_path / name
        write(path)
        before = path.read_bytes()
        with pytest.raises(error):
            fail(path)
        assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "columns.tsv", "patterns.csv", "patterns.geojson"]


def test_fci_store_minimal_header_ok():
    got = read_fci_store(io.StringIO(_HEADER + "1\tb\t0:0;1:2\n"))
    assert got.epsilon == 1
    assert got.object_labels == ("a", "b")
    assert got.time_labels == (0, 1)
    (fci,) = got.fcis
    assert fci.tidset == Tidset.from_ids([1])
    assert fci.items == ((0, 0), (1, 2))


# ---------------------------------------------------------------------------
# Pattern CSV
# ---------------------------------------------------------------------------

def test_patterns_csv_golden():
    m = expanding_trio_matrix()
    patterns = extract_patterns(mine_fci(m, 2), m, MiningParams(min_t=1))
    buf = io.StringIO()
    write_patterns_csv(patterns, m, buf)
    assert buf.getvalue() == (
        "kind,objects,times,weight\n"
        "closed_swarm,o1;o2,0;1;2;3,1.0\n"
        "closed_swarm,o1;o2;o3,2;3,0.5\n"
        "convoy,o1;o2,0..3,1.0\n"
        "convoy,o1;o2;o3,2..3,0.5\n"
        "group_pattern,o1;o2,0..3,1.0\n"
        "group_pattern,o1;o2;o3,2..3,0.5\n"
        "moving_cluster,o1;o2,0..3,1.0\n"
        "moving_cluster,o1;o2;o3,2..3,0.5\n"
    )


def test_patterns_csv_order_is_canonical():
    m = expanding_trio_matrix()
    patterns = extract_patterns(mine_fci(m, 2), m, MiningParams(min_t=1))
    a, b = io.StringIO(), io.StringIO()
    write_patterns_csv(patterns, m, a)
    write_patterns_csv(list(reversed(patterns)), m, b)
    assert a.getvalue() == b.getvalue()


@st.composite
def _pattern_sets(draw):
    """Patterns of every kind decoded from a random matrix whose object ids
    csv must quote and whose time labels may be floats."""
    m = gen_random_matrix(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    labels = draw(st.lists(_ODD_IDS.filter(lambda o: ";" not in o),
                           min_size=m.n_objects, max_size=m.n_objects, unique=True))
    times = sorted(draw(st.one_of(
        st.sets(st.integers(-10**6, 10**6), min_size=m.n_times, max_size=m.n_times),
        st.sets(st.floats(-1e6, 1e6, allow_nan=False), min_size=m.n_times,
                max_size=m.n_times))))
    m = ClusterMatrix.build(labels, times, m.columns)
    patterns = extract_patterns(mine_fci(m, 1), m,
                                MiningParams(min_t=1, theta=0.3, min_c=1))
    patterns += [PeriodicPattern(p.objects, p.times) for p in patterns
                 if isinstance(p, ClosedSwarm)]
    return patterns, m


@settings(max_examples=300, deadline=None)
@given(case=_pattern_sets())
def test_patterns_csv_matches_the_row_by_row_oracle(case):
    patterns, m = case
    want = io.StringIO()
    brute_write_patterns_csv(patterns, m, want)
    got = io.StringIO()
    write_patterns_csv(patterns, m, got)
    assert got.getvalue() == want.getvalue()


# ---------------------------------------------------------------------------
# GeoJSON
# ---------------------------------------------------------------------------

def _two_object_db():
    xy = np.array([[[0.0, 0.0], [1.0, 0.0]],
                   [[0.0, 1.0], [1.0, 1.0]]])
    return TrajectoryDB(("o1", "o2"), (0, 1), xy)


def test_geojson_structure():
    db = _two_object_db()
    m = make_matrix({(0, 0): [0, 1], (1, 0): [0, 1]})
    buf = io.StringIO()
    write_patterns_geojson([Convoy(Tidset.from_ids([0, 1]), 0, 1)], m, db, buf)
    doc = json.loads(buf.getvalue())
    assert doc["type"] == "FeatureCollection"
    (feat,) = doc["features"]
    assert feat["geometry"] == {
        "type": "MultiLineString",
        "coordinates": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]]],
    }
    assert feat["properties"] == {
        "kind": "convoy", "objects": ["o1", "o2"], "times": "0..1", "weight": 1.0}
    assert buf.getvalue().endswith("\n")


def test_geojson_drops_single_point_tracks():
    db = _two_object_db()
    db.xy[1, 1] = np.nan  # o2 has only one observed point in the span
    m = make_matrix({(0, 0): [0, 1], (1, 0): [0, 1]})
    buf = io.StringIO()
    write_patterns_geojson([Convoy(Tidset.from_ids([0, 1]), 0, 1)], m, db, buf)
    (feat,) = json.loads(buf.getvalue())["features"]
    assert feat["geometry"]["coordinates"] == [[[0.0, 0.0], [1.0, 0.0]]]
    # a single-timestamp pattern has no drawable track at all
    buf = io.StringIO()
    write_patterns_geojson([ClosedSwarm(Tidset.from_ids([0, 1]), (0,))], m, db, buf)
    (feat,) = json.loads(buf.getvalue())["features"]
    assert feat["geometry"]["coordinates"] == []


def test_geojson_requires_matching_universe():
    db = _two_object_db()
    m = make_matrix({(0, 0): [0, 1]}, labels=("x", "y"))
    with pytest.raises(UniverseError):
        write_patterns_geojson([], m, db, io.StringIO())


def test_geojson_golden_every_kind():
    # o3 is unobserved at t=3; x moves 1.5 per timestamp, y is the object
    xy = np.array([[[1.5 * t, float(o)] for t in range(5)] for o in range(3)])
    xy[2, 3] = np.nan
    db = TrajectoryDB(("o1", "o2", "o3"), (10, 20, 30, 40, 50), xy)
    m = ClusterMatrix.build(db.object_labels, db.time_labels,
                            [Column(ClusterId(t, 0), Tidset.from_ids([0, 1, 2]))
                             for t in range(5)])
    patterns = [
        PeriodicPattern(Tidset.from_ids([0, 2]), (0, 4)),
        MovingCluster((ClusterId(2, 0), ClusterId(3, 0), ClusterId(4, 0)),
                      Tidset.from_ids([1, 2])),
        GroupPattern(Tidset.from_ids([0, 2]), ((0, 1), (3, 4)), 0.8),
        Convoy(Tidset.from_ids([0, 1, 2]), 1, 3),
        ClosedSwarm(Tidset.from_ids([0, 1]), (0, 2, 3)),
    ]

    def feature(kind, objects, times, weight, coordinates):
        return {"type": "Feature",
                "geometry": {"type": "MultiLineString", "coordinates": coordinates},
                "properties": {"kind": kind, "objects": objects, "times": times,
                               "weight": weight}}

    expected = {"type": "FeatureCollection", "features": [
        feature("closed_swarm", ["o1", "o2"], "10;30;40", 0.6,
                [[[0.0, 0.0], [3.0, 0.0], [4.5, 0.0]],
                 [[0.0, 1.0], [3.0, 1.0], [4.5, 1.0]]]),
        feature("convoy", ["o1", "o2", "o3"], "20..40", 0.6,
                [[[1.5, 0.0], [3.0, 0.0], [4.5, 0.0]],
                 [[1.5, 1.0], [3.0, 1.0], [4.5, 1.0]],
                 [[1.5, 2.0], [3.0, 2.0]]]),
        feature("group_pattern", ["o1", "o3"], "10..20;40..50", 0.8,
                [[[0.0, 0.0], [1.5, 0.0], [4.5, 0.0], [6.0, 0.0]],
                 [[0.0, 2.0], [1.5, 2.0], [6.0, 2.0]]]),
        feature("moving_cluster", ["o2", "o3"], "30..50", 0.6,
                [[[3.0, 1.0], [4.5, 1.0], [6.0, 1.0]],
                 [[3.0, 2.0], [6.0, 2.0]]]),
        feature("periodic_pattern", ["o1", "o3"], "10;50", 0.4,
                [[[0.0, 0.0], [6.0, 0.0]], [[0.0, 2.0], [6.0, 2.0]]]),
    ]}
    buf = io.StringIO()
    write_patterns_geojson(patterns, m, db, buf)
    assert buf.getvalue() == json.dumps(expected, indent=2) + "\n"


def test_geojson_golden_empty(tmp_path):
    db = _two_object_db()
    m = make_matrix({(0, 0): [0, 1]}, n_times=2)
    expected = json.dumps({"type": "FeatureCollection", "features": []},
                          indent=2) + "\n"
    buf = io.StringIO()
    write_patterns_geojson([], m, db, buf)
    assert buf.getvalue() == expected
    write_patterns_geojson([], m, db, tmp_path / "p.geojson")
    assert (tmp_path / "p.geojson").read_text() == expected
