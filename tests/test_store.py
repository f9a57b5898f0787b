import io
import json
import math
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
from comove.model import PeriodicPattern, packed_fci
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
        "2\to1,o2\t0:0;1:0;2:0\n"
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
    return FciStore(draw(st.integers(1, 9)), tuple(labels), times,
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
        # a row keeps its items text when every item is written canonically
        fields = [line.split("\t")[2] for line in text.split("\n")
                  if line.strip() and line[0] != "#"]
        assert [f.items_text for f in got.fcis] == [
            items if all(o == str(int(o)) for _, _, o in
                         (item.partition(":") for item in items.split(";")))
            else None for items in fields]


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
            "9:0", "1:x", "1:-1", f"1:{2**64}", "", "1:0", "11:10",
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


def test_fci_store_reader_counts_the_items_it_reuses():
    # Row 2 reuses 0:0 and 1:0 from row 1, row 3 reuses 0:0; row 4 shares
    # only the text "0:" with row 3, no whole item.
    text = ("# epsilon\t1\n# objects\ta,b\n# times\t0,1,2\n"
            "2\ta,b\t0:0;1:0;2:0\n1\ta\t0:0;1:0;2:1\n1\tb\t0:0;2:0\n1\ta\t0:1\n")
    counters: dict = {}
    store = read_fci_store(io.StringIO(text), counters=counters)
    assert counters == {"rows": 4, "items": 9, "items_reused": 3}
    assert store == brute_read_fci_store(io.StringIO(text))


def _written(write, store) -> str:
    buf = io.StringIO()
    write(store, buf)
    return buf.getvalue()


def test_fci_store_rows_carry_only_the_text_the_writer_writes():
    text = (_HEADER + "2\ta,b\t0:0;1:2\n2\tb,a\t0:1\n1\tb\t0:02\n"
            "1\ta\t0:3;1:+4\n")
    fcis = read_fci_store(io.StringIO(text)).fcis
    assert [(f.ids_text, f.items_text) for f in fcis] == [
        ("a,b", "0:0;1:2"), (None, "0:1"), ("b", None), ("a", None)]
    buf = io.StringIO()
    write_fci_store(read_fci_store(io.StringIO(text)), buf)
    assert buf.getvalue().endswith(
        "2\ta,b\t0:0;1:2\n2\ta,b\t0:1\n1\tb\t0:2\n1\ta\t0:3;1:4\n")


def test_fci_store_formats_the_items_its_text_does_not_cover():
    # an append keeps a stored itemset's item text for the union it joins
    # with a new one, and the writer adds the new items
    codes = (0, 1 << 64 | 2)
    read_with = (("a", "b"), ("0",))
    fcis = (packed_fci(1, codes, None, "0:0", read_with),
            packed_fci(2, codes, "b", None, read_with),
            packed_fci(3, codes, None, "0:0;1:2", read_with))
    buf = io.StringIO()
    write_fci_store(FciStore(1, ("a", "b"), (0, 1), fcis), buf)
    assert buf.getvalue().endswith(
        "1\ta\t0:0;1:2\n1\tb\t0:0;1:2\n2\ta,b\t0:0;1:2\n")


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
    store = FciStore(1, objects, times, fcis)
    assert _written(write_fci_store, store) == _written(brute_write_fci_store, store)


def test_fci_store_ordinals_must_fit_the_item_code():
    # items are packed as time << 64 | ordinal, so 2**64 and up are refused
    # by the reader and by the FCI constructor
    top = 2**64 - 1
    got = read_fci_store(io.StringIO(_HEADER + f"1\ta\t0:{top}\n"))
    assert got.fcis[0].items == (ClusterId(0, top),)
    with pytest.raises(ParseError, match=r"ordinal must be < 2\*\*64") as info:
        read_fci_store(io.StringIO(_HEADER + f"1\ta\t0:0\n1\ta\t0:{top + 1}\n"))
    assert info.value.line == 5
    with pytest.raises(ParseError, match=r"ordinal must be < 2\*\*64"):
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
])
def test_fci_store_rejects(text):
    with pytest.raises(ParseError):
        read_fci_store(io.StringIO(text))


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
