import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import comove.ingest

from comove import (
    ConflictError,
    ParameterError,
    ParseError,
    TrajectoryDB,
    UniverseError,
    interpolate,
    parse_trajectories,
    periodic_decompose,
)
from oracle import brute_parse_trajectories


def _db(text: str) -> TrajectoryDB:
    return parse_trajectories(io.StringIO(text))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_sorts_objects_and_times():
    db = _db("b,2,1.0,1.5\na,1,0.0,0.0\nb,1,3.0,4.0\n")
    assert db.object_labels == ("a", "b")
    assert db.time_labels == (1, 2)
    assert db.xy[0, 0].tolist() == [0.0, 0.0]
    assert db.xy[1, 1].tolist() == [1.0, 1.5]
    assert np.isnan(db.xy[0, 1]).all()  # a unobserved at t=2
    assert db.present.tolist() == [[True, False], [True, True]]


def test_parse_header_and_blank_lines():
    db = _db("object_id,timestamp,x,y\n\na,1,0,0\n  \na,2,1,1\n")
    assert db.object_labels == ("a",)
    assert db.time_labels == (1, 2)


def test_header_row_does_not_send_integer_stamps_to_the_iso_parser(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s)
        return parse_timestamp(s)

    parse_timestamp = comove.ingest._parse_timestamp
    monkeypatch.setattr(comove.ingest, "_parse_timestamp", counting)
    text = "object_id,timestamp,x,y\n" + "".join(
        f"o{i % 7},{i // 7},{i},0\n" for i in range(700))
    db = parse_trajectories(io.StringIO(text))
    assert db.n_objects == 7 and db.n_times == 100
    assert calls == ["timestamp"]


def test_parse_iso_timestamps():
    db = _db("a,2024-01-01T00:00:00Z,0,0\na,2024-01-01T00:00:05,1,0\n")
    assert db.time_labels == (1704067200, 1704067205)


def test_parse_duplicate_observation():
    with pytest.raises(ConflictError) as ei:
        _db("a,1,0,0\nb,1,0,9\na,1,2,2\n")
    assert ei.value.line == 3
    assert "first seen on line 1" in str(ei.value)


@pytest.mark.parametrize("text", [
    "",                          # nothing at all
    "object,when,x,y\n",         # header only
    "a,1,0\n",                   # wrong field count
    "a,1,zero,0\n",              # bad coordinate
    "a,1,inf,0\n",               # non-finite coordinate
    "a,1,0,0\na,what,1,1\n",     # bad timestamp past the header slot
    ",1,0,0\n",                  # empty object id
])
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        _db(text)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as ei:
        _db("a,1,0,0\na,2,x,0\n")
    assert ei.value.line == 2


def test_parse_from_path(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,1,0,0\n")
    assert parse_trajectories(p).object_labels == ("a",)
    assert parse_trajectories(str(p)).time_labels == (1,)


def test_db_equality_treats_nan_as_equal():
    a = _db("a,1,0,0\nb,2,1,1\n")
    b = _db("b,2,1,1\na,1,0,0\n")
    assert a == b
    assert a != _db("a,1,0,0\nb,2,1,2\n")
    assert a != "not a db"


def test_db_align_to_superset():
    db = _db("b,1,1,1\n")
    out = db.align_to(("a", "b", "c"))
    assert out.object_labels == ("a", "b", "c")
    assert np.isnan(out.xy[0]).all() and np.isnan(out.xy[2]).all()
    assert out.xy[1, 0].tolist() == [1.0, 1.0]
    with pytest.raises(UniverseError):
        db.align_to(("a", "c"))


def test_db_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        TrajectoryDB(("a",), (0, 1), np.zeros((1, 1, 2)))


# Field values: valid ones (ids with separators, line breaks and padding;
# integer and ISO-8601 timestamps with Z, offsets and fractional seconds),
# and the values each check rejects.  The first four valid values are drawn
# most often, so keys repeat and multi-line ids are common.
_IDS = ["a", "b", "p\nq", "t\ru", "c", "r\r\ns", " a", "b ", "x,y"]
_STAMPS = ["0", "1", "2024-01-01T00:00:00Z", "2024-01-01T00:00:00.250", "2", " 4 ",
           "-1", "1_0", "2024-01-01T02:00:00+02:00", "2024-01-01T00:00:00.5-01:30",
           "2024-01-01"]
_COORDS = ["0", "1", "2.5", "-3", " 4 ", "1e3"]
_BAD_IDS = ["", "  "]
_BAD_STAMPS = ["when", "1.5", ""]
_BAD_COORDS = ["1,5", "zero", "", "nan", "inf", "-inf", "1e400"]


def _csv_field(draw, good, bad, faulty):
    """A valid value, or in a faulty row a rejected one one time in three."""
    if faulty and draw(st.integers(0, 2)) == 0:
        value = draw(st.sampled_from(bad))
    else:
        value = draw(st.sampled_from(good[:4] if draw(st.integers(0, 3)) else good))
    if any(c in value for c in ',"\r\n') or draw(st.booleans()):
        return '"' + value.replace('"', '""') + '"'
    return value


@st.composite
def _csv_texts(draw):
    """CSV text with an optional header, blank and whitespace-only rows,
    quoted fields holding ',' and line breaks, duplicate keys, rows with one
    or several rejected fields, rows of the wrong width and rows the csv
    module raises on (a bare carriage return, a NUL)."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    rows = ["object_id,timestamp,x,y"] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 14))):
        shape = draw(st.sampled_from(
            ["row"] * 6 + ["faulty"] * 2 + ["blank", "spaces", "width", "raw"]))
        if shape == "blank":
            rows.append("")
        elif shape == "raw":  # rows csv itself rejects, at least from a stream
            rows.append(draw(st.sampled_from(["a,1,2\r3,4", "a,1,\x00,0"])))
        elif shape == "spaces":
            rows.append(draw(st.sampled_from(["  ", " , , , ", ",,,"])))
        else:
            faulty = shape == "faulty"
            fields = [_csv_field(draw, _IDS, _BAD_IDS, faulty),
                      _csv_field(draw, _STAMPS, _BAD_STAMPS, faulty),
                      _csv_field(draw, _COORDS, _BAD_COORDS, faulty),
                      _csv_field(draw, _COORDS, _BAD_COORDS, faulty)]
            if shape == "width":
                fields = fields[:draw(st.integers(1, 3))] + ["9"] * draw(st.integers(0, 2))
            rows.append(",".join(fields))
    return newline.join(rows) + (newline if draw(st.booleans()) else "")


def _parse_outcome(parse, source):
    try:
        db = parse(source)
    except Exception as e:
        return type(e), str(e), getattr(e, "line", None)
    return db, tuple(type(t) for t in db.time_labels)


@settings(max_examples=400, deadline=None)
@given(_csv_texts(), st.sampled_from([1, 2, 3, 4096]))
def test_parse_matches_row_by_row_oracle(tmp_path_factory, text, chunk_rows):
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    # Most drawn texts quote a field, which sends all that follows through
    # csv; without the quotes, the same rows are mostly plain lines.
    unquoted = text.replace('"', "")
    with mock.patch.object(comove.ingest, "_CHUNK_ROWS", chunk_rows):
        for source in (lambda: io.StringIO(text), lambda: path,
                       lambda: text.splitlines(keepends=True),
                       lambda: text.splitlines(),
                       lambda: io.StringIO(unquoted)):
            assert _parse_outcome(parse_trajectories, source()) == \
                _parse_outcome(brute_parse_trajectories, source())


_PLAIN = "".join(
    ["object_id,timestamp,x,y\n"]
    + [f"o{i % 7}, {i // 7} ,{i}.5,-{i}e-1\n" for i in range(60)]
    + ["z,2024-01-01T00:00:00Z,1,2\n", ",,,\n", "z,0,3,4"])


@pytest.mark.parametrize("text", [
    _PLAIN,
    _PLAIN + "\n",
    _PLAIN.replace("o3, 5 ,38.5", "o3,5,inf"),       # non-finite on line 40
    _PLAIN.replace("o4, 7 ,53.5", "o4, 0 ,53.5"),    # duplicate on line 55
    _PLAIN.replace("o5, 2 ,19.5", "o5,2.5,19.5"),    # bad timestamp on line 21
    # two full chunks, the second ending without a line end
    "".join(_PLAIN.splitlines(keepends=True)[:20]).rstrip("\n"),
], ids=["no-final-newline", "final-newline", "non-finite", "duplicate",
        "bad-timestamp", "full-chunks-no-final-newline"])
def test_plain_lines_are_split_without_the_csv_reader(text):
    want = _parse_outcome(brute_parse_trajectories, io.StringIO(text))
    with mock.patch.object(comove.ingest, "_CHUNK_ROWS", 10), \
            mock.patch("comove.ingest.csv.reader",
                       side_effect=AssertionError("csv.reader was called")):
        assert _parse_outcome(parse_trajectories, io.StringIO(text)) == want


def test_list_items_without_line_ends_are_split_without_the_csv_reader():
    # csv.reader reads each item of a list source as one record, so an item
    # that lacks its "\n" ends its line whatever item follows it.
    lines = _PLAIN.splitlines()
    want = _parse_outcome(brute_parse_trajectories, lines)
    with mock.patch.object(comove.ingest, "_CHUNK_ROWS", 1), \
            mock.patch("comove.ingest.csv.reader",
                       side_effect=AssertionError("csv.reader was called")):
        assert _parse_outcome(parse_trajectories, lines) == want


def _failing_after(lines: list[str], n: int):
    """The first ``n`` of ``lines``, then a decode error."""
    yield from lines[:n]
    raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")


@pytest.mark.parametrize("bad_line", [None, 4])
@pytest.mark.parametrize("n", [9, 10, 11, 20])
def test_a_read_error_after_a_chunk_follows_the_check_of_its_lines(n, bad_line):
    # Reading the line after a full chunk fails: the chunk's own records are
    # checked first, so a bad record in them is the error reported.
    lines = _PLAIN.splitlines(keepends=True)
    if bad_line:
        lines[bad_line - 1] = "o1,x,0,0\n"
    with mock.patch.object(comove.ingest, "_CHUNK_ROWS", 10):
        got = _parse_outcome(parse_trajectories, _failing_after(lines, n))
    assert got == _parse_outcome(brute_parse_trajectories, _failing_after(lines, n))
    assert got[0] is (UnicodeDecodeError if bad_line is None else ParseError)


def test_a_line_item_with_an_inner_line_break_matches_the_oracle():
    lines = ["a,1,0\n,0", "b,1,0,0\n"]
    assert _parse_outcome(parse_trajectories, lines) == \
        _parse_outcome(brute_parse_trajectories, lines)


@pytest.mark.parametrize("second_row", ["a,0,0,0", '"a",0,0,0', '"open,0,0,0'],
                         ids=["plain", "closed-quote", "open-quote"])
def test_undecodable_bytes_match_the_oracle(tmp_path, second_row):
    # The decoder fails inside the first chunk of lines.  When that chunk
    # holds a '"', the error must still surface where csv would meet it, not
    # end the quote.
    rows = [f"o{i % 9},{i // 9},{i},0" for i in range(3000)]
    rows[1] = second_row
    path = tmp_path / "t.csv"
    path.write_bytes("\n".join(rows).encode().replace(b"o4,111,", b"o4,\xff,"))
    outcome = _parse_outcome(parse_trajectories, path)
    assert outcome[0] is UnicodeDecodeError
    assert outcome == _parse_outcome(brute_parse_trajectories, path)


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def _interp_reference(db: TrajectoryDB) -> TrajectoryDB:
    """Per-gap linear fill, written the slow obvious way."""
    xy = db.xy.copy()
    t = db.time_labels
    for o in range(db.n_objects):
        obs = [i for i in range(db.n_times) if db.present[o, i]]
        for a, b in zip(obs, obs[1:]):
            for i in range(a + 1, b):
                w = (t[i] - t[a]) / (t[b] - t[a])
                xy[o, i] = db.xy[o, a] + w * (db.xy[o, b] - db.xy[o, a])
    return TrajectoryDB(db.object_labels, db.time_labels, xy)


def test_interpolate_fills_interior_gap():
    db = _db("a,0,0,0\na,2,2,4\nb,0,5,5\nb,1,5,5\nb,2,5,5\n")
    out = interpolate(db)
    assert out.xy[0, 1].tolist() == [1.0, 2.0]
    assert np.array_equal(out.xy[1], db.xy[1])  # fully observed row untouched


def test_interpolate_only_objects_with_an_interior_gap(monkeypatch):
    # only a has an interior gap: b is seen at every time and c once, and
    # both come back bit for bit, b's -0.0 included
    db = _db("a,0,0,0\na,2,2,4\nb,0,-0.0,5\nb,1,5,5\nb,2,5,5\nc,1,1,1\n")
    calls = []
    interp = np.interp
    monkeypatch.setattr(np, "interp", lambda *args: calls.append(args) or interp(*args))
    out = interpolate(db)
    assert len(calls) == 2  # a's x and y
    assert out.xy[0, 1].tolist() == [1.0, 2.0]
    assert out.xy[1:].tobytes() == db.xy[1:].tobytes()


def test_interpolate_leaves_edges_missing():
    # c pins timestamps 1 and 2 into the grid so b really has interior gaps
    db = _db("a,0,9,9\nb,0,0,0\nb,3,3,3\nb,4,4,4\nc,1,7,7\nc,2,7,7\n")
    assert db.time_labels == (0, 1, 2, 3, 4)
    out = interpolate(db)
    # a has a single observation: nothing to do, trailing stays NaN
    assert np.isnan(out.xy[0, 1:]).all()
    # b's interior gap is filled linearly
    assert out.xy[1, 1].tolist() == [1.0, 1.0]
    assert out.xy[1, 2].tolist() == [2.0, 2.0]
    # c's leading and trailing gaps are not extrapolated
    assert np.isnan(out.xy[2, 0]).all() and np.isnan(out.xy[2, 3:]).all()


def test_interpolate_respects_time_labels():
    # time labels 0,1,10: the fill at t=1 is 1/10 of the way along, not 1/2
    db = _db("a,0,0,0\na,10,10,0\nb,1,7,7\n")
    out = interpolate(db)
    assert out.xy[0, 1].tolist() == [1.0, 0.0]


def test_interpolate_is_idempotent():
    rng = np.random.default_rng(5)
    xy = rng.uniform(0, 10, size=(6, 12, 2))
    mask = rng.random((6, 12)) < 0.4
    xy[mask] = np.nan
    db = TrajectoryDB(tuple(f"o{i}" for i in range(6)), tuple(range(12)), xy)
    once = interpolate(db)
    assert interpolate(once) == once


def test_interpolate_matches_reference():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n, m = int(rng.integers(1, 6)), int(rng.integers(2, 15))
        # occasionally irregular timestamps
        if trial % 3 == 0:
            times = tuple(np.sort(rng.choice(np.arange(100), size=m, replace=False)).tolist())
        else:
            times = tuple(range(m))
        xy = rng.uniform(-5, 5, size=(n, m, 2))
        xy[rng.random((n, m)) < 0.5] = np.nan
        db = TrajectoryDB(tuple(f"o{i}" for i in range(n)), times, xy)
        got = interpolate(db)
        want = _interp_reference(db)
        assert got.time_labels == want.time_labels
        np.testing.assert_allclose(got.xy, want.xy, atol=1e-9, equal_nan=True)


# ---------------------------------------------------------------------------
# Periodic decomposition
# ---------------------------------------------------------------------------

def test_periodic_decompose_chunks_and_labels():
    rows = [f"a,{t},{t}.0,0" for t in range(7)] + ["b,0,9,9", "b,1,9,9"]
    db = _db("\n".join(rows) + "\n")
    dec = periodic_decompose(db, 3)
    assert dec.sub_db.object_labels == ("a#0", "a#1")
    assert dec.sub_db.time_labels == (0, 1, 2)
    assert dec.sources == (("a", 0), ("a", 1))
    # chunk k carries observations 3k..3k+2; the trailing 7th obs is dropped,
    # and b (only 2 observations) contributes nothing
    assert dec.sub_db.xy[0, :, 0].tolist() == [0.0, 1.0, 2.0]
    assert dec.sub_db.xy[1, :, 0].tolist() == [3.0, 4.0, 5.0]


def test_periodic_decompose_uses_observed_sequence():
    # a observed at timestamps 0,2,5,6 -> one chunk of its first 2 observations
    db = _db("a,0,0,0\na,2,1,0\na,5,2,0\na,6,3,0\nb,0,8,8\n")
    dec = periodic_decompose(db, 2)
    assert dec.sub_db.object_labels == ("a#0", "a#1")
    assert dec.sub_db.xy[0, :, 0].tolist() == [0.0, 1.0]
    assert dec.sub_db.xy[1, :, 0].tolist() == [2.0, 3.0]


def test_periodic_decompose_empty_result():
    db = _db("a,0,0,0\n")
    dec = periodic_decompose(db, 2)
    assert dec.sub_db.n_objects == 0
    assert dec.sub_db.time_labels == (0, 1)
    assert dec.sources == ()


def test_periodic_decompose_rejects_bad_period():
    db = _db("a,0,0,0\n")
    for period in (1, 0, -3, 2.0):
        with pytest.raises(ParameterError):
            periodic_decompose(db, period)


def test_periodic_decompose_concat_reproduces_observations():
    rng = np.random.default_rng(23)
    xy = rng.uniform(0, 10, size=(4, 11, 2))
    xy[rng.random((4, 11)) < 0.3] = np.nan
    db = TrajectoryDB(tuple("abcd"), tuple(range(11)), xy)
    dec = periodic_decompose(db, 4)
    for sub_i, (label, k) in enumerate(dec.sources):
        o = db.object_labels.index(label)
        obs = np.nonzero(db.present[o])[0]
        np.testing.assert_array_equal(
            dec.sub_db.xy[sub_i], db.xy[o, obs[k * 4:(k + 1) * 4]])
