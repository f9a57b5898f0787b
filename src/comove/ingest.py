"""Trajectory input: CSV parsing, gap interpolation, periodic decomposition.

A trajectory database is a dense (object, timestamp) grid of 2-D positions
with NaN marking missing observations.  Object labels are kept sorted and
timestamps strictly increasing, so equal inputs produce identical databases
regardless of row order.

``parse_trajectories`` reads lines in bounded chunks.  A chunk of plain lines
(no quotes, carriage returns or NULs, three commas per line) is split into
field columns with a few whole-string operations; any other chunk, and all
input after a '"', goes through ``csv.reader``, whose records get their
field counts checked.  Each chunk is then checked and converted by column:
ids and times become codes through dicts, timestamps go through ``int``
(ISO-8601 strings through ``_parse_timestamp``), coordinates through
``float`` into numpy arrays, and empty ids, finiteness and duplicate
(object, time) keys are checked over whole columns.  Observations land in a
dense grid indexed by those codes, reordered to sorted labels once at the
end.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice, repeat
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .model import ConflictError, ParameterError, ParseError, UniverseError

__all__ = [
    "TrajectoryDB",
    "parse_trajectories",
    "interpolate",
    "PeriodicDecomposition",
    "periodic_decompose",
]


@dataclass(frozen=True, eq=False)
class TrajectoryDB:
    """Positions of every object at every timestamp; NaN where unobserved."""

    object_labels: tuple[str, ...]
    time_labels: tuple
    xy: np.ndarray  # (n_objects, n_times, 2) float64

    def __post_init__(self):
        if self.xy.shape != (len(self.object_labels), len(self.time_labels), 2):
            raise ValueError(
                f"xy shape {self.xy.shape} does not match "
                f"{len(self.object_labels)} objects x {len(self.time_labels)} times")

    @property
    def n_objects(self) -> int:
        return len(self.object_labels)

    @property
    def n_times(self) -> int:
        return len(self.time_labels)

    @property
    def present(self) -> np.ndarray:
        """Boolean (n_objects, n_times) observation mask, rebuilt per read."""
        return ~np.isnan(self.xy[:, :, 0])

    def align_to(self, labels: tuple[str, ...]) -> "TrajectoryDB":
        """Re-index the rows onto another object universe (which must contain
        every object seen here); labels absent from this database get all-NaN
        rows.  Used when new observations must share a stored universe."""
        known = set(labels)
        unknown = sorted(o for o in self.object_labels if o not in known)
        if unknown:
            raise UniverseError(
                f"object ids not in the target universe: {', '.join(unknown[:5])}"
                + (" ..." if len(unknown) > 5 else ""))
        xy = np.full((len(labels), self.n_times, 2), np.nan)
        row = {o: i for i, o in enumerate(self.object_labels)}
        for i, label in enumerate(labels):
            if label in row:
                xy[i] = self.xy[row[label]]
        return TrajectoryDB(tuple(labels), self.time_labels, xy)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TrajectoryDB)
                and self.object_labels == other.object_labels
                and self.time_labels == other.time_labels
                and np.array_equal(self.xy, other.xy, equal_nan=True))


def _parse_timestamp(s: str):
    """Integer timestamps pass through; ISO-8601 becomes epoch seconds (naive
    times are taken as UTC).  Returns None when the field is neither."""
    try:
        return int(s)
    except ValueError:
        pass
    iso = s.replace("Z", "+00:00") if s.endswith("Z") else s
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    epoch = dt.timestamp()
    return int(epoch) if epoch == int(epoch) else epoch


# Lines tokenized per step: bounds the Python objects a parse holds at once.
_CHUNK_ROWS = 4096
_line_num = attrgetter("line_num")


def parse_trajectories(source) -> TrajectoryDB:
    """Read object_id,timestamp,x,y rows into a trajectory database.

    ``source`` may be a path or an open text stream (any iterable of lines
    works).  An optional header row is recognized by its second field being
    neither an integer nor an ISO-8601 timestamp.  Duplicate (object,
    timestamp) observations and non-finite coordinates are rejected with the
    offending line number.

    Lines are read in chunks and each chunk is converted column by column;
    the first invalid record of the input is the one reported.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return parse_trajectories(fh)

    grid = _Grid()
    header_pending = True
    for fields, lines, error in _tokenize(iter(source)):
        rows, error, header_pending = _check_chunk(fields, lines, error,
                                                   header_pending)
        grid.add(*rows, error)
    return grid.build()


def _tokenize(lines_in):
    """Yield the input chunk by chunk as ``(fields, lines, error)``: the four
    field columns of the records up to the first one of another width that
    is not blank, the line each of them ends on, and that record's
    ParseError (None when there is none).  A read error is raised after the
    chunk of the records read before it.

    A chunk of ``_CHUNK_ROWS`` lines is split as one string when its lines
    are plain (see ``_split_plain``) and goes through ``csv.reader``
    otherwise.  Once a chunk holds a '"', the rest of the input goes through
    one ``csv.reader``, because a quoted field can span lines."""
    limit = csv.field_size_limit()
    read = 0  # lines pulled so far
    while True:
        lines: list[str] = []
        failure = None
        try:
            lines.extend(islice(lines_in, _CHUNK_ROWS))
        except UnicodeDecodeError as e:
            failure = e  # raised once the lines read before it are checked
        text = "".join(lines)
        if '"' in text:
            rest = lines_in if failure is None else _raise(failure)
            yield from _csv_chunks(chain(lines, rest), read)
            return
        if lines:
            fields = _split_plain(text, lines, limit)
            if fields is None:
                yield from _csv_chunks(lines, read)
            else:
                yield fields, list(range(read + 1, read + len(lines) + 1)), None
            read += len(lines)
        if failure is not None:
            raise failure
        if len(lines) < _CHUNK_ROWS:
            return


def _raise(error: Exception):
    raise error
    yield  # a generator: raises when the first line is pulled


# Bytes other than the comma, line end, carriage return and NUL, which a
# chunk's skeleton keeps (see _split_plain).
_NOT_PLAIN_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n\r\0")))


def _split_plain(text: str, lines: list[str], limit: int):
    """The four field columns of ``lines``, which join to ``text`` (free of
    '"'), split as ``csv.reader`` splits them; None unless every line is
    plain: it holds no carriage return or NUL, exactly three commas and one
    line end, at its end, and it is no longer than the csv field limit
    ``limit``.  The chunk's final line may lack its line end: it is then the
    input's last line, or an item of a list source, which ``csv.reader``
    also reads as one record.

    The lines are checked at once, joined by NUL, which no plain line
    holds: their UTF-8 bytes less all but commas, line ends, carriage
    returns and NULs must be ``,,,\n`` per line, NUL between lines, and
    each NUL must follow a line end."""
    if not text.endswith("\n"):
        text += "\n"
    joined = "\0".join(lines) + ("" if lines[-1].endswith("\n") else "\n")
    skeleton = joined.encode("utf-8", "surrogatepass").translate(
        None, _NOT_PLAIN_SEPARATORS)
    if (skeleton != b",,,\n\0" * (len(lines) - 1) + b",,,\n"
            or joined.count("\n\0") != len(lines) - 1
            or (len(text) > limit and max(map(len, lines)) > limit)):
        return None
    fields = text.replace("\n", ",").split(",")
    return fields[0:-1:4], fields[1::4], fields[2::4], fields[3::4]


def _csv_chunks(lines_in, read: int):
    """``_tokenize``'s chunks of ``csv.reader`` records of ``lines_in``,
    which follows the input's first ``read`` lines."""
    reader = csv.reader(lines_in)
    # Each record paired with the line it ends on.
    numbered = zip(reader, map(read.__add__, map(_line_num, repeat(reader))))
    while True:
        chunk: list = []
        failure = None
        try:
            chunk.extend(islice(numbered, _CHUNK_ROWS))
        except (csv.Error, UnicodeDecodeError) as e:
            failure = e  # raised once the records read before it are checked
        if chunk:
            records, lines = zip(*chunk)
            yield _csv_columns(records, list(lines))
        if failure is not None:
            raise failure
        if len(chunk) < _CHUNK_ROWS:
            return


def _csv_columns(records: tuple[list[str], ...], lines: list[int]):
    """``_tokenize``'s ``(fields, lines, error)`` for csv records, each
    ending on the line ``lines`` gives.  Blank records of another width than
    four are skipped."""
    error = None
    lens = list(map(len, records))
    if lens.count(4) != len(lens):
        keep = []
        for i, k in enumerate(lens):
            if k == 4:
                keep.append(i)
            elif any(f.strip() for f in records[i]):
                error = ParseError(f"expected 4 fields, got {k}", line=lines[i])
                break
        records = [records[i] for i in keep]
        lines = [lines[i] for i in keep]
    return list(zip(*records)), lines, error


def _first_bad_coordinates(xs: list[str], ys: list[str]) -> int:
    for i, (x, y) in enumerate(zip(xs, ys)):
        try:
            float(x), float(y)
        except ValueError:
            return i
    raise AssertionError("every coordinate parses")


def _floats(strings: list[str]) -> np.ndarray:
    return np.fromiter(map(float, strings), float, len(strings))


_NO_ROWS = ((), (), (), np.empty(0), np.empty(0), ())


def _check_chunk(fields, lines: list[int], error: ParseError | None,
                 header_pending: bool):
    """Validate one chunk of records given as its four field columns, each
    record ending on the line ``lines`` gives, column by column.  ``error``
    is the chunk's ParseError for a record after these.

    Returns ``((ids, stamps, times, x, y, lines), error, header_pending)``
    for the non-blank data rows before the chunk's first invalid record,
    whose ParseError is ``error`` (None when every record is valid).  Each check
    runs on the rows before the earliest failure found so far, in the order
    the checks apply to one record, so ``error`` is the one a row-by-row
    reader would raise first.
    """
    def cut(i: int, err: ParseError) -> None:
        nonlocal error, columns
        error = err
        columns = [c[:i] for c in columns]

    if not lines:
        return _NO_ROWS, error, header_pending
    columns = [list(map(str.strip, c)) for c in fields] + [lines]
    if "" in columns[0]:  # four-field rows of blanks are skipped like blank lines
        rows = [i for i, r in enumerate(zip(*columns[:4])) if any(r)]
        columns = [[c[i] for i in rows] for c in columns]
        if not rows:
            return _NO_ROWS, error, header_pending

    if header_pending:
        header_pending = False
        if _parse_timestamp(columns[1][0]) is None:  # header row
            columns = [c[1:] for c in columns]
    stamps = columns[1]
    try:
        times = list(map(int, stamps))
    except ValueError:
        times = list(map(_parse_timestamp, stamps))
    columns.append(times)
    if None in times:
        i = times.index(None)
        cut(i, ParseError(f"unparseable timestamp {columns[1][i]!r}",
                          line=columns[4][i]))
    if "" in columns[0]:
        i = columns[0].index("")
        cut(i, ParseError("empty object id", line=columns[4][i]))
    _, _, xs, ys, lines, _ = columns
    try:
        x, y = _floats(xs), _floats(ys)
    except ValueError:
        i = _first_bad_coordinates(xs, ys)
        cut(i, ParseError(f"unparseable coordinates ({xs[i]!r}, {ys[i]!r})",
                          line=lines[i]))
        x, y = _floats(xs[:i]), _floats(ys[:i])
    bad = ~(np.isfinite(x) & np.isfinite(y))
    if bad.any():
        i = int(bad.argmax())
        cut(i, ParseError(f"non-finite coordinates ({xs[i]}, {ys[i]})", line=lines[i]))
        x, y = x[:i], y[:i]
    ids, stamps, _, _, lines, times = columns
    return (ids, stamps, times, x, y, lines), error, header_pending


class _Grid:
    """Dense (object, time) grid filled chunk by chunk.  Objects and times
    get codes in order of first appearance; the grid grows geometrically and
    is reordered to sorted labels once, in ``build``."""

    def __init__(self):
        self.objects: dict[str, int] = {}
        self.times: dict = {}
        self.xy = np.empty((0, 0, 2))
        self.first_line = np.zeros((0, 0), dtype=np.int64)  # 0 = unobserved

    @staticmethod
    def _codes(table: dict, keys: list) -> np.ndarray:
        for k in dict.fromkeys(keys):
            table.setdefault(k, len(table))
        return np.fromiter(map(table.__getitem__, keys), np.intp, len(keys))

    def _reserve(self, n_objects: int, n_times: int) -> None:
        rows, cols = self.first_line.shape
        if n_objects <= rows and n_times <= cols:
            return
        rows = rows if n_objects <= rows else max(n_objects, 2 * rows)
        cols = cols if n_times <= cols else max(n_times, 2 * cols)
        xy = np.full((rows, cols, 2), np.nan)
        first_line = np.zeros((rows, cols), dtype=np.int64)
        r, c = self.first_line.shape
        xy[:r, :c] = self.xy
        first_line[:r, :c] = self.first_line
        self.xy, self.first_line = xy, first_line

    def add(self, ids, stamps, times, x, y, lines, error) -> None:
        """Store the rows ``_check_chunk`` passed, or raise the first error
        among them: a duplicate observation, then ``error``."""
        o = self._codes(self.objects, ids)
        t = self._codes(self.times, times)
        self._reserve(len(self.objects), len(self.times))
        line = np.asarray(lines, dtype=np.int64)
        cell = o * self.first_line.shape[1] + t
        before = self.first_line.ravel()[cell]
        order = np.argsort(cell, kind="stable")
        again = np.zeros(len(cell), dtype=bool)
        again[order[1:]] = cell[order[1:]] == cell[order[:-1]]
        dup = (before != 0) | again
        if dup.any():
            i = int(dup.argmax())
            first = before[i] or line[int((cell == cell[i]).argmax())]
            raise ConflictError(
                f"duplicate observation for object {ids[i]!r} at timestamp "
                f"{stamps[i]!r} (first seen on line {first})", line=lines[i])
        if error is not None:
            raise error
        self.first_line[o, t] = line
        self.xy[o, t, 0] = x
        self.xy[o, t, 1] = y

    def build(self) -> TrajectoryDB:
        if not self.objects:
            raise ParseError("no observations found")
        labels = tuple(sorted(self.objects))
        times = tuple(sorted(self.times))
        rows = np.fromiter(map(self.objects.__getitem__, labels), np.intp, len(labels))
        cols = np.fromiter(map(self.times.__getitem__, times), np.intp, len(times))
        return TrajectoryDB(labels, times, self.xy[rows[:, None], cols])


def interpolate(db: TrajectoryDB) -> TrajectoryDB:
    """Fill interior gaps of each trajectory by linear interpolation over the
    time labels.  Leading and trailing gaps stay missing (no extrapolation).

    Only objects with an interior gap, an unobserved time with
    observations before and after it, are interpolated.  The rest are
    copied as they are, which is what interpolating them would give.
    """
    xy = db.xy.copy()
    t = np.asarray(db.time_labels, dtype=float)
    present = db.present
    seen = np.cumsum(present, axis=1)  # observations up to each time
    gaps = ~present & (seen > 0) & (seen < seen[:, -1:])
    for o in np.flatnonzero(gaps.any(axis=1)).tolist():
        obs = np.flatnonzero(present[o])
        inner = slice(obs[0], obs[-1] + 1)
        for axis in (0, 1):
            xy[o, inner, axis] = np.interp(t[inner], t[obs], db.xy[o, obs, axis])
    return TrajectoryDB(db.object_labels, db.time_labels, xy)


class PeriodicDecomposition(NamedTuple):
    """Sub-trajectory database plus, per sub-trajectory, its source object
    label and chunk number."""

    sub_db: TrajectoryDB
    sources: tuple[tuple[str, int], ...]


def periodic_decompose(db: TrajectoryDB, period: int) -> PeriodicDecomposition:
    """Cut each object's observed timestamps into consecutive chunks of
    ``period`` and expose each chunk as its own object over integer period
    offsets 0..period-1.  A trailing chunk shorter than the period is dropped;
    objects with fewer than ``period`` observations contribute nothing.

    Sub-trajectory k of object "bird" is labelled "bird#k".
    """
    if not isinstance(period, int) or period < 2:
        raise ParameterError(f"period must be an int >= 2, got {period!r}")
    labels: list[str] = []
    sources: list[tuple[str, int]] = []
    chunks: list[np.ndarray] = []
    for o, (label, seen) in enumerate(zip(db.object_labels, db.present)):
        obs = np.nonzero(seen)[0]
        for k in range(len(obs) // period):
            take = obs[k * period:(k + 1) * period]
            labels.append(f"{label}#{k}")
            sources.append((label, k))
            chunks.append(db.xy[o, take])
    if chunks:
        xy = np.stack(chunks)
    else:
        xy = np.empty((0, period, 2))
    sub = TrajectoryDB(tuple(labels), tuple(range(period)), xy)
    return PeriodicDecomposition(sub, tuple(sources))
