"""On-disk formats: trajectory CSV, pre-clustered columns, itemset stores,
pattern CSV and GeoJSON.

All writers emit canonically ordered rows with ``\\n`` line endings so that
identical inputs give byte-identical files regardless of platform or thread
count.  The trajectory CSV writer formats its rows a column at a time, in
batches of ``_WRITE_CELLS`` cells, and the pattern CSV writer writes each
line as it formats it, so neither holds more than a batch of text.  A field
that may need quoting is quoted by ``csv`` itself, so quoting follows the
running Python's csv module.

The trajectory, column and store writers refuse, before they write
anything, object ids their reader would read back as other ids or not at
all: empty ids, ids with whitespace its reader strips, and ids holding a
separator of the format.  The pattern writers refuse ids holding ``;``.

The itemset store is read into packed FCIs (tidset masks and item codes).
A row writes its items as runs, ``a..b:o`` for ordinal ``o`` at every store
time from label ``a`` through ``b`` and ``t:o`` for one item, so each row
stands alone.  The reader checks a store's rows all at once where it can,
builds each row's tidset mask and leaves its item codes to be built on
first use.  When the rows are in code order and each is written as the
writer writes it, it keeps them, so writing the store back after an append
copies the line of every stored itemset the append keeps and formats only
the items the batch adds.  Only this module knows that text.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import accumulate, chain, count, filterfalse, repeat
from operator import attrgetter, itemgetter, lt, methodcaller
from pathlib import Path

import numpy as np

from .combine import _Union
from .ingest import TrajectoryDB, _parse_timestamp
from .model import (
    _ITEM_BITS,
    _ORDINAL_MASK,
    _TIME_STEP,
    FCI,
    ClusterId,
    ClusterMatrix,
    Column,
    Convoy,
    GroupPattern,
    MovingCluster,
    ParseError,
    Tidset,
    UniverseError,
    canonical_sort,
    code_item,
    item_code,
)

__all__ = [
    "write_trajectories",
    "read_cluster_columns",
    "write_cluster_columns",
    "FciStore",
    "read_fci_store",
    "write_fci_store",
    "check_pattern_object_ids",
    "write_patterns_csv",
    "write_patterns_geojson",
]


_codes = attrgetter("codes")
_new = object.__new__
# Trajectory cells formatted and written per call: bounds the text held.
_WRITE_CELLS = 1024


def _fmt_time(label) -> str:
    return repr(label) if isinstance(label, float) else str(label)


def _write_to(dest, write) -> None:
    """Call ``write`` with a text stream for ``dest``.  A stream is used as
    is; a path is written through a temporary file in the same directory
    that then replaces it, so an existing file is never left half-written."""
    if not isinstance(dest, (str, Path)):
        write(dest)
        return
    dest = Path(dest)
    tmp = dest.with_name(f".{dest.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            write(fh)
        os.replace(tmp, dest)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a row: quoted
    where the running Python's csv module quotes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]  # the empty second field and the newline


def _check_ids(labels, seps: str, strip, what: str, rule: str) -> None:
    """Raise ParseError naming the first of ``labels`` that is empty, holds
    one of ``seps`` or is changed by ``strip``."""
    for label in labels:
        if not label or any(sep in label for sep in seps) or strip(label) != label:
            raise ParseError(f"object id {label!r} cannot be {what}: ids must "
                             f"be non-empty, {rule}")


def _parse_time_label(s: str, line: int | None = None):
    """An int or finite float time label; anything else raises ParseError,
    reported at ``line`` when given."""
    try:
        return int(s)
    except ValueError:
        try:
            label = float(s)
        except ValueError:
            raise ParseError(f"unparseable time label {s!r}", line=line) from None
    if not math.isfinite(label):
        raise ParseError(f"time label {s!r} is not finite", line=line)
    return label


# ---------------------------------------------------------------------------
# Trajectory CSV
# ---------------------------------------------------------------------------

def _iso_time(label: float) -> str:
    """A float time label (epoch seconds) as ISO-8601 UTC with microseconds,
    or ParseError if ``parse_trajectories`` would not read it back exactly."""
    try:
        text = datetime.fromtimestamp(label, timezone.utc).isoformat(
            timespec="microseconds")
        if _parse_timestamp(text) == label:
            return text
    except (OverflowError, OSError, ValueError):
        pass
    raise ParseError(
        f"time label {label!r} has no exact ISO-8601 form with microseconds")


def write_trajectories(db: TrajectoryDB, dest):
    """object_id,timestamp,x,y rows, object-major with times ascending,
    observed cells only.  A float time label is written as ISO-8601 UTC with
    microseconds.

    Each id and time field is formatted once, by ``csv``.  The rows are
    formatted ``_WRITE_CELLS`` cells of the (object, time) grid at a time,
    from the indices of the observed ones, with coordinates as their float
    ``repr``.  An id that is empty, starts or ends in whitespace or holds a
    carriage return raises ParseError before anything is written:
    ``parse_trajectories`` strips ids, and csv quotes a carriage return
    only from Python 3.13."""
    _check_ids(db.object_labels, "\r", str.strip, "written to a trajectory CSV",
               "hold no carriage return, and not start or end in whitespace")
    ids = list(map(_csv_field, db.object_labels))
    times = [_csv_field(_iso_time(t) if isinstance(t, float) else str(t))
             for t in db.time_labels]
    present = db.present.ravel()  # object-major cells, times ascending

    def write(fh):
        fh.write("object_id,timestamp,x,y\n")
        for a in range(0, len(present), _WRITE_CELLS):
            cells = np.flatnonzero(present[a:a + _WRITE_CELLS]) + a
            o, t = np.divmod(cells, len(times))
            xy = db.xy[o, t]
            fh.write("".join([
                f"{ids[i]},{times[j]},{x!r},{y!r}\n" for i, j, x, y in zip(
                    o.tolist(), t.tolist(), xy[:, 0].tolist(), xy[:, 1].tolist())]))
    _write_to(dest, write)


# ---------------------------------------------------------------------------
# Pre-clustered columns (timestamp <TAB> ordinal <TAB> comma-joined members)
# ---------------------------------------------------------------------------

def read_cluster_columns(source) -> ClusterMatrix:
    """Parse a cluster-column dump into a per-timestamp matrix.

    The object universe is the union of all member ids (sorted); timestamps
    are the union of all first fields (sorted).  Blank lines and lines
    starting with '#' are skipped.
    """
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            return read_cluster_columns(fh)
    raw: list[tuple[int, object, int, tuple[str, ...]]] = []
    for line_no, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}",
                             line=line_no)
        tlabel = _parse_time_label(parts[0].strip(), line_no)
        try:
            ordinal = int(parts[1])
        except ValueError:
            raise ParseError(f"unparseable ordinal {parts[1]!r}", line=line_no) from None
        item_code(0, ordinal, line_no)  # the ordinal must fit an item code
        members = tuple(m.strip() for m in parts[2].split(","))
        if not members or any(not m for m in members):
            raise ParseError("empty member id", line=line_no)
        if len(set(members)) != len(members):
            raise ParseError("repeated member id in one cluster", line=line_no)
        raw.append((line_no, tlabel, ordinal, members))
    if not raw:
        raise ParseError("no clusters found")

    times = tuple(sorted({r[1] for r in raw}))
    labels = tuple(sorted({m for r in raw for m in r[3]}))
    t_idx = {t: i for i, t in enumerate(times)}
    o_idx = {o: i for i, o in enumerate(labels)}
    seen: dict[ClusterId, int] = {}
    columns = []
    for line_no, tlabel, ordinal, members in raw:
        cid = ClusterId(t_idx[tlabel], ordinal)
        if cid in seen:
            raise ParseError(
                f"duplicate cluster {_fmt_time(tlabel)}:{ordinal} "
                f"(first seen on line {seen[cid]})", line=line_no)
        seen[cid] = line_no
        columns.append(Column(cid, Tidset.from_ids(o_idx[m] for m in members)))
    columns.sort(key=lambda c: c.cid)
    try:
        return ClusterMatrix(labels, times, tuple(columns), "per-timestamp")
    except ParseError as e:
        raise ParseError(f"invalid cluster columns: {e}") from None


def write_cluster_columns(matrix: ClusterMatrix, dest):
    """timestamp <TAB> ordinal <TAB> comma-joined member ids, one line per
    column in (time, ordinal) order.  An object id that is empty, starts or
    ends in whitespace or holds ``,``, tab or a newline raises ParseError
    before anything is written: ``read_cluster_columns`` would read it back
    as other ids or not at all."""
    _check_ids(matrix.object_labels, ",\t\n\r", str.strip,
               "written to a columns file", "contain no ',', tab or newline, "
               "and not start or end in whitespace")

    def write(fh):
        for cid, members in sorted(matrix.columns, key=lambda c: c.cid):
            t = _fmt_time(matrix.time_labels[cid.time])
            ids = ",".join(matrix.object_labels[i] for i in members.ids)
            fh.write(f"{t}\t{cid.ordinal}\t{ids}\n")
    _write_to(dest, write)


# ---------------------------------------------------------------------------
# Itemset store (TSV with a commented header)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FciStore:
    """A persisted mining result: the itemsets plus everything needed to
    interpret and extend them later.

    ``clustering`` is ``{"eps": float, "min_pts": int, "interpolate": bool}``
    as mined, or None where not known (pre-clustered input, older stores).

    ``text`` is set by :func:`read_fci_store` only, for a store whose rows
    are in code order and all written as the writer writes them: the rows
    as read, with the object labels and formatted time labels they were read
    with.  Its FCIs build their item codes from it on first use, and the
    writer copies a stored row's line from it, so keep it
    (``dataclasses.replace``) when a read store is merged and written back.
    Equality and repr ignore it."""

    epsilon: int
    object_labels: tuple[str, ...]
    time_labels: tuple
    fcis: tuple[FCI, ...]
    clustering: dict | None = None
    text: _StoreRows | None = field(default=None, compare=False, repr=False)


class _StoredFCI(FCI):
    """An FCI read from a store, whose item codes are built from the store's
    runs on first read.  (A property, not ``__getattr__``, which would slow
    every other attribute read, ``mask`` in the merge loop among them.)"""

    __slots__ = ("_rank", "_rows", "_codes")

    @property
    def codes(self) -> tuple[int, ...]:
        codes = self._codes
        if codes is None:
            codes = self._codes = self._rows.codes(self._rank)
        return codes

    def bounds(self) -> tuple[int, int]:
        rows, rank = self._rows, self._rank
        return (rows.first[rows.tok[rows.row_start[rank]]],
                rows.last[rows.tok[rows.row_start[rank + 1] - 1]])


def _stored_fci(mask: int, rank: int, rows: _StoreRows) -> _StoredFCI:
    f = _new(_StoredFCI)
    f.mask, f._rank, f._rows = mask, rank, rows
    f._codes = f._items = f._tidset = None
    return f


# The key of a run that a row leaves for a larger code is _ABOVE less its
# last code, which is above the last code of every run (see _StoreRows).
_ABOVE = (1 << 64) - 1


class _StoreRows:
    """The rows of a read store (see ``_read_rows`` and
    ``_read_rows_one_by_one``).

    Row ``rank``'s runs are ``tok[row_start[rank]:row_start[rank + 1]]``,
    indices of distinct run texts whose first and last item codes are
    ``first`` and ``last``.  ``keys`` is None unless the store was read at
    once, its runs are maximal and its rows in strictly ascending code
    order, so each row is as the writer writes it; row ``rank`` is then
    ``lines[rank]``, and ``keys[rank]`` lists for each run its first code,
    then its last code when the row's next code is smaller than the run's
    next one would be (at the same time, or the row ends there), else
    ``_ABOVE`` less its last code; those lists sort as the rows' codes do."""

    def __init__(self, labels, tl, lines, row_start, tok, first, last, keys):
        self.labels, self.tl, self.lines = labels, tl, lines
        self.row_start, self.tok, self.first, self.last = row_start, tok, first, last
        self.keys = keys
        self.run_codes: dict[int, tuple[int, ...]] = {}
        self.pool: list[int] | None = None  # the runs' distinct items
        self.spans: list[slice] = []  # each run's codes in pool

    def codes(self, rank: int) -> tuple[int, ...]:
        """Row ``rank``'s item codes.  A run's codes are made once, as a
        slice of the pool of the store's distinct items (see
        ``_item_pool``), which is made on the first row's; so each item is
        one int object, whichever rows hold it."""
        if self.pool is None:
            self.pool, self.spans = _item_pool(self.first, self.last)
        parts = []
        for t in self.tok[self.row_start[rank]:self.row_start[rank + 1]]:
            run = self.run_codes.get(t)
            if run is None:
                run = self.run_codes[t] = tuple(self.pool[self.spans[t]])
            parts.append(run)
        # () + t is t, so one run shares its tuple
        return parts[0] if len(parts) == 1 else tuple(chain.from_iterable(parts))

    def block_end(self, rank: int) -> int:
        """The last row that has row ``rank``'s codes as a leading part."""
        key = self.keys[rank]
        return bisect_left(self.keys, key[:-1] + [_ABOVE - key[-1] + 1], rank + 1) - 1

    def write_lines(self, fcis, labels, tl: tuple[str, ...]) -> list[str] | None:
        """The lines of ``fcis`` in code order, or None unless each is one of
        these rows, a union (see ``comove.combine``) of one of them and an
        itemset of later times, or an itemset of later times only.  A row's
        line is copied; a union is written after the last row that has its
        row's codes as a leading part, ahead of the unions of rows before
        its row, its items text the row's joined to the later itemset's
        formatted runs, and the run that crosses the junction joined into
        one.  No row's codes are built.  Itemsets of later times only come
        last."""
        if labels != self.labels or tl[:len(self.tl)] != self.tl:
            return None
        cut, end = len(self.tl) << _ITEM_BITS, len(tl) << _ITEM_BITS
        ranks = []
        placed = []  # (row it follows, -its row, later codes, FCI, its row)
        for f in fcis:
            if f.__class__ is _StoredFCI and f._rows is self:
                ranks.append(f._rank)
                continue
            side = None
            if f.__class__ is _Union and f.apart and f.head.__class__ is _StoredFCI \
                    and f.head._rows is self:
                side, f_later = f.head._rank, f.tail
            else:
                f_later = f
            later = f_later.codes
            if later[0] < cut or later[-1] >= end or f.mask >> len(labels):
                return None  # not of later times, or refused by the generic writer
            placed.append((len(self.lines), 1, later, f, None) if side is None else
                          (self.block_end(side), -side, later, f, side))
        ranks.sort()
        placed.sort(key=itemgetter(0, 1, 2))
        texts = _run_texts([p[2] for p in placed], tl)
        members = _member_texts([p[3].mask for p in placed], labels)
        lines, out, done = self.lines, [], 0
        for (after, _, later, f, side), items, ids in zip(placed, texts, members):
            if side is not None:
                items = self._union_items(side, later[0], items)
            stop = bisect_right(ranks, after, done)
            out += map(lines.__getitem__, ranks[done:stop])
            out.append(f"{f.mask.bit_count()}\t{ids}\t{items}")
            done = stop
        out += map(lines.__getitem__, ranks[done:])
        return out

    def _union_items(self, side: int, code: int, later: str) -> str:
        """Row ``side``'s items text followed by the text ``later`` of runs
        starting at ``code``, joined into one run where the row's last run
        goes on at ``code``."""
        items = self.lines[side].rpartition("\t")[2]
        t = self.tok[self.row_start[side + 1] - 1]
        if code != self.last[t] + _TIME_STEP:
            return f"{items};{later}"
        head, sep, _ = items.rpartition(";")
        run, sep2, rest = later.partition(";")
        start = self.tl[self.first[t] >> _ITEM_BITS]
        return f"{head}{sep}{start}..{run.partition('..')[2] or run}{sep2}{rest}"


def _item_pool(first: list[int], last: list[int]) -> tuple[list[int], list[slice]]:
    """The distinct items of runs with first and last item codes ``first``
    and ``last``, as one list of ints made once each, and each run's slice
    of it.  The runs of one ordinal whose times overlap or touch share one
    stretch of the list, so it holds no item that no run holds."""
    if not first:
        return [], []
    f, g = np.array(first, np.int64), np.array(last, np.int64)
    order = np.lexsort((f >> _ITEM_BITS, f & _ORDINAL_MASK))
    # ordinal-major keys of each run's first and last times, in that order
    a = ((f & _ORDINAL_MASK).astype(np.uint64) << _ITEM_BITS
         | (f >> _ITEM_BITS).astype(np.uint64))[order]
    b = np.maximum.accumulate(a + ((g - f) >> _ITEM_BITS).astype(np.uint64)[order])
    new = np.ones(len(a), bool)  # a run past the stretch before: a new stretch
    new[1:] = a[1:] > b[:-1] + 1
    heads = np.flatnonzero(new)
    lengths = (b[np.append(heads[1:] - 1, len(a) - 1)] - a[heads] + 1).astype(np.int64)
    base = np.cumsum(lengths) - lengths  # each stretch's start in the pool
    stretch = np.cumsum(new) - 1
    pool = (np.repeat(f[order][heads] - base * _TIME_STEP, lengths)
            + np.arange(lengths.sum(), dtype=np.int64) * _TIME_STEP).tolist()
    at = np.empty(len(a), np.int64)
    at[order] = base[stretch] + (a - a[heads][stretch]).astype(np.int64)
    end = at + ((g - f) >> _ITEM_BITS) + 1
    return pool, list(map(slice, at.tolist(), end.tolist()))


def write_fci_store(store: FciStore, dest):
    """Header lines carry epsilon, the clustering when known, the universe
    size, the covered time range and the full label tables; one row per
    itemset in code order: support <TAB> member ids <TAB> items, the items
    as their maximal runs (see ``_run_texts``).

    Object ids must be non-empty, free of ``,``, tab and newline, which the
    format uses as separators, and must not end in whitespace, which the
    reader strips from the end of the objects line.

    A store read with ``text`` and written back under the object labels it
    was read with, and time labels that start with the ones read, as after
    an append, copies the line of every stored row it keeps and writes only
    the rest (see ``_StoreRows.write_lines``): the merge's unions of a
    stored row and an itemset of later times, whose items text is the row's
    followed by the runs formatted from that itemset's codes, and the
    itemsets of later times only.  Any other store is
    sorted by codes and formatted whole, member ids from tidset masks and
    items from their codes."""
    labels = store.object_labels
    _check_ids(labels, ",\t\n\r", str.rstrip, "stored",
               "contain no ',', tab or newline, and not end in whitespace")
    tl = tuple(map(_fmt_time, store.time_labels))
    lines = store.text and store.text.write_lines(store.fcis, labels, tl)
    if lines is None:
        fcis = sorted(store.fcis, key=_codes)
        lines = [f"{f.mask.bit_count()}\t{ids}\t{items}" for f, ids, items in zip(
            fcis, _member_texts([f.mask for f in fcis], labels),
            _run_texts([f.codes for f in fcis], tl))]

    def write(fh):
        fh.write(f"# epsilon\t{store.epsilon}\n")
        if store.clustering is not None:
            fh.write("# clustering" + "".join(f"\t{k}={store.clustering[k]!r}"
                     for k in ("eps", "min_pts", "interpolate")) + "\n")
        fh.write(f"# n_objects\t{len(labels)}\n")
        if tl:
            fh.write(f"# time_range\t{tl[0]}\t{tl[-1]}\n")
        fh.write(f"# objects\t{','.join(labels)}\n")
        fh.write(f"# times\t{','.join(tl)}\n")
        if lines:
            fh.write("\n".join(lines) + "\n")
    _write_to(dest, write)


def _member_texts(masks: list[int], labels: tuple[str, ...]) -> list[str]:
    """The member-id text of each tidset mask: its objects' labels in
    universe order, joined by ``,``."""
    width = (len(labels) + 7) >> 3
    bits = np.unpackbits(np.frombuffer(b"".join(
        [m.to_bytes(width, "little") for m in masks]), np.uint8), bitorder="little")
    row, col = np.divmod(np.flatnonzero(bits), 8 * width or 1)
    names = list(map(labels.__getitem__, col.tolist()))
    bounds = np.searchsorted(row, np.arange(len(masks) + 1)).tolist()
    return [",".join(names[a:b]) for a, b in zip(bounds, bounds[1:])]


def _run_texts(rows: list[tuple[int, ...]], tl: tuple[str, ...]):
    """An iterator over the items text of each row of codes: its maximal runs
    of one ordinal at consecutive store times, in code order, each written
    ``a..b:o``, or ``t:o`` for a run of one item, joined by ``;``.  An item
    whose time is not a store time raises ParseError."""
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    codes = np.fromiter(chain.from_iterable(rows), np.int64, lengths.sum())
    end = len(tl) << _ITEM_BITS  # the first code past the last store time
    if len(codes) and (codes.min() < 0 or codes.max() >= end):
        bad = code_item(int(codes[((codes < 0) | (codes >= end)).argmax()]))
        raise ParseError(f"item {bad} cannot be stored: its time index is "
                         f"outside the store's {len(tl)} time labels")
    breaks = np.ones(len(codes) + 1, bool)  # where a run starts, then the end
    breaks[1:-1] = np.diff(codes) != _TIME_STEP
    row_starts = np.cumsum(lengths) - lengths
    breaks[row_starts] = True
    starts = np.flatnonzero(breaks[:-1])
    first = codes[starts]
    last_t = (codes[np.flatnonzero(breaks[1:])] >> _ITEM_BITS).tolist()
    runs = [f"{tl[a]}:{o}" if a == b else f"{tl[a]}..{tl[b]}:{o}"
            for o, a, b in zip((first & _ORDINAL_MASK).tolist(),
                               (first >> _ITEM_BITS).tolist(), last_t)]
    bounds = np.searchsorted(starts, row_starts).tolist() + [len(runs)]
    return iter([";".join(runs[i:j]) for i, j in zip(bounds, bounds[1:])])


def _parse_run(token: str, t_index: dict[str, int], line_no: int):
    """A run's (ordinal, first time index, last time index), or the
    ParseError of a bad run."""
    times, _, ord_str = token.partition(":")
    start, dots, end = times.partition("..")
    for label in (start, end) if dots else (start,):
        if label not in t_index:
            raise ParseError(f"unknown time label {label!r}", line=line_no)
    a = t_index[start]
    b = t_index[end] if dots else a
    if b <= a and dots:
        raise ParseError(f"run {token!r} does not end after it starts", line=line_no)
    try:
        ordinal = int(ord_str)
    except ValueError:
        raise ParseError(f"unparseable item {token!r}", line=line_no) from None
    item_code(0, ordinal, line_no)  # an ordinal the code cannot hold raises
    return ordinal, a, b


def read_fci_store(source, *, counters: dict | None = None) -> FciStore:
    """Parse a store into packed FCIs.  Every row is checked, and the first
    fault raises ParseError naming its line; so do a repeated object id in
    the header and a row whose support is below epsilon.

    A store whose rows list their ids in universe order and write their
    support and ordinals as the writer writes them is read in one pass over
    all rows at once (see ``_read_rows``), and its FCIs build their item
    codes on first use.  When its runs are maximal too and its rows in
    strictly ascending code order, so each row is as the writer writes it,
    its ``text`` keeps the rows, and writing it back copies the line of each
    row it keeps.  Any other store, and one with a faulty row, is read row
    by row (``_read_rows_one_by_one``), its FCIs building their codes on
    first use too; a store has no ``text`` unless it is read at once and
    kept.

    ``counters``, when given, is filled with ``rows``, ``items`` and
    ``runs``."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            return read_fci_store(fh, counters=counters)
    lines = list(map(methodcaller("rstrip", "\n"), source))
    header: dict[str, list[str]] = {}
    for line in filter(methodcaller("startswith", "#"), lines):
        parts = line[1:].strip().split("\t")
        if parts and parts[0] in ("epsilon", "clustering", "n_objects",
                                  "time_range", "objects", "times"):
            header[parts[0]] = parts[1:]
    body = [i for i, line in enumerate(lines)  # rows, by index in lines
            if line and line[0] != "#" and not line.isspace()]

    for key in ("epsilon", "objects", "times"):
        if key not in header:
            raise ParseError(f"store header is missing '{key}'")
    try:
        epsilon = int(header["epsilon"][0])
    except (IndexError, ValueError):
        raise ParseError("store header has an unparseable epsilon") from None
    if epsilon < 1:
        raise ParseError(f"store epsilon must be >= 1, got {epsilon}")
    clustering = header.get("clustering")
    if clustering is not None:
        c = dict(f.partition("=")[::2] for f in clustering)
        try:
            clustering = {"eps": float(c["eps"]), "min_pts": int(c["min_pts"]),
                          "interpolate": ["False", "True"].index(c["interpolate"]) == 1}
        except (KeyError, ValueError):
            raise ParseError("store header has an unparseable clustering") from None
    labels = tuple(o for o in header["objects"][0].split(",") if o) \
        if header["objects"] and header["objects"][0] else ()
    o_index = {o: i for i, o in enumerate(labels)}
    if len(o_index) != len(labels):
        repeated = next(o for i, o in enumerate(labels) if o in labels[:i])
        raise ParseError(f"store header repeats object id {repeated!r}")
    times = tuple(map(_parse_time_label, filter(None, header["times"][0].split(",")))) \
        if header["times"] and header["times"][0] else ()
    if "n_objects" in header:
        try:
            declared = int(header["n_objects"][0])
        except (IndexError, ValueError):
            raise ParseError("store header has an unparseable n_objects") from None
        if declared != len(labels):
            raise ParseError(
                f"store header declares {declared} objects but lists {len(labels)}")
    if "time_range" in header and times:
        if (header["time_range"][0] != _fmt_time(times[0])
                or header["time_range"][1] != _fmt_time(times[-1])):
            raise ParseError("store time_range disagrees with the times list")
    if not all(map(lt, times, times[1:])):
        raise ParseError("store times must be strictly increasing")

    t_index = dict(zip(map(_fmt_time, times), count()))
    rows = [lines[i] for i in body]
    fcis, text, counts = (
        _read_rows(rows, labels, o_index, t_index, epsilon)
        or _read_rows_one_by_one(zip([i + 1 for i in body], rows), o_index, t_index,
                                 epsilon))
    if counters is not None:
        counters.update(zip(("rows", "items", "runs"), counts))
    return FciStore(epsilon, labels, times, fcis, clustering, text)


# A run as the writer writes it: its first time label, ".." and its last
# when it has more than one item, then ":" and its ordinal.
_RUN_TEXT = re.compile(r"([^:;]+?)(?:\.\.([^:;]+))?:(0|[1-9][0-9]{0,9})")
# Bytes other than tab and newline, which a store row's skeleton keeps.
_NOT_TAB_OR_NEWLINE = bytes(sorted(set(range(256)) - set(b"\t\n")))


def _read_rows(lines: list[str], labels, o_index, t_index, epsilon: int):
    """(FCIs, ``_StoreRows`` or None, (rows, items, runs)) of store rows
    ``lines``, or None unless each row has three fields, a support written
    as its count of member ids, ids known and in universe order, and items
    as ascending runs of known time labels with ordinals under 2**32 and
    without leading zeros.  The ``_StoreRows`` is given, as the store's
    ``text``, when the runs are also maximal and the rows in strictly
    ascending code order, so that every row is as the writer writes it.

    All rows are checked at once: one split per field, one index lookup of
    all member ids, and the run texts parsed once each by one regular
    expression, with the order and count checks in numpy.  Each row's tidset
    mask is packed from its ids' bytes; its codes are left to be built."""
    n = len(lines)
    if not n:
        return (), _StoreRows(labels, tuple(t_index), [], [0], [], [], [], []), (0, 0, 0)
    skeleton = "\n".join(lines).encode("utf-8", "surrogatepass").translate(
        None, _NOT_TAB_OR_NEWLINE)
    if skeleton != b"\t\t\n" * (n - 1) + b"\t\t":
        return None
    fields = "\t".join(lines).split("\t")
    ids, items = fields[1::3], fields[2::3]
    n_ids = np.fromiter(map(str.count, ids, repeat(",")), np.intp, n) + 1
    if fields[0::3] != list(map(str, n_ids.tolist())) or n_ids.min() < epsilon:
        return None
    try:
        idx = np.fromiter(map(o_index.__getitem__, ",".join(ids).split(",")),
                          np.intp, n_ids.sum())
    except KeyError:
        return None
    row_ends = np.cumsum(n_ids) - 1
    ascending = np.diff(idx) > 0
    ascending[row_ends[:-1]] = True  # a row's first id follows another row's
    if not ascending.all():
        return None
    # Each row's mask as little-endian bytes: ids ascend, so the bytes each
    # row sets ascend too, and the bits of one byte sum to their union.
    width = (len(labels) + 7) >> 3
    byte = np.repeat(np.arange(n) * width, n_ids) + (idx >> 3)
    heads = np.flatnonzero(np.diff(byte, prepend=-1))
    packed = np.zeros(n * width, np.uint8)
    packed[byte[heads]] = np.add.reduceat(
        np.left_shift(1, idx & 7).astype(np.uint8), heads)
    packed = packed.tobytes()
    masks = map(int.from_bytes, map(packed.__getitem__, map(
        slice, range(0, n * width, width), range(width, n * width + 1, width))),
        repeat("little"))

    tokens = ";".join(items).split(";")
    index = dict(zip(dict.fromkeys(tokens), count()))  # run text -> its index
    matches = list(map(_RUN_TEXT.fullmatch, index))
    if None in matches:
        return None
    starts, ends, ordinals = zip(*map(re.Match.groups, matches))
    try:
        a = np.fromiter(map(t_index.__getitem__, starts), np.int64, len(index))
        b = np.fromiter(map({**t_index, None: -1}.__getitem__, ends), np.int64,
                        len(index))
    except KeyError:
        return None
    o = np.fromiter(map(int, ordinals), np.int64, len(index))
    one = b < 0
    if (o > _ORDINAL_MASK).any() or (b <= a)[~one].any():
        return None
    b[one] = a[one]
    first, last = a << _ITEM_BITS | o, b << _ITEM_BITS | o
    tok = np.fromiter(map(index.__getitem__, tokens), np.intp, len(tokens))
    row_start = np.zeros(n + 1, np.intp)
    np.cumsum(np.fromiter(map(str.count, items, repeat(";")), np.intp, n) + 1,
              out=row_start[1:])
    f, g = first[tok], last[tok]
    # a row's runs ascend: the next starts past the last code
    ends_row = np.zeros(len(tok), bool)
    ends_row[row_start[1:] - 1] = True
    nxt, after = f[1:], g[:-1] + _TIME_STEP
    inner = ~ends_row[:-1]
    if (nxt <= g[:-1])[inner].any():
        return None
    keys = None
    if not (nxt == after)[inner].any():  # maximal: no run goes on in the next
        below = ends_row.copy()
        below[:-1] |= nxt < after
        key = np.empty(2 * len(tok), np.uint64)
        key[0::2] = f
        g64 = g.astype(np.uint64)
        key[1::2] = np.where(below, g64, _ABOVE - g64)
        key = key.tolist()
        bounds = (2 * row_start).tolist()
        keys = list(map(key.__getitem__, map(slice, bounds, bounds[1:])))
        if not all(map(lt, keys, keys[1:])):
            keys = None
    rows = _StoreRows(labels, tuple(t_index), lines, row_start.tolist(), tok.tolist(),
                      first.tolist(), last.tolist(), keys)
    fcis = tuple(map(_stored_fci, masks, range(n), repeat(rows)))
    n_items = int(((g - f) >> _ITEM_BITS).sum()) + len(tok)
    return fcis, rows if keys is not None else None, (n, n_items, len(tok))


def _read_rows_one_by_one(body, o_index, t_index, epsilon: int):
    """(FCIs, None, (rows, items, runs)) of store rows ``body``, (line
    number, line) pairs, each checked in turn, the first fault raised as
    ParseError at its line.  Each distinct run is parsed once; the FCIs
    build their codes from the runs on first use, as ``_read_rows``'s do."""
    o_bit = {o: 1 << i for o, i in o_index.items()}
    index: dict[str, int] = {}  # run text -> its index in runs
    runs: list[tuple[int, int, int]] = []  # (ordinal, first, last time index)
    masks, tok, row_start = [], [], [0]
    for line_no, line in body:
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}",
                             line=line_no)
        support_str, ids, items = parts
        try:
            support = int(support_str)
        except ValueError:
            raise ParseError(f"unparseable support {support_str!r}",
                             line=line_no) from None
        members = ids.split(",")
        try:
            bits = list(map(o_bit.__getitem__, members))
        except KeyError as e:
            raise ParseError(f"unknown object id {e.args[0]!r}", line=line_no) from None
        # a repeated member carries into another bit, so the sum has fewer
        # bits set than there are members
        mask = sum(bits)
        if mask.bit_count() != support or len(members) != support:
            raise ParseError(
                f"support {support} does not match {len(members)} member ids",
                line=line_no)
        if support < epsilon:
            raise ParseError(f"support {support} is below the store's epsilon "
                             f"{epsilon}", line=line_no)
        tokens = items.split(";")
        for token in filterfalse(index.__contains__, tokens):
            runs.append(_parse_run(token, t_index, line_no))
            index[token] = len(runs) - 1
        row = list(map(index.__getitem__, tokens))
        for i, j in zip(row, row[1:]):
            (p, _, b), (o, a, _) = runs[i], runs[j]
            if (a, o) <= (b, p):
                raise ParseError("FCI items must be strictly ascending", line=line_no)
        masks.append(mask)
        tok += row
        row_start.append(len(tok))

    first = [a << _ITEM_BITS | o for o, a, _ in runs]
    last = [b << _ITEM_BITS | o for o, _, b in runs]
    rows = _StoreRows(None, tuple(t_index), None, row_start, tok, first, last, None)
    fcis = tuple(map(_stored_fci, masks, count(), repeat(rows)))
    n_items = sum([runs[t][2] - runs[t][1] + 1 for t in tok])
    return fcis, None, (len(fcis), n_items, len(tok))


# ---------------------------------------------------------------------------
# Pattern output
# ---------------------------------------------------------------------------

def check_pattern_object_ids(object_labels):
    """Raise ParseError for an object id containing ``;``, which the pattern
    files use to join member ids, so a row's members would read back wrong."""
    for label in object_labels:
        if ";" in label:
            raise ParseError(
                f"object id {label!r} cannot be written to a pattern file: "
                "ids must not contain ';'")


def _pattern_rows(patterns, matrix: ClusterMatrix):
    """(pattern, kind, objects, times, weight) in canonical order.  Times are
    labels, formatted once per call; consecutive stretches are written as
    first..last, except in a listed-times field, where each run of
    consecutive times is one slice of all the labels joined by ``;``.  Each
    distinct tidset's member ids are joined once."""
    labels = [_fmt_time(t) for t in matrix.time_labels]
    joined = ";".join(labels)
    at = [0, *accumulate(len(label) + 1 for label in labels)]  # each label in joined
    object_labels = matrix.object_labels
    n_times = matrix.n_times
    members: dict[int, str] = {}  # tidset mask -> ;-joined member ids

    def span(a: int, b: int) -> str:
        return labels[a] if a == b else f"{labels[a]}..{labels[b]}"

    def listed(times: tuple[int, ...]) -> str:
        # strictly ascending times: t - index is constant along a run of
        # consecutive ones and grows from run to run, so a bisection finds
        # each run's end
        runs, i, n = [], 0, len(times)
        while i < n:
            d = times[i] - i
            j = bisect_left(range(i, n), True, key=lambda k: times[k] - k != d) + i
            runs.append(joined[at[times[i]]:at[times[j - 1] + 1] - 1])
            i = j
        return ";".join(runs)

    for p in canonical_sort(patterns):
        objects = members.get(p.objects.mask)
        if objects is None:
            objects = members[p.objects.mask] = ";".join(
                [object_labels[i] for i in p.objects.ids])
        if isinstance(p, GroupPattern):
            times, weight = ";".join([span(a, b) for a, b in p.segments]), p.weight
        elif isinstance(p, (Convoy, MovingCluster)):
            start, end = p.start, p.end
            times, weight = span(start, end), (end - start + 1) / n_times
        else:
            times, weight = listed(p.times), len(p.times) / n_times
        yield p, p.kind, objects, times, weight


def write_patterns_csv(patterns, matrix: ClusterMatrix, dest):
    """kind,objects,times,weight rows in canonical order.  Times are labels;
    consecutive stretches are written as first..last.  Object ids holding
    ``;`` are refused (see ``check_pattern_object_ids``).

    Each line is formatted and written directly.  csv quotes a field for
    the characters it holds, and kinds and weights hold none it quotes, so
    the objects and times fields go through ``csv`` only when some object
    id or time label of the matrix needs quoting."""
    check_pattern_object_ids(matrix.object_labels)
    quote = any(_csv_field(s) != s for s in chain(
        matrix.object_labels, map(_fmt_time, matrix.time_labels)))
    field = _csv_field if quote else str

    def write(fh):
        fh.write("kind,objects,times,weight\n")
        for _, kind, objects, times, weight in _pattern_rows(patterns, matrix):
            fh.write(f"{kind},{field(objects)},{field(times)},{weight!r}\n")
    _write_to(dest, write)


def write_patterns_geojson(patterns, matrix: ClusterMatrix, db: TrajectoryDB, dest):
    """FeatureCollection with one feature per pattern: MultiLineString of the
    members' tracks over the pattern's time span, properties mirroring the
    CSV columns.  ``db`` must be the database the matrix was built from.

    Features are written one at a time, in the bytes ``json.dump(doc,
    indent=2)`` gives for the whole collection, so no more than one feature
    is held in memory."""
    if db.object_labels != matrix.object_labels or db.time_labels != matrix.time_labels:
        raise UniverseError(
            "trajectory database does not match the matrix (objects/times differ)")
    check_pattern_object_ids(matrix.object_labels)
    present = db.present

    def write(fh):
        fh.write('{\n  "type": "FeatureCollection",\n  "features": [')
        n = 0
        for p, kind, objects, times, weight in _pattern_rows(patterns, matrix):
            lines = []
            for obj in p.objects.ids:
                seen = [t for t in p.times if present[obj, t]]
                if len(seen) >= 2:
                    lines.append(db.xy[obj, seen].tolist())
            feature = {
                "type": "Feature",
                "geometry": {"type": "MultiLineString", "coordinates": lines},
                "properties": {
                    "kind": kind,
                    "objects": objects.split(";"),
                    "times": times,
                    "weight": weight,
                },
            }
            fh.write((",\n    " if n else "\n    ")
                     + json.dumps(feature, indent=2).replace("\n", "\n    "))
            n += 1
        fh.write("\n  ]\n}\n" if n else "]\n}\n")
    _write_to(dest, write)
