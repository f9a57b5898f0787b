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

The itemset store is read into one table (``_StoreRows``, an
``FciTable`` that also keeps the rows' lines): their tidsets as one
``(rows, W)`` array of uint64 words, and their runs as int64 arrays.  A row
writes its items as runs, ``a..b:o`` for ordinal ``o`` at every store time
from label ``a`` through ``b`` and ``t:o`` for one item, so each row stands
alone.  The reader checks a store's rows all at once where it can.
``read_fci_store`` builds every row's FCI from the table at once; an append
leaves the rows in it: ``combine_fcis`` merges a batch into it by row, and
the writer, given that merge, copies the line of every stored row it keeps,
places each union by its stored row and formats only the items the batch
adds.  Any other store is written from its table, the one a miner returns
or the one its FCIs pack into: each run is formatted from its first and
last codes, and no item is spelled out.  Only this module knows that text.

A store written to a path gets a companion file, the path plus
``.table``, that holds its table in binary (see ``_TABLE_TAG``) with the
SHA-256 of its text.  ``read_fci_table`` of a path takes the table from
it when the digest is that of the text it read and the table passes every
check of the text reader that it can decide; otherwise, and always in
``read_fci_store``, the text is parsed.  The text stays the store.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import partial
from itertools import accumulate, chain, count, filterfalse, repeat
from operator import attrgetter, is_, lt, methodcaller
from pathlib import Path

import numpy as np

from .combine import _Merge
from .ingest import TrajectoryDB, _parse_timestamp
from .model import (
    _ABOVE,
    _ITEM_BITS,
    _ORDINAL_MASK,
    _TIME_STEP,
    FCI,
    ClusterId,
    ClusterMatrix,
    Column,
    FciTable,
    ParseError,
    Tidset,
    UniverseError,
    _code_runs,
    _n_words,
    _popcount,
    _row_keys,
    _starts,
    _words,
    code_item,
    item_code,
)
from .patterns import _KINDS, _LISTED, PatternTable

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
# Trajectory cells formatted and written per call: bounds the text held.
_WRITE_CELLS = 1024


def _fmt_time(label) -> str:
    return repr(label) if isinstance(label, float) else str(label)


def _write_to(dest, write, binary: bool = False) -> None:
    """Call ``write`` with a text stream for ``dest``, or a binary one where
    ``binary``.  A stream is used as is; a path is written through a
    temporary file in the same directory that then replaces it, so an
    existing file is never left half-written."""
    if not isinstance(dest, (str, Path)):
        write(dest)
        return
    dest = Path(dest)
    tmp = dest.with_name(f".{dest.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", newline="") as fh:
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
    joined = "".join(labels)
    if all(labels) and not any(sep in joined for sep in seps) and list(
            map(strip, labels)) == list(labels):
        return
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

    ``fcis`` may also be a table (``FciTable``), as the miners return it.
    ``read_fci_table`` leaves it as the rows' table (``_StoreRows``), and an
    append then sets it to ``combine_fcis``' merge of that table, which the
    writer writes by row."""

    epsilon: int
    object_labels: tuple[str, ...]
    time_labels: tuple
    fcis: tuple[FCI, ...]
    clustering: dict | None = None


class _StoreRows(FciTable):
    """The rows of a read store (see ``_read_rows``, ``_read_companion`` and
    ``_read_rows_one_by_one``), as one table (``FciTable``) that
    ``combine_fcis`` merges by its tidset words.

    ``end`` is the first item code past the store's times, above every
    row's codes.  ``keys`` is None unless the store was read at once, its
    runs are maximal and its rows in strictly ascending code order, so each
    row is as the writer writes it; row ``rank`` is then ``lines[rank]``,
    and ``keys[rank]`` is its key (see ``_row_keys``)."""

    def __init__(self, labels, times, tl, lines, words, row_start, first, last, keys):
        super().__init__(words, row_start, first, last)
        self.labels, self.times, self.tl, self.lines = labels, times, tl, lines
        self.end, self.keys = len(tl) << _ITEM_BITS, keys

    def block_end(self, rank: int) -> int:
        """The last row that has row ``rank``'s codes as a leading part."""
        # the rows whose key goes on from the row's but for its last code,
        # with a value up to _ABOVE less that code (a first code's leading
        # byte is below 0xff)
        key = self.keys[rank]
        above = (_ABOVE - int.from_bytes(key[-8:], "big")).to_bytes(8, "big")
        return bisect_left(self.keys, key[:-8] + above + b"\xff", rank + 1) - 1

    def write_merge(self, merge: _Merge, labels, tl: tuple[str, ...]):
        """The lines, in code order, of ``merge``, ``combine_fcis``' result
        on these rows, and a call that builds their table (see
        ``_ranked_table``); or None unless the rows have ``keys``, ``labels``
        and ``tl`` start as read, every incoming item lies in ``tl``'s later
        times and no incoming tidset holds an object past ``labels``.

        A kept row's line is copied.  A union, whose tidset is its rows'
        words ANDed, is written after the last row that has its stored row's
        codes as a leading part, ahead of the unions of rows before its row,
        its items text the row's joined to the incoming items' formatted
        runs, and the run that crosses the junction joined into one.  No
        row's codes are built.  Incoming itemsets alone come last."""
        if self.keys is None or labels != self.labels or tl[:len(self.tl)] != self.tl:
            return None
        incoming = merge.incoming
        if any(f.mask >> len(labels) for f in incoming):
            return None  # refused by the generic writer
        (o, n), new = merge.pairs, merge.new
        sides = o.tolist() + [-1] * len(new)  # each itemset's stored row, or -1
        laters = [incoming[j].codes for j in n.tolist() + new.tolist()]
        cut, end = self.end, len(tl) << _ITEM_BITS
        if any(later[0] < cut or later[-1] >= end for later in laters):
            return None
        words = np.concatenate([self.words[o] & merge.words[n], merge.words[new]])
        kept = np.sort(merge.old)
        lines, ranks = self.lines, kept.tolist()
        # (row it follows, -its row: 1 for later items only, its later
        # items, its entry)
        placed = sorted(zip(
            [self.block_end(s) if s >= 0 else len(lines) for s in sides],
            [-s for s in sides], laters, count()))
        at = [p[3] for p in placed]
        words = words[at]
        later = [p[2] for p in placed]
        lengths = np.fromiter(map(len, later), np.intp, len(later))
        start, first, last = _code_runs(
            np.fromiter(chain.from_iterable(later), np.int64, lengths.sum()), lengths)
        texts = _run_texts(first, last, start, tl)
        members = _member_texts(words.astype("<u8", copy=False).view(np.uint8), labels)
        supports = _popcount(words).tolist()
        # a union's run across the junction: its row's last run goes on at
        # its first later item
        placed_sides = np.array([-p[1] for p in placed], np.int64)
        union = np.flatnonzero(placed_sides >= 0)
        row_last = self.row_start[placed_sides[union] + 1] - 1  # each union's row's last run
        join = np.zeros(len(placed), bool)
        join[union] = self.last[row_last] + _TIME_STEP == first[start[union]]
        joined = np.full(len(placed), -1)  # the time index the joined run starts at
        joined[union[join[union]]] = self.first[row_last[join[union]]] >> _ITEM_BITS
        out, done, stops = [], 0, []
        for (after, minus_side, *_), items, ids, support, t in zip(
                placed, texts, members, supports, joined.tolist()):
            if minus_side <= 0:
                items = self._union_items(-minus_side, items, tl[t] if t >= 0 else None)
            stop = bisect_right(ranks, after, done)
            out += map(lines.__getitem__, ranks[done:stop])
            out.append(f"{support}\t{ids}\t{items}")
            done = stop
            stops.append(stop)
        out += map(lines.__getitem__, ranks[done:])
        return out, partial(self._ranked_table, kept, stops, placed_sides, join, words,
                            first, last, start)

    def _ranked_table(self, kept, stops, sides, join, words, first, last, start):
        """The table of ``write_merge``'s lines: rows ``kept``, and before
        kept row ``stops[i]`` the itemset of tidset ``words[i]`` whose items
        are row ``sides[i]``'s (none where it is -1) and the later runs
        ``start[i]:start[i + 1]`` of ``first`` and ``last``, the row's last
        run and its first later one joined into one where ``join[i]``."""
        row_start, run_first, run_last = self.row_start, self.first, self.last
        k, m = len(kept), len(sides)
        stops = np.asarray(stops, np.intp)
        placed = stops + np.arange(m)  # each itemset's line
        lines = np.arange(k)
        lines += np.searchsorted(stops, lines, "right")  # each kept row's line
        # each line's stored runs, then its later ones: where they start and
        # end in the stored runs followed by the later ones
        a, b = np.zeros((2, k + m, 2), np.int64)
        a[lines, 0], b[lines, 0] = row_start[kept], row_start[kept + 1]
        union = sides >= 0
        a[placed[union], 0] = row_start[sides[union]]
        b[placed[union], 0] = row_start[sides[union] + 1]
        a[placed, 1], b[placed, 1] = start[:-1], start[1:]
        a[:, 1] += len(run_first)
        b[:, 1] += len(run_first)
        a, length = a.ravel(), (b - a).ravel()
        at = np.cumsum(length) - length
        runs = np.repeat(a - at, length) + np.arange(length.sum())
        cut = at[2 * placed[join] + 1]  # the first later run of a joined line
        ends = runs.copy()
        ends[cut - 1] = runs[cut]
        keep = np.ones(len(runs), bool)
        keep[cut] = False
        lengths = length[0::2] + length[1::2]
        lengths[placed[join]] -= 1
        out_words = np.empty((k + m, self.words.shape[1]), "<u8")
        out_words[lines], out_words[placed] = self.words[kept], words
        return (out_words, _starts(lengths), np.concatenate([run_first, first])[runs[keep]],
                np.concatenate([run_last, last])[ends[keep]])

    def _union_items(self, side: int, later: str, start: str | None) -> str:
        """Row ``side``'s items text followed by the text ``later`` of later
        runs; where ``start`` is given, the row's last run goes on in the
        first later one, and the two are written as one run from time label
        ``start``."""
        items = self.lines[side].rpartition("\t")[2]
        if start is None:
            return f"{items};{later}"
        head, sep, _ = items.rpartition(";")
        run, sep2, rest = later.partition(";")
        return f"{head}{sep}{start}..{run.partition('..')[2] or run}{sep2}{rest}"


def write_fci_store(store: FciStore, dest):
    """Header lines carry epsilon, the clustering when known, the universe
    size, the covered time range and the full label tables; one row per
    itemset in code order: support <TAB> member ids <TAB> items, the items
    as their maximal runs (see ``_run_texts``).

    Object ids must be non-empty, free of ``,``, tab and newline, which the
    format uses as separators, and must not end in whitespace, which the
    reader strips from the end of the objects line.

    ``combine_fcis``' merge of a store's rows as the writer writes them
    (see ``read_fci_table``), written under the object labels they were
    read with and time labels that start with the ones read, as after an
    append, copies the line of every stored row it keeps and writes only
    the rest (see ``_StoreRows.write_merge``): the merge's unions of a
    stored row and an itemset of later times, whose items text is the row's
    followed by the runs formatted from that itemset's codes, and the
    itemsets of later times only.  Any other store is formatted whole from
    its table in code order (``FciTable.in_code_order``; FCIs are sorted by
    codes and packed into one), member ids from tidset words and items from
    their runs' first and last codes.

    Written to a path, the store is followed by its companion table, the
    path plus ``.table`` (see ``_TABLE_TAG``), built from the runs and
    tidset words the lines were written from: the kept rows' from the table
    read, and each union's as its stored row's runs then the batch's, the
    run across the junction joined as in the text.  A stream gets none."""
    labels = store.object_labels
    _check_ids(labels, ",\t\n\r", str.rstrip, "stored",
               "contain no ',', tab or newline, and not end in whitespace")
    fcis = store.fcis
    rows = fcis.existing if isinstance(fcis, _Merge) else None
    tl = _time_texts(store.time_labels, rows)
    written = rows.write_merge(fcis, labels, tl) if rows is not None else None
    if written is None:
        fcis = fcis.in_code_order() if isinstance(fcis, FciTable) else FciTable.of(
            sorted(fcis, key=_codes), _n_words(len(labels)))
        words = fcis.words.astype("<u8", copy=False)
        texts = _run_texts(fcis.first, fcis.last, fcis.row_start, tl)
        lines = [f"{support}\t{ids}\t{items}" for support, ids, items in zip(
            _popcount(words).tolist(), _member_texts(words.view(np.uint8), labels),
            texts)]
        table = lambda: (words, fcis.row_start, fcis.first, fcis.last)
    else:
        lines, table = written

    head = [f"# epsilon\t{store.epsilon}\n"]
    if store.clustering is not None:
        head.append("# clustering" + "".join(f"\t{k}={store.clustering[k]!r}"
                    for k in ("eps", "min_pts", "interpolate")) + "\n")
    head.append(f"# n_objects\t{len(labels)}\n")
    if tl:
        head.append(f"# time_range\t{tl[0]}\t{tl[-1]}\n")
    head.append(f"# objects\t{','.join(labels)}\n# times\t{','.join(tl)}\n")
    text = "".join(head) + ("\n".join(lines) + "\n" if lines else "")
    _write_to(dest, methodcaller("write", text))
    if isinstance(dest, (str, Path)):
        data = _table_bytes(_digest(text), *table())
        _write_to(_table_path(dest), methodcaller("write", data), binary=True)


def _time_texts(time_labels: tuple, rows: _StoreRows | None) -> tuple[str, ...]:
    """The written form of each time label.  Where the labels begin with the
    very objects ``rows`` was read with, as after an append, those keep the
    text they were read with."""
    n = len(rows.times) if rows is not None else 0
    if n and len(time_labels) >= n and all(map(is_, time_labels[:n], rows.times)):
        return rows.tl + tuple(map(_fmt_time, time_labels[n:]))
    return tuple(map(_fmt_time, time_labels))


def _member_texts(packed: np.ndarray, labels: tuple[str, ...]) -> list[str]:
    """The member-id text of each row of ``packed``, a tidset as its
    little-endian bytes: its objects' labels in universe order, joined by
    ``,``."""
    bits = np.unpackbits(packed.reshape(-1), bitorder="little")
    row, col = np.divmod(np.flatnonzero(bits), 8 * packed.shape[1] or 1)
    names = list(map(labels.__getitem__, col.tolist()))
    bounds = np.searchsorted(row, np.arange(len(packed) + 1)).tolist()
    return [",".join(names[a:b]) for a, b in zip(bounds, bounds[1:])]


def _run_texts(first: np.ndarray, last: np.ndarray, row_start: np.ndarray,
               tl: tuple[str, ...]) -> list[str]:
    """The items text of each row of runs, row ``i``'s the runs
    ``row_start[i]:row_start[i + 1]`` of first and last codes ``first`` and
    ``last``: each run written ``a..b:o``, or ``t:o`` for a run of one
    item, joined by ``;``.  An item whose time is not a store time raises
    ParseError, the first such in run order named."""
    end = len(tl) << _ITEM_BITS  # the first code past the last store time
    bad = (first < 0) | (last >= end)
    if bad.any():
        k = int(bad.argmax())
        code = int(first[k]) if first[k] < 0 else max(int(first[k]), end | int(
            first[k] & _ORDINAL_MASK))
        raise ParseError(f"item {code_item(code)} cannot be stored: its time index "
                         f"is outside the store's {len(tl)} time labels")
    runs = [f"{tl[a]}:{o}" if a == b else f"{tl[a]}..{tl[b]}:{o}"
            for o, a, b in zip((first & _ORDINAL_MASK).tolist(),
                               (first >> _ITEM_BITS).tolist(),
                               (last >> _ITEM_BITS).tolist())]
    bounds = row_start.tolist()
    return [";".join(runs[i:j]) for i, j in zip(bounds, bounds[1:])]


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


# The companion table of a store: _TABLE_TAG, the SHA-256 of the store's
# text, the counts of rows N, tidset words per row W and runs R as three
# uint64, then the rows' tidset words (N * W uint64), where each row's runs
# start (N + 1 int64, then R), and each run's first and last item codes
# (R int64 each), all little-endian.
_TABLE_TAG = b"comove.table.v1\n"
_TABLE_COUNTS = len(_TABLE_TAG) + 32  # where the counts start
_TABLE_HEAD = _TABLE_COUNTS + 24  # where the arrays start


def _table_path(path) -> Path:
    """The companion table of the store at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".table")


def _digest(text: str) -> bytes:
    """The SHA-256 of a store's text, UTF-8 encoded."""
    import hashlib  # here, not at the top: loading it adds 3 ms to every start
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()


def _table_bytes(digest: bytes, words: np.ndarray, row_start: np.ndarray,
                 first: np.ndarray, last: np.ndarray) -> bytes:
    """The companion table (see ``_TABLE_TAG``) of a store whose text has
    SHA-256 ``digest``, rows' tidset ``words``, runs starting at
    ``row_start`` and runs' first and last codes ``first`` and ``last``."""
    counts = np.array([len(words), words.shape[1], len(first)], "<u8")
    return b"".join([_TABLE_TAG, digest, counts.tobytes(),
                     *(np.ascontiguousarray(a, "<u8" if a is words else "<i8").tobytes()
                       for a in (words, row_start, first, last))])


def _companion(path: Path, text: str) -> bytes | None:
    """The companion table at ``path`` where it has the tag and holds the
    SHA-256 of ``text``, else None."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    if data[:len(_TABLE_TAG)] != _TABLE_TAG \
            or data[len(_TABLE_TAG):_TABLE_COUNTS] != _digest(text):
        return None
    return data


def _read_companion(data: bytes, lines: list[str], labels, times, tl, epsilon: int):
    """The table (``_StoreRows``) of store rows ``lines`` from the companion
    table ``data`` of their text, or None unless it holds one row per line
    and a table that passes the text reader's checks that a table can
    decide: each row's support at least ``epsilon``, no bit past the last
    object, every run inside the time labels ``tl`` and of one ordinal
    (which fits 32 bits), at least one run per row, runs ascending and
    maximal within a row, and rows in strictly ascending code order.
    Nothing it reads raises."""
    if len(data) < _TABLE_HEAD:
        return None
    n, w, r = np.frombuffer(data, "<u8", 3, _TABLE_COUNTS).tolist()
    if n != len(lines) or w != _n_words(len(labels)) \
            or len(data) != _TABLE_HEAD + 8 * (n * w + n + 1 + 2 * r):
        return None
    words = np.frombuffer(data, "<u8", n * w, _TABLE_HEAD).reshape(n, w)
    row_start, first, last = np.split(
        np.frombuffer(data, "<i8", offset=_TABLE_HEAD + 8 * n * w), [n + 1, n + 1 + r])
    # compared, not subtracted: a difference of stored int64s can wrap
    if row_start[0] != 0 or row_start[-1] != r or (row_start[1:] <= row_start[:-1]).any():
        return None  # a run index out of range, or a row without runs
    used = len(labels) - 64 * (w - 1)  # the bits of a row's last word that objects use
    if n and _popcount(words).min() < epsilon \
            or used < 64 and (words[:, -1] >> np.uint64(used)).any():
        return None
    if (first < 0).any() or (last < first).any() or ((first ^ last) & _ORDINAL_MASK).any() \
            or (last >= len(tl) << _ITEM_BITS).any():
        return None
    keys = _ordered_keys(first, last, row_start)[1]
    if keys is None:
        return None
    return _StoreRows(labels, times, tl, lines, words, row_start, first, last, keys)


def read_fci_store(source) -> FciStore:
    """Parse a store into packed FCIs.  Every row is checked, and the first
    fault raises ParseError naming its line; so do a repeated object id in
    the header and a row whose support is below epsilon.

    A store whose rows list their ids in universe order and write their
    support and ordinals as the writer writes them is read in one pass over
    all rows at once (see ``_read_rows``); any other store, and one with a
    faulty row, is read row by row (``_read_rows_one_by_one``).  Either way
    the rows are read into one table, and every row's FCI is then built
    from it at once (``FciTable.fcis``).  The store's companion table is
    never read."""
    store = _read_table(source, False)
    return replace(store, fcis=store.fcis.fcis())


def read_fci_table(source, *, counters: dict | None = None) -> FciStore:
    """``read_fci_store``'s store, checked the same way, with its rows left
    as one table (``_StoreRows``) in place of the tuple of FCIs, which
    ``combine_fcis`` merges by its tidset words without building any FCI.
    An append reads its store so.  ``counters``, when given, is filled with
    ``rows``, ``items`` and ``runs``.

    A store read from a path takes its table from the companion table
    beside it when that holds the SHA-256 of the text read and passes the
    checks of ``_read_companion``; the digest stands in for the checks it
    cannot decide, that the table is the one of these rows.  Any other
    companion, or none, is passed over, and the rows are parsed."""
    store = _read_table(source, True)
    if counters is not None:
        rows = store.fcis
        runs = len(rows.first)
        counters.update(rows=len(rows),
                        items=int(((rows.last - rows.first) >> _ITEM_BITS).sum()) + runs,
                        runs=runs)
    return store


def _read_table(source, companion: bool) -> FciStore:
    """``read_fci_table``'s store, through the companion table only where
    ``companion``."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            text = fh.read()
        packed = companion and _companion(_table_path(source), text)
    else:
        text, packed = source.read(), None
    lines = text.split("\n")
    n_head = 0  # the leading comment lines
    while n_head < len(lines) and lines[n_head].startswith("#"):
        n_head += 1
    # the lines after the header, where no comment follows it, as in every
    # text the writer writes and so in one whose companion holds its digest
    rows = None
    if packed or text.find("\n#", sum(map(len, lines[:n_head])) + n_head) < 0:
        head, rows = lines[:n_head], lines[n_head:-1] if lines[-1] == "" else lines[n_head:]
    else:
        head = filter(methodcaller("startswith", "#"), lines)
    header: dict[str, list[str]] = {}
    for line in head:
        parts = line[1:].strip().split("\t")
        if parts and parts[0] in ("epsilon", "clustering", "n_objects",
                                  "time_range", "objects", "times"):
            header[parts[0]] = parts[1:]

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
    raw = header["times"][0] if header["times"] else ""
    if _INT_LABELS.fullmatch(raw):  # each label as the writer writes it
        tl = tuple(raw.split(","))
        times = tuple(map(int, tl))
    else:
        times = tuple(map(_parse_time_label, filter(None, raw.split(","))))
        tl = tuple(map(_fmt_time, times))
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

    read = _read_companion(packed, rows, labels, times, tl, epsilon) if packed else None
    if read is None:
        t_index = dict(zip(tl, count()))
        if rows is not None:
            read = _read_rows(rows, labels, o_index, times, t_index, epsilon)
    if read is None:  # rows not all as the writer writes them, or blank lines
        body = [i for i, line in enumerate(lines)  # rows, by index in lines
                if line and line[0] != "#" and not line.isspace()]
        if rows is None or len(body) != len(rows):
            read = _read_rows([lines[i] for i in body], labels, o_index, times, t_index,
                              epsilon)
        if read is None:
            read = _read_rows_one_by_one([(i + 1, lines[i]) for i in body], labels,
                                         o_index, times, t_index, epsilon)
    return FciStore(epsilon, labels, times, read, clustering)


# Time labels as the writer writes ints.
_INT_LABELS = re.compile(r"(?:0|-?[1-9][0-9]*)(?:,(?:0|-?[1-9][0-9]*))*")
# A run as the writer writes it, a whole item of a ;-joined items text: its
# first time label, ".." and its last when it has more than one item, then
# ":" and its ordinal.
_RUN_TEXT = re.compile(
    r"(?<![^;])([^:;]+?)(?:\.\.([^:;]+))?:(0|[1-9][0-9]{0,9})(?![^;])")
# Bytes other than tab and newline, which a store row's skeleton keeps.
_NOT_TAB_OR_NEWLINE = bytes(sorted(set(range(256)) - set(b"\t\n")))


def _read_rows(lines: list[str], labels, o_index, times, t_index, epsilon: int):
    """The table (``_StoreRows``) of store rows ``lines``, or None unless each row has three fields, a support written as its count of
    member ids, ids known and in universe order, and items as ascending runs
    of known time labels with ordinals under 2**32 and without leading
    zeros.  The table has ``keys`` when the runs are also maximal and the
    rows in strictly ascending code order, so that every row is as the
    writer writes it.

    All rows are checked at once: one split per field, one index lookup of
    all member ids, and the run texts parsed once each by one regular
    expression, with the order and count checks in numpy.  The rows'
    tidsets are packed from their ids into one array of words."""
    n, w = len(lines), _n_words(len(labels))
    if not n:
        none = np.zeros(0, np.int64)
        return _StoreRows(labels, times, tuple(t_index), [], np.zeros((0, w), "<u8"),
                          _starts(none), none, none, [])
    skeleton = "\n".join(lines).encode("utf-8", "surrogatepass").translate(
        None, _NOT_TAB_OR_NEWLINE)
    if skeleton != b"\t\t\n" * (n - 1) + b"\t\t":
        return None
    fields = "\t".join(lines).split("\t")
    ids, items = fields[1::3], fields[2::3]
    n_ids = np.fromiter(map(str.count, ids, repeat(",")), np.intp, n) + 1
    if n_ids.min() < epsilon or n_ids.max() > len(labels):
        return None  # more ids than objects repeat one or are unknown
    supports = list(map(str, range(len(labels) + 1)))
    if fields[0::3] != list(map(supports.__getitem__, n_ids.tolist())):
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
    # each row's tidset as w little-endian words: one bit per object packed
    bits = np.zeros(n * 64 * w, np.uint8)
    bits[np.repeat(np.arange(n) * (64 * w), n_ids) + idx] = 1
    packed = np.packbits(bits, bitorder="little")

    tokens = ";".join(items).split(";")
    index = dict(zip(dict.fromkeys(tokens), count()))  # run text -> its index
    runs = _RUN_TEXT.findall(";".join(index))  # one per run text, or fewer
    if len(runs) != len(index):
        return None
    starts, ends, ordinals = zip(*runs)
    try:
        a = np.fromiter(map(t_index.__getitem__, starts), np.int64, len(index))
        b = np.fromiter(map({**t_index, "": -1}.__getitem__, ends), np.int64,
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
    ascending, keys = _ordered_keys(f, g, row_start)
    if not ascending:
        return None
    return _StoreRows(labels, times, tuple(t_index), lines,
                      packed.view("<u8").reshape(n, w), row_start, f, g, keys)


def _ordered_keys(f: np.ndarray, g: np.ndarray, row_start: np.ndarray):
    """``_row_keys`` of the rows, the keys None also unless the rows are in
    strictly ascending code order."""
    ascending, keys = _row_keys(f, g, row_start)
    return ascending, keys if keys is not None and all(map(lt, keys, keys[1:])) else None


def _read_rows_one_by_one(body, labels, o_index, times, t_index, epsilon: int):
    """The table (``_StoreRows``, without ``keys``) of store rows ``body``,
    (line number, line) pairs, each checked in turn, the first fault raised
    as ParseError at its line.  Each distinct run is parsed once."""
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

    tok = np.array(tok, np.intp)
    first = np.array([a << _ITEM_BITS | o for o, a, _ in runs], np.int64)[tok]
    last = np.array([b << _ITEM_BITS | o for o, _, b in runs], np.int64)[tok]
    return _StoreRows(labels, times, tuple(t_index), None, _words(masks, _n_words(len(labels))),
                      np.array(row_start, np.intp), first, last, None)


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


def _pattern_rows(table: PatternTable, matrix: ClusterMatrix):
    """(kind, objects, times, weight) of each pattern of ``table`` in turn.
    Times are labels, formatted once per call; a segment of consecutive
    times is written as first..last, except in a listed-times field, where
    it is one slice of all the labels joined by ``;``.  Each distinct
    tidset's member ids are joined once."""
    labels = [_fmt_time(t) for t in matrix.time_labels]
    joined = ";".join(labels)
    at = [0, *accumulate(len(label) + 1 for label in labels)]  # each label in joined
    object_labels = matrix.object_labels
    members = [";".join([object_labels[i] for i in ids]) for ids in table.ids]
    listed = np.repeat(np.isin(table.kind, _LISTED), np.diff(table.seg_start)).tolist()
    segs = [joined[at[a]:at[b + 1] - 1] if whole else labels[a] if a == b
            else f"{labels[a]}..{labels[b]}"
            for a, b, whole in zip(table.seg_a.tolist(), table.seg_b.tolist(), listed)]
    bounds = table.seg_start.tolist()
    for k, d, w, a, b in zip(table.kind.tolist(), table.tid.tolist(),
                             table.weight.tolist(), bounds, bounds[1:]):
        yield _KINDS[k], members[d], ";".join(segs[a:b]), w


def _pattern_table(patterns, matrix: ClusterMatrix) -> PatternTable:
    """``patterns`` as a table in canonical order: itself if it is one."""
    if isinstance(patterns, PatternTable):
        return patterns
    return PatternTable.of(patterns, matrix)


def write_patterns_csv(patterns, matrix: ClusterMatrix, dest):
    """kind,objects,times,weight rows in canonical order.  Times are labels;
    consecutive stretches are written as first..last.  Object ids holding
    ``;`` are refused (see ``check_pattern_object_ids``).

    ``patterns`` is ``extract_patterns``' table, whose rows are formatted
    straight from its arrays, or any patterns, which are put in a table
    first.  Each line is formatted and written directly.  csv quotes a field for
    the characters it holds, and kinds and weights hold none it quotes, so
    the objects and times fields go through ``csv`` only when some object
    id or time label of the matrix needs quoting."""
    check_pattern_object_ids(matrix.object_labels)
    quote = any(_csv_field(s) != s for s in chain(
        matrix.object_labels, map(_fmt_time, matrix.time_labels)))
    field = _csv_field if quote else str
    table = _pattern_table(patterns, matrix)

    def write(fh):
        fh.write("kind,objects,times,weight\n")
        for kind, objects, times, weight in _pattern_rows(table, matrix):
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
    table = _pattern_table(patterns, matrix)

    def write(fh):
        fh.write('{\n  "type": "FeatureCollection",\n  "features": [')
        n = 0
        for p, (kind, objects, times, weight) in zip(table, _pattern_rows(table, matrix)):
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
