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
stands alone.  When every line of a store is written as the writer writes
it, the reader also keeps each line's member-id and item text, keyed by
tidset mask, with the label tables it was read with; writing the store back
copies that text instead of formatting it again, for every itemset an
append keeps.  Only this module knows that text.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, filterfalse
from operator import attrgetter, lt
from pathlib import Path

import numpy as np

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
    packed_fci,
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

    ``text`` is set by :func:`read_fci_store` only: the object labels and
    formatted time labels of a store whose lines are all written as the
    writer writes them, and a map from each line's tidset mask to its
    member-id text, item text and item codes.  The writer copies it where
    the labels agree, so keep it (``dataclasses.replace``) when a read store
    is merged and written back.  Equality and repr ignore it."""

    epsilon: int
    object_labels: tuple[str, ...]
    time_labels: tuple
    fcis: tuple[FCI, ...]
    clustering: dict | None = None
    text: tuple | None = field(default=None, compare=False, repr=False)


def write_fci_store(store: FciStore, dest):
    """Header lines carry epsilon, the clustering when known, the universe
    size, the covered time range and the full label tables; one row per
    itemset: support <TAB> member ids <TAB> items, the items as their
    maximal runs (see ``_run_texts``).

    Object ids must be non-empty, free of ``,``, tab and newline, which the
    format uses as separators, and must not end in whitespace, which the
    reader strips from the end of the objects line.

    The text the reader kept (``store.text``) for an itemset's tidset is
    copied where it is what this store writes: the member ids when the
    object labels are the ones read, and the items when the time labels
    start with the ones read and the itemset's items are the ones read, as
    for a stored itemset an append keeps.  The rest is formatted: member ids
    from the FCI's own tidset, whose index tuple is cached once patterns
    have been decoded from it, and items from their codes."""
    labels = store.object_labels
    _check_ids(labels, ",\t\n\r", str.rstrip, "stored",
               "contain no ',', tab or newline, and not end in whitespace")
    tl = tuple(map(_fmt_time, store.time_labels))
    read_labels, read_tl, rows = store.text or ((), (), {})
    same_ids = read_labels == labels
    same_items = tl[:len(read_tl)] == read_tl
    fcis = sorted(store.fcis, key=_codes)
    ids, items = [], []
    for f in fcis:
        read_ids, read_items, read = rows.get(f.mask, (None, None, None))
        ids.append(read_ids if same_ids and read_ids
                   else ",".join([labels[i] for i in f.tidset.ids]))
        items.append(read_items if same_items and (read is f.codes or read == f.codes)
                     else None)
    formatted = _run_texts([f.codes for f, t in zip(fcis, items) if t is None], tl)
    lines = [f"{f.mask.bit_count()}\t{i}\t{next(formatted) if t is None else t}\n"
             for f, i, t in zip(fcis, ids, items)]

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
        fh.write("".join(lines))
    _write_to(dest, write)


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
    """A run's (ordinal, first time index, last time index) and whether it is
    spelled as the writer spells it, or the ParseError of a bad run."""
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
    return (ordinal, a, b), ord_str == str(ordinal)


def read_fci_store(source, *, counters: dict | None = None) -> FciStore:
    """Parse a store into packed FCIs.  When every row lists its ids in
    universe order and writes its items as maximal runs with canonical
    ordinals, the store's ``text`` keeps each row's text by tidset mask, so
    writing the store back copies that text instead of formatting it.  A
    store spelled otherwise has no ``text`` and is written from its codes.

    A repeated object id in the header, and a row whose support is below
    epsilon, raise ParseError.

    Each distinct run is parsed once.  The items of the runs, by ordinal
    then time, are the store's distinct items, made once each in one list;
    a run's codes are a slice of it, and a row's are its runs' joined.
    ``counters``, when given, is filled with ``rows``, ``items`` and
    ``runs``."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            return read_fci_store(fh, counters=counters)
    header: dict[str, list[str]] = {}
    body: list[tuple[int, str]] = []  # split in the row loop: fewer objects to collect
    for line_no, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line or line.isspace():
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split("\t")
            if parts and parts[0] in ("epsilon", "clustering", "n_objects",
                                      "time_range", "objects", "times"):
                header[parts[0]] = parts[1:]
            continue
        body.append((line_no, line))

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
    o_bit = {o: 1 << i for i, o in enumerate(labels)}
    if len(o_bit) != len(labels):
        repeated = next(o for i, o in enumerate(labels) if o in labels[:i])
        raise ParseError(f"store header repeats object id {repeated!r}")
    times = tuple(_parse_time_label(t) for t in header["times"][0].split(",") if t) \
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
    if any(times[i] >= times[i + 1] for i in range(len(times) - 1)):
        raise ParseError("store times must be strictly increasing")

    t_index = {_fmt_time(t): i for i, t in enumerate(times)}
    parsed: dict[str, tuple[int, int, int]] = {}  # run text -> (ordinal, first, last)
    read = []  # (mask, ids text, items text, runs) per row
    canonical = True  # every row so far is written as the writer writes it
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
        canonical = canonical and all(map(lt, bits, bits[1:]))
        tokens = items.split(";")
        for token in filterfalse(parsed.__contains__, tokens):
            parsed[token], spelled = _parse_run(token, t_index, line_no)
            canonical = canonical and spelled
        runs = list(map(parsed.__getitem__, tokens))
        for (o, a, _), (p, _, b) in zip(runs[1:], runs):
            if (a, o) <= (b, p):
                raise ParseError("FCI items must be strictly ascending", line=line_no)
            canonical = canonical and (o, a) != (p, b + 1)  # runs are maximal
        read.append((mask, ids, items, runs))

    pool, run_codes, o_end = [], {}, None  # distinct item codes; run -> its codes
    for run in sorted(set(parsed.values())):
        o, a, b = run
        if o != o_end or a > t_end + 1:  # a new stretch of times (first: o_end None)
            origin, o_end, t_end = len(pool) - a, o, a - 1
        if b > t_end:
            pool += range(item_code(t_end + 1, o), item_code(b, o) + 1, _TIME_STEP)
            t_end = b
        run_codes[run] = tuple(pool[origin + a:origin + b + 1])
    fcis, rows = [], {}  # tidset mask -> (ids text, items text, codes)
    for mask, ids, items, runs in read:
        # () + t is t, so one run shares its tuple; sum copies runs quadratically
        codes = (sum(map(run_codes.__getitem__, runs), ()) if len(runs) < 8 else
                 tuple(chain.from_iterable(map(run_codes.__getitem__, runs))))
        fcis.append(packed_fci(mask, codes))
        rows[mask] = (ids, items, codes)
    if counters is not None:
        counters.update(rows=len(fcis), items=sum(len(f.codes) for f in fcis),
                        runs=sum(len(r[3]) for r in read))
    return FciStore(epsilon, labels, times, tuple(fcis), clustering,
                    (labels, tuple(t_index), rows) if canonical else None)


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
    first..last.  Each distinct tidset's member ids are joined once."""
    labels = [_fmt_time(t) for t in matrix.time_labels]
    object_labels = matrix.object_labels
    n_times = matrix.n_times
    members: dict[int, str] = {}  # tidset mask -> ;-joined member ids

    def span(a: int, b: int) -> str:
        return labels[a] if a == b else f"{labels[a]}..{labels[b]}"

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
            times = ";".join([labels[t] for t in p.times])
            weight = len(p.times) / n_times
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
