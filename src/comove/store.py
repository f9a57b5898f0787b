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
Each keeps the member-id and item text of its line where that text is what
the writer would write, tagged with the label tables it was read with, so an
append copies the line of every stored itemset that survives the merge
instead of formatting it again.  The writer sorts rows by items, so a row
mostly starts with the items of the row before it (front coding); the
reader copies the codes of those leading items from that row and parses
only the rest.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, compress, filterfalse, repeat
from operator import add, attrgetter, lt, ne
from pathlib import Path

import numpy as np

from .ingest import TrajectoryDB, _parse_timestamp
from .model import (
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

    The reader's FCIs keep the text of their store lines, which the writer
    copies while the store's label tables agree with the ones the text was
    read with, so a store that is read, merged and written is written back
    without formatting its surviving itemsets again."""

    epsilon: int
    object_labels: tuple[str, ...]
    time_labels: tuple
    fcis: tuple[FCI, ...]


def write_fci_store(store: FciStore, dest):
    """Header lines carry epsilon, the universe size, the covered time range
    and the full label tables; one row per itemset:
    support <TAB> member ids <TAB> time:ordinal items.

    Object ids must be non-empty, free of ``,``, tab and newline, which the
    format uses as separators, and must not end in whitespace, which the
    reader strips from the end of the objects line.

    An itemset's member-id and item text is written as the FCI carries it
    when the store's object labels are the ones the text was read with and
    its time labels start with the ones read.  The rest is formatted: member
    ids from the FCI's own tidset, whose index tuple is cached once patterns
    have been decoded from it, and the items its item text does not
    cover."""
    labels = store.object_labels
    _check_ids(labels, ",\t\n\r", str.rstrip, "stored",
               "contain no ',', tab or newline, and not end in whitespace")
    tl = tuple(map(_fmt_time, store.time_labels))
    item_text = _ItemText(tl).__getitem__
    # id of the label tables some text was read with -> whether the ids and
    # the items text read with them is what this store writes
    agrees = {id(None): (False, False)}
    lines = []
    for f in sorted(store.fcis, key=_codes):
        ok = agrees.get(id(f.text_labels))
        if ok is None:
            read_labels, read_tl = f.text_labels
            ok = agrees[id(f.text_labels)] = (read_labels == labels,
                                              tl[:len(read_tl)] == read_tl)
        ids = f.ids_text if ok[0] else None
        items = f.items_text if ok[1] else None
        if ids is None:
            ids = ",".join([labels[i] for i in f.tidset.ids])
        done = 0 if items is None else items.count(";") + 1
        if done < len(f.codes):
            rest = ";".join(map(item_text, f.codes[done:]))
            items = f"{items};{rest}" if done else rest
        lines.append(f"{f.mask.bit_count()}\t{ids}\t{items}\n")

    def write(fh):
        fh.write(f"# epsilon\t{store.epsilon}\n")
        fh.write(f"# n_objects\t{len(labels)}\n")
        if tl:
            fh.write(f"# time_range\t{tl[0]}\t{tl[-1]}\n")
        fh.write(f"# objects\t{','.join(labels)}\n")
        fh.write(f"# times\t{','.join(tl)}\n")
        fh.write("".join(lines))
    _write_to(dest, write)


class _ItemText(dict):
    """Item code -> ``time:ordinal`` text.  An item recurs in every itemset
    that contains it, so each distinct one is formatted once."""

    def __init__(self, time_labels: tuple[str, ...]):
        super().__init__()
        self.time_labels = time_labels

    def __missing__(self, code: int) -> str:
        t, ordinal = code_item(code)
        if not 0 <= t < len(self.time_labels):
            raise ParseError(
                f"item {ClusterId(t, ordinal)} cannot be stored: its time index "
                f"is outside the store's {len(self.time_labels)} time labels")
        text = self[code] = f"{self.time_labels[t]}:{ordinal}"
        return text


def _check_item(item: str, t_code: dict[str, int], line_no: int) -> None:
    """Raise the ParseError of a bad item, reported at ``line_no``."""
    t_str, _, ord_str = item.partition(":")
    if t_str not in t_code:
        raise ParseError(f"unknown time label {t_str!r}", line=line_no)
    try:
        ordinal = int(ord_str)
    except ValueError:
        raise ParseError(f"unparseable item {item!r}", line=line_no) from None
    item_code(0, ordinal, line_no)


def _parse_items(items: list[str], t_code: dict[str, int], line_no: int):
    """The codes of ``items``, given the code of each time label's ordinal 0,
    and the items not written as the writer would.  The first bad item
    raises its ParseError."""
    t_strs, _, ord_strs = zip(*map(str.partition, items, repeat(":")))
    try:
        ordinals = list(map(int, ord_strs))
        codes = list(map(add, map(t_code.__getitem__, t_strs), ordinals))
        for bound in (min(ordinals), max(ordinals)):
            item_code(0, bound)  # an ordinal the code cannot hold raises
    except (KeyError, ValueError):
        for item in items:
            _check_item(item, t_code, line_no)
        raise
    return codes, compress(items, map(ne, ord_strs, map(str, ordinals)))


def _shared_prefix(a: str, b: str) -> int:
    """The length of the longest common prefix of ``a`` and ``b``, found by
    a binary search on slice compares."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a.startswith(b[:mid]):
            lo = mid
        else:
            hi = mid - 1
    return lo


def read_fci_store(source, *, counters: dict | None = None) -> FciStore:
    """Parse a store into packed FCIs.  An FCI keeps its member-id text when
    the ids are in universe order and its item text when every item is
    written as ``time:ordinal`` in canonical form, with the store's object
    labels and formatted time labels as its ``text_labels``, so writing the
    store back copies that text instead of formatting it.

    A row's leading items that repeat the previous row's, whole ``;``
    fields each, take their codes from that row; only the rest is split
    and parsed.  The writer sorts rows by items, so most items repeat; an
    unsorted store is read the same, with fewer items reused.
    ``counters``, when given, is filled with ``rows``, ``items`` and
    ``items_reused``, the items whose codes were copied."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            return read_fci_store(fh, counters=counters)
    header: dict[str, list[str]] = {}
    body: list[tuple[int, list[str]]] = []
    for line_no, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split("\t")
            if parts and parts[0] in ("epsilon", "n_objects", "time_range",
                                      "objects", "times"):
                header[parts[0]] = parts[1:]
            continue
        body.append((line_no, line.split("\t")))

    for key in ("epsilon", "objects", "times"):
        if key not in header:
            raise ParseError(f"store header is missing '{key}'")
    try:
        epsilon = int(header["epsilon"][0])
    except (IndexError, ValueError):
        raise ParseError("store header has an unparseable epsilon") from None
    if epsilon < 1:
        raise ParseError(f"store epsilon must be >= 1, got {epsilon}")
    labels = tuple(o for o in header["objects"][0].split(",") if o) \
        if header["objects"] and header["objects"][0] else ()
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

    o_bit = {o: 1 << i for i, o in enumerate(labels)}
    t_code = {_fmt_time(t): item_code(i, 0) for i, t in enumerate(times)}
    text_labels = (labels, tuple(t_code))
    # Rows repeat the same few thousand item strings, so each distinct one is
    # parsed once.  Only items that passed validation are cached, so a bad
    # item still fails on its own line.
    item_codes: dict[str, int] = {}
    odd_items: set[str] = set()  # cached items not written in canonical form
    fcis = []
    reused = 0
    # the previous row's items field, its codes and the index of its first
    # item not written in canonical form (its length when there is none)
    prev_items, prev_codes, prev_odd = "", (), 0
    for line_no, parts in body:
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
        if not all(map(lt, bits, bits[1:])):
            ids = None

        # Where the two items fields part, or the shorter one ends, is the
        # junction when both have a field end there; else it is the last ';'
        # before.  A field is never empty, so a junction at 0 shares nothing.
        end = _shared_prefix(items, prev_items)
        if not ((end == len(items) or items[end] == ";")
                and (end == len(prev_items) or prev_items[end] == ";")):
            end = items.rfind(";", 0, end)
        shared = items.count(";", 0, end) + 1 if end > 0 else 0
        if shared and end == len(items):
            tokens = []
            codes = prev_codes[:shared]
        else:
            tokens = (items[end + 1:] if shared else items).split(";")
            try:
                codes = tuple(map(item_codes.__getitem__, tokens))
            except KeyError:
                new = list(dict.fromkeys(filterfalse(item_codes.__contains__,
                                                     tokens)))
                new_codes, new_odd = _parse_items(new, t_code, line_no)
                item_codes.update(zip(new, new_codes))
                odd_items.update(new_odd)
                codes = tuple(map(item_codes.__getitem__, tokens))
            if (not all(map(lt, codes, codes[1:]))
                    or shared and prev_codes[shared - 1] >= codes[0]):
                raise ParseError("FCI items must be strictly ascending",
                                 line=line_no)
            if shared:
                codes = prev_codes[:shared] + codes
        if prev_odd < shared:
            odd = prev_odd
        elif odd_items and not odd_items.isdisjoint(tokens):
            odd = shared + next(i for i, t in enumerate(tokens) if t in odd_items)
        else:
            odd = len(codes)
        fcis.append(packed_fci(mask, codes, ids,
                               items if odd == len(codes) else None, text_labels))
        prev_items, prev_codes, prev_odd = items, codes, odd
        reused += shared
    if counters is not None:
        counters.update(rows=len(fcis), items=sum(len(f.codes) for f in fcis),
                        items_reused=reused)
    return FciStore(epsilon, labels, times, tuple(fcis))


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
