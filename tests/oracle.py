"""Brute-force reference implementations and random matrix generators.

The functions here are deliberately naive: they enumerate candidate itemsets
or object subsets exhaustively, expand clusters point by point, decode
itemsets item by item, read or write CSV records or store lines one at a
time, merge two mined sides pair by pair, and apply the definitions
directly, without sharing any code with the production clustering, miner,
merge, pattern decoder, CSV parser and writers or store codec (the parser
oracle reuses only ``_parse_timestamp``, the rule for one timestamp field,
and the store and writer oracles only ``_fmt_time``, ``_iso_time`` and
``_parse_time_label``, the rules for one time label).  They exist so the
fast paths can be checked against an independent computation on small
inputs; size guards keep the enumerations from being misused on anything
big.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from comove.clustering import DbscanParams
from comove.ingest import TrajectoryDB, _parse_timestamp
from comove.model import (
    FCI,
    ClosedSwarm,
    ClusterId,
    ClusterMatrix,
    CoMoveError,
    Column,
    ConflictError,
    Convoy,
    GroupPattern,
    MiningParams,
    MovingCluster,
    ParseError,
    PeriodicPattern,
    Tidset,
    UniverseError,
    canonical_sort,
)
from comove.store import FciStore, _fmt_time, _iso_time, _parse_time_label

__all__ = [
    "SizeGuardError",
    "brute_dbscan_snapshot",
    "brute_parse_trajectories",
    "brute_write_trajectories",
    "brute_write_patterns_csv",
    "brute_read_fci_store",
    "brute_write_fci_store",
    "brute_fcis",
    "brute_combine_fcis",
    "brute_closed_swarms",
    "brute_convoys",
    "brute_group_patterns",
    "brute_extract_patterns",
    "gen_random_matrix",
    "gen_random_nested_matrix",
]

MAX_BRUTE_COLUMNS = 24
MAX_BRUTE_OBJECTS = 12


class SizeGuardError(CoMoveError, ValueError):
    """A brute-force oracle was asked to enumerate something too large."""


def brute_fcis(matrix: ClusterMatrix, epsilon: int) -> list[FCI]:
    """All frequent closed itemsets by explicit enumeration.

    Walks every itemset that uses at most one column per time unit and has
    support >= epsilon, then keeps those with no single-column extension
    preserving the tidset.  (A strict valid superset with an equal tidset
    exists iff a single-column one does, since intersecting with a superset
    column never shrinks the tidset below the target.)
    """
    cols = matrix.columns
    if len(cols) > MAX_BRUTE_COLUMNS:
        raise SizeGuardError(
            f"brute_fcis refuses {len(cols)} columns (max {MAX_BRUTE_COLUMNS})")
    n = len(cols)
    found: list[tuple[tuple[int, ...], int]] = []

    def walk(start: int, chosen: tuple[int, ...], mask: int, used_times: frozenset):
        if chosen:
            found.append((chosen, mask))
        for j in range(start, n):
            cid, members = cols[j]
            if cid.time in used_times:
                continue
            m2 = mask & members.mask
            if m2.bit_count() >= epsilon:
                walk(j + 1, chosen + (j,), m2, used_times | {cid.time})

    full = (1 << matrix.n_objects) - 1
    walk(0, (), full, frozenset())

    out = []
    for chosen, mask in found:
        times_used = {cols[j].cid.time for j in chosen}
        in_set = set(chosen)
        closed = True
        for j in range(n):
            if j in in_set or cols[j].cid.time in times_used:
                continue
            if mask & cols[j].members.mask == mask:
                closed = False
                break
        if closed:
            items = tuple(sorted(cols[j].cid for j in chosen))
            out.append(FCI(items, Tidset(mask)))
    out.sort(key=lambda f: f.items)
    return out


def brute_combine_fcis(existing: list[FCI], incoming: list[FCI],
                       epsilon: int) -> tuple[list[FCI], dict]:
    """The merge of two column-disjoint sides' closed itemsets as a
    support-ascending double loop over every pair, and its counters.

    Walking supports upward, the first pair producing a tidset is the most
    specific one, so the first hit's union is kept.  An existing itemset
    whose tidset lies inside an incoming one is absorbed and skipped from
    then on; the row of an incoming itemset stops at the first existing
    itemset that contains it.  Returns (the surviving existing itemsets, the
    surviving incoming ones, each in support order, then the unions in the
    order made; counters ``pairs``, ``new``, ``absorbed_existing``,
    ``absorbed_incoming`` and ``stops``)."""
    old = sorted(existing, key=lambda f: len(f.tidset))
    new = sorted(incoming, key=lambda f: len(f.tidset))
    stats = dict.fromkeys(("pairs", "new", "absorbed_existing",
                           "absorbed_incoming", "stops"), 0)
    old_dead = [False] * len(old)
    new_dead = [False] * len(new)
    produced: dict[Tidset, FCI] = {}
    for ni, cin in enumerate(new):
        for oi, cex in enumerate(old):
            if old_dead[oi]:
                continue
            stats["pairs"] += 1
            gamma = cex.tidset & cin.tidset
            if len(gamma) < epsilon:
                continue
            if gamma not in produced:
                produced[gamma] = FCI(sorted(cex.items + cin.items), gamma)
                stats["new"] += 1
            if gamma == cex.tidset:
                old_dead[oi] = True
                stats["absorbed_existing"] += 1
            if gamma == cin.tidset:
                new_dead[ni] = True
                stats["absorbed_incoming"] += 1
                stats["stops"] += 1
                break
    result = [f for f, dead in zip(old, old_dead) if not dead]
    result += [f for f, dead in zip(new, new_dead) if not dead]
    return result + list(produced.values()), stats


def _guard_objects(matrix: ClusterMatrix, who: str):
    if matrix.n_objects > MAX_BRUTE_OBJECTS:
        raise SizeGuardError(
            f"{who} refuses {matrix.n_objects} objects (max {MAX_BRUTE_OBJECTS})")


def _time_masks(matrix: ClusterMatrix) -> list[list[int]]:
    """Column membership masks grouped by time index."""
    per_time: list[list[int]] = [[] for _ in range(matrix.n_times)]
    for cid, members in matrix.columns:
        per_time[cid.time].append(members.mask)
    return per_time


def _covered_times(per_time: list[list[int]], obj_mask: int) -> list[int]:
    return [t for t, masks in enumerate(per_time)
            if any(m & obj_mask == obj_mask for m in masks)]


def _runs(times: list[int]) -> list[tuple[int, int]]:
    """Maximal consecutive runs in an ascending list of time indices."""
    runs = []
    for t in times:
        if runs and t == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], t)
        else:
            runs.append((t, t))
    return runs


def brute_closed_swarms(matrix: ClusterMatrix, epsilon: int, min_t: int) -> list[ClosedSwarm]:
    """Closed swarms by enumerating every object subset.

    A subset O qualifies with its full covered-time set T(O) when |O| >=
    epsilon, |T(O)| >= min_t, and no further object is in a shared cluster at
    every t in T(O).  Time-maximality is built in by taking T(O) whole.
    """
    _guard_objects(matrix, "brute_closed_swarms")
    per_time = _time_masks(matrix)
    n = matrix.n_objects
    out = []
    for obj_mask in range(1, 1 << n):
        if obj_mask.bit_count() < epsilon:
            continue
        covered = _covered_times(per_time, obj_mask)
        if len(covered) < min_t:
            continue
        grown = False
        for o in range(n):
            if (obj_mask >> o) & 1:
                continue
            bigger = obj_mask | (1 << o)
            if all(any(m & bigger == bigger for m in per_time[t]) for t in covered):
                grown = True
                break
        if not grown:
            out.append(ClosedSwarm(Tidset(obj_mask), tuple(covered)))
    out.sort(key=lambda s: (s.objects.ids, s.times))
    return out


def _guarded_runs(per_time: list[list[int]], obj_mask: int, min_t: int) -> list[tuple[int, int]]:
    """Maximal consecutive covered runs where obj_mask equals the intersection
    of the covering columns (i.e. no larger group rides the same clusters)."""
    covered = _covered_times(per_time, obj_mask)
    kept = []
    for a, b in _runs(covered):
        if b - a + 1 < min_t:
            continue
        inter = -1
        for t in range(a, b + 1):
            cover = next(m for m in per_time[t] if m & obj_mask == obj_mask)
            inter &= cover
        if inter == obj_mask:
            kept.append((a, b))
    return kept


def brute_convoys(matrix: ClusterMatrix, epsilon: int, min_t: int) -> list[Convoy]:
    """Convoys by object-subset enumeration: for each subset at least epsilon
    strong, every maximal consecutive run of length >= min_t over which the
    subset is exactly the set of objects sharing those clusters."""
    _guard_objects(matrix, "brute_convoys")
    per_time = _time_masks(matrix)
    out = []
    for obj_mask in range(1, 1 << matrix.n_objects):
        if obj_mask.bit_count() < epsilon:
            continue
        for a, b in _guarded_runs(per_time, obj_mask, min_t):
            out.append(Convoy(Tidset(obj_mask), a, b))
    out.sort(key=lambda c: (c.objects.ids, c.start, c.end))
    return out


def brute_group_patterns(matrix: ClusterMatrix, epsilon: int,
                         params: MiningParams) -> list[GroupPattern]:
    """Group patterns by object-subset enumeration: segments are the guarded
    consecutive runs (as for convoys); a subset qualifies when it has at least
    min_c segments covering at least min_wei of the whole time span."""
    _guard_objects(matrix, "brute_group_patterns")
    per_time = _time_masks(matrix)
    n_times = matrix.n_times
    out = []
    for obj_mask in range(1, 1 << matrix.n_objects):
        if obj_mask.bit_count() < epsilon:
            continue
        segs = _guarded_runs(per_time, obj_mask, params.min_t)
        if len(segs) < params.min_c:
            continue
        weight = sum(b - a + 1 for a, b in segs) / n_times
        if weight >= params.min_wei:
            out.append(GroupPattern(Tidset(obj_mask), tuple(segs), weight))
    out.sort(key=lambda g: (g.objects.ids, g.segments))
    return out


# ---------------------------------------------------------------------------
# Pattern decoding, one itemset and one item at a time
# ---------------------------------------------------------------------------

class _ColumnLookup:
    """Full column tidsets by id, and their Jaccard similarity per pair."""

    def __init__(self, matrix: ClusterMatrix):
        self.columns = {c.cid: c.members for c in matrix.columns}
        self.jaccard: dict[tuple[ClusterId, ClusterId], float] = {}

    def tidset(self, cid: ClusterId) -> Tidset:
        try:
            return self.columns[cid]
        except KeyError:
            raise UniverseError(
                f"itemset references column {cid} absent from the matrix") from None

    def similarity(self, a: ClusterId, b: ClusterId) -> float:
        key = (a, b)
        value = self.jaccard.get(key)
        if value is None:
            x = self.tidset(a).mask
            y = self.tidset(b).mask
            value = self.jaccard[key] = (x & y).bit_count() / (x | y).bit_count()
        return value


def _consecutive_runs(items) -> list[list[ClusterId]]:
    runs: list[list[ClusterId]] = []
    for it in items:
        if runs and it.time == runs[-1][-1].time + 1:
            runs[-1].append(it)
        else:
            runs.append([it])
    return runs


def _guarded_segments(fci: FCI, runs, cols: _ColumnLookup,
                      params: MiningParams) -> list[tuple[int, int]]:
    segments = []
    for run in runs:
        if len(run) < params.min_t:
            continue
        inter = -1
        for it in run:
            inter &= cols.tidset(it).mask
        if inter == fci.tidset.mask:
            segments.append((run[0].time, run[-1].time))
    return segments


def _moving_clusters(runs, cols: _ColumnLookup,
                     params: MiningParams) -> list[MovingCluster]:
    min_len = max(2, params.min_t)
    out = []
    for run in runs:
        chain: list[ClusterId] = [run[0]]
        for prev, cur in zip(run, run[1:]):
            if cols.similarity(prev, cur) >= params.theta:
                chain.append(cur)
            else:
                if len(chain) >= min_len:
                    out.append(chain)
                chain = [cur]
        if len(chain) >= min_len:
            out.append(chain)
    result = []
    for chain in out:
        core = -1
        for it in chain:
            core &= cols.tidset(it).mask
        result.append(MovingCluster(tuple(chain), Tidset(core)))
    return result


def brute_extract_patterns(fcis, matrix: ClusterMatrix, params: MiningParams):
    """Every pattern kind decoded itemset by itemset, item by item, with each
    column tidset looked up when a guarded run or a Jaccard needs it.  The
    reference for ``comove.extract_patterns`` on itemsets over the matrix's
    own columns (an absent column raises UniverseError here only when a
    lookup reaches it)."""
    cols = _ColumnLookup(matrix)
    swarm = PeriodicPattern if matrix.kind == "periodic" else ClosedSwarm
    patterns = []
    movers: set[MovingCluster] = set()
    for fci in fcis:
        times = tuple(sorted({it.time for it in fci.items}))
        if len(times) >= params.min_t:
            patterns.append(swarm(fci.tidset, times))
        if swarm is PeriodicPattern:
            continue
        runs = _consecutive_runs(fci.items)
        segments = _guarded_segments(fci, runs, cols, params)
        patterns.extend(Convoy(fci.tidset, a, b) for a, b in segments)
        movers.update(_moving_clusters(runs, cols, params))
        if len(segments) >= params.min_c:
            weight = sum(b - a + 1 for a, b in segments) / matrix.n_times
            if weight >= params.min_wei:
                patterns.append(GroupPattern(fci.tidset, tuple(segments), weight))
    patterns.extend(movers)
    return canonical_sort(patterns)


# ---------------------------------------------------------------------------
# Trajectory CSV, one record at a time
# ---------------------------------------------------------------------------

def brute_parse_trajectories(source) -> TrajectoryDB:
    """object_id,timestamp,x,y rows read and validated one record at a time,
    each observation stored with its own item assignment.  The reference for
    ``comove.parse_trajectories``: same result, or the same error for the
    same first invalid record."""
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return brute_parse_trajectories(fh)

    reader = csv.reader(source)
    rows: list[tuple[str, object, float, float]] = []
    seen: dict[tuple[str, object], int] = {}
    first = True
    for fields in reader:
        line = reader.line_num
        if not fields or all(not f.strip() for f in fields):
            continue
        fields = [f.strip() for f in fields]
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", line=line)
        obj, ts_raw, xs, ys = fields
        ts = _parse_timestamp(ts_raw)
        if ts is None:
            if first:
                first = False
                continue  # header row
            raise ParseError(f"unparseable timestamp {ts_raw!r}", line=line)
        first = False
        if not obj:
            raise ParseError("empty object id", line=line)
        try:
            x, y = float(xs), float(ys)
        except ValueError:
            raise ParseError(f"unparseable coordinates ({xs!r}, {ys!r})", line=line) from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"non-finite coordinates ({xs}, {ys})", line=line)
        key = (obj, ts)
        if key in seen:
            raise ConflictError(
                f"duplicate observation for object {obj!r} at timestamp {ts_raw!r} "
                f"(first seen on line {seen[key]})", line=line)
        seen[key] = line
        rows.append((obj, ts, x, y))

    if not rows:
        raise ParseError("no observations found")
    labels = tuple(sorted({r[0] for r in rows}))
    times = tuple(sorted({r[1] for r in rows}))
    obj_idx = {o: i for i, o in enumerate(labels)}
    t_idx = {t: i for i, t in enumerate(times)}
    xy = np.full((len(labels), len(times), 2), np.nan)
    for obj, ts, x, y in rows:
        xy[obj_idx[obj], t_idx[ts]] = (x, y)
    return TrajectoryDB(labels, times, xy)


def brute_write_trajectories(db: TrajectoryDB, fh) -> None:
    """object_id,timestamp,x,y rows written one observation at a time by
    ``csv.writer``, object-major with times ascending.  The reference for
    ``comove.write_trajectories`` on a text stream and valid ids."""
    time_text = [_iso_time(t) if isinstance(t, float) else str(t)
                 for t in db.time_labels]
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["object_id", "timestamp", "x", "y"])
    present = ~np.isnan(db.xy[:, :, 0])
    for o, label in enumerate(db.object_labels):
        for t, tlabel in enumerate(time_text):
            if present[o, t]:
                x, y = db.xy[o, t]
                w.writerow([label, tlabel, repr(float(x)), repr(float(y))])


# ---------------------------------------------------------------------------
# Pattern CSV, one pattern at a time
# ---------------------------------------------------------------------------

def brute_write_patterns_csv(patterns, matrix: ClusterMatrix, fh) -> None:
    """kind,objects,times,weight rows written one pattern at a time by
    ``csv.writer``, each field formatted where it is used.  The reference
    for ``comove.write_patterns_csv`` on a text stream."""
    for label in matrix.object_labels:
        if ";" in label:
            raise ParseError(
                f"object id {label!r} cannot be written to a pattern file: "
                "ids must not contain ';'")
    labels = [_fmt_time(t) for t in matrix.time_labels]

    def span(a: int, b: int) -> str:
        return labels[a] if a == b else f"{labels[a]}..{labels[b]}"

    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["kind", "objects", "times", "weight"])
    for p in canonical_sort(patterns):
        objects = ";".join(matrix.object_labels[i] for i in p.objects.ids)
        if isinstance(p, GroupPattern):
            times, weight = ";".join(span(a, b) for a, b in p.segments), p.weight
        else:
            weight = len(p.times) / matrix.n_times
            if isinstance(p, (Convoy, MovingCluster)):
                times = span(p.start, p.end)
            else:
                times = ";".join(labels[t] for t in p.times)
        w.writerow([p.kind, objects, times, repr(weight)])


# ---------------------------------------------------------------------------
# Itemset store, one FCI at a time
# ---------------------------------------------------------------------------

def brute_write_fci_store(store: FciStore, fh) -> None:
    """The store text written FCI by FCI, its items grouped item by item
    into maximal runs of one ordinal at consecutive times, each formatted
    where it is used.  The reference for ``comove.write_fci_store`` on a
    text stream."""
    for label in store.object_labels:
        if (not label or label != label.rstrip()
                or any(sep in label for sep in ",\t\n\r")):
            raise ParseError(
                f"object id {label!r} cannot be stored: ids must be non-empty, "
                "contain no ',', tab or newline, and not end in whitespace")
    tl = [_fmt_time(t) for t in store.time_labels]
    fcis = sorted(store.fcis, key=lambda f: f.items)
    for fci in fcis:
        for c in fci.items:
            if not 0 <= c.time < len(tl):
                raise ParseError(
                    f"item {c} cannot be stored: its time index is outside "
                    f"the store's {len(tl)} time labels")
    fh.write(f"# epsilon\t{store.epsilon}\n")
    if store.clustering is not None:
        c = store.clustering
        fh.write(f"# clustering\teps={c['eps']!r}\tmin_pts={c['min_pts']!r}"
                 f"\tinterpolate={c['interpolate']!r}\n")
    fh.write(f"# n_objects\t{len(store.object_labels)}\n")
    if tl:
        fh.write(f"# time_range\t{tl[0]}\t{tl[-1]}\n")
    fh.write(f"# objects\t{','.join(store.object_labels)}\n")
    fh.write(f"# times\t{','.join(tl)}\n")
    for fci in fcis:
        ids = ",".join(store.object_labels[i] for i in fci.tidset.ids)
        runs: list[list[ClusterId]] = []  # [first, last] item of each run
        for c in fci.items:
            if runs and c == (runs[-1][1].time + 1, runs[-1][1].ordinal):
                runs[-1][1] = c
            else:
                runs.append([c, c])
        items = ";".join(
            f"{tl[a.time]}:{a.ordinal}" if a == b
            else f"{tl[a.time]}..{tl[b.time]}:{a.ordinal}" for a, b in runs)
        fh.write(f"{fci.support}\t{ids}\t{items}\n")


def brute_read_fci_store(source) -> FciStore:
    """A store text read line by line into FCIs, each run parsed where it
    is used and expanded item by item.  The reference for
    ``comove.read_fci_store``: the same store, or the same error (class,
    message and line)."""
    header: dict[str, list[str]] = {}
    body: list[tuple[int, list[str]]] = []
    for line_no, line in enumerate(source, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split("\t")
            if parts and parts[0] in ("epsilon", "clustering", "n_objects",
                                      "time_range", "objects", "times"):
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
    clustering = None
    if "clustering" in header:
        fields = {}
        for f in header["clustering"]:
            key, _, value = f.partition("=")
            fields[key] = value
        try:
            if fields["interpolate"] not in ("True", "False"):
                raise ValueError(fields["interpolate"])
            clustering = {"eps": float(fields["eps"]),
                          "min_pts": int(fields["min_pts"]),
                          "interpolate": fields["interpolate"] == "True"}
        except (KeyError, ValueError):
            raise ParseError("store header has an unparseable clustering") from None
    labels = tuple(o for o in header["objects"][0].split(",") if o) \
        if header["objects"] and header["objects"][0] else ()
    for i, o in enumerate(labels):
        if o in labels[:i]:
            raise ParseError(f"store header repeats object id {o!r}")
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

    o_idx = {o: i for i, o in enumerate(labels)}
    t_idx = {_fmt_time(t): i for i, t in enumerate(times)}
    fcis = []
    for line_no, parts in body:
        if len(parts) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(parts)}",
                             line=line_no)
        try:
            support = int(parts[0])
        except ValueError:
            raise ParseError(f"unparseable support {parts[0]!r}", line=line_no) from None
        members = parts[1].split(",")
        unknown = [m for m in members if m not in o_idx]
        if unknown:
            raise ParseError(f"unknown object id {unknown[0]!r}", line=line_no)
        tid = Tidset.from_ids(o_idx[m] for m in members)
        if len(tid) != support or len(members) != support:
            raise ParseError(
                f"support {support} does not match {len(members)} member ids",
                line=line_no)
        if support < epsilon:
            raise ParseError(f"support {support} is below the store's epsilon "
                             f"{epsilon}", line=line_no)
        items = []
        for run in parts[2].split(";"):
            t_str, _, ord_str = run.partition(":")
            first, last = t_str.split("..", 1) if ".." in t_str else (t_str, t_str)
            for label in dict.fromkeys((first, last)):
                if label not in t_idx:
                    raise ParseError(f"unknown time label {label!r}", line=line_no)
            if ".." in t_str and t_idx[last] <= t_idx[first]:
                raise ParseError(f"run {run!r} does not end after it starts",
                                 line=line_no)
            try:
                ordinal = int(ord_str)
            except ValueError:
                raise ParseError(f"unparseable item {run!r}", line=line_no) from None
            if ordinal < 0:
                raise ParseError(f"ordinal must be >= 0, got {ordinal}", line=line_no)
            if ordinal >= 2**32:
                raise ParseError(f"ordinal must be < 2**32, got {ordinal}", line=line_no)
            for t in range(t_idx[first], t_idx[last] + 1):
                items.append(ClusterId(t, ordinal))
        try:
            fcis.append(FCI(tuple(items), tid))
        except ValueError as e:
            raise ParseError(str(e), line=line_no) from None
    return FciStore(epsilon, labels, times, tuple(fcis), clustering)


# ---------------------------------------------------------------------------
# Density clustering of one snapshot
# ---------------------------------------------------------------------------

def brute_dbscan_snapshot(ids, points: np.ndarray, params: DbscanParams) -> list[Tidset]:
    """DBSCAN of one snapshot as a textbook breadth-first expansion: seeds are
    tried in ascending object id, neighborhoods are closed balls, a border
    point joins the first cluster that reaches it, and clusters are ordered
    by smallest member id.  The reference for ``comove.dbscan_snapshot``."""
    ids = np.asarray(ids)
    points = np.asarray(points, dtype=float)
    n = len(ids)
    if n == 0:
        return []
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    points = points[order]

    diff = points[:, None, :] - points[None, :, :]
    within = (diff * diff).sum(axis=2) <= params.eps * params.eps
    neighbor_lists = [np.nonzero(within[i])[0] for i in range(n)]
    core = [len(nb) >= params.min_pts for nb in neighbor_lists]

    UNSEEN = -1
    label = [UNSEEN] * n
    clusters: list[list[int]] = []
    for seed in range(n):
        if label[seed] != UNSEEN or not core[seed]:
            continue
        cluster_id = len(clusters)
        members = [seed]
        label[seed] = cluster_id
        queue = list(neighbor_lists[seed])
        qi = 0
        while qi < len(queue):
            p = queue[qi]
            qi += 1
            if label[p] != UNSEEN:
                continue
            label[p] = cluster_id
            members.append(p)
            if core[p]:
                queue.extend(neighbor_lists[p])
        clusters.append(members)

    tidsets = [Tidset.from_ids(int(ids[m]) for m in members) for members in clusters]
    tidsets.sort(key=lambda t: t.ids[0])
    return tidsets


# ---------------------------------------------------------------------------
# Random matrix generators (for randomized cross-checks)
# ---------------------------------------------------------------------------

def gen_random_matrix(rng: np.random.Generator, max_objects: int = 8,
                      max_times: int = 10, max_clusters: int = 3) -> ClusterMatrix:
    """A random small per-timestamp matrix: each timestamp gets 0..max_clusters
    disjoint clusters over a random assignment of objects (singletons allowed,
    objects may be unassigned)."""
    n_obj = int(rng.integers(2, max_objects + 1))
    n_times = int(rng.integers(1, max_times + 1))
    labels = tuple(f"o{i + 1}" for i in range(n_obj))
    columns = []
    for t in range(n_times):
        k = int(rng.integers(0, max_clusters + 1))
        if k == 0:
            continue
        slots = rng.integers(0, k + 1, size=n_obj)  # 0 = unclustered
        groups: dict[int, int] = {}
        for o, s in enumerate(slots):
            if s > 0:
                groups[int(s)] = groups.get(int(s), 0) | (1 << o)
        masks = sorted(groups.values(), key=lambda m: (m & -m).bit_length())
        for ordinal, m in enumerate(masks):
            columns.append(Column(ClusterId(t, ordinal), Tidset(m)))
    return ClusterMatrix.build(labels, tuple(range(n_times)), columns)


def gen_random_nested_matrix(rng: np.random.Generator, max_objects: int = 10,
                             max_columns: int = 8) -> ClusterMatrix:
    """A random matrix whose columns form a nested chain (each column's tidset
    contains the next one's), one column per timestamp, repeats allowed."""
    n_obj = int(rng.integers(1, max_objects + 1))
    labels = tuple(f"o{i + 1}" for i in range(n_obj))
    n_cols = int(rng.integers(1, max_columns + 1))
    mask = int(rng.integers(1, 1 << n_obj))
    masks = [mask]
    while len(masks) < n_cols:
        if rng.random() < 0.3:
            masks.append(mask)  # equal columns are legal in a nested chain
            continue
        nxt = mask & int(rng.integers(1, 1 << n_obj))
        if nxt == 0:
            break
        mask = nxt
        masks.append(mask)
    columns = [Column(ClusterId(t, 0), Tidset(m)) for t, m in enumerate(masks)]
    return ClusterMatrix.build(labels, tuple(range(len(masks))), columns)
