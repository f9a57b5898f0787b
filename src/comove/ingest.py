"""Trajectory input: CSV parsing, gap interpolation, periodic decomposition.

A trajectory database is a dense (object, timestamp) grid of 2-D positions
with NaN marking missing observations.  Object labels are kept sorted and
timestamps strictly increasing, so equal inputs produce identical databases
regardless of row order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
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


def parse_trajectories(source) -> TrajectoryDB:
    """Read object_id,timestamp,x,y rows into a trajectory database.

    ``source`` may be a path or an open text stream.  An optional header row
    is recognized by its second field being neither an integer nor an
    ISO-8601 timestamp.  Duplicate (object, timestamp) observations and
    non-finite coordinates are rejected with the offending line number.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="") as fh:
            return parse_trajectories(fh)

    reader = csv.reader(source)  # any iterable of lines works
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


def interpolate(db: TrajectoryDB) -> TrajectoryDB:
    """Fill interior gaps of each trajectory by linear interpolation over the
    time labels.  Leading and trailing gaps stay missing (no extrapolation).
    """
    xy = db.xy.copy()
    t = np.asarray(db.time_labels, dtype=float)
    for o, seen in enumerate(db.present):
        obs = np.nonzero(seen)[0]
        if len(obs) < 2:
            continue
        lo, hi = obs[0], obs[-1]
        inner = slice(lo, hi + 1)
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
