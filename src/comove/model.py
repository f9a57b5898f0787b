"""Core data model for co-movement pattern mining.

Everything downstream (clustering, mining, pattern decoding) speaks in terms of
the types defined here:

* objects and timestamps are dense integer indices into label tables,
* a :class:`Tidset` is an immutable set of object indices backed by a bitmask,
* a :class:`ClusterMatrix` is the 0-1 object/cluster membership matrix with
  columns grouped by time unit,
* an :class:`FCI` is a frequent closed itemset over matrix columns, held
  packed into ints; it is the one itemset type the miner emits, the merge
  combines, the decoder reads and the itemset store reads and writes,
* pattern dataclasses carry the decoded co-movement patterns.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

__all__ = [
    "CoMoveError",
    "ParseError",
    "ConflictError",
    "ParameterError",
    "MatrixKindError",
    "UniverseError",
    "TimeRangeError",
    "Tidset",
    "ClusterId",
    "Column",
    "MATRIX_KINDS",
    "ClusterMatrix",
    "FCI",
    "MiningParams",
    "ClosedSwarm",
    "Convoy",
    "MovingCluster",
    "GroupPattern",
    "PeriodicPattern",
    "Pattern",
    "canonical_sort",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class CoMoveError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CoMoveError, ValueError):
    """Malformed input data; carries the offending line number when known."""

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConflictError(ParseError):
    """Two observations for the same object at the same timestamp."""


class ParameterError(CoMoveError, ValueError):
    """A mining or clustering parameter is out of its valid range."""


class MatrixKindError(CoMoveError, TypeError):
    """An operation was applied to a cluster matrix of the wrong kind."""


class UniverseError(CoMoveError, ValueError):
    """Two inputs that must share an object universe do not."""


class TimeRangeError(CoMoveError, ValueError):
    """Incoming timestamps do not lie strictly after the existing ones."""


# ---------------------------------------------------------------------------
# Tidsets
# ---------------------------------------------------------------------------

class Tidset:
    """An immutable set of object indices, stored as an int bitmask.

    Bit ``i`` set means object index ``i`` is a member.  The sorted index
    tuple is materialised lazily on first access and cached, so both the
    bit-parallel view (fast intersection/subset tests) and the list view
    (iteration, output) are cheap where they matter.
    """

    __slots__ = ("mask", "_ids")

    def __init__(self, mask: int):
        if mask < 0:
            raise ValueError("tidset mask must be non-negative")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_ids", None)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Tidset is immutable")

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> "Tidset":
        mask = 0
        for i in ids:
            if i < 0:
                raise ValueError(f"object index must be non-negative, got {i}")
            mask |= 1 << i
        return cls(mask)

    @property
    def ids(self) -> tuple[int, ...]:
        cached = self._ids
        if cached is None:
            m = self.mask
            out = []
            while m:
                low = m & -m
                out.append(low.bit_length() - 1)
                m ^= low
            cached = tuple(out)
            object.__setattr__(self, "_ids", cached)
        return cached

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, i: int) -> bool:
        return i >= 0 and (self.mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __and__(self, other: "Tidset") -> "Tidset":
        return Tidset(self.mask & other.mask)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tidset) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        inner = ",".join(map(str, self.ids))
        return f"Tidset({{{inner}}})"


# ---------------------------------------------------------------------------
# Cluster matrix
# ---------------------------------------------------------------------------

class ClusterId(NamedTuple):
    """Identity of a matrix column: (time unit index, ordinal within unit).

    The time unit is a timestamp index in per-timestamp matrices and a
    period offset index in periodic ones.
    """

    time: int
    ordinal: int


class Column(NamedTuple):
    """A matrix column: its identity plus the objects it contains."""

    cid: ClusterId
    members: Tidset


#: Valid values for :attr:`ClusterMatrix.kind`.  Both kinds keep same-unit
#: columns disjoint.
MATRIX_KINDS = ("per-timestamp", "periodic")


@dataclass(frozen=True)
class ClusterMatrix:
    """0-1 membership matrix: rows are objects, columns are clusters.

    ``object_labels`` and ``time_labels`` translate dense indices back to the
    caller's vocabulary (object ids and timestamps / period offsets).
    ``columns`` hold the actual matrix content as tidsets; a cell (object,
    column) is 1 iff the object index is in the column's tidset.
    """

    object_labels: tuple[str, ...]
    time_labels: tuple  # ints or floats, strictly increasing
    columns: tuple[Column, ...]
    kind: str = "per-timestamp"

    def __post_init__(self):
        if self.kind not in MATRIX_KINDS:
            raise MatrixKindError(
                f"unknown matrix kind {self.kind!r}; expected one of {MATRIX_KINDS}")
        n = len(self.object_labels)
        t = len(self.time_labels)
        if len(set(self.object_labels)) != n:
            raise ParseError("duplicate object labels")
        if any(self.time_labels[i] >= self.time_labels[i + 1] for i in range(t - 1)):
            raise ParseError("time labels must be strictly increasing")
        seen_ids = set()
        per_time_or: dict[int, int] = {}
        per_time_popcount: dict[int, int] = {}
        for cid, members in self.columns:
            if not 0 <= cid.time < t:
                raise ParseError(f"column {cid} has out-of-range time index")
            if cid in seen_ids:
                raise ParseError(f"duplicate column id {cid}")
            seen_ids.add(cid)
            if not members:
                raise ParseError(f"column {cid} is empty")
            if members.mask >> n:
                raise UniverseError(
                    f"column {cid} contains object indices >= {n}")
            per_time_or[cid.time] = per_time_or.get(cid.time, 0) | members.mask
            per_time_popcount[cid.time] = per_time_popcount.get(cid.time, 0) + len(members)
        for tt, acc in per_time_or.items():
            if acc.bit_count() != per_time_popcount[tt]:
                raise ParseError(
                    f"columns at time unit {tt} overlap; {self.kind} matrices "
                    "require disjoint same-unit columns")

    @classmethod
    def build(cls, object_labels: Sequence[str], time_labels: Sequence,
              columns: Iterable[Column],
              kind: str = "per-timestamp") -> "ClusterMatrix":
        """A matrix of ``columns`` sorted by cluster id."""
        return cls(tuple(object_labels), tuple(time_labels),
                   tuple(sorted(columns, key=lambda c: c.cid)), kind)

    @property
    def n_objects(self) -> int:
        return len(self.object_labels)

    @property
    def n_times(self) -> int:
        return len(self.time_labels)

    @property
    def n_columns(self) -> int:
        return len(self.columns)


# ---------------------------------------------------------------------------
# Frequent closed itemsets
# ---------------------------------------------------------------------------

#: An item's code is ``time << _ITEM_BITS | ordinal``, an int64 that sorts like
#: the (time, ordinal) item; :func:`item_code` refuses an item it cannot hold.
_ITEM_BITS = 32
_ORDINAL_MASK = (1 << _ITEM_BITS) - 1
_TIME_STEP = 1 << _ITEM_BITS  # the code of the next time's item, less this one's
_TIME_BOUND = 1 << (63 - _ITEM_BITS)


def item_code(time: int, ordinal: int, line: int | None = None) -> int:
    """The code of item (time, ordinal).  An ordinal or time the code cannot
    hold raises ParseError, reported at ``line`` when given."""
    if ordinal < 0:
        raise ParseError(f"ordinal must be >= 0, got {ordinal}", line=line)
    if ordinal > _ORDINAL_MASK:
        raise ParseError(f"ordinal must be < 2**{_ITEM_BITS}, got {ordinal}",
                         line=line)
    if not -_TIME_BOUND <= time < _TIME_BOUND:
        raise ParseError(f"time index must be in [-2**{63 - _ITEM_BITS}, "
                         f"2**{63 - _ITEM_BITS}), got {time}", line=line)
    return time << _ITEM_BITS | ordinal


def code_item(code: int) -> ClusterId:
    return ClusterId(code >> _ITEM_BITS, code & _ORDINAL_MASK)


class FCI:
    """A frequent closed itemset: matrix columns plus their shared objects.

    ``items`` are sorted by (time, ordinal); ``tidset`` is the set of objects
    belonging to every item, and the support is its cardinality.

    The itemset is held packed: ``mask`` is the tidset as an int and
    ``codes`` are the items as ascending :func:`item_code` ints, which fit an
    int64 (an item they cannot hold raises ParseError); ``items`` and
    ``tidset`` are built from them on first read and cached.
    :func:`packed_fci` makes an FCI from packed fields without checks.  An
    FCI read from a store (see ``comove.store``) builds its ``codes`` on
    first read too, and answers :meth:`bounds` without them.
    """

    __slots__ = ("mask", "codes", "_items", "_tidset")

    def __init__(self, items: Sequence[ClusterId], tidset: Tidset):
        items = tuple(items)
        if not items:
            raise ValueError("an FCI needs at least one item")
        if not all(map(operator.lt, items, items[1:])):
            raise ValueError("FCI items must be strictly ascending")
        self.mask = tidset.mask
        self.codes = tuple([item_code(*c) for c in items])
        self._items = items
        self._tidset = tidset

    @property
    def items(self) -> tuple[ClusterId, ...]:
        if self._items is None:
            self._items = tuple(map(code_item, self.codes))
        return self._items

    @property
    def tidset(self) -> Tidset:
        if self._tidset is None:
            self._tidset = Tidset(self.mask)
        return self._tidset

    @property
    def support(self) -> int:
        return self.mask.bit_count()

    @property
    def times(self) -> tuple[int, ...]:
        return tuple([c >> _ITEM_BITS for c in self.codes])

    def bounds(self) -> tuple[int, int]:
        """The first and last item codes."""
        codes = self.codes
        return codes[0], codes[-1]

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FCI):
            return NotImplemented
        return self.mask == other.mask and self.codes == other.codes

    def __hash__(self) -> int:
        return hash((self.mask, self.codes))

    def __repr__(self) -> str:
        return f"FCI(items={self.items!r}, tidset={self.tidset!r})"


_new = object.__new__


def packed_fci(mask: int, codes: tuple[int, ...]) -> FCI:
    """The FCI of a tidset mask and ascending item codes, unchecked."""
    f = _new(FCI)
    f.mask = mask
    f.codes = codes
    f._items = f._tidset = None
    return f


def check_epsilon(epsilon: int):
    if not isinstance(epsilon, int) or epsilon < 1:
        raise ParameterError(f"epsilon must be an int >= 1, got {epsilon!r}")


# ---------------------------------------------------------------------------
# Mining parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MiningParams:
    """The shape thresholds ``extract_patterns`` decodes itemsets with;
    support (epsilon) is not one: it is fixed when the itemsets are mined.

    min_t      minimum number of involved time units
    theta      Jaccard threshold for moving-cluster chains
    min_c      minimum number of consecutive segments in a group pattern
    min_wei    minimum fraction of the time span covered by a group pattern
    """

    min_t: int = 1
    theta: float = 0.5
    min_c: int = 1
    min_wei: float = 0.0

    def __post_init__(self):
        if not isinstance(self.min_t, int) or self.min_t < 1:
            raise ParameterError(f"min_t must be an int >= 1, got {self.min_t!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ParameterError(f"theta must be in [0, 1], got {self.theta!r}")
        if not isinstance(self.min_c, int) or self.min_c < 1:
            raise ParameterError(f"min_c must be an int >= 1, got {self.min_c!r}")
        if not 0.0 <= self.min_wei <= 1.0:
            raise ParameterError(f"min_wei must be in [0, 1], got {self.min_wei!r}")


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedSwarm:
    """Objects that share a cluster at each listed (not necessarily
    consecutive) timestamp, maximal in both objects and timestamps."""

    kind = "closed_swarm"
    objects: Tidset
    times: tuple[int, ...]


@dataclass(frozen=True)
class Convoy:
    """Objects that stay clustered together over a maximal consecutive
    time interval [start, end]."""

    kind = "convoy"
    objects: Tidset
    start: int
    end: int

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.end + 1))


@dataclass(frozen=True)
class MovingCluster:
    """A chain of clusters at consecutive timestamps whose adjacent pairs
    overlap by at least theta (Jaccard); ``objects`` is the chain's core,
    the objects present in every cluster of the chain."""

    kind = "moving_cluster"
    clusters: tuple[ClusterId, ...]
    objects: Tidset

    @property
    def start(self) -> int:
        return self.clusters[0].time

    @property
    def end(self) -> int:
        return self.clusters[-1].time

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.end + 1))


@dataclass(frozen=True)
class GroupPattern:
    """Objects that travel together over several consecutive segments;
    weight is total covered time over the whole time span."""

    kind = "group_pattern"
    objects: Tidset
    segments: tuple[tuple[int, int], ...]
    weight: float

    @property
    def times(self) -> tuple[int, ...]:
        return tuple([t for a, b in self.segments for t in range(a, b + 1)])


@dataclass(frozen=True)
class PeriodicPattern:
    """Sub-trajectories that share a cluster at each listed period offset."""

    kind = "periodic_pattern"
    objects: Tidset  # sub-trajectory indices
    times: tuple[int, ...]  # period offsets


Pattern = Union[ClosedSwarm, Convoy, MovingCluster, GroupPattern, PeriodicPattern]


def _pattern_key(p: Pattern):
    if isinstance(p, (ClosedSwarm, PeriodicPattern)):
        return (p.kind, p.objects.ids, p.times, ())
    if isinstance(p, Convoy):
        return (p.kind, p.objects.ids, (p.start, p.end), ())
    if isinstance(p, MovingCluster):
        return (p.kind, p.objects.ids, tuple(p.clusters), ())
    if isinstance(p, GroupPattern):
        return (p.kind, p.objects.ids, p.segments, (p.weight,))
    raise TypeError(f"not a pattern: {p!r}")


def canonical_sort(patterns: Iterable[Pattern]) -> list[Pattern]:
    """Deterministic total order over mixed pattern kinds: by kind name, then
    object ids, then times/segments/chain.  Used everywhere output order
    matters, so equal inputs produce byte-identical files."""
    return sorted(patterns, key=_pattern_key)
