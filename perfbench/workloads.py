"""The benchmark's workloads: inputs, untimed set-up, the timed CLI unit,
the tracing of the CLI's layer calls, and the content checks of its output.

Every CLI call goes through ``comove.cli.main(argv)`` with ``--threads 1``.
A traced unit makes the same calls; ``traced_cli`` wraps the layer functions
the CLI looks up in its own namespace, so the traced path is the CLI's own.
"""

from __future__ import annotations

import functools
import io
import time
from contextlib import contextmanager, redirect_stderr
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import comove.cli as cli
import comove.incremental
from comove import (
    ClusterMatrix,
    SyntheticSpec,
    TrajectoryDB,
    gen_synthetic,
    mine_fci,
    write_trajectories,
)

import checks
from spans import Tracer

N_GROUPS = 5
# gen_synthetic seed of every workload's trajectory structure; see synthetic().
STRUCTURE_SEED = 11
EPSILON = 5
CLUSTER_FLAGS = ("--eps", "3", "--minpts", "2", "--threads", "1")
MINE_FLAGS = CLUSTER_FLAGS + ("--epsilon", str(EPSILON), "--min-t", "10")
# The CLI's default block size for --mode incremental.
BLOCK_SIZE = getattr(comove.incremental, "DEFAULT_BLOCK_SIZE", 25)


@dataclass
class Call:
    """One timed ``main()`` call of the closed loop."""

    label: str
    seconds: float
    rc: int
    points: int
    out_dir: Path
    error: str = ""


def run_cli(label: str, argv: list[str], points: int, out_dir: Path) -> Call:
    err = io.StringIO()
    t = time.monotonic()
    try:
        with redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejected the arguments
        rc = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a crash fails this job, not the whole run
        rc = -1
        err.write(repr(e))
    seconds = time.monotonic() - t
    return Call(label, seconds, rc, points, out_dir,
                err.getvalue()[-500:] if rc else "")


def synthetic(n_objects: int, n_times: int, switch_prob: float,
              seed: int) -> TrajectoryDB:
    """``gen_synthetic`` trajectories with a fixed structure, placed by seed.

    Who moves with whom and when objects switch groups come from
    ``gen_synthetic`` with ``STRUCTURE_SEED``.  The benchmark seed draws a
    relabelling of the objects and a rigid motion of the plane, so each seed
    gives different input files and outputs but the same clusters up to
    relabelling, and hence the same amount of work.  Drawing the structure
    from the seed instead moves the itemset count, and the job time with it,
    by tens of percent from seed to seed.
    """
    db = gen_synthetic(SyntheticSpec(
        n_objects=n_objects, n_times=n_times, n_groups=N_GROUPS,
        switch_prob=switch_prob, seed=STRUCTURE_SEED))
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_objects)
    angle = rng.uniform(0.0, 2 * np.pi)
    rotation = np.array([[np.cos(angle), -np.sin(angle)],
                         [np.sin(angle), np.cos(angle)]])
    xy = db.xy[order] @ rotation.T + rng.uniform(-5000.0, 5000.0, size=2)
    return TrajectoryDB(db.object_labels, db.time_labels, xy)


def time_slice(db: TrajectoryDB, a: int, b: int) -> TrajectoryDB:
    return TrajectoryDB(db.object_labels, db.time_labels[a:b], db.xy[:, a:b])


# ---------------------------------------------------------------------------
# Tracing the CLI's own layer calls
# ---------------------------------------------------------------------------

def _count_rows(a: dict, args, kwargs, db):
    a["rows"] = int(db.present.sum())


def _count_clustering(a: dict, args, kwargs, matrix: ClusterMatrix):
    per_time = args[0].present.sum(axis=0)
    a.update(points=int(per_time.sum()),
             max_snapshot_points=int(per_time.max(initial=0)),
             columns=matrix.n_columns,
             clustered=sum(len(c.members) for c in matrix.columns))


def _count_mining(a: dict, args, kwargs, fcis):
    a.update(distinct_masks=len({c.members.mask for c in args[0].columns}),
             fcis=len(fcis))


def _count_patterns(a: dict, args, kwargs, patterns):
    fcis = args[0]
    a.update(fcis_in=len(fcis), out=len(patterns),
             item_visits=sum(len(f.items) for f in fcis))


def _count_combine(a: dict, args, kwargs, combined):
    a.update(kwargs.get("counters") or {})


def _count_store(a: dict, args, kwargs, _):
    store, path = args
    a.update(fci_bytes=Path(path).stat().st_size,
             fci_items=sum(len(f.items) for f in store.fcis))


# Name in comove.cli's namespace -> (span name, counts attached to the span).
TRACED_CALLS = {
    "main": ("cli.main", None),
    "parse_trajectories": ("ingest.parse", _count_rows),
    "interpolate": ("ingest.interpolate", None),
    "periodic_decompose": ("ingest.periodic_decompose", None),
    "build_cluster_matrix": ("clustering.build", _count_clustering),
    "mine_fci": ("miner.mine_fci", _count_mining),
    "mine_incremental": ("incremental.mine_incremental", _count_mining),
    "mine_parameter_free": ("incremental.mine_parameter_free", _count_mining),
    "extract_patterns": ("patterns.extract", _count_patterns),
    "combine_fcis": ("combine.combine", _count_combine),
    "read_fci_store": ("store.read_fci", None),
    "write_fci_store": ("store.write_fci", _count_store),
    "write_patterns_csv": ("store.write_patterns_csv", None),
}


@contextmanager
def traced_cli(tr: Tracer):
    """Swaps the layer functions in ``comove.cli``'s namespace for wrappers
    that time each call as a span, then count its arguments and result in a
    ``bench.count`` span, so the CLI's own code path is what gets traced.
    Yields a dict holding each wrapped function's latest result.  A name the
    CLI no longer imports is left out, and its layer reads 0."""
    saved = {name: getattr(cli, name) for name in TRACED_CALLS if hasattr(cli, name)}
    last: dict = {}

    def wrap(name, fn, span_name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tr.span(span_name) as attrs:
                result = fn(*args, **kwargs)
            if count is not None:
                with tr.span("bench.count"):
                    count(attrs, args, kwargs, result)
            last[name] = result
            return result
        return traced

    try:
        for name, fn in saved.items():
            setattr(cli, name, wrap(name, fn, *TRACED_CALLS[name]))
        yield last
    finally:
        for name, fn in saved.items():
            setattr(cli, name, fn)


def local_fcis(matrix: ClusterMatrix, epsilon: int, block_size: int) -> int:
    """Closed itemsets of each time block mined on its own: the local results
    block-incremental mining starts from, counted with the plain miner on
    column slices the benchmark cuts itself."""
    blocks: dict[int, list] = {}
    for col in matrix.columns:
        blocks.setdefault(col.cid.time // block_size, []).append(col)
    return sum(
        len(mine_fci(ClusterMatrix(matrix.object_labels, matrix.time_labels,
                                   tuple(cols), matrix.kind), epsilon))
        for cols in blocks.values())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Trajectories:
    """One synthetic trajectory CSV of a workload."""

    name: str
    n_objects: int
    n_times: int
    switch_prob: float


@dataclass(frozen=True)
class MineWorkload:
    """A unit is one ``comove mine`` call per job, each on one of the
    workload's trajectory CSVs."""

    output_files = ("fcis.tsv", "patterns.csv")

    name: str
    datasets: tuple[Trajectories, ...]
    jobs: tuple[tuple[str, str, tuple[str, ...]], ...]  # (label, dataset, extra mine flags)

    def setup(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        inputs = {}
        for d in self.datasets:
            db = synthetic(d.n_objects, d.n_times, d.switch_prob, seed)
            path = work / f"{d.name}.csv"
            write_trajectories(db, path)
            inputs[d.name] = {"csv": path, "rows": int(db.present.sum())}
        return inputs

    def unit(self, inputs: dict, out: Path) -> list[Call]:
        return [run_cli(label, ["mine", str(inputs[data]["csv"]), str(out / label),
                                *flags, *MINE_FLAGS],
                        inputs[data]["rows"], out / label)
                for label, data, flags in self.jobs]

    def local_fcis(self, matrix: ClusterMatrix) -> int:
        return local_fcis(matrix, EPSILON, BLOCK_SIZE)

    def output_dirs(self, calls: list[Call]) -> dict[str, Path]:
        return {c.label: c.out_dir for c in calls}

    def check(self, dirs: dict[str, Path], inputs: dict, work: Path,
              cross_check: bool) -> tuple[dict, list[str]]:
        """(canonical content of each dataset's first job, problems).  Every
        job on a dataset mines the same input, so all of them must agree."""
        canon = {label: checks.canonical_output(d, patterns=True)
                 for label, d in dirs.items()}
        first: dict[str, str] = {}  # dataset -> label of its first job
        problems = []
        for label, data, _ in self.jobs:
            ref = first.setdefault(data, label)
            if canon[label] != canon[ref]:
                problems.append(f"{label} output differs from {ref} output")
        return {data: canon[label] for data, label in first.items()}, problems


@dataclass(frozen=True)
class StreamWorkload:
    """A unit is a chain of ``comove append`` batches from a base store mined
    in set-up, each batch folding into the previous batch's store."""

    output_files = ("fcis.tsv",)

    name: str
    n_objects: int
    base_times: int
    batches: int
    batch_times: int
    switch_prob: float

    @property
    def n_times(self) -> int:
        return self.base_times + self.batches * self.batch_times

    def setup(self, work: Path, seed: int) -> dict:
        db = synthetic(self.n_objects, self.n_times, self.switch_prob, seed)
        work.mkdir(parents=True, exist_ok=True)
        write_trajectories(time_slice(db, 0, self.base_times), work / "base.csv")
        batches, rows = [], []
        for k in range(self.batches):
            a = self.base_times + k * self.batch_times
            part = time_slice(db, a, a + self.batch_times)
            batches.append(work / f"batch{k:03d}.csv")
            rows.append(int(part.present.sum()))
            write_trajectories(part, batches[-1])
        base = run_cli("base", ["mine", str(work / "base.csv"), str(work / "base"),
                                *MINE_FLAGS], 0, work / "base")
        if base.rc != 0:
            raise RuntimeError(f"mining the base store failed: {base.error}")
        return {"db": db, "store": work / "base" / "fcis.tsv",
                "batches": batches, "rows": rows}

    def _argv(self, inputs: dict, k: int, store: Path, out: Path) -> list[str]:
        return ["append", str(inputs["batches"][k]), str(out),
                "--store", str(store), *CLUSTER_FLAGS]

    def unit(self, inputs: dict, out: Path) -> list[Call]:
        calls, store = [], inputs["store"]
        for k in range(self.batches):
            step = out / f"b{k:03d}"
            calls.append(run_cli("append", self._argv(inputs, k, store, step),
                                 inputs["rows"][k], step))
            store = step / "fcis.tsv"
        return calls

    def local_fcis(self, matrix) -> int:
        return 0

    def output_dirs(self, calls: list[Call]) -> dict[str, Path]:
        # A wrong batch shows in every later store, so the chain is judged
        # by its final store and fails as a whole.
        return {"append": calls[-1].out_dir}

    def check(self, dirs: dict[str, Path], inputs: dict, work: Path,
              cross_check: bool) -> tuple[dict, list[str]]:
        """(canonical content of the final store, problems).  The cross-check
        compares it with a monolithic mine of the whole span, run after
        timing.  gen_synthetic data has no gaps, so it cannot see gaps that
        straddle a batch boundary."""
        final = {"stream": checks.canonical_output(dirs["append"], patterns=False)}
        if not cross_check:
            return final, []
        work.mkdir(parents=True, exist_ok=True)
        write_trajectories(inputs["db"], work / "full.csv")
        full = run_cli("full", ["mine", str(work / "full.csv"), str(work / "full"),
                                *MINE_FLAGS], 0, work / "full")
        if full.rc == 0 and \
                checks.canonical_output(work / "full", patterns=False) == final["stream"]:
            return final, []
        return final, ["final store differs from a monolithic mine of the span"]


# The traced run counts local_fcis on the matrix the last job clustered, so
# the mining-mode jobs, which share one dataset, come last.
WORKLOADS = {w.name: w for w in (
    MineWorkload(
        "mine",
        datasets=(Trajectories("dense", n_objects=50, n_times=800, switch_prob=0.003),
                  Trajectories("herd", n_objects=100, n_times=300, switch_prob=0.005)),
        jobs=(("periodic", "dense", ("--period", "100")),
              ("monolithic", "herd", ("--mode", "monolithic")),
              ("incremental", "herd", ("--mode", "incremental")),
              ("nested", "herd", ("--mode", "nested")))),
    StreamWorkload("stream", n_objects=100, base_times=300, batches=20,
                   batch_times=5, switch_prob=0.003),
)}
