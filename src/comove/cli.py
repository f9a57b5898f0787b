"""Command-line interface.

Subcommands:
  gen      write a seeded synthetic trajectory CSV
  mine     trajectories (or pre-clustered columns) -> itemset store + patterns
  append   combine a stored mining result with newly arrived trajectories
  convert  rewrite between formats (trajectories -> columns, store -> patterns)

Exit codes: 0 success, 1 usage error, 2 data/parameter error.  Each run ends
with a single JSON summary line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

from .clustering import DbscanParams, build_cluster_matrix
from .combine import combine_fcis, shift_times
from .incremental import mine_incremental, mine_parameter_free
from .ingest import interpolate, parse_trajectories, periodic_decompose
from .miner import mine_fci
from .model import (
    CoMoveError,
    MiningParams,
    ParameterError,
    ParseError,
    TimeRangeError,
    UniverseError,
    check_epsilon,
)
from .patterns import extract_patterns
from .store import (
    FciStore,
    check_pattern_object_ids,
    read_cluster_columns,
    read_fci_store,
    read_fci_table,
    write_cluster_columns,
    write_fci_store,
    write_patterns_csv,
    write_patterns_geojson,
    write_trajectories,
)
from .synthetic import SyntheticSpec, gen_synthetic

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; we reserve 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _clustering_flags() -> argparse.ArgumentParser:
    p = _Parser(add_help=False)
    g = p.add_argument_group("clustering")
    g.add_argument("--eps", type=float, default=0.001,
                   help="density radius (closed ball, default 0.001)")
    g.add_argument("--minpts", "--min-pts", dest="min_pts", type=int, default=2,
                   help="min neighborhood size for a core point, self included "
                        "(default 2)")
    g.add_argument("--no-interpolate", action="store_true",
                   help="skip linear gap filling before clustering")
    return p


def _mining_flags() -> argparse.ArgumentParser:
    p = _Parser(add_help=False)
    g = p.add_argument_group("mining")
    g.add_argument("--epsilon", type=int, default=2,
                   help="min objects per itemset (default 2)")
    g.add_argument("--mode", choices=("monolithic", "incremental", "nested"),
                   default="monolithic", help="mining strategy (default monolithic)")
    g.add_argument("--block-size", type=int, default=None,
                   help="timestamps per block; needs --mode incremental (default 25)")
    return p


def _extraction_flags() -> argparse.ArgumentParser:
    p = _Parser(add_help=False)
    g = p.add_argument_group("patterns")
    g.add_argument("--min-t", type=int, default=1,
                   help="min involved time units (default 1)")
    g.add_argument("--theta", type=float, default=0.5,
                   help="Jaccard threshold for moving clusters (default 0.5)")
    g.add_argument("--min-c", type=int, default=1,
                   help="min segments per group pattern (default 1)")
    g.add_argument("--min-wei", type=float, default=0.0,
                   help="min covered fraction per group pattern (default 0)")
    return p


def _common_flags() -> argparse.ArgumentParser:
    p = _Parser(add_help=False)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for clustering "
                        "(output is thread-count independent)")
    return p


def _emit_flag(p: argparse.ArgumentParser):
    p.add_argument("--emit", choices=("csv", "geojson", "both"), default="csv",
                   help="pattern output format(s) (default csv)")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: building it costs
    more than parsing with it, and parsing leaves it unchanged."""
    parser = _Parser(prog="comove",
                     description="Co-movement pattern mining over trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a synthetic trajectory CSV")
    p_gen.add_argument("output", help="destination CSV path")
    p_gen.add_argument("--objects", type=int, default=100)
    p_gen.add_argument("--times", type=int, default=100)
    p_gen.add_argument("--groups", type=int, default=4)
    p_gen.add_argument("--switch-prob", type=float, default=0.0)
    p_gen.add_argument("--spread", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)

    p_mine = sub.add_parser(
        "mine", help="mine itemsets and patterns from trajectories",
        parents=[_clustering_flags(), _mining_flags(), _extraction_flags(),
                 _common_flags()])
    p_mine.add_argument("input", help="trajectory CSV (or columns TSV with "
                                      "--pre-clustered)")
    p_mine.add_argument("out_dir", help="directory for fcis.tsv / patterns.csv")
    p_mine.add_argument("--pre-clustered", action="store_true",
                        help="input is a pre-clustered columns TSV")
    p_mine.add_argument("--period", type=int, default=None,
                        help="decompose into sub-trajectories of this length "
                             "and mine periodic patterns")
    _emit_flag(p_mine)

    p_app = sub.add_parser(
        "append", help="fold newly arrived trajectories into a stored result",
        parents=[_clustering_flags(), _common_flags()])
    p_app.add_argument("input", help="trajectory CSV with the new timestamps")
    p_app.add_argument("out_dir", help="directory for the combined fcis.tsv")
    p_app.add_argument("--store", required=True,
                       help="existing itemset store (fcis.tsv)")
    p_app.add_argument("--epsilon", type=int, default=None,
                       help="must match the store's epsilon when given")

    p_conv = sub.add_parser("convert", help="rewrite between formats")
    conv_sub = p_conv.add_subparsers(dest="conversion", required=True)

    p_cols = conv_sub.add_parser(
        "columns", help="trajectory CSV -> pre-clustered columns TSV",
        parents=[_clustering_flags(), _common_flags()])
    p_cols.add_argument("input", help="trajectory CSV")
    p_cols.add_argument("output", help="destination TSV path")

    p_pat = conv_sub.add_parser(
        "patterns", help="itemset store + trajectories -> pattern files",
        parents=[_clustering_flags(), _extraction_flags(), _common_flags()])
    p_pat.add_argument("store", help="itemset store (fcis.tsv)")
    p_pat.add_argument("input", help="the trajectory CSV the store was mined from")
    p_pat.add_argument("out_dir", help="directory for patterns.csv")
    _emit_flag(p_pat)

    return parser


def _summary(**fields):
    print(json.dumps(fields), file=sys.stderr)


def _kind_counts(patterns) -> dict:
    return dict(sorted(Counter(p.kind for p in patterns).items()))


def _read(read, path, **kwargs):
    """``read(path, **kwargs)``, with ``path`` named in the message of a data
    error, so a command that reads two files says which one is bad."""
    try:
        return read(path, **kwargs)
    except (ParseError, UnicodeDecodeError, csv.Error) as e:
        raise CoMoveError(f"{path}: {e}") from e


def _load_db(args):
    db = _read(parse_trajectories, args.input)
    if not args.no_interpolate:
        db = interpolate(db)
    return db


def _clustering(args) -> dict:
    """The clustering flags as a store records them."""
    return {"eps": args.eps, "min_pts": args.min_pts,
            "interpolate": not args.no_interpolate}


def _mining_params(args) -> MiningParams:
    """The pattern shape thresholds of the --min-t/--theta/--min-c/--min-wei flags."""
    return MiningParams(min_t=args.min_t, theta=args.theta, min_c=args.min_c,
                        min_wei=args.min_wei)


def _check_clustering(store: FciStore, args):
    """Raise ParameterError naming both values where the clustering flags
    differ from the ones the store records it was mined with."""
    if store.clustering is None:
        return
    for key, value in _clustering(args).items():
        if value != store.clustering[key]:
            raise ParameterError(f"{key} {value!r} does not match the store's "
                                 f"{key} {store.clustering[key]!r}")


def _cluster(db, args, kind: str = "per-timestamp"):
    """``db`` clustered with the --eps, --minpts and --threads flags."""
    return build_cluster_matrix(
        db, DbscanParams(eps=args.eps, min_pts=args.min_pts), kind=kind,
        threads=args.threads)


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(n_objects=args.objects, n_times=args.times,
                         n_groups=args.groups, switch_prob=args.switch_prob,
                         spread=args.spread, seed=args.seed)
    db = gen_synthetic(spec)
    write_trajectories(db, args.output)
    _summary(command="gen", output=args.output, n_objects=db.n_objects,
             n_times=db.n_times, seed=args.seed)
    return 0


def _mine_with_mode(matrix, epsilon: int, mode: str, block_size: int | None):
    if mode == "incremental":
        return mine_incremental(matrix, epsilon, block_size)
    if mode == "nested":
        return mine_parameter_free(matrix, epsilon)
    return mine_fci(matrix, epsilon)


def _write_outputs(out_dir: str, store: FciStore | None, patterns, matrix, db, emit):
    """fcis.tsv unless ``store`` is None, then the pattern files ``emit`` names."""
    check_pattern_object_ids(matrix.object_labels)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if store is not None:
        write_fci_store(store, out / "fcis.tsv")
    if emit in ("csv", "both"):
        write_patterns_csv(patterns, matrix, out / "patterns.csv")
    if emit in ("geojson", "both"):
        write_patterns_geojson(patterns, matrix, db, out / "patterns.geojson")


def _cmd_mine(args, parser: _Parser) -> int:
    if args.pre_clustered and args.period is not None:
        parser.error("--period cannot be combined with --pre-clustered")
    if args.pre_clustered and args.emit in ("geojson", "both"):
        parser.error("--emit geojson needs trajectories, not --pre-clustered input")
    if args.block_size is not None and args.mode != "incremental":
        parser.error("--block-size needs --mode incremental")
    t0 = time.perf_counter()
    check_epsilon(args.epsilon)
    params = _mining_params(args)
    if args.block_size is not None and args.block_size < 1:
        raise ParameterError(
            f"block_size must be an int >= 1 or None, got {args.block_size!r}")
    db = None
    if args.pre_clustered:
        matrix = _read(read_cluster_columns, args.input)
    else:
        db = _load_db(args)
        if args.period is not None:
            db = periodic_decompose(db, args.period).sub_db
        kind = "periodic" if args.period is not None else "per-timestamp"
        matrix = _cluster(db, args, kind)
    fcis = _mine_with_mode(matrix, args.epsilon, args.mode, args.block_size)
    patterns = extract_patterns(fcis, matrix, params)
    store = FciStore(args.epsilon, matrix.object_labels, matrix.time_labels,
                     tuple(fcis), None if args.pre_clustered else _clustering(args))
    _write_outputs(args.out_dir, store, patterns, matrix, db, args.emit)
    _summary(command="mine", mode=args.mode, input=args.input,
             n_objects=matrix.n_objects, n_times=matrix.n_times,
             n_columns=matrix.n_columns, n_fcis=len(fcis),
             n_patterns=len(patterns), patterns=_kind_counts(patterns),
             threads=args.threads,
             elapsed_s=round(time.perf_counter() - t0, 3))
    return 0


def _cmd_append(args) -> int:
    t0 = time.perf_counter()
    read_counters: dict = {}
    # the store's rows stay one table: the merge takes their tidsets as
    # words, and the writer copies each kept row's line by its rank
    store = _read(read_fci_table, args.store, counters=read_counters)
    if args.epsilon is not None and args.epsilon != store.epsilon:
        raise CoMoveError(
            f"--epsilon {args.epsilon} does not match the store's epsilon "
            f"{store.epsilon}")
    _check_clustering(store, args)
    new_db = _load_db(args)
    if store.time_labels and new_db.time_labels[0] <= store.time_labels[-1]:
        raise TimeRangeError(
            f"new data starts at {new_db.time_labels[0]!r}, not strictly after "
            f"the store's last timestamp {store.time_labels[-1]!r}")
    new_matrix = _cluster(new_db.align_to(store.object_labels), args)
    new_fcis = mine_fci(new_matrix, store.epsilon)
    counters: dict = {}
    combined = combine_fcis(store.fcis,
                            shift_times(new_fcis, len(store.time_labels)),
                            store.epsilon, counters=counters)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # replace keeps the text the store was read with, which the writer copies
    write_fci_store(dataclasses.replace(
        store, time_labels=store.time_labels + new_db.time_labels,
        fcis=combined), out / "fcis.tsv")
    _summary(command="append", store=args.store, input=args.input,
             n_existing=len(store.fcis), n_incoming=len(new_fcis),
             n_combined=len(combined),
             **{f"store_{k}": v for k, v in read_counters.items()},
             **counters, elapsed_s=round(time.perf_counter() - t0, 3))
    return 0


def _cmd_convert_columns(args) -> int:
    matrix = _cluster(_load_db(args), args)
    write_cluster_columns(matrix, args.output)
    _summary(command="convert", conversion="columns", input=args.input,
             output=args.output, n_columns=matrix.n_columns)
    return 0


def _cmd_convert_patterns(args) -> int:
    store = _read(read_fci_store, args.store)
    _check_clustering(store, args)
    db = _load_db(args)
    if db.object_labels != store.object_labels:
        raise UniverseError(
            "trajectories and store cover different object universes")
    if db.time_labels != store.time_labels:
        raise TimeRangeError("trajectories and store cover different time ranges")
    matrix = _cluster(db, args)
    params = _mining_params(args)
    patterns = extract_patterns(store.fcis, matrix, params)
    _write_outputs(args.out_dir, None, patterns, matrix, db, args.emit)
    _summary(command="convert", conversion="patterns", store=args.store,
             input=args.input, n_patterns=len(patterns),
             patterns=_kind_counts(patterns))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threads = getattr(args, "threads", 1)
        if threads < 1:
            raise ParameterError(f"threads must be an int >= 1, got {threads!r}")
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "mine":
            return _cmd_mine(args, parser)
        if args.command == "append":
            return _cmd_append(args)
        if args.command == "convert":
            if args.conversion == "columns":
                return _cmd_convert_columns(args)
            return _cmd_convert_patterns(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (CoMoveError, OSError) as e:
        print(f"comove: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
