"""Scale probe: the three mining modes, the decoder and both writers as the
data grows, one fresh process per cell.

    python3 tools/scale.py                          # T = 1000 and 2000
    python3 tools/scale.py --times 1000 2000 4000 --timeout 60
    python3 tools/scale.py --src ../other/src --label before

Every cell mines ``gen_synthetic(SyntheticSpec(n_objects=100, n_times=T,
switch_prob=0.003, seed=11))`` clustered with ``eps=3, min_pts=2`` at
``epsilon=5``, and times one step in a process of its own:

- ``monolithic``, ``incremental`` (block size 25), ``nested``: the miner;
- ``extract``: ``extract_patterns`` of the incremental miner's itemsets with
  ``min_t=10``;
- ``write_store``, ``write_patterns``: ``write_fci_store`` and
  ``write_patterns_csv`` of those to a file.

A cell records its wall time, the process's peak ``ru_maxrss`` (MB, set-up
included), the itemset count and a SHA-256 of its output: the store's text
for a miner, ``patterns.csv`` for the decoder and its writer, the file for
a writer.  A cell that runs past ``--timeout`` seconds is killed and shows
as "> N s".  The results go to ``BENCH_scale_<label>.json`` in the current
directory, ``<label>`` the short commit of the source's checkout unless
given, and a table is printed.  Nothing here gates: it puts numbers on the
scaling that the benchmark's second-long units cannot show.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OPS = ("monolithic", "incremental", "nested", "extract", "write_store", "write_patterns")


def _cell(op: str, n_times: int) -> dict:
    """Run one cell in this process and return its record."""
    import resource

    from comove import (
        DbscanParams,
        FciStore,
        MiningParams,
        SyntheticSpec,
        build_cluster_matrix,
        extract_patterns,
        gen_synthetic,
        mine_fci,
        mine_incremental,
        mine_parameter_free,
        write_fci_store,
        write_patterns_csv,
    )

    db = gen_synthetic(SyntheticSpec(n_objects=100, n_times=n_times,
                                     switch_prob=0.003, seed=11))
    matrix = build_cluster_matrix(db, DbscanParams(eps=3.0, min_pts=2))
    miners = {"monolithic": mine_fci, "incremental": mine_incremental,
              "nested": mine_parameter_free}
    params = MiningParams(min_t=10)

    def store_of(fcis):
        return FciStore(5, matrix.object_labels, matrix.time_labels, fcis, None)

    def text(write, *args) -> str:
        buf = io.StringIO()
        write(*args, buf)
        return buf.getvalue()

    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "out"
        if op in miners:
            t = time.perf_counter()
            fcis = miners[op](matrix, 5)
            wall = time.perf_counter() - t
            out = text(write_fci_store, store_of(fcis))
        elif op == "extract":
            fcis = mine_incremental(matrix, 5)
            t = time.perf_counter()
            patterns = extract_patterns(fcis, matrix, params)
            wall = time.perf_counter() - t
            out = text(write_patterns_csv, patterns, matrix)
        else:
            fcis = mine_incremental(matrix, 5)
            patterns = extract_patterns(fcis, matrix, params)
            t = time.perf_counter()
            if op == "write_store":
                write_fci_store(store_of(fcis), path)
            else:
                write_patterns_csv(patterns, matrix, path)
            wall = time.perf_counter() - t
            out = path.read_text()
        return {"wall_s": round(wall, 4),
                "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                   / 1024, 1),
                "fcis": len(fcis),
                "digest": hashlib.sha256(out.encode()).hexdigest()[:16]}


def _label(src: Path) -> str:
    try:
        return subprocess.run(["git", "-C", str(src), "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--times", type=int, nargs="+", default=[1000, 2000])
    p.add_argument("--ops", nargs="+", choices=OPS, default=list(OPS))
    p.add_argument("--timeout", type=float, default=120.0,
                   help="seconds a cell may run before it is killed (default 120)")
    p.add_argument("--src", type=Path, default=HERE.parent / "src",
                   help="the source tree to import comove from (default this checkout's)")
    p.add_argument("--label", help="names the output file (default the short commit)")
    p.add_argument("--cell", nargs=2, metavar=("OP", "T"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.cell:
        print(json.dumps(_cell(args.cell[0], int(args.cell[1]))))
        return 0

    src = args.src.resolve()
    label = args.label or _label(src)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cells = []
    for n_times in args.times:
        for op in args.ops:
            cell = {"T": n_times, "op": op}
            try:
                proc = subprocess.run([sys.executable, __file__, "--cell", op, str(n_times)],
                                      env=env, capture_output=True, text=True,
                                      timeout=args.timeout)
                if proc.returncode:
                    cell["error"] = proc.stderr.strip().splitlines()[-1:]
                else:
                    cell.update(json.loads(proc.stdout.splitlines()[-1]))
            except subprocess.TimeoutExpired:
                cell["timeout_s"] = args.timeout
            cells.append(cell)
            wall = (f"{cell['wall_s']:.3f} s" if "wall_s" in cell else
                    f"> {args.timeout:g} s" if "timeout_s" in cell else "error")
            print(f"T={n_times:<6} {op:<15} {wall:>10} {cell.get('maxrss_mb', '-'):>8} MB "
                  f"{cell.get('fcis', '-'):>8} fcis  {cell.get('digest', '')}", flush=True)
    import numpy
    record = {"label": label, "src": str(src), "python": platform.python_version(),
              "numpy": numpy.__version__, "nproc": os.cpu_count(),
              "machine": platform.machine(), "cells": cells}
    out = Path(f"BENCH_scale_{label}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
