"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload mine --seed 1 --seconds 45 --trace 0

Run it from the root of a source checkout.  Each run starts a fresh worker
process with ``PYTHONPATH=src`` that imports comove, builds the workload's
inputs from ``--seed``, runs the workload for ``--seconds`` seconds and
checks its outputs.  Work files, the result record and the trace go under
``.perfbench/`` in the checkout.  The last line of standard output is the
result as one JSON object; with ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("mine", "stream")
TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "comove" / "__init__.py").is_file():
        print("perfbench: src/comove not found; run from the root of a comove "
              "checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state", str(root / ".perfbench")]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) \
            or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout[-2000:])
        print(f"perfbench: worker failed (exit {proc.returncode})", file=sys.stderr)
        return 4
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
