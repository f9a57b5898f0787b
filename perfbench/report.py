"""Run every workload and print every end-to-end metric in one table.

    python3 perfbench/report.py --seeds 1 2 3 --seconds 45
    python3 perfbench/report.py --seeds 1 --seconds 1 --record

Each (workload, seed) is one ``run.py`` run.  The table gives, per workload
and metric, the median over seeds with its unit and sample count (calls
timed; ``setup_s`` counts set-ups).  ``--record`` stores each correct run's
output digest in ``digests.json``, so later runs on that seed compare the
output with it instead of the cross-checks, and stores each workload's
seed-invariant output shape if none is recorded yet.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    samples, check = {}, {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, _, n = line.split()
            samples[name] = int(n[2:])
        elif line.startswith("check "):
            check = json.loads(line[len("check "):])
    return json.loads(lines[-1]), samples, check


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--record", action="store_true",
                   help="store output digests of correct runs in digests.json")
    args = p.parse_args(argv)

    digests_path = HERE / "digests.json"
    digests = json.loads(digests_path.read_text())
    all_correct = True
    print(f"{'workload':10s} {'metric':14s} {'median':>14s} {'unit':9s} "
          f"{'samples':>7s} {'errors':>6s}")
    for workload in WORKLOADS:
        values: dict[str, list] = {}
        units, samples, attempted, failed = {}, {}, 0, 0
        for seed in args.seeds:
            result, n, check = run(workload, seed, args.seconds)
            all_correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
                samples[name] = samples.get(name, 0) + n.get(name, 1)
            if args.record and result["correct"]:
                digests["content"].setdefault(workload, {})[str(seed)] = check["digest"]
                digests["shape"].setdefault(workload, check["shape"])
        for name, vals in values.items():
            print(f"{workload:10s} {name:14s} {statistics.median(vals):14.4f} "
                  f"{units[name]:9s} {samples[name]:7d} {failed:3d}/{attempted}")
    if args.record:
        digests_path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
