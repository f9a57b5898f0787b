"""One benchmark run, in a fresh process started by ``run.py``.

Set-up (importing comove, generating inputs, mining the base store of
``stream``) is untimed and reported as ``setup_s``.  Then a closed loop with
one caller runs the workload's unit again and again, each ``main()`` call
timed on its own, until ``--seconds`` have passed.  Between units the set-up
is timed again, so its samples span the run as the timed calls do.  Outputs are checked by content after the
loop.  With ``--trace 1`` the loop alternates a traced unit (the same CLI
calls, with the CLI's layer functions wrapped in spans) with an untraced
one, and only per-layer metrics are reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

import checks
from spans import Tracer, descendants, rss_mb, self_times
from workloads import WORKLOADS, traced_cli

HERE = Path(__file__).resolve().parent
# Set-up samples per timed run: the one whose inputs the run uses, then one
# after each unit until there are this many.
SETUP_SAMPLES = 7
LAYERS = ("cli", "ingest", "clustering", "miner", "incremental", "combine",
          "patterns", "store")
# Per-layer timings: metric name -> span name, summed over a traced unit.
LAYER_TIMES = {
    "ingest.parse_s": "ingest.parse",
    "ingest.interpolate_s": "ingest.interpolate",
    "ingest.periodic_decompose_s": "ingest.periodic_decompose",
    "clustering.build_s": "clustering.build",
    "miner.mine_fci_s": "miner.mine_fci",
    "incremental.mine_incremental_s": "incremental.mine_incremental",
    "incremental.mine_parameter_free_s": "incremental.mine_parameter_free",
    "combine.combine_s": "combine.combine",
    "store.read_fci_s": "store.read_fci",
    "store.write_fci_s": "store.write_fci",
    "store.write_patterns_csv_s": "store.write_patterns_csv",
    "patterns.extract_s": "patterns.extract",
}
# Per-layer counts: metric name -> span attribute, summed over a traced unit.
LAYER_COUNTS = {
    "ingest.rows": "rows",
    "clustering.points": "points",
    "clustering.columns": "columns",
    "miner.distinct_masks": "distinct_masks",
    "miner.fcis": "fcis",
    "combine.pairs": "pairs",
    "combine.new": "new",
    "combine.absorbed_existing": "absorbed_existing",
    "combine.stops": "stops",
    "store.fci_bytes": "fci_bytes",
    "store.fci_items": "fci_items",
    "patterns.fcis_in": "fcis_in",
    "patterns.item_visits": "item_visits",
    "patterns.out": "out",
}


def environment(args) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        src.update(str(path).encode())
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "commit": commit,
            "src_sha256": src.hexdigest()}


def fingerprint(wl, dirs: dict[str, Path]) -> dict[str, str]:
    """Byte hash of each job's output files."""
    return {label: checks.file_hash(*(d / f for f in wl.output_files))
            for label, d in dirs.items()}


class Ledger:
    """Every timed call of a run, with the reason each failed call failed."""

    def __init__(self, wl):
        self.wl = wl
        self.units: list[list] = []
        self.reference: dict[str, str] | None = None
        self.failures: dict[int, str] = {}  # id(call) -> reason

    def add(self, calls: list, work: Path):
        """Record a unit's calls; compare its output bytes with the first
        unit's, then delete it unless it is the first."""
        for c in calls:
            if c.rc != 0:
                self.failures[id(c)] = f"exit {c.rc}: {c.error.strip()[-200:]}"
        fp = fingerprint(self.wl, self.wl.output_dirs(calls))
        if self.reference is None:
            self.reference = fp
        else:
            for c in calls:
                if fp[c.label] != self.reference[c.label] and id(c) not in self.failures:
                    self.failures[id(c)] = "output differs from the first unit's"
            shutil.rmtree(work, ignore_errors=True)
        self.units.append(calls)

    def fail_all(self, reason: str):
        for c in self.calls:
            self.failures.setdefault(id(c), reason)

    @property
    def calls(self) -> list:
        return [c for unit in self.units for c in unit]


def check_outputs(wl, ledger: Ledger, inputs: dict, work: Path, seed: int) -> dict:
    """Checks the first unit's output by content.  With a digest recorded for
    this workload and seed the content must match it; otherwise the
    workload's cross-check runs and the invariants of any correct output
    must hold.  Either way the seed-invariant shape must match the one
    recorded for the workload."""
    expected = json.loads((HERE / "digests.json").read_text())
    recorded = expected["content"].get(wl.name, {}).get(str(seed))
    canon, problems = wl.check(wl.output_dirs(ledger.units[0]), inputs,
                               work / "check", cross_check=recorded is None)
    found, found_shape = checks.digest(canon), checks.shape(canon)
    if recorded is not None:
        how = "recorded digest"
        if found != recorded:
            problems.append("output digest differs from the recorded one")
    else:
        how = "cross-check and invariants"
        problems += checks.sanity_problems(canon)
    want_shape = expected["shape"].get(wl.name)
    if want_shape is not None and found_shape != want_shape:
        problems.append(f"output shape {found_shape} differs from the recorded "
                        f"{want_shape}")
    if problems:
        ledger.fail_all("; ".join(problems))
    return {"how": how, "digest": found, "recorded": recorded,
            "shape": found_shape, "problems": problems}


def layer_metrics(spans: list[dict], root: int) -> tuple[dict, dict, dict]:
    """(timings, counts, layer shares) of one traced unit."""
    unit = descendants(spans, root)
    own = self_times(unit)
    times = {m: sum((s["end"] - s["start"] for s in unit if s["name"] == name), 0.0)
             for m, name in LAYER_TIMES.items()}
    times["cli.glue_s"] = sum(own[s["id"]] for s in unit
                              if s["name"] == "cli.main")
    counts = {m: sum(s["attrs"].get(attr, 0) for s in unit)
              for m, attr in LAYER_COUNTS.items()}
    clustering = [s["attrs"] for s in unit if s["name"] == "clustering.build"]
    counts["clustering.max_snapshot_points"] = max(
        (a["max_snapshot_points"] for a in clustering), default=0)
    clustered = sum(a["clustered"] for a in clustering)
    counts["clustering.clustered_ratio"] = (
        clustered / counts["clustering.points"] if counts["clustering.points"] else 0.0)
    counts["combine.yield"] = (
        counts["combine.new"] / counts["combine.pairs"] if counts["combine.pairs"] else 0.0)
    total = spans[root]["end"] - spans[root]["start"]
    shares = {layer: sum(own[s["id"]] for s in unit
                         if s["name"].split(".")[0] == layer) / total
              for layer in LAYERS + ("bench",)}
    return times, counts, shares


def layer_peaks(spans: list[dict], root: int) -> dict:
    unit = descendants(spans, root)
    return {f"{layer}.peak_rss_mb": max(
        (s["attrs"]["peak_rss_mb"] for s in unit
         if s["name"].split(".")[0] == layer), default=0.0)
        for layer in LAYERS}


class SetupClock:
    """Samples of the set-up time.  An import sample is a fresh interpreter
    importing ``comove.cli``; a set-up sample is the workload's set-up in a
    directory of its own.  ``setup_s`` is the median of each, summed."""

    def __init__(self, wl, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.imports: list[float] = []
        self.setups: list[float] = []

    def setup(self) -> dict:
        """Times one set-up and one import; returns the set-up's inputs."""
        t = time.monotonic()
        inputs = self.wl.setup(self.work / f"setup{len(self.setups)}", self.seed)
        self.setups.append(time.monotonic() - t)
        t = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", "import comove.cli"])
        # wait() with a timeout polls every 50 ms and would round the sample
        # up to that; a timer kills a hung import instead.
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        self.imports.append(time.monotonic() - t)
        if rc != 0:
            raise RuntimeError(f"importing comove.cli failed (exit {rc})")
        return inputs

    def sample(self):
        """Times one more set-up and import, unless there are enough."""
        if len(self.setups) < SETUP_SAMPLES:
            self.setup()
            shutil.rmtree(self.work / f"setup{len(self.setups) - 1}")

    @property
    def seconds(self) -> float:
        return statistics.median(self.imports) + statistics.median(self.setups)


def timed_run(wl, inputs: dict, work: Path, seconds: float, between=lambda: None):
    """Runs units until ``seconds`` have passed, calling ``between`` after
    each.  Returns the ledger and the peak RSS after the first unit: how
    many units fit in a run depends on the host's speed, and each later unit
    can raise the peak a little, so only the first unit's peak is steady."""
    ledger = Ledger(wl)
    peak = None
    start = time.monotonic()
    while not ledger.units or time.monotonic() - start < seconds:
        out = work / f"unit{len(ledger.units)}"
        ledger.add(wl.unit(inputs, out), out)
        peak = peak or rss_mb()
        between()
    return ledger, peak


def traced_run(wl, inputs: dict, work: Path, seconds: float, run_id: str):
    """Alternate traced and untraced units, traced first, so the per-layer
    memory peaks come from a traced unit that no untraced unit preceded.
    Every unit, traced or not, goes into one ledger, so a traced unit must
    write the same bytes as the untraced ones."""
    tracer = Tracer(run_id)
    ledger = Ledger(wl)
    roots, untraced, matrix = [], [], None
    start = time.monotonic()
    while not roots or time.monotonic() - start < seconds:
        roots.append(len(tracer.spans))
        out = work / f"unit{len(ledger.units)}"
        with traced_cli(tracer) as last, tracer.span("bench.unit"):
            calls = wl.unit(inputs, out)
        ledger.add(calls, out)
        if matrix is None:
            matrix = last.get("build_cluster_matrix")
        out = work / f"unit{len(ledger.units)}"
        untraced.append(wl.unit(inputs, out))
        ledger.add(untraced[-1], out)
    return tracer, ledger, roots, untraced, matrix


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def timed_metrics(ledger: Ledger, peak: float, clock: SetupClock) -> tuple[dict, dict]:
    """(metric values, sample counts) of an untraced run."""
    calls = ledger.calls
    n = len(calls)
    values = {
        "points_per_s": sum(c.points for c in calls) / sum(c.seconds for c in calls),
        "peak_rss_mb": peak,
        "success_rate": 1 - len(ledger.failures) / n,
        "setup_s": clock.seconds,
    }
    samples = {"points_per_s": n, "peak_rss_mb": 1, "success_rate": n,
               "setup_s": len(clock.setups)}
    return values, samples


def trace_metrics(wl, tracer: Tracer, roots: list[int], untraced: list[list], matrix) -> tuple[dict, dict, list[str]]:
    """(metric values, layer shares, problems) of a traced run."""
    per_unit = [layer_metrics(tracer.spans, r) for r in roots]
    counts = [c for _, c, _ in per_unit]
    problems = ([] if all(c == counts[0] for c in counts)
                else ["counts differ between traced units"])
    unit_totals = [tracer.spans[r]["end"] - tracer.spans[r]["start"] for r in roots]
    untraced_totals = [sum(c.seconds for c in unit) for unit in untraced]
    values = {m: statistics.median(t[m] for t, _, _ in per_unit) for m in per_unit[0][0]}
    values["cli.main_s"] = statistics.median(untraced_totals)
    values["trace.overhead_s"] = (statistics.median(unit_totals)
                                  - statistics.median(untraced_totals))
    values.update(counts[0])
    values["incremental.local_fcis"] = wl.local_fcis(matrix)
    values.update(layer_peaks(tracer.spans, roots[0]))
    shares = {layer: statistics.median(s[layer] for _, _, s in per_unit)
              for layer in per_unit[0][2]}
    return values, shares, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--state", required=True,
                   help="directory for work files, results and traces")
    args = p.parse_args(argv)
    units = declared_metrics(args.trace)
    wl = WORKLOADS[args.workload]
    state = Path(args.state)
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    work = state / "work" / f"{tag}-{os.getpid()}"
    for sub in ("results", "traces"):
        (state / sub).mkdir(parents=True, exist_ok=True)
    report = {"env": environment(args)}
    try:
        clock = SetupClock(wl, args.seed, work)
        inputs = clock.setup()
        if args.trace:
            tracer, ledger, *traced = traced_run(
                wl, inputs, work, args.seconds, f"{tag}-{os.getpid()}")
        else:
            ledger, peak = timed_run(wl, inputs, work, args.seconds, clock.sample)
        report["setup_samples_s"] = {"import": clock.imports, "setup": clock.setups}
        report["check"] = check_outputs(wl, ledger, inputs, work, args.seed)
        if args.trace:
            values, report["shares"], problems = trace_metrics(
                wl, tracer, *traced)
            samples = {m: len(traced[0]) for m in values}
            tracer.write_jsonl(state / "traces" / f"{tag}.jsonl")
        else:
            values, samples = timed_metrics(ledger, peak, clock)
            problems = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not "
                         "match BENCHMARK.json")
    problems += report["check"]["problems"]
    calls = ledger.calls
    report.update(
        samples=samples, problems=problems,
        error_rate=len(ledger.failures) / len(calls),
        failures=sorted(set(ledger.failures.values())),
        calls=[[c.label, c.seconds, c.rc] for c in calls])
    result = {"correct": not problems and not ledger.failures,
              "attempted": len(calls), "failed": len(ledger.failures),
              "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()}}
    report["result"] = result
    (state / "results" / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print("env " + json.dumps(report["env"]))
    for m, u in units.items():
        print(f"metric {m} {values[m]!r} {u} n={samples[m]}")
    if args.trace:
        print("shares " + json.dumps({k: round(v, 4) for k, v in report["shares"].items()}))
    print("check " + json.dumps({**report["check"], "error_rate": report["error_rate"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
