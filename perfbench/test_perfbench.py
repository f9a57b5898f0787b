"""The benchmark's own tests, on inputs small enough for the unit suite.

They pin what the benchmark relies on: counts that repeat exactly between
traced units, tracing that leaves the CLI's output and namespace as they
were, and digests that follow content rather than bytes.  Nothing here gates
on a timing.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import pytest

import comove.cli
import checks
import worker
from spans import Tracer, self_times
from workloads import TRACED_CALLS, WORKLOADS, Trajectories, synthetic, traced_cli


def small(name: str):
    wl = WORKLOADS[name]
    if name == "stream":
        return dataclasses.replace(wl, n_objects=40, base_times=40, batches=3)
    return dataclasses.replace(wl, datasets=(
        Trajectories("dense", n_objects=30, n_times=300, switch_prob=0.003),
        Trajectories("herd", n_objects=40, n_times=120, switch_prob=0.005)))


def traced_counts(wl, inputs, out, tracer):
    root = len(tracer.spans)
    with traced_cli(tracer), tracer.span("bench.unit"):
        calls = wl.unit(inputs, out)
    _, counts, _ = worker.layer_metrics(tracer.spans, root)
    return calls, counts


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_and_tracing_leaves_output_unchanged(name, tmp_path):
    wl = small(name)
    inputs = wl.setup(tmp_path / "setup", seed=3)
    before = {n: getattr(comove.cli, n) for n in TRACED_CALLS}
    tracer = Tracer("test")
    traced, counts_a = traced_counts(wl, inputs, tmp_path / "t1", tracer)
    _, counts_b = traced_counts(wl, inputs, tmp_path / "t2", tracer)
    assert {n: getattr(comove.cli, n) for n in TRACED_CALLS} == before
    assert counts_a == counts_b
    assert counts_a["ingest.rows"] > 0 and counts_a["clustering.columns"] > 0
    if name == "stream":
        assert counts_a["combine.pairs"] > 0
    else:
        assert counts_a["patterns.fcis_in"] == counts_a["miner.fcis"] > 0

    calls = wl.unit(inputs, tmp_path / "cli")
    assert all(c.rc == 0 for c in traced + calls)
    cli_dirs = wl.output_dirs(calls)
    assert worker.fingerprint(wl, wl.output_dirs(traced)) == worker.fingerprint(wl, cli_dirs)
    canon, problems = wl.check(cli_dirs, inputs, tmp_path / "check", cross_check=True)
    assert problems == [] and checks.sanity_problems(canon) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_metrics_are_the_declared_ones(name, tmp_path):
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    wl = small(name)
    clock = worker.SetupClock(wl, 1, tmp_path / "setup")
    inputs = clock.setup()
    tracer, ledger, *traced = worker.traced_run(wl, inputs, tmp_path / "traced", 0, "test")
    values, shares, problems = worker.trace_metrics(wl, tracer, *traced)
    assert not ledger.failures
    assert problems == []
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    assert sum(shares.values()) == pytest.approx(1.0)

    ledger, peak = worker.timed_run(wl, inputs, tmp_path / "timed", 0, clock.sample)
    values, samples = worker.timed_metrics(ledger, peak, clock)
    assert set(values) == set(samples) == {m["name"] for m in spec["end_to_end"]}
    assert values["success_rate"] == 1.0
    assert len(ledger.units) == 1
    assert samples["points_per_s"] == len(ledger.units[0])
    assert samples["setup_s"] == len(clock.imports) == 2
    assert all(v > 0 for v in values.values())


def test_seed_changes_inputs_but_not_shape(tmp_path):
    a, b = synthetic(20, 50, 0.01, seed=1), synthetic(20, 50, 0.01, seed=2)
    assert a.object_labels == b.object_labels
    assert not (a.xy == b.xy).all()
    assert (synthetic(20, 50, 0.01, seed=1).xy == a.xy).all()

    wl = small("mine")
    canon = {}
    for seed in (1, 2):
        inputs = wl.setup(tmp_path / f"setup{seed}", seed=seed)
        calls = wl.unit(inputs, tmp_path / f"out{seed}")
        canon[seed], problems = wl.check(wl.output_dirs(calls), inputs,
                                         tmp_path / "check", cross_check=True)
        assert problems == []
    assert checks.digest(canon[1]) != checks.digest(canon[2])
    assert checks.shape(canon[1]) == checks.shape(canon[2])
    canon[2]["herd"]["store"]["fcis"].pop()
    assert checks.shape(canon[1]) != checks.shape(canon[2])


def test_store_digest_ignores_header_and_row_order(tmp_path):
    wl = small("mine")
    inputs = wl.setup(tmp_path / "setup", seed=1)
    out = wl.unit(inputs, tmp_path / "out")[1].out_dir
    before = checks.digest(checks.canonical_output(out, patterns=True))

    store_lines = (out / "fcis.tsv").read_text().splitlines(keepends=True)
    header = [ln for ln in store_lines if ln.startswith("#")]
    body = [ln for ln in store_lines if not ln.startswith("#")]
    (out / "fcis.tsv").write_text("# format\t2\n" + "".join(header + body[::-1]))
    rows = (out / "patterns.csv").read_text().splitlines(keepends=True)
    (out / "patterns.csv").write_text("".join(rows[:1] + rows[:0:-1]))
    assert checks.digest(checks.canonical_output(out, patterns=True)) == before

    (out / "fcis.tsv").write_text("".join(header + body[1:]))
    assert checks.digest(checks.canonical_output(out, patterns=True)) != before


def test_self_time_subtracts_children():
    tracer = Tracer("test")
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
    outer, inner = tracer.spans
    own = self_times(tracer.spans)
    assert own[inner["id"]] == pytest.approx(inner["end"] - inner["start"])
    assert own[outer["id"]] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))
    assert inner["parent"] == outer["id"]
