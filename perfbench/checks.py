"""Output checks by content, not bytes.

``fcis.tsv`` is parsed with the program's own ``read_fci_store`` and
``patterns.csv`` as CSV rows, so a change to the store header or to column
order does not change a digest; a change to what was mined does.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from comove import read_fci_store

PATTERN_KINDS = {"closed_swarm", "convoy", "moving_cluster", "group_pattern",
                 "periodic_pattern"}


def file_hash(*paths: Path) -> str:
    """Byte hash of the given files (missing files hash as absent)."""
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes() if p.is_file() else b"<absent>")
    return h.hexdigest()


def canonical_store(path: Path) -> dict:
    store = read_fci_store(path)
    labels, times = store.object_labels, store.time_labels
    fcis = sorted(
        [[labels[i] for i in f.tidset.ids],
         [[str(times[c.time]), c.ordinal] for c in f.items]]
        for f in store.fcis)
    return {"epsilon": store.epsilon, "objects": list(labels),
            "times": [str(t) for t in times], "fcis": fcis}


def canonical_patterns(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return sorted(
        [r["kind"], sorted(r["objects"].split(";")),
         r["times"], f"{float(r['weight']):.9g}"]
        for r in rows)


def canonical_output(out_dir: Path, patterns: bool) -> dict:
    out = {"store": canonical_store(out_dir / "fcis.tsv")}
    if patterns:
        out["patterns"] = canonical_patterns(out_dir / "patterns.csv")
    return out


def digest(canon: dict) -> str:
    return hashlib.sha256(json.dumps(canon, sort_keys=True).encode()).hexdigest()


def shape(canon: dict) -> dict:
    """What a seed cannot change, per dataset of a workload's output: the
    itemset count and a digest of the multiset of (tidset size, item count)
    per itemset and of the pattern rows without their object ids.  Seeds
    only relabel objects and move the plane, so every seed of a workload has
    the same shape."""
    out = {}
    for name, output in sorted(canon.items()):
        sizes = sorted([len(members), len(items)]
                       for members, items in output["store"]["fcis"])
        rows = sorted([kind, len(objects), times, weight]
                      for kind, objects, times, weight in output.get("patterns", []))
        out[name] = {"fcis": len(sizes),
                     "digest": digest({"sizes": sizes, "patterns": rows})}
    return out


def sanity_problems(canon: dict) -> list[str]:
    """Properties every correct mining output has, whatever the seed, for
    each dataset of a workload's output."""
    return [f"{name}: {problem}" for name, output in sorted(canon.items())
            for problem in output_problems(output)]


def output_problems(output: dict) -> list[str]:
    """Each itemset is frequent, no two closed itemsets share a tidset, at
    most one cluster per time unit, and every pattern row is well formed."""
    store = output["store"]
    problems = []
    if not store["fcis"]:
        problems.append("no itemsets")
    tidsets = [tuple(members) for members, _ in store["fcis"]]
    if len(set(tidsets)) != len(tidsets):
        problems.append("two itemsets share a tidset")
    for members, items in store["fcis"]:
        if len(members) < store["epsilon"]:
            problems.append(f"itemset below epsilon: {members}")
            break
        if len({t for t, _ in items}) != len(items):
            problems.append(f"two clusters at one time unit: {items[:4]}")
            break
    for kind, objects, times, weight in output.get("patterns", []):
        if kind not in PATTERN_KINDS or not objects or not times \
                or not 0.0 < float(weight) <= 1.0:
            problems.append(f"malformed pattern row: {kind} {times} {weight}")
            break
    return problems
