#!/usr/bin/env python3
"""A/B comparison of two checkouts on the end-to-end benchmark.

    python3 bench/e2e/ab.py --parent <tree> --change <tree>
                            [--pairs 10] [--seed 1234] [--seconds S]
                            [--workloads a,b,...]

Runs `bench/e2e/run.py` of each tree for each workload, alternating which
side runs first in every pair, all on one seed. For each workload and
metric (the end_to_end list of BENCHMARK.json plus detail_metrics.json) it
prints each side's median and quartiles, the share of pairs the change
won, and a verdict (choosing-metrics guide, section 8):

  gain          at least 10 pairs ran, the change won >= 90 % of them
                (ties count for neither) and the medians differ by more
                than the parent's own quartile spread;
  regression    the change's median is worse than the parent's by more
                than the metric's bound;
  unresolved    the parent's spread exceeds the bound and not every change
                run beat every parent run;
  no regression otherwise.

Deterministic metrics compare exactly (same / CHANGED), and the workload's
result fingerprints must be equal for the bits to count as unchanged.
Exits 1 when any metric regressed or changed.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def tree_digest(tree):
    h = hashlib.sha256()
    base = tree / "bench" / "e2e"
    for f in sorted(p for p in base.rglob("*") if p.is_file()):
        if "__pycache__" in f.parts:
            continue
        h.update(str(f.relative_to(base)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, str(tree / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab.py: {tree}: {workload} failed:\n{proc.stderr}")
    return json.loads((tree / "out" / f"e2e_result_{workload}.json").read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wins_of(spec, parent, change):
    sign = 1.0 if spec["better"] == "lower" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)


def verdict(spec, parent, change):
    if spec.get("deterministic"):
        return "same" if set(parent) == set(change) and len(set(parent)) == 1 \
            else "CHANGED"
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = wins_of(spec, parent, change)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    worse = sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and abs(cmed - pmed) > pq3 - pq1):
        return f"gain ({wins}/{len(parent)} wins)"
    if worse > spec["bound"]:
        return f"REGRESSION (+{100 * worse:.1f} % > {100 * spec['bound']:.0f} %)"
    spread = (pq3 - pq1) / abs(pmed) if pmed else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > spec["bound"] and not all_better:
        return f"unresolved (parent spread {100 * spread:.1f} %)"
    return "no regression"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", default=None)
    args = parser.parse_args()
    parent, change = args.parent.resolve(), args.change.resolve()

    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    detail = json.loads((HERE / "detail_metrics.json").read_text())
    specs = [dict(m, workloads=None) for m in bench["end_to_end"]] + detail
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    if tree_digest(parent) != tree_digest(change):
        print("ab.py: warning: bench/e2e differs between the trees; the "
              "comparison is not like for like", file=sys.stderr)

    failed = False
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent if side == "parent" else change
                runs[side].append(run_once(tree, workload, args.seed,
                                           args.seconds))
        fps = {side: {r["fingerprint"] for r in runs[side]} for side in runs}
        same_bits = len(fps["parent"]) == 1 and fps["parent"] == fps["change"]
        print(f"\n== {workload}: {args.pairs} pairs, seed {args.seed}, "
              f"fingerprints {'equal' if same_bits else 'DIFFER'}")
        failed |= not same_bits
        print(f"{'metric':24s} {'unit':9s} {'parent med [q1, q3]':34s} "
              f"{'change med [q1, q3]':34s} {'wins':>6s}  verdict")
        for spec in specs:
            if spec["workloads"] is not None and workload not in spec["workloads"]:
                continue
            name = spec["name"]
            p = [r["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
            wins = wins_of(spec, p, c)
            pq, cq = quartiles(p), quartiles(c)
            pstr = f"{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
            cstr = f"{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
            v = verdict(spec, p, c)
            failed |= v.startswith(("REGRESSION", "CHANGED"))
            print(f"{name:24s} {spec['unit']:9s} {pstr:34s} {cstr:34s} "
                  f"{f'{wins}/{len(p)}':>6s}  {v}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
