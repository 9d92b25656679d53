#!/usr/bin/env python3
"""ctest for the end-to-end benchmark: one reduced-length traced run of
every workload (`e2e_bench --smoke --trace 1`), checking that

1. every metric named in BENCHMARK.json (end_to_end and per_layer) and in
   detail_metrics.json is emitted with its unit, and every correctness
   check of the run passed;
2. the mirrored tick loop reproduced `ExperimentRunner::run` bit for bit:
   the run's traced_equals_untraced check covers a 1-lap SynPF race and a
   1-lap CartoLite race (table1) and kidnap cells (matrix_smoke), and this
   script asserts those operations were really traced;
3. span self times plus harness.unattributed sum to the measured total,
   per operation and per workload.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark-json", required=True)
    args = parser.parse_args()
    bench = json.loads(Path(args.benchmark_json).read_text())
    detail = json.loads((HERE / "detail_metrics.json").read_text())
    out_dir = Path.cwd() / "smoke_out"
    errors = []

    def expect(ok, message):
        if not ok:
            errors.append(message)

    for workload in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [args.binary, "--workload", workload, "--smoke", "--trace", "1",
             "--out", str(out_dir)],
            capture_output=True, text=True, timeout=500)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 2) or not lines:
            errors.append(f"{workload}: exit {proc.returncode}: {proc.stderr}")
            continue
        doc = json.loads(lines[-1])
        for name, ok in doc["checks"].items():
            expect(ok, f"{workload}: check {name} failed")
        expected = [(m["name"], m["unit"], "metrics") for m in bench["end_to_end"]]
        expected += [(m["name"], m["unit"], "per_layer") for m in bench["per_layer"]]
        expected += [(m["name"], m["unit"], "metrics") for m in detail
                     if workload in m["workloads"]]
        for name, unit, section in expected:
            got = doc.get(section, {}).get(name)
            expect(got is not None and got["unit"] == unit,
                   f"{workload}: {section} metric {name} [{unit}] missing")
        expect("traced_equals_untraced" in doc["checks"],
               f"{workload}: no mirror check ran")

        trace = json.loads((out_dir / f"e2e_trace_{workload}.json").read_text())
        layers = {k: v["value"] for k, v in trace["per_layer"].items()}
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s")
                       and not k.startswith("setup."))
        setup_in_ops = sum(
            op["self_s"].get(k[:-len(".self_s")], 0.0)
            for op in trace["ops"] for k in layers
            if k.startswith("setup.") and k.endswith(".self_s"))
        total = layers["harness.total_s"]
        accounted = self_sum + setup_in_ops + layers["harness.unattributed_s"]
        expect(abs(accounted - total) <= 1e-6 * max(total, 1.0),
               f"{workload}: spans + unattributed = {accounted} != {total}")
        for op in trace["ops"]:
            op_sum = sum(op["self_s"].values()) + op["unattributed_s"]
            expect(abs(op_sum - op["wall_s"]) <= 1e-6 * max(op["wall_s"], 1.0),
                   f"{workload}: op {op['op']} does not add up")
        labels = [op["op"] for op in trace["ops"]]
        if workload == "table1":
            for race in ("SynPF/HQ", "CartoLite/HQ"):
                expect(race in labels, f"table1: {race} race not traced")
        if workload == "matrix_smoke":
            expect(any("kidnap" in label for label in labels),
                   "matrix_smoke: no kidnap cell traced")

    for e in errors:
        print("FAIL:", e)
    print("e2e smoke:", "FAILED" if errors else "ok")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
