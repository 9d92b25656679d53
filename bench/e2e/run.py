#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 bench/e2e/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Builds bench/e2e (and with it the repo's libraries) into .bench_build/e2e
on first use, runs the workload in its own process from the repository
root, echoes every metric line, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json, with --trace 1 the
per_layer list. Exits 1 when a correctness check fails or the build or run
breaks (then without the JSON line).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "e2e_bench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    (make and compiler children included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"{ROOT / 'src'} is missing: the benchmark builds the repo "
             "from source and needs a full checkout")
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "e2e_bench"])
    for step in steps:
        code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail(f"build step failed: {' '.join(step)}")


def git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git work tree of
    its own (an exported tree inside some other repository included)."""
    try:
        top, sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        return "unknown"
    return sha if Path(top).resolve() == ROOT else "unknown"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float,
                        default=float(bench["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced run length (ctest)")
    args = parser.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--out", str(ROOT / "out")]
    if args.smoke:
        cmd.append("--smoke")
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code not in (0, 2) or not lines:
        fail(f"e2e_bench exited with code {code}")
    full = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    section = "per_layer" if args.trace else "metrics"
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        got = full.get(section, {}).get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} missing or not in {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(full["correct"]),
                      "attempted": int(full["attempted"]),
                      "failed": int(full["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if full["correct"] else 1)


if __name__ == "__main__":
    main()
