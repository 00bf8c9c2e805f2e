#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the MIE
libraries (../src) and the perfbench program (perfbench/main.cpp) with
CMake under .bench_build/perfbench; later runs only rebuild what changed.
One run sets up the workload's serving stack, measures it for --seconds,
checks its end state and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. The metrics are the
`end_to_end` list of BENCHMARK.json with --trace 0 and its `per_layer` list
with --trace 1. The program's full report (environment, workload as run,
every metric) is printed above that line and kept under .bench_out/.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the perfbench program; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    compiled = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def run_program(binary, args):
    """Runs one workload; returns its report dict."""
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--state-dir", str(ROOT / ".bench_state"),
               "--out-dir", str(ROOT / ".bench_out")]
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with code {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        return json.loads(lines[-1])["report"]
    except (ValueError, KeyError):
        fail("perfbench printed no report")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir.resolve() / "perfbench")
    report = run_program(binary, args)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        got = report["metrics"].get(entry["name"])
        if got is None:
            fail(f"perfbench reported no metric {entry['name']}")
        value = got["value"]
        if value is None or not math.isfinite(value):
            if args.trace == 0:
                fail(f"end-to-end metric {entry['name']} has no value")
            # A layer this workload does not use did no work.
            value = 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
