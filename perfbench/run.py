#!/usr/bin/env python3
"""Builds the sweep engine and the perfbench harness from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default `.bench_build`);
scratch stores go to `.bench_work`. The harness prints `metric NAME VALUE UNIT` lines and,
as its last line, one JSON result object; see perfbench/README.md.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds `sweep` (repository workspace) and `perfbench` (its own workspace)."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at the repository root; nothing to build")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "local-engine", "--bin", "sweep"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        command = ["cargo", "build", "--release", "--offline", "--quiet",
                   "--manifest-path", manifest] + extra
        # Build output goes to stderr so stdout stays the harness's own.
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(command))
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "sweep")


def harness_args(sweep, extra):
    return ["--sweep-bin", sweep, "--reference", os.path.join(HERE, "reference.txt"),
            "--work-dir", os.path.join(ROOT, ".bench_work")] + extra


def run_harness(harness, sweep, extra):
    """Runs the harness and returns (exit code, stdout lines)."""
    done = subprocess.run([harness] + harness_args(sweep, extra), stdout=subprocess.PIPE,
                          text=True)
    return done.returncode, done.stdout.splitlines()


def self_test(harness, sweep):
    """Tiny-size run of every workload in both modes, then a daemon fault drill."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            name = workload["name"]
            code, lines = run_harness(harness, sweep, [
                "--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                "--tiny"])
            if code != 0 or not lines:
                problems.append(f"{name} trace {trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            printed = {l.split()[1]: l.split()[3] for l in lines if l.startswith("metric ")}
            for metric in spec[section]:
                if printed.get(metric["name"]) != metric["unit"]:
                    problems.append(f"{name} trace {trace}: {metric['name']} not printed "
                                    f"with unit {metric['unit']}")
                if result["metrics"].get(metric["name"], {}).get("unit") != metric["unit"]:
                    problems.append(f"{name} trace {trace}: {metric['name']} missing from "
                                    "the result object")
            if set(result["metrics"]) != {m["name"] for m in spec[section]}:
                problems.append(f"{name} trace {trace}: result metrics differ from "
                                f"BENCHMARK.json {section}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{name} trace {trace}: output check failed")
            print(f"self-test: {name} trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} cells checked")

    # Every daemon dies at its fifth result line: the cells it never sent must come back
    # through the in-process rescue, and the report must still be complete and correct.
    code, lines = run_harness(harness, sweep, [
        "--workload", "small-cells-network", "--seed", "1", "--seconds", "1", "--trace", "1",
        "--tiny", "--daemon-faults", "kill@5"])
    if code != 0 or not lines:
        problems.append(f"fault drill: exit {code}")
    else:
        result = json.loads(lines[-1])
        rescued = result["metrics"]["transport.rescued"]["value"]
        if rescued <= 0 or result["failed"] != 0:
            problems.append(f"fault drill: rescued {rescued}, failed {result['failed']}")
        print(f"self-test: kill@5 fault drill: {rescued:.0f} cells rescued, "
              f"{result['failed']} failed")
    for problem in problems:
        print("self-test FAILED: " + problem)
    return 1 if problems else 0


def main():
    harness, sweep = build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test(harness, sweep))
    # The result line must be the last stdout line, so stdout passes straight through.
    sys.exit(subprocess.run([harness] + harness_args(sweep, sys.argv[1:])).returncode)


if __name__ == "__main__":
    main()
