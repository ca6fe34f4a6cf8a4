#!/usr/bin/env python3
"""Builds and runs the ImageProof benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The harness is the Rust package next to this file. It is built in release
mode (into $CARGO_TARGET_DIR, default .bench_build) and run once; its
output is passed through. The last line it prints must be the JSON result
described in BENCHMARK.json, and it is checked here before it is passed
on: exit code 0 means a well-formed result line was printed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "imageproof-perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    """`{name: unit}` a run with this trace flag must report."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, spec, trace):
    """Parses the result line and checks it against the contract; returns
    the parsed object or raises ValueError."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        raise ValueError(f"last line is not JSON: {e}") from None
    if not isinstance(result, dict):
        raise ValueError("result is not an object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("attempted/failed out of range")
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        missing = sorted(set(want) - set(got or {}))
        extra = sorted(set(got or {}) - set(want))
        raise ValueError(f"metrics differ: missing {missing}, unexpected {extra}")
    for name, metric in got.items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} is not {{value, unit}}")
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"metric {name} is not a number")
        if metric["unit"] != want[name]:
            raise ValueError(f"metric {name} has unit {metric['unit']}, want {want[name]}")
    return result


def parse_args(argv):
    flags = {"--workload": None, "--seed": None, "--seconds": None, "--trace": None}
    it = iter(argv)
    for flag in it:
        if flag not in flags:
            raise ValueError(f"unknown flag {flag}")
        flags[flag] = next(it, None)
    for flag, value in flags.items():
        if value is None:
            raise ValueError(f"{flag} needs a value")
    if flags["--trace"] not in ("0", "1"):
        raise ValueError("--trace takes 0 or 1")
    return flags


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build chatter goes to stderr; stdout carries only the benchmark.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return done.returncode == 0


def main(argv):
    try:
        flags = parse_args(argv)
        spec = load_spec()
    except (ValueError, OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if flags["--workload"] not in names:
        print(f"run.py: unknown workload; one of {names}", file=sys.stderr)
        return 2

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    try:
        if not build(target_dir):
            print("run.py: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 1

    binary = os.path.join(target_dir, "release", BINARY)
    cmd = [binary] + [x for pair in flags.items() for x in pair]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines) + "\n")
        print(f"run.py: benchmark exited with {done.returncode}", file=sys.stderr)
        return 1
    try:
        check_result(lines[-1], spec, flags["--trace"] == "1")
    except ValueError as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"run.py: bad result line: {e}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
