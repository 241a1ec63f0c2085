#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

A run builds the `perfbench` package from source (release profile,
offline, into $CARGO_TARGET_DIR or `.bench_build`), runs the pinned-seed
correctness gate in a process of its own, then runs the workload in a
second process, and prints that process's report. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the gate's trials and failures are added to the workload's.

Build and gate errors exit non-zero without printing a result.
`--self-test` runs the package's unit tests, checks `BENCHMARK.json`
against the metric names the program declares, and smoke-runs every
workload in both modes.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# Wall-clock budget of one workload process (the run must end within
# 180 seconds in total, gate included) and of the first build.
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo_env():
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = target_dir()
    return env


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=cargo_env(), stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def run_binary(binary, args):
    """Runs the binary from the checkout root; returns (info lines, result dict)."""
    done = subprocess.run([binary] + args, cwd=ROOT, env=cargo_env(), capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{' '.join(args)}: no output (exit {done.returncode})")
    result = json.loads(lines[-1])
    return lines[:-1], result, done.returncode


def bench(args):
    binary = build()
    if binary is None:
        return 1
    try:
        gate_info, gate, gate_rc = run_binary(binary, ["gate"])
        info, result, rc = run_binary(binary, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    result["attempted"] += gate["attempted"]
    result["failed"] += gate["failed"]
    result["correct"] = bool(result["correct"] and gate["correct"])
    for line in gate_info + info:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and rc == 0 and gate_rc == 0 else 1


# ---------------------------------------------------------------------------
# Self-tests
# ---------------------------------------------------------------------------

def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]] + list(e2e) + list(layer)
    for n in names:
        assert NAME_RE.match(n), f"bad name {n!r}"
    assert len(names) == len(set(names)), "a name is used twice"
    for u in list(e2e.values()) + list(layer.values()):
        assert UNIT_RE.match(u), f"bad unit {u!r}"
    assert e2e.get("setup_s") == "s", "setup_s must be declared in seconds"
    return spec, e2e, layer


def check_result(result, expected, label):
    assert set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}"
    assert result["correct"] is True, f"{label}: not correct"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, f"{label}: metrics differ: {set(got) ^ set(expected)}"
    for k, v in result["metrics"].items():
        assert set(v) == {"value", "unit"}, f"{label}: {k}"
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), f"{label}: {k}"


def self_test():
    spec, e2e, layer = declared_metrics()
    print("BENCHMARK.json: names, units and charset ok")
    test = subprocess.run(["cargo", "test", "--release", "--offline", "--quiet",
                           "--manifest-path", MANIFEST], cwd=ROOT, env=cargo_env())
    if test.returncode != 0:
        print("self-test: unit tests failed", file=sys.stderr)
        return 1
    for w in spec["workloads"]:
        for trace, expected in ((0, e2e), (1, layer)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                   "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S + 30)
            label = f"{w['name']} trace {trace}"
            if done.returncode != 0:
                print(f"self-test: {label} exited {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            check_result(json.loads(done.stdout.splitlines()[-1]), expected, label)
            print(f"smoke {label}: ok")
    print("self-test: ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
