#!/usr/bin/env python3
"""Build and run the dmac performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload gnmf-inproc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

A run builds the benchmark and the `dmac-workerd` daemon in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs one workload.
Notes go to standard output first and the last line is the JSON result.
The exit code is non-zero when the build fails or any op or check fails.

`--selftest` runs every workload briefly, twice untraced and twice
traced, and checks that every op succeeded, that the exact counts repeat
exactly, and that each run reports the metrics BENCHMARK.json lists.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gnmf-inproc", "gnmf-socket", "serve-mix"]
# A run ends on its own within 3 * seconds + 10 s of timing plus set-up.
RUN_TIMEOUT_S = 175
# Counts that must repeat exactly between two runs of the same seed.
EXACT_END_TO_END = ["wire_bytes_per_op", "peak_resident_bytes"]
EXACT_PER_LAYER = [
    "cluster.frames_per_op",
    "cluster.frame_bytes_per_op",
    "matrix.gemm_flops_per_op",
]


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the benchmark and the worker daemon; False on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "dmac-perfbench", "-p", "dmac", "--bins",
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def bench_cmd(args):
    release = os.path.join(target_dir(), "release")
    return [os.path.join(release, "dmac-perfbench")] + args


def bench_env():
    workerd = os.path.join(target_dir(), "release", "dmac-workerd")
    return dict(os.environ, DMAC_WORKERD=workerd)


def flag(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def run(args):
    if flag(args, "--trace") == "1" and "--trace-file" not in args:
        name = f"trace-{flag(args, '--workload')}-seed{flag(args, '--seed')}.json"
        args = args + ["--trace-file", os.path.join(target_dir(), "perfbench", name)]
    try:
        return subprocess.run(
            bench_cmd(args), cwd=ROOT, env=bench_env(), timeout=RUN_TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def run_json(args):
    """Run once and return (exit code, parsed result line)."""
    p = subprocess.run(
        bench_cmd(args), cwd=ROOT, env=bench_env(), timeout=RUN_TIMEOUT_S,
        stdout=subprocess.PIPE, text=True,
    )
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


def declared_metrics():
    """Metric names and units per trace mode, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in (("0", "end_to_end"), ("1", "per_layer"))
    }


def selftest():
    failures = []
    declared = declared_metrics()
    for w in WORKLOADS:
        for trace, exact, seconds in (("0", EXACT_END_TO_END, "1"), ("1", EXACT_PER_LAYER, "2")):
            trace_file = os.path.join(target_dir(), "perfbench", f"selftest-{w}.json")
            args = ["--workload", w, "--seed", "7", "--seconds", seconds, "--trace", trace,
                    "--min-ops", "5", "--trace-file", trace_file]
            runs = [run_json(args) for _ in range(2)]
            for code, res in runs:
                if code != 0 or not res or not res["correct"] or res["failed"] != 0:
                    failures.append(f"{w} trace {trace}: exit {code}, result {res}")
            if failures:
                continue
            (_, a), (_, b) = runs
            got = {k: v["unit"] for k, v in a["metrics"].items()}
            if got != declared[trace]:
                failures.append(f"{w} trace {trace}: metrics {got} differ from BENCHMARK.json")
            if trace == "0" and a["metrics"]["success_frac"]["value"] != 1:
                failures.append(f"{w}: success_frac {a['metrics']['success_frac']}")
            for m in exact:
                va, vb = a["metrics"][m]["value"], b["metrics"][m]["value"]
                status = "ok" if va == vb else "MISMATCH"
                print(f"{w:12} {m:28} {va} / {vb} {status}")
                if va != vb:
                    failures.append(f"{w}: {m} read {va} then {vb}")
            if trace == "1":
                with open(trace_file) as f:
                    if not json.load(f)["traceEvents"]:
                        failures.append(f"{w}: empty trace file")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return selftest() if args == ["--selftest"] else run(args)


if __name__ == "__main__":
    sys.exit(main())
