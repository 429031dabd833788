#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call builds perfbench/ (and the
checker sources under src/) in Release into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally. The
benchmark refuses any build type other than Release.

Standard output is a human-readable report (every metric by name with its
unit, the seed, core count, build type, compiler and commit, and whether
each timing is wall time) followed, as its last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is non-zero, and no JSON line is
printed, when the build fails, a verdict differs from the reference, or an
operation fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_build_step(cmd):
    # Build chatter goes to stderr so stdout stays the report.
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                   timeout=BUILD_TIMEOUT_S)


def build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_build_step(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator)
    if build_type(build_dir) != "Release":
        raise RuntimeError("refusing a non-Release build in " + build_dir)
    run_build_step(["cmake", "--build", build_dir, "--parallel", "4"])
    return os.path.join(build_dir, "perfbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--txns", type=int, default=0,
                    help="override the workload's size (smoke tests)")
    ap.add_argument("--trace-out", default="",
                    help="write the traced pass's spans to this TSV file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (subprocess.SubprocessError, OSError, RuntimeError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    work_dir = os.path.join(ROOT, ".bench_work",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.txns:
        cmd += ["--txns", str(args.txns)]
    if args.trace_out:
        cmd += ["--trace-out", os.path.abspath(args.trace_out)]
    try:
        # run() waits for the child, and kills and reaps it on timeout.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: exit code %d" % proc.returncode)
        return proc.returncode or 1
    res = json.loads(lines[-1])
    if res["build_type"] != "Release":
        log("perfbench: refusing build type " + res["build_type"])
        return 1
    bad = [m["name"] for m in wanted
           if res["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
    if bad:
        log("perfbench: metrics missing or in another unit: " + ", ".join(bad))
        return 1

    print("perfbench workload=%s seed=%d seconds=%d trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("  nproc=%d build=%s compiler=%s commit=%s" %
          (res["nproc"], res["build_type"], res["compiler"], commit()))
    for name, m in res["metrics"].items():
        print("  %-34s %16.6f %-6s (%s)" %
              (name, m["value"], m["unit"], m["timing"]))
    print("  attempted=%d failed=%d" % (res["attempted"], res["failed"]))
    for note in res["notes"]:
        print("  note: " + note)
    out = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
