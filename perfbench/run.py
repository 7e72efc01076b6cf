#!/usr/bin/env python3
"""Build and run the ibadapt benchmark (the perfbench binary).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs every workload in turn, each printing its own table and
result line.

Builds perfbench (perfbench/CMakeLists.txt, which compiles the simulator
from src/) into .bench_build/perfbench, runs it, and passes its output
through. The last line of stdout is perfbench's JSON result. Build logs go
to stderr. Records, Chrome traces and per-layer tables land in
.bench_build/results/. Exits non-zero, printing no result, when the build or
the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-sweep", "cold-fabrics", "fault-reconfig")


def git_commit(root):
    # Only ask git when the checkout is a repository itself; otherwise git
    # would search the parent directories.
    if not os.path.exists(os.path.join(root, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
        return out.stdout.strip() or "unknown"
    except (subprocess.SubprocessError, OSError):
        return "unknown"


def build(root, build_dir):
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", "2"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    out_dir = os.path.join(root, ".bench_build", "results")
    if not build(root, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(out_dir, exist_ok=True)
    commit = git_commit(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        cmd = [os.path.join(build_dir, "perfbench"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir, "--commit", commit]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        if proc.returncode != 0:
            print(f"perfbench: exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
