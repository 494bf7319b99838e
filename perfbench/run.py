#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload tree_read|dashboard|ingest \
        --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles ../src) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs the benchmark binary under a wall-clock deadline. Build output
goes to stderr; the binary's report goes to stdout, ending with one JSON
line. Exits non-zero, printing no result, when the sources are missing, the
build fails, or the workload overruns its deadline.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = "RelWithDebInfo"
# A hang (a deadlocked read, a livelocked pump) fails the run and names the
# workload instead of stalling whoever runs the benchmark.
DEADLINE_S = 150


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Hash of every source the benchmark builds, so a result names its code
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(build_dir):
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler scratch files inside the checkout
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tree_read", "dashboard", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no sensorcer sources under {ROOT}/src; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = target if os.path.isabs(target) else os.path.join(ROOT, target)
    binary = build(os.path.join(build_root, "perfbench"))

    trace_dir = os.path.join(build_root, "perfbench", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace-out",
               os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl"),
               "--stamp", f"commit={git_commit()}",
               "--stamp", f"source={source_digest()}"]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded its {DEADLINE_S} s deadline "
             f"(seed {args.seed}); no result", code=3)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        fail(f"workload {args.workload} exited with {done.returncode}",
             code=done.returncode if done.returncode > 0 else 4)


if __name__ == "__main__":
    main()
