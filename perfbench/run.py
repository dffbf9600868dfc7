#!/usr/bin/env python3
"""Serving benchmark for dagperf.

Run from the root of a dagperf checkout:

    python3 perfbench/run.py --workload warm-zipf --seed 1 --seconds 10 --trace 0

Builds the `dagperf` binary and the harness (perfbench/src) into
.bench_build/, runs one workload against the real `dagperf serve` (or
`dagperf route`), prints a `meta` line and, last, the result as one JSON
object. Run artifacts (server logs, Chrome traces) go to .bench_out/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
WORKLOADS = ("warm-zipf", "cold-inline", "tuner-neighbourhood", "routed-zipf")
# The harness itself must finish well inside the per-run limit.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"
# The repository's default build type, named explicitly.
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    """Runs a build step with its output appended to `log`."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(log) as f:
            tail = f.read()[-3000:]
        fail("build step failed: %s\n%s" % (" ".join(cmd), tail))


def build(root, digest):
    """Builds the dagperf CLI and the harness; returns their paths. A stamp
    holding the source digest skips the build when nothing changed (a no-op
    `cmake --build` of the tree takes seconds)."""
    repo_build = os.path.join(root, BUILD_DIR, "dagperf")
    bench_build = os.path.join(root, BUILD_DIR, "perfbench")
    os.makedirs(os.path.join(root, BUILD_DIR), exist_ok=True)
    log = os.path.join(root, BUILD_DIR, "build.log")
    stamp = os.path.join(root, BUILD_DIR, "built-from")
    paths = (os.path.join(repo_build, "tools", "dagperf"),
             os.path.join(bench_build, "perfbench"), repo_build)
    if os.path.exists(stamp) and open(stamp).read() == digest and all(
            os.path.exists(p) for p in paths):
        return paths
    if not os.path.exists(os.path.join(repo_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", root, "-B", repo_build,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], log)
    run_logged(["cmake", "--build", repo_build, "--target", "dagperf_cli",
                "-j", BUILD_JOBS], log)
    if not os.path.exists(os.path.join(bench_build, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                    bench_build, "-DDAGPERF_SOURCE_DIR=" + root,
                    "-DDAGPERF_BUILD_DIR=" + repo_build,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], log)
    run_logged(["cmake", "--build", bench_build, "-j", BUILD_JOBS], log)
    with open(stamp, "w") as f:
        f.write(digest)
    return paths


def source_digest(root):
    """sha256 over the sources the benchmark builds (the checkout it runs in
    need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "include",
                "perfbench/CMakeLists.txt", "perfbench/src"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def meta(root, repo_build, digest, wall_s):
    git_sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            git_sha = out.stdout.strip()
    build_type, compiler = "", ""
    with open(os.path.join(repo_build, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"CMAKE_BUILD_TYPE:\w+=(.*)", line)
            if m:
                build_type = m.group(1)
            m = re.match(r"CMAKE_CXX_COMPILER:\w+=(.*)", line)
            if m:
                compiler = m.group(1)
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True)
        compiler = out.stdout.splitlines()[0] if out.stdout else compiler
    return {"git_sha": git_sha, "source_digest": digest,
            "build_type": build_type, "compiler": compiler,
            "nproc": os.cpu_count(), "run_wall_s": round(wall_s, 3)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src/service/protocol.h",
                   "tools/dagperf_cli.cc"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a dagperf checkout (missing %s)" % needed)

    start = time.monotonic()
    digest = source_digest(root)
    dagperf, harness, repo_build = build(root, digest)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dagperf", dagperf, "--out", out_dir]
    # Own process group: on a timeout the harness and every server it
    # started are killed together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("the harness did not finish within %d s" % RUN_TIMEOUT_S)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        fail("the harness failed (exit code %d)" % proc.returncode)

    info = meta(root, repo_build, digest, time.monotonic() - start)
    with open(os.path.join(out_dir, "%s-seed%d%s.meta.json" % (
            args.workload, args.seed, "-traced" if args.trace else "")), "w") as f:
        f.write(json.dumps(info) + "\n")
    for line in lines[:-1]:
        print(line)
    print("meta " + json.dumps(info))
    print(lines[-1])
    sys.stdout.flush()


if __name__ == "__main__":
    main()
