#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs one workload.

    python3 perf/run.py --workload vbf_scan --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perf (an
incremental rebuild is a no-op); its log goes to stderr so that the last
line of stdout stays the benchmark's JSON result. Exits non-zero without a
result when the build fails, e.g. in a directory without the library's
sources.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perf")
BINARY = os.path.join(BUILD, "tvbf_perf")
JOBS = "3"


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perf"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "tvbf_perf",
                  "-j", JOBS])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def source_digest():
    """SHA-256 over the library sources: identifies the code under test
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not build():
        print("perf/run.py: build failed", file=sys.stderr)
        return 2
    env = dict(os.environ, PERF_GIT_COMMIT=git_commit(),
               PERF_SOURCE_DIGEST=source_digest())
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT,
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
