#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload multicast|churn|failover|verify \
        --seed N --seconds S --trace 0|1

The Go toolchain's build cache and the binary live in .bench_build/ at the
root of the checkout, so nothing is read or written outside it. The result
is the last line of standard output; the exit code is non-zero on a build
failure, a correctness violation or a run that overstays its time limit.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
RUN_LIMIT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    return env


def revision():
    """The git commit when there is one, else a digest of the Go sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH, env=go_env())
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([binary, *sys.argv[1:], "--commit", revision()], cwd=ROOT, timeout=RUN_LIMIT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_LIMIT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
