#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline|static|daemon \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (CMake, RelWithDebInfo, into $CARGO_TARGET_DIR or
.bench_build), then runs the benchmark binary.  Build output goes to
stderr; the binary's report goes to stdout and its last line is the JSON
result.  Exits non-zero, without a result, when the library sources are
missing or the build or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def source_digest(root):
    """SHA-256 over every file under src/, in path order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir, env):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, env=env,
                          stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["pipeline", "static", "daemon"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "cico")):
        sys.exit("perfbench: run from the repository root "
                 "(src/cico not found in %s)" % root)
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # Keep compiler and run-time temporaries inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(root, ".bench_run", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build(root, build_dir, env)

    print("source: commit=%s src_digest=%s" %
          (git_commit(root), source_digest(root)), flush=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.exit(subprocess.run(cmd, cwd=root, env=env).returncode)


if __name__ == "__main__":
    main()
