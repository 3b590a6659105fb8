#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_sweep|serve_mixed|cluster_gen \
        --seed N --seconds N --trace 0|1

Run from the repository root.  Builds perfbench/ (which compiles the
simulator libraries from src/) into .bench_build/perfbench with CMake,
then runs the benchmark binary, whose last line of standard output is
the JSON result.  Build output goes to standard error.  Working files
(result caches, reports, Chrome traces) go to .bench_out/.  See
perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = root / "perfbench"
    cache = build_dir / "CMakeCache.txt"
    if cache.exists() and str(source) not in cache.read_text(errors="replace"):
        shutil.rmtree(build_dir)  # configured for another checkout
    if not cache.exists():
        cmd = ["cmake", "-S", str(source), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_commit(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {root}/src")
    build_dir = root / ".bench_build" / "perfbench"
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [str(build_dir / "perfbench"), *sys.argv[1:],
           "--out-dir", str(root / ".bench_out"),
           "--commit", git_commit(root)]
    try:
        result = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
