#!/usr/bin/env python3
"""Build and run the end-to-end binding benchmark.

Run from the root of a checkout:

  python3 e2ebench/run.py --workload table_cold --seed 1 --seconds 20 --trace 0

`--workload all` runs table_cold and router_warm in turn and prints
every end-to-end metric of each with its unit; `--trace 1` reports
the per-layer metrics instead and writes Chrome trace JSON to .e2e_run/.

Configures and builds e2ebench/ (which compiles the cvb library from
src/) into .bench_build/ on first use, then runs the benchmark binary
with the given arguments. Its last line of stdout is the JSON
result. Build output goes to stderr; a failed build exits 1 without a
result. The benchmark's own tests: `cmake --build .bench_build` and
`ctest --test-dir .bench_build`.
"""
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"


def build() -> str:
    """Builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", "e2ebench", "-B", BUILD_DIR, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j", "4"],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "e2ebench")


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
