#!/usr/bin/env python3
"""Build the benchmark program from this checkout and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crawl_warm --seed 1 --seconds 20 --trace 0

The benchmark and the scanner libraries it links are compiled into
.bench_build/ on first use (later runs only re-check the build). The
last line of standard output is the result object; build logs and
diagnostics go to standard error. `--selftest` builds and runs the
benchmark's own tests instead of a workload.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORK_DIR = BUILD / "run"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 160


def build(target: str) -> pathlib.Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no scanner sources under {ROOT / 'src'}")
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(CMAKE_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(CMAKE_DIR), "--target", target, "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return CMAKE_DIR / target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    try:
        if args.selftest:
            return subprocess.run([str(build("perfbench_selftest"))],
                                  timeout=RUN_TIMEOUT_S).returncode
        binary = build("perfbench")
        command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace,
                   "--work-dir", str(WORK_DIR)]
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, RuntimeError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
