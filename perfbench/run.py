#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures the library exactly as the tier-1 build does
(`cmake -B <dir> -S .`, default Release), builds its static libraries and
then the benchmark program in perfbench/ against them; later calls only let make
confirm that both are up to date. Build trees live in .bench_build/ (or in
$CARGO_TARGET_DIR when that is set). All arguments go to that program, whose
last line of output is the JSON result.
"""
import os
import subprocess
import sys

PROGRAM_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def run(cmd, **kw):
    """Run a build step, its output to stderr; exit non-zero if it fails."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw)
    if proc.returncode != 0:
        log(f"failed ({proc.returncode}): {' '.join(cmd)}")
        sys.exit(proc.returncode or 1)


def build(root, out):
    jobs = str(min(4, os.cpu_count() or 1))
    lib = os.path.join(out, "spbla")
    bench_dir = os.path.join(out, "perfbench")
    if not os.path.isfile(os.path.join(lib, "CMakeCache.txt")):
        run(["cmake", "-S", root, "-B", lib, "-G", "Unix Makefiles",
             "-DCMAKE_BUILD_TYPE=Release"])
    # Only the library half of the tree: its targets all live under src/.
    run(["make", "-C", os.path.join(lib, "src"), "-j", jobs, "--no-print-directory"])
    if not os.path.isfile(os.path.join(bench_dir, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", bench_dir,
             "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release",
             f"-DSPBLA_SOURCE_DIR={root}", f"-DSPBLA_BUILD_DIR={lib}"])
    run(["make", "-C", bench_dir, "-j", jobs, "--no-print-directory"])
    return os.path.join(bench_dir, "perfbench")


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("run this from the repository root: no CMakeLists.txt and src/ here")
        return 2
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    program = build(root, out)
    try:
        proc = subprocess.run([program] + sys.argv[1:], timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program did not finish within {PROGRAM_TIMEOUT_S} s")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
