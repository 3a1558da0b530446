#!/usr/bin/env python3
"""Build the repository benchmark from this checkout and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (the actrack libraries
plus the harness) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only check the build is current.  Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
With --trace 1 the spans are also written to the build directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def arg_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no actrack sources next to perfbench/ "
                 "(expected src/CMakeLists.txt in the checkout)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    args = sys.argv[1:]
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    if "--digests" not in args:
        args += ["--digests", os.path.join(HERE, "digests")]
    if arg_value(args, "--trace", "0") == "1" and "--spans-out" not in args:
        args += ["--spans-out", os.path.join(
            build_dir, "spans-%s-%s.json" % (arg_value(args, "--workload", "x"),
                                             arg_value(args, "--seed", "1")))]
    sys.exit(subprocess.run([binary] + args).returncode)


if __name__ == "__main__":
    main()
