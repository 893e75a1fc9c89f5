#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The first run configures and builds
perfbench/ (the runtime's src/ libraries plus the perfbench binary) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
check the build is up to date.  Build output goes to standard error, so the
last line of standard output is the binary's JSON result.  A traced run
also writes its Chrome trace to <build dir>/perfbench-trace-<workload>.json.

Exit codes: the binary's own (0 once it has printed a result), 2 when the
runtime's sources are missing, 3 when the build fails, 4 when the binary
outlives its time limit.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds plus set-up and checks; one that is still
# going after this long has hung and is killed.
RUN_LIMIT_S = 170


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_root):
    out = os.path.join(build_root, "perfbench")
    binary = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(3, "cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    r = subprocess.run(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(binary):
        fail(3, "build failed")
    return binary


def main():
    args = sys.argv[1:]
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no runtime sources under %s/src; run from a checkout's root" % ROOT)
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_root)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"] \
            and "--workload" in args and "--trace-out" not in args:
        workload = args[args.index("--workload") + 1]
        args += ["--trace-out",
                 os.path.join(build_root, "perfbench-trace-%s.json" % workload)]
    sys.stdout.flush()
    try:
        r = subprocess.run([binary] + args, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(4, "run exceeded %d s" % RUN_LIMIT_S)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
