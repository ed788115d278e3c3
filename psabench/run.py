#!/usr/bin/env python3
"""Build and run the psaflow benchmark (psabench).

Run from the repository root:

    python3 psabench/run.py --workload cold_compile --seed 1 --seconds 20 --trace 0
    python3 psabench/run.py --selftest          # the harness's self-tests
    python3 psabench/run.py --check-expected    # expected.json vs fresh psaflowc

The first call configures and builds psabench/CMakeLists.txt into
.bench_build/ (build output goes to stderr); later calls rebuild only what
changed. The harness's last stdout line is the JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
TARGETS = ["psabench", "psaflowd", "psaflow-router", "psaflowc"]


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("psabench: no psaflow sources next to psabench/\n")
        return 2
    log = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        rc = subprocess.call(configure, stdout=log, stderr=log, cwd=ROOT)
        if rc != 0:
            return rc
    jobs = str(os.cpu_count() or 1)
    return subprocess.call(
        ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets,
        stdout=log, stderr=log, cwd=ROOT)


def main(argv):
    if argv == ["--selftest"]:
        rc = build(["psabench-selftest"])
        return rc if rc != 0 else subprocess.call(
            [os.path.join(BUILD, "psabench-selftest")], cwd=ROOT)
    expected = os.path.join("psabench", "expected.json")
    if argv in (["--check-expected"], ["--record-expected"]):
        argv = argv + [expected]
    else:
        argv = argv + ["--expected", expected]
    rc = build(TARGETS)
    if rc != 0:
        return rc
    return subprocess.call(
        [os.path.join(BUILD, "psabench"), "--bin-dir", BUILD] + argv,
        cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
