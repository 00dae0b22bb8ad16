#!/usr/bin/env python3
"""Benchmark entry point.

Builds the benchmark project (benchmark/CMakeLists.txt, Release) into
build-bench/ under the current directory, which must be the repository
root, then runs build-bench/vcad_bench with this script's arguments:

    python3 benchmark/run.py --workload cone_cold --seed 3 --seconds 35 --trace 0

Provider sockets and trace files go to build-bench/out/. Exits nonzero,
without a result line, when the build or the run fails.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = "build-bench"
RUN_TIMEOUT_S = 170


def build():
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]
    for cmd in (configure, compile_):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        sys.exit(1)
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "vcad_bench"), "--out-dir", out_dir] + sys.argv[1:]
    # Own process group, so a timed-out run takes its provider processes
    # down with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("vcad_bench timed out", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
