#!/usr/bin/env python3
"""Build and run the repository benchmark (fisbench) for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold_campaign --seed 1 --seconds 20 --trace 0

Builds the library from ./src and the benchmark from ./perfbench into
.bench_build/perfbench (Release), then runs it. The benchmark's last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit code is non-zero when the build fails, when a served result differs
from the in-process reference, or when a workload invariant is violated.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("cold_campaign", "warm_cache", "live_ingest")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def build():
    for path in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(path):
            sys.exit(f"perfbench: {path} not found; run from the repository root")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4", "--target", "fisbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "fisbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    # Own process group, so the server child can always be stopped with it.
    proc = subprocess.Popen([exe, "--workload", a.workload, "--seed", str(a.seed),
                             "--seconds", str(a.seconds), "--trace", str(a.trace)],
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        stop_group(proc)


def stop_group(proc):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
