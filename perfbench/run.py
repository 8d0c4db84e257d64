#!/usr/bin/env python3
"""Builds this checkout's `midas` CLI and the midas_bench harness, then runs
one benchmark workload:

    python3 perfbench/run.py --workload batch_closedie --seed 42 \
        --seconds 15 --trace 0

The build goes to .bench_build/ at the repository root and is incremental,
so only the first run in a checkout compiles. Generated inputs go to
.bench_work/ and are removed after each run. The last line of standard
output is the result JSON; perfbench/README.md describes the workloads and
metrics.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"perfbench: no midas sources under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "midas_bench", "midas_cli"])
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"perfbench: build failed, full log in {log}")


def main():
    build()
    bench = str(BUILD / "midas_bench")
    os.execv(bench, [bench, *sys.argv[1:],
                     "--midas", str(BUILD / "midas" / "tools" / "midas"),
                     "--workdir", str(ROOT / ".bench_work")])


if __name__ == "__main__":
    main()
