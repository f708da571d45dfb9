#!/usr/bin/env python3
"""Build the programs under test and run the benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 12 --trace 0

It builds cmd/reproduce and cmd/imtransd with -pgo=default.pgo (as the
perf CI jobs do) and the harness in perfbench/, all into .bench_build/,
then runs the harness with the given arguments. Every Go cache and
temporary file stays under .bench_build/. The last line of standard
output is the harness's JSON result; a failed build exits non-zero
without printing one.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
# The harness gives each workload 170 s; this allows a few seconds more
# per workload it runs (three for --workload all).
RUN_TIMEOUT_S_PER_WORKLOAD = 175


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
    })
    bindir = os.path.join(build, "bin")
    steps = [
        (root, ["go", "build", "-pgo=default.pgo", "-o", bindir + os.sep,
                "./cmd/reproduce", "./cmd/imtransd"]),
        (os.path.join(root, "perfbench"),
         ["go", "build", "-pgo=" + os.path.join(root, "default.pgo"),
          "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        try:
            subprocess.run(cmd, cwd=cwd, env=env, check=True, timeout=BUILD_TIMEOUT_S,
                           stdout=sys.stderr)
        except (OSError, subprocess.SubprocessError) as err:
            print(f"run.py: build failed: {' '.join(cmd)}: {err}", file=sys.stderr)
            return 2
    harness = [os.path.join(bindir, "perfbench"), "-root", root, "-bin", bindir,
               "-out", os.path.join(build, "perfbench")] + sys.argv[1:]
    everything = any(a == "all" or a.endswith("=all") for a in sys.argv[1:])
    workloads = 3 if everything else 1
    try:
        return subprocess.run(harness, env=env,
                              timeout=RUN_TIMEOUT_S_PER_WORKLOAD * workloads).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the harness exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
