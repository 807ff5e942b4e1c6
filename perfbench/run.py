#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload cold-map --seed 1 --seconds 30 --trace 0

Builds perfbench/ (a Go module that reaches the program's packages
through a replace directive pointing at the checkout root) into
.bench_build/, keeping the Go build cache there too, then runs it with the
given arguments from the checkout root. The benchmark's last output line
is its JSON result. A build failure exits 2 without printing a result.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# A run must end within 180 s.
RUN_TIMEOUT = 175


def build():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOFLAGS="-mod=mod",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GONOSUMDB="*",
    )
    for key in ("GOCACHE", "GOTMPDIR", "GOPATH"):
        os.makedirs(env[key], exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"),
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=600,
    )
    return proc.returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen(
        [BINARY, "--out", BUILD] + sys.argv[1:], cwd=ROOT, start_new_session=True
    )

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT, file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
