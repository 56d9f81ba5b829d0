#!/usr/bin/env python3
"""Builds `poe` and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload predict-hot --seed 1 --seconds 20 --trace 0

Every argument is passed through to the benchmark binary (see
perfbench/README.md). The last line of standard output is the result
JSON. Build output goes to $CARGO_TARGET_DIR (default `.bench_build`).

The run itself (load generator, servers, pool extraction) is pinned to
one CPU, which a spinner at SCHED_IDLE priority keeps from going idle.
On a virtual machine whose host is oversubscribed, a vCPU that halts
between requests waits milliseconds for the host to run it again on the
next wake-up, and two busy vCPUs are preempted by the host; one vCPU that
never halts is not. The spinner only runs when no other thread on that
CPU can, so it takes no time from the program.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
# The spinner asks to be killed when run.py dies (PR_SET_PDEATHSIG), so
# it cannot outlive a run.py that is itself killed.
SPIN = """
import ctypes, os, signal, sys
ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)
if os.getppid() != int(sys.argv[1]):
    sys.exit(0)
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while True:
    pass
"""


def main() -> int:
    # A terminated run.py still stops what it started (see `finally`).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, env["CARGO_TARGET_DIR"])
    builds = [
        ["cargo", "build", "--offline", "--release", "-q", "-p", "poe-cli"],
        ["cargo", "build", "--offline", "--release", "-q",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
    ]
    for cmd in builds:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    bench = os.path.join(target, "release", "perfbench")
    poe = os.path.join(target, "release", "poe")
    cmd = [bench, "--poe", poe] + sys.argv[1:]
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    spinner = subprocess.Popen([sys.executable, "-c", SPIN, str(os.getpid())])
    try:
        # Own process group, so a run that overstays is stopped together
        # with every server it started. Not a session of its own: with
        # scheduler autogroups each session shares the CPU equally with
        # the others, which would give the spinner's session half of it.
        proc = subprocess.Popen(cmd, env=env, process_group=0)
    except OSError as e:
        spinner.kill()
        spinner.wait()
        print(f"perfbench: cannot start {bench}: {e}", file=sys.stderr)
        return 2
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        spinner.kill()
        spinner.wait()


if __name__ == "__main__":
    sys.exit(main())
