#!/usr/bin/env python3
"""Build the host-time benchmark from source and run one workload.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark executable is
built with dune into $CARGO_TARGET_DIR (default _build) with dune's
shared cache off, so nothing is written outside the checkout.  The
executable's standard output is passed through unchanged: its last
line is the result JSON.  Build output and diagnostics go to stderr.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg, code=2):
    print(f"hostbench: {msg}", file=sys.stderr)
    sys.exit(code)


def main():
    for needed in ("dune-project", "lib", "results/golden-quick.json", "hostbench/dune"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a source checkout")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = [
        "dune", "build", "--root", ".", "--build-dir", build_dir,
        "--display", "quiet", "./hostbench/main.exe",
    ]
    try:
        done = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")

    exe = os.path.join(build_dir, "default", "hostbench", "main.exe")
    # Own process group, so a timeout or a signal stops the benchmark and
    # the daemon it may have spawned together.
    child = subprocess.Popen([exe] + sys.argv[1:], start_new_session=True)

    def stop(*_):
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        sys.exit(3)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("hostbench: run timed out", file=sys.stderr)
        stop()
    # The benchmark reaps its own daemon; anything left in the group is
    # a leak, and is stopped here.
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    sys.exit(code)


if __name__ == "__main__":
    main()
