#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

The Go package in this directory is compiled against the module at the
root, with the build cache and every other file the toolchain writes kept
under .bench_build/ in the root, and then run with the given arguments.
The benchmark's last line of standard output is its JSON result.
"""

import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal", "pipeline"))):
        sys.stderr.write("perfbench: no mimdloop module here; run from the repository root\n")
        return 2

    build = os.path.join(root, ".bench_build")
    work = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(work, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    binary = os.path.join(work, "perfbench")
    rc = subprocess.call(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if rc != 0:
        sys.stderr.write("perfbench: build failed\n")
        return rc

    commit = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass

    child = subprocess.Popen([binary] + sys.argv[1:] + ["--commit", commit, "--work", work],
                             cwd=root, env=env)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
