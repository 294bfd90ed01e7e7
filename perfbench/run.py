#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build),
relative to the repository root; the first run configures and builds,
later runs only check that the build is current. Build output goes to
stderr, so the last line on stdout is always the benchmark's result.
The benchmark runs in a scratch directory inside the build tree, in a
process group of its own that is killed and drained when it exits.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "sweep-par", "bmc", "daemon")
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(bdir, targets):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target",
                  *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def commit_id():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """Content hash of everything the benchmark builds from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", ROOT / "tools", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def drain_group(pgid):
    """SIGKILL whatever is left of the group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_benchmark(bdir, args):
    rundir = bdir / f"run-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    traces = bdir / "traces"
    traces.mkdir(exist_ok=True)
    cmd = [str(bdir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--data", str(HERE / "data"),
           "--daemon", str(bdir / "rtlcheckd"),
           "--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json"),
           "--commit", f"{commit_id()} src:{source_digest()}"]
    proc = subprocess.Popen(cmd, cwd=rundir, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        drain_group(proc.pid)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        drain_group(proc.pid)
        shutil.rmtree(rundir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    bdir = build_dir()
    if args.selftest:
        if not build(bdir, ["perfbench_selftest"]):
            return 1
        env = dict(os.environ, PERFBENCH_DATA=str(HERE / "data"))
        return subprocess.run([str(bdir / "perfbench_selftest")],
                              env=env).returncode
    if not build(bdir, ["perfbench", "rtlcheckd"]):
        return 1
    return run_benchmark(bdir, args)


if __name__ == "__main__":
    sys.exit(main())
