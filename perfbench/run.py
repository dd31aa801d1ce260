#!/usr/bin/env python3
"""Build and run the scenario benchmark of record.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]

Builds the `dlb-perfbench` binary (this directory's own Cargo package) and
the repository's `dlb-shard-worker` executable in release mode, then runs
the benchmark with `DLB_WORKER_BIN` pointing at that worker. Build output
goes to `$CARGO_TARGET_DIR` (default `.bench_build` at the repository
root). The benchmark's last line of standard output is its JSON result;
the exit code is non-zero when the build fails, a run fails or an output
check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself stops after its measured seconds plus set-up; this
# guard only keeps a hung run from outliving the caller's deadline.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(1)


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build(env):
    for manifest in ("perfbench/Cargo.toml", "crates/worker/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, manifest)):
            fail(f"{manifest} not found: run from a full checkout of the repository")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
        # Cargo's own output goes to stderr so stdout ends with the result.
        try:
            code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        except OSError as e:
            fail(f"cannot run cargo: {e}")
        if code != 0:
            fail(f"build of {manifest} failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default=0, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    args = parser.parse_args()

    env = os.environ.copy()
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(env)

    binary = os.path.join(target, "release", "dlb-perfbench")
    worker = os.path.join(target, "release", "dlb-shard-worker")
    for path in (binary, worker):
        if not os.path.isfile(path):
            fail(f"{path} missing after build")
    env["DLB_WORKER_BIN"] = worker
    # The process backend's Unix sockets live under TMPDIR: keep them in
    # the build directory, as a path relative to the run's working
    # directory so it stays within the socket path length limit.
    tmp = os.path.join(target, "tmp")
    os.makedirs(tmp, exist_ok=True)
    rel = os.path.relpath(tmp, ROOT)
    env["TMPDIR"] = tmp if rel.startswith("..") else rel
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"])
    env["PERFBENCH_COMMIT"] = capture(["git", "rev-parse", "HEAD"])

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size]
    with subprocess.Popen(cmd, cwd=ROOT, env=env) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
