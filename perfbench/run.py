#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload tc2_fig6 --seed 1303 --seconds 20 --trace 0

Builds the `perfbench` package (release, into $CARGO_TARGET_DIR, default
`.bench_build`), prints a host fingerprint, then runs the benchmark binary,
whose last output line is the JSON result. Exits non-zero when the build
fails, when any cell fails its output check, or on a timeout.
"""

import argparse
import json
import os
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def capture(cmd, **kw):
    """stdout of `cmd`, stripped, or None when it cannot run or fails."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, **kw)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(root):
    # Never let git look above the benchmark's own checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    rev = capture(["git", "rev-parse", "HEAD"], cwd=root, env=env)
    status = capture(["git", "status", "--porcelain"], cwd=root, env=env)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "rustc": capture(["rustc", "-V"]) or "unknown",
        "git_rev": rev or "none",
        "git_dirty": None if status is None else bool(status),
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    a = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(MANIFEST):
        sys.exit(f"run.py: no {MANIFEST} here; run from the repository root")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {done.returncode}")

    binary = os.path.join(target, "release", "perfbench")
    cmd = [
        binary,
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", a.trace,
        "--host", json.dumps(fingerprint(root)),
    ]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
