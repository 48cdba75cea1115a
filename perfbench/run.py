#!/usr/bin/env python3
"""Build and run the winograd-ft benchmark.

    python3 perfbench/run.py --workload infer_inproc --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The script builds the `wgft-perfbench`
binary from source (release, offline, into $CARGO_TARGET_DIR or
`.bench_build`), fills the trained-model cache under `perfbench/.state` with
an untimed warm-up, prints the run record (machine facts), then runs the
workload. The binary's last stdout line is the result object:
`{"correct", "attempted", "failed", "metrics"}`. `perfbench/README.md`
defines the workloads and every metric.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ("infer_inproc", "sweep_tradeoff")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def capture(argv, env=None):
    """stdout of a command, or None when it fails or is missing."""
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def config_rustflags(root):
    """The `[build] rustflags` line of the checkout's cargo config, verbatim."""
    path = os.path.join(root, ".cargo", "config.toml")
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.strip().startswith("rustflags"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def git_facts(root):
    # Never look above the checkout: a checkout that is not a git work tree
    # must report no revision rather than some enclosing repository's.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    rev = capture(["git", "-C", root, "rev-parse", "HEAD"], env)
    if rev is None:
        return None, None
    status = capture(["git", "-C", root, "status", "--porcelain"], env)
    return rev, bool(status) if status is not None else None


def record(root, args):
    rev, dirty = git_facts(root)
    env_flags = os.environ.get("RUSTFLAGS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "rustc": capture(["rustc", "-V"]),
        # RUSTFLAGS, when set, replaces the config's rustflags entirely.
        "rustflags": env_flags if env_flags is not None else config_rustflags(root),
        "rustflags_source": "RUSTFLAGS" if env_flags is not None else ".cargo/config.toml",
        "RAYON_NUM_THREADS": os.environ.get("RAYON_NUM_THREADS"),
        "git_revision": rev,
        "git_dirty": dirty,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be at least 1 and --seed not negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    state = os.path.join("perfbench", ".state")

    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "wgft-perfbench")

    try:
        warm = subprocess.run([binary, "warmup", "--state", state],
                              stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"warm-up did not finish: {e}")
    if warm.returncode != 0:
        fail("warm-up failed")

    print("record " + json.dumps(record(root, args), sort_keys=True), flush=True)
    try:
        done = subprocess.run(
            [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--state", state],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"workload did not finish: {e}")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print("\n".join(lines[:-1]), file=sys.stderr)
        fail(f"workload exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except ValueError as e:
        print("\n".join(lines), file=sys.stderr)
        fail(f"no result object: {e}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
