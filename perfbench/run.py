#!/usr/bin/env python3
"""Build the release `serve` binary and the benchmark program, then run a workload.

    python3 perfbench/run.py --workload serve_indexed --seed 1 --seconds 20 --trace 0

Run from the repository root. Both programs are built from source with
cargo (offline) into $CARGO_TARGET_DIR (default `.bench_build`); the benchmark program
then runs in `.bench_work/`. The last line of stdout is the result JSON;
build output and the human-readable report go to stderr. `--workload all`
runs serve_indexed, serve_live and ingest_mixed in turn, one result line
each. Exits non-zero without a result when the build fails, and non-zero
when any answer is wrong.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["serve_indexed", "serve_live", "ingest_mixed"]


def build(cmd, env):
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "crates", "serve", "Cargo.toml")):
        sys.exit("perfbench: run from the repository root (crates/serve is missing)")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    build(cargo + ["-p", "simrankpp-serve", "--bin", "serve"], env)
    build(cargo + ["--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)

    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    print(f"perfbench: {rustc}, nproc {os.cpu_count()}, engine flags: serve defaults", file=sys.stderr)

    release = os.path.join(target, "release")
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        program = [
            os.path.join(release, "simrankpp-perfbench"),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--serve", os.path.join(release, "serve"),
            "--work", os.path.join(".bench_work", f"{workload}-{args.seed}-{os.getpid()}"),
        ]
        sys.stdout.flush()
        rc = max(rc, subprocess.run(program).returncode)
    sys.exit(rc)


if __name__ == "__main__":
    main()
