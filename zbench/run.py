#!/usr/bin/env python3
"""Build and run the ZMSQ benchmark from the root of a source checkout.

    python3 zbench/run.py --workload small|large --seed N --seconds S --trace 0|1
    python3 zbench/run.py --self-test

Builds zbench/main.exe and bin/zmsq_server.exe with dune, then runs one
benchmark run (all three phases). The last line of standard output is
the JSON result; the full record goes to zbench/out/. See
zbench/README.md.
"""
import argparse
import os
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()

    env = dict(os.environ)
    # Build inside the checkout only (no shared dune cache), measure at
    # the runtime's default GC settings and the default observability
    # level, as users run.
    env["DUNE_CACHE"] = "disabled"
    env["ZMSQ_OBS"] = "counters"
    env.pop("OCAMLRUNPARAM", None)
    env.pop("CAMLRUNPARAM", None)
    try:
        env["ZBENCH_COMMIT"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        env["ZBENCH_COMMIT"] = "unknown"

    targets = ["@zbench/selftest"] if a.self_test else ["./zbench/main.exe", "./bin/zmsq_server.exe"]
    build = subprocess.run(["dune", "build", "--root", ".", *targets], stdout=sys.stderr, env=env)
    if build.returncode != 0 or a.self_test:
        return build.returncode

    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        ap.error("--workload, --seed, --seconds and --trace are required")
    cmd = [
        os.path.join("_build", "default", "zbench", "main.exe"), "run",
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", a.trace, "--server", os.path.join("_build", "default", "bin", "zmsq_server.exe"),
        "--spec", "BENCHMARK.json", "--out", os.path.join("zbench", "out"),
    ]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
