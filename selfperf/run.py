#!/usr/bin/env python3
"""Build and run dtnsim's self-performance benchmark.

Run from the root of a checkout:

    python3 selfperf/run.py --workload fluid_lan --seed 1 --seconds 10 --trace 0
    python3 selfperf/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 selfperf/run.py --workload pkt_lan --seed 1 --seconds 10 --trace 1
    python3 selfperf/run.py --selftest

The simulator libraries and the benchmark are built from source into
.bench_build/selfperf (Release) on first use; later runs rebuild only what
changed. Build output goes to standard error, so the last line of standard
output is always the benchmark's JSON result. Exit codes: 0 correct, 1 a
wrong simulated output, 2 usage/environment error, 3 unoptimised build.
"""

import argparse
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = "selfperf"
BUILD_DIR = os.path.join(".bench_build", "selfperf")


def fail(msg, code=2):
    print("selfperf: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(target):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) under " + os.getcwd())
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])
    return os.path.join(BUILD_DIR, target)


def describe():
    """`git describe` when this is a git checkout, else a hash of src/."""
    if os.path.isdir(".git") and shutil.which("git"):
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    h = hashlib.sha256()
    for base in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


ADDR_NO_RANDOMIZE = 0x0040000  # <sys/personality.h>


def fixed_layout():
    """Turn address-space randomisation off in the benchmark process (run
    between fork and exec). With it on, the peak resident set moves by a few
    pages from run to run. Where the kernel refuses, the run goes on
    randomised; its provenance line says which it got."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's output digests for its seed")
    args = ap.parse_args()

    digests = os.path.join(BENCH_DIR, "digests.json")
    if args.selftest:
        exe = build("selfperf_selftest")
        sys.exit(subprocess.run([exe, "--root", ".", "--work-dir", BUILD_DIR,
                                 "--benchmark-json", "BENCHMARK.json"]).returncode)
    if not args.workload:
        fail("--workload is required")
    exe = build("selfperf")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ".", "--work-dir", BUILD_DIR, "--describe", describe(),
           "--digests", digests]
    if args.record_digests:
        cmd.append("--record-digests")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, preexec_fn=fixed_layout).returncode)


if __name__ == "__main__":
    main()
