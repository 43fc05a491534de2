#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The descend library and the perfbench
binary are built from this checkout's sources (Release) into the directory
named by CARGO_TARGET_DIR, or .bench_build when it is unset; later runs
reuse the build. The binary's standard output is passed through: its last
line is the JSON result. Exits non-zero, without a result, when the build
fails; exits non-zero with correct=false when an output disagrees with its
oracle. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("doc-events", "doc-skips", "ndjson-fanout", "serve-mixed")
RUN_TIMEOUT_S = 170

def source_digest():
    """Commit of the checkout: git HEAD when available, else a digest of
    every library and benchmark source (checkouts need not be repositories)."""
    if (ROOT / ".git").exists():
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures and builds perfbench (incrementally); False on failure."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"]]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("perfbench: build failed:\n" + "\n".join(tail), file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt one oracle answer; the run must fail")
    args = parser.parse_args()

    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    if not build(build_dir):
        return 1

    out_dir = build_dir / "perfbench-out"
    out_dir.mkdir(exist_ok=True)
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", str(out_dir)]
    if args.inject_mismatch:
        command.append("--inject-mismatch")
    env = dict(os.environ, PERFBENCH_COMMIT=source_digest())
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
