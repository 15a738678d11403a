#!/usr/bin/env python3
"""Build and run the libocn benchmark.

    python3 perfbench/run.py --workload sat64 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and builds
perfbench/ (the benchmark program plus the library from src/) under
.bench_build/; later calls rebuild only what changed. The program's standard
output is passed through unchanged; its last line is the JSON result. Build
output goes to standard error. A failed build, a crash or a timeout exits
non-zero without printing a result.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sat64", "light64", "sweep16", "diff")
RUN_TIMEOUT_S = 170


def build(root: Path) -> Path:
    src = root / "perfbench"
    build_dir = root / ".bench_build" / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(src), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "ocn_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "ocn_perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--shards", type=int, help="override the workload's shard count")
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in [1, 60]")

    root = Path(__file__).resolve().parent.parent
    try:
        binary = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.shards is not None:
        cmd += ["--shards", str(args.shards)]
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print(f"perfbench: ocn_perfbench exited with {proc.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
