#!/usr/bin/env python3
"""Smoke-run the libocn benchmark: every workload once, short, untraced.

    python3 scripts/perfbench_smoke.py

For each workload in perfbench/run.py this runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0

and fails unless the run exits 0 and its last output line is a JSON result
with "correct": true and "failed": 0. The first call builds perfbench/ (and
the library from src/) under .bench_build/. Used by the perfbench-smoke CI
job and its scripts/check.sh mirror.
"""
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sat64", "light64", "sweep16", "diff")


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    bad = []
    for w in WORKLOADS:
        cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            result = {}
        ok = (proc.returncode == 0 and result.get("correct") is True
              and result.get("failed") == 0)
        print(f"perfbench-smoke {w}: {'ok' if ok else 'FAILED'} "
              f"(exit {proc.returncode}, correct={result.get('correct')}, "
              f"failed={result.get('failed')})")
        if not ok:
            bad.append(w)
    if bad:
        print(f"perfbench-smoke: failing workloads: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
