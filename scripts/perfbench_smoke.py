#!/usr/bin/env python3
"""Smoke-run the libocn benchmark: every workload once, short, untraced.

    python3 scripts/perfbench_smoke.py

For each workload in perfbench/run.py this runs

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0

and fails unless the run exits 0 and its last output line is a JSON result
with "correct": true and "failed": 0. Then it runs light64 traced
(`--trace 1`) twice, at its own shard count and with `--shards 1`, and fails
unless both runs print the same `# kernel.component_steps` and
`# kernel.channel_advances` lines: the kernel's work is shard-invariant.
The first call builds perfbench/ (and the library from src/) under
.bench_build/. Used by the perfbench-smoke CI job and its scripts/check.sh
mirror.
"""
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sat64", "light64", "sweep16", "diff")
WORK_COUNTERS = ("kernel.component_steps", "kernel.channel_advances")


def work_counters(root, extra):
    """The `# kernel.*` work lines of one traced light64 run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "light64", "--seed", "1",
           "--seconds", "1", "--trace", "1"] + extra
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    found = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] == "#" and fields[1] in WORK_COUNTERS:
            found[fields[1]] = fields[2]
    return proc.returncode, found


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
    sharded_rc, sharded = work_counters(root, [])
    single_rc, single = work_counters(root, ["--shards", "1"])
    ok = (sharded_rc == 0 and single_rc == 0 and len(sharded) == len(WORK_COUNTERS)
          and sharded == single)
    print(f"perfbench-smoke light64 shard-invariant work: {'ok' if ok else 'FAILED'} "
          f"(default shards {sharded}, 1 shard {single})")
    if not ok:
        bad.append("light64-work")
    if bad:
        print(f"perfbench-smoke: failing workloads: {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
