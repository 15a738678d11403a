#!/usr/bin/env python3
"""Self-tests of the libocn benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload traced at the shortest length (--seconds 1) and checks
that deterministic counts repeat for a seed, that another seed changes the
inputs and still passes every output check, and that light64's simulated
outputs and counts do not depend on its shard count. Takes about a minute
after the first build.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sat64", "light64", "sweep16", "diff")

# Readings that are simulation outputs or work counts, never times.
DETERMINISTIC = {
    "sim.cycles", "nic.packets_delivered",
    "traffic.packets_offered", "nic.refused_ratio", "nic.flits_delivered",
    "router.flit_hops", "router.buffer_writes", "router.buffer_reads",
    "router.contention_cycles", "router.flit_bytes", "kernel.component_steps",
    "kernel.channel_advances", "obs.instruments", "cycle_samples",
    "sim.accepted_flits_per_node_cycle", "sim.latency_avg_cycles",
    "ref.cycles_run", "ref.deliveries", "ref.divergences",
}

_cache = {}


def run(workload, seed, shards=None):
    key = (workload, seed, shards)
    if key not in _cache:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", "1"]
        if shards is not None:
            cmd += ["--shards", str(shards)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # Readings of the workload's own layers are `# name value unit` lines.
        result["readings"] = {f[1]: float(f[2]) for f in (l.split() for l in lines[:-1])
                              if len(f) == 4 and f[0] == "#"}
        _cache[key] = result
    return _cache[key]


def counts(result):
    return {k: v for k, v in result["readings"].items() if k in DETERMINISTIC}


class PerfbenchTest(unittest.TestCase):
    def assert_passes(self, result):
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)

    def test_same_seed_repeats_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = run(w, 7)
                _cache.pop((w, 7, None))
                second = run(w, 7)
                self.assert_passes(first)
                self.assert_passes(second)
                self.assertTrue(counts(first))
                self.assertEqual(counts(first), counts(second))

    def test_second_seed_changes_inputs_and_passes(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = run(w, 7), run(w, 8)
                self.assert_passes(b)
                self.assertNotEqual(counts(a), counts(b))

    def test_light64_matches_one_shard(self):
        sharded, single = run("light64", 7), run("light64", 7, shards=1)
        self.assert_passes(single)
        self.assertEqual(sharded["attempted"], single["attempted"])
        # The sharded kernel advances shard-boundary channels every cycle,
        # active or not (src/sim/sharded_kernel.cpp), so channel advances
        # are the one work count that depends on the shard count.
        a, b = counts(sharded), counts(single)
        self.assertGreaterEqual(a.pop("kernel.channel_advances"),
                                b.pop("kernel.channel_advances"))
        self.assertEqual(a, b)


if __name__ == "__main__":
    unittest.main()
