#!/usr/bin/env python3
"""Sensitivity self-test of the benchmark.

`predict-hot` against `poe serve --batch-delay-us 1000` and `0` must
differ on `p50_ms` by more than the benchmark's bound on that metric:
the batch timer is the ~8x p50 regression the benchmark exists to
catch. Two sets of runs of the same code must not differ by more than
the bound.

Run from the repository root (about four minutes; like every run, each
one is pinned to one CPU):

    python3 perfbench/test_sensitivity.py
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "8"


def bound(metric):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def p50_ms(seeds, batch_delay_us):
    values = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", "predict-hot", "--seed", str(seed),
             "--seconds", SECONDS, "--trace", "0",
             "--batch-delay-us", str(batch_delay_us)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"], result
        values.append(result["metrics"]["p50_ms"]["value"])
    return statistics.median(values)


class Sensitivity(unittest.TestCase):
    def test_batch_timer_regression_exceeds_the_bound(self):
        fast = p50_ms([1, 2, 3], 0)
        slow = p50_ms([1, 2, 3], 1000)
        self.assertGreater((slow - fast) / fast, bound("p50_ms"),
                           f"p50 {fast:.3f} ms without the timer, {slow:.3f} ms with it")

    def test_self_vs_self_stays_within_the_bound(self):
        first = p50_ms([4, 5, 6], 1000)
        second = p50_ms([7, 8, 9], 1000)
        self.assertLessEqual(abs(second - first) / first, bound("p50_ms"),
                             f"p50 {first:.3f} ms vs {second:.3f} ms")


if __name__ == "__main__":
    unittest.main()
