#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/test_run.py

The smoke and refusal tests build the driver first (into .bench_build).
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def counters(**nonzero):
    """A full counter map, zero except `nonzero`."""
    names = ["shuffle_bytes", "shuffle_records", "cross_executor_bytes",
             "local_shuffle_bytes", "tasks_run", "tasks_recomputed", "records_processed",
             "tasks_retried", "retry_wait_us", "faults_injected", "checkpoint_bytes",
             "checkpoint_restore_bytes", "evictions", "bytes_evicted", "bytes_reloaded",
             "reload_recomputes", "peak_resident_bytes", "flops_generic", "flops_packed",
             "flops_jvmlike", "tile_allocs", "queries_admitted", "queries_queued",
             "plan_cache_hits", "plan_cache_misses", "plan_cache_evictions",
             "dist_bytes_sent", "dist_bytes_received", "workers_lost",
             "partitions_reexecuted"]
    c = {n: 0 for n in names}
    c.update(nonzero)
    return c


def phase(op_ms, failed=0, window_s=1.0, flops=0.0, client_ops=None, oracle=None):
    return {"op_ms": op_ms, "attempted": len(op_ms) + failed, "failed": failed,
            "window_s": window_s, "flops": flops,
            "client_ops": client_ops or [len(op_ms)], "errors": [],
            "oracle_counters": oracle or counters()}


def replay(work, seconds):
    return {"work": work, "seconds": seconds}


def traced_report(clients=1):
    """A --trace 1 report with round numbers: 4 completed ops of 10 ms."""
    return {
        "clients": clients, "final_check": "OK",
        "untraced": phase([8.0, 8.0, 8.0, 8.0], failed=1),
        "traced": phase([10.0, 10.0, 10.0, 10.0], client_ops=[4, 2],
                        oracle=counters(bytes_reloaded=1_000_000, peak_resident_bytes=5)),
        "counters": counters(
            plan_cache_hits=3, plan_cache_misses=1, tasks_run=40, shuffle_bytes=6_000_000,
            cross_executor_bytes=4_000_000, local_shuffle_bytes=2_000_000,
            bytes_reloaded=5_000_000, peak_resident_bytes=7_000_000, flops_packed=3e9,
            flops_generic=1e9, queries_admitted=8, queries_queued=2,
            dist_bytes_sent=8_000_000, tile_allocs=12, checkpoint_bytes=400_000),
        "stages": {"task_skew": 2.5, "compile_ms": 4.0,
                   "wall_ms_by_kind": {"narrow": 20.0, "shuffle": 8.0, "coshuffle": 4.0}},
        "probes": {"gemm": replay(2e9, 0.5), "add": replay(1e9, 0.25),
                   "serialize": replay(3e6, 0.5), "deserialize": replay(3e6, 0.25),
                   "frame_encode": replay(1e6, 0.1), "frame_decode": replay(1e6, 0.2),
                   "loopback": replay(2e6, 0.5), "spill_write": replay(4e6, 0.5),
                   "spill_read": replay(4e6, 0.25), "compile_ms": [1.0, 3.0],
                   "analyze_ms": [2.0, 4.0], "partition_records": [6, 1, 1, 0]},
    }


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(99), 50)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(999), 90)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_nearest_rank(self):
        xs = list(range(100, 0, -1))  # unsorted on purpose
        self.assertEqual(run.percentile(xs, 50), 50)
        self.assertEqual(run.percentile(xs, 90), 90)
        self.assertEqual(sum(1 for x in xs if x > run.percentile(xs, 90)), 10)
        self.assertEqual(run.beyond(100, 90), 10)


class RatioBases(unittest.TestCase):
    def test_end_to_end(self):
        raw = {"setup_s": [3.0, 1.0, 2.0], "rss_peak_kib": 1000.0,
               "all_cpus": phase([10.0] * 9 + [30.0], failed=2, window_s=4.0, flops=8e9),
               "one_cpu": phase([20.0, 25.0, 15.0])}
        m = {k: v["value"] for k, v in run.metrics_of(raw, 0).items()}
        self.assertEqual(m["setup_s"], 2.0)
        self.assertEqual(m["latency_ms_p50"], 10.0)
        self.assertEqual(m["latency_ms_p90"], 10.0)
        self.assertEqual(m["throughput_ops_s"], 10 / 4.0)  # completed ops / window
        self.assertEqual(m["gflop_s"], 8 / 4.0)  # flops of completed ops / window
        self.assertEqual(m["speedup_vs_1cpu"], 20.0 / 10.0)  # one-CPU p50 / all-CPU p50
        self.assertEqual(m["rss_peak_mb"], 1000 * 1024 / 1e6)

    def test_per_layer(self):
        m = {k: v["value"] for k, v in run.metrics_of(traced_report(), 1).items()}
        ops, op_ms = 4, 40.0
        self.assertEqual(m["planner.compile_ms"], 2.0)
        self.assertEqual(m["planner.compile_share"], 4.0 / op_ms)
        self.assertEqual(m["planner.cache_hit_ratio"], 3 / 4)
        self.assertEqual(m["analysis.analyze_ms"], 3.0)
        self.assertEqual(m["runtime.narrow_ms_per_op"], 20.0 / ops)
        self.assertEqual(m["runtime.shuffle_ms_per_op"], 12.0 / ops)
        self.assertEqual(m["runtime.task_skew"], 2.5)
        self.assertEqual(m["runtime.partition_imbalance"], 6 / (8 / 4))  # max / mean
        self.assertEqual(m["runtime.tasks_per_op"], 40 / ops)
        self.assertEqual(m["runtime.shuffle_mb_per_op"], 6.0 / ops)
        self.assertEqual(m["runtime.cross_executor_mb_per_op"], 4.0 / ops)
        self.assertEqual(m["runtime.local_shuffle_share"], 2 / (2 + 6))
        self.assertEqual(m["runtime.layer_coverage"], (4.0 + 32.0) / op_ms)
        self.assertEqual(m["runtime.codec_serialize_mb_s"], 3 / 0.5)
        self.assertEqual(m["runtime.codec_deserialize_mb_s"], 3 / 0.25)
        # The oracle's own reload is taken out for a single client.
        self.assertEqual(m["runtime.reloaded_mb_per_op"], 4.0 / ops)
        self.assertEqual(m["runtime.peak_resident_mb"], 7.0)
        self.assertEqual(m["session.queued_share"], 2 / 8)
        self.assertEqual(m["session.fairness"], 2 / 4)
        self.assertEqual(m["la.gemm_gflop_s"], 2 / 0.5)
        self.assertEqual(m["la.add_gb_s"], 1 / 0.25)
        self.assertEqual(m["la.gflop_per_op"], 4 / ops)
        self.assertEqual(m["la.tile_allocs_per_op"], 12 / ops)
        # (GFLOP per op / replayed GFLOP/s) over seconds per op
        self.assertAlmostEqual(m["la.kernel_share"], (1.0 / 4.0) / (10.0 / 1e3))
        self.assertEqual(m["net.frame_encode_mb_s"], 1 / 0.1)
        self.assertEqual(m["net.frame_decode_mb_s"], 1 / 0.2)
        self.assertEqual(m["net.loopback_call_mb_s"], 2 / 0.5)
        self.assertEqual(m["dist.wire_mb_per_op"], 8.0 / ops)
        self.assertEqual(m["dist.wire_over_cross"], 8 / 4)
        self.assertEqual(m["storage.spill_write_mb_s"], 4 / 0.5)
        self.assertEqual(m["storage.spill_read_mb_s"], 4 / 0.25)
        self.assertEqual(m["storage.checkpoint_mb_per_op"], 0.4 / ops)
        self.assertEqual(m["bench.trace_overhead"], 10.0 / 8.0 - 1)
        self.assertEqual(m["bench.error_rate"], 1 / 9)

    def test_oracle_counters_kept_with_several_clients(self):
        m = {k: v["value"] for k, v in run.metrics_of(traced_report(clients=4), 1).items()}
        self.assertEqual(m["runtime.reloaded_mb_per_op"], 5.0 / 4)

    def test_zero_base_reads_zero(self):
        raw = traced_report()
        raw["counters"] = counters()
        m = {k: v["value"] for k, v in run.metrics_of(raw, 1).items()}
        self.assertEqual(m["planner.cache_hit_ratio"], 0.0)
        self.assertEqual(m["dist.wire_over_cross"], 0.0)
        self.assertEqual(m["session.queued_share"], 0.0)


class Names(unittest.TestCase):
    def test_names_and_units(self):
        seen = set()
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        for w in BENCHMARK["workloads"]:
            self.assertRegex(w["name"], NAME)

    def test_tables_match_benchmark_json(self):
        e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        per = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        self.assertEqual(e2e, {k: u for k, (u, _) in run.END_TO_END.items()})
        self.assertEqual(per, {k: u for k, (u, _) in run.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        self.assertEqual(set(run.NOT_APPLICABLE), set(run.WORKLOADS))
        for names in run.NOT_APPLICABLE.values():
            self.assertTrue(set(names) <= set(per))


def run_bench(*args, env=None):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=os.getcwd(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=900)


class EndToEnd(unittest.TestCase):
    """Runs the driver at tiny sizes; each run takes a few seconds."""

    def test_refuses_engine_overrides(self):
        env = dict(os.environ, SAC_WORKERS="2")
        p = run_bench("--workload", "factor-iter", "--seed", "1", "--seconds", "1",
                      "--trace", "0", "--smoke", env=env)
        self.assertNotEqual(p.returncode, 0)
        self.assertIn("SAC_WORKERS", p.stderr)
        self.assertNotIn('"correct"', p.stdout)

    def test_smoke_every_workload(self):
        per = [m["name"] for m in BENCHMARK["per_layer"]]
        e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
        for w in run.WORKLOADS:
            for trace, names in ((0, e2e), (1, per)):
                with self.subTest(workload=w, trace=trace):
                    p = run_bench("--workload", w, "--seed", "7", "--seconds", "1",
                                  "--trace", str(trace), "--smoke")
                    self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                    r = json.loads(p.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(sorted(r["metrics"]), sorted(names))
                    for name in run.NOT_APPLICABLE[w] if trace else []:
                        self.assertEqual(r["metrics"][name]["value"], 0.0, name)
                    for name in e2e if not trace else []:
                        self.assertGreater(r["metrics"][name]["value"], 0.0, name)


if __name__ == "__main__":
    unittest.main()
