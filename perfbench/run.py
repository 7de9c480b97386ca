#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload factor-iter --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, as do the raw reports, traces
and spill files. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-module ones (see
perfbench/README.md for what each measures and which module it belongs to).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("factor-iter", "service-mix", "add-dist-spill")
# A run must finish well inside 180 s; a first run also builds.
RUN_TIMEOUT_S = 170
MB = 1e6

# ---- percentiles ----------------------------------------------------------

TAIL_LADDER = (50, 90, 99, 99.9)
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile (0 < p <= 100) of n
    samples, in exact arithmetic so that 99.9% of 10000 is 9990."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(samples, p):
    """Nearest-rank p-th percentile; 0 when no operation completed (the
    result then reads correct: false)."""
    return sorted(samples)[rank(len(samples), p) - 1] if samples else 0.0


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def tail_percentile(n):
    """The highest ladder percentile with at least ten samples beyond it,
    or None when not even the median has."""
    ok = [p for p in TAIL_LADDER if beyond(n, p) >= MIN_BEYOND]
    return ok[-1] if ok else None


def ratio(num, den):
    """num / den, or 0 when the base is 0 (the metric does not apply)."""
    return num / den if den else 0.0


# ---- end-to-end metrics (--trace 0) ---------------------------------------

END_TO_END = {
    # name: (unit, function of the raw report)
    "setup_s": ("s", lambda r: statistics.median(r["setup_s"])),
    "latency_ms_p50": ("ms", lambda r: percentile(r["all_cpus"]["op_ms"], 50)),
    "latency_ms_p90": ("ms", lambda r: percentile(r["all_cpus"]["op_ms"], 90)),
    # completed ops over the all-CPU window
    "throughput_ops_s": ("1/s", lambda r: ratio(
        len(r["all_cpus"]["op_ms"]), r["all_cpus"]["window_s"])),
    # analytic flops of completed ops over the all-CPU window
    "gflop_s": ("GFLOP/s", lambda r: ratio(
        r["all_cpus"]["flops"] / 1e9, r["all_cpus"]["window_s"])),
    # median op time pinned to one CPU over the median on all CPUs
    "speedup_vs_1cpu": ("x", lambda r: ratio(
        percentile(r["one_cpu"]["op_ms"], 50),
        percentile(r["all_cpus"]["op_ms"], 50))),
    "rss_peak_mb": ("MB", lambda r: r["rss_peak_kib"] * 1024 / MB),
}

# ---- per-module metrics (--trace 1) ---------------------------------------


class Traced:
    """The traced window of a --trace 1 report, with the counters the
    oracle's own collects added taken back out (exact for one client)."""

    def __init__(self, r):
        self.r = r
        t = r["traced"]
        self.ops = len(t["op_ms"])
        self.op_ms = sum(t["op_ms"])
        self.c = dict(r["counters"])
        if r["clients"] == 1:
            for k, v in t["oracle_counters"].items():
                if k != "peak_resident_bytes":
                    self.c[k] -= v
        self.stages = r["stages"]
        self.probes = r["probes"]

    def per_op(self, x):
        return ratio(x, self.ops)

    def rate(self, probe, scale):
        p = self.probes[probe]
        return ratio(p["work"] / scale, p["seconds"])

    def stage_ms(self, *kinds):
        return sum(self.stages["wall_ms_by_kind"].get(k, 0.0) for k in kinds)

    def flops(self):
        return sum(self.c[k] for k in ("flops_generic", "flops_packed", "flops_jvmlike"))

    def gemm_gflop_s(self):
        return self.rate("gemm", 1e9)


def imbalance(hist):
    """Records in the fullest partition over the mean per partition."""
    return ratio(max(hist), sum(hist) / len(hist)) if hist else 0.0


def kernel_share(t):
    """Estimated kernel seconds per op (flops at the replayed GEMM rate)
    over measured seconds per op."""
    kernel_s = ratio(t.per_op(t.flops()) / 1e9, t.gemm_gflop_s())
    return ratio(kernel_s, t.per_op(t.op_ms) / 1e3)


def trace_overhead(r):
    return ratio(percentile(r["traced"]["op_ms"], 50),
                 percentile(r["untraced"]["op_ms"], 50)) - 1


def error_rate(r):
    phases = (r["untraced"], r["traced"])
    return ratio(sum(p["failed"] for p in phases), sum(p["attempted"] for p in phases))


PER_LAYER = {
    # planner / comp / analysis
    "planner.compile_ms": ("ms", lambda t: statistics.mean(t.probes["compile_ms"])),
    "planner.compile_share": ("ratio", lambda t: ratio(t.stages["compile_ms"], t.op_ms)),
    "planner.cache_hit_ratio": ("ratio", lambda t: ratio(
        t.c["plan_cache_hits"], t.c["plan_cache_hits"] + t.c["plan_cache_misses"])),
    "analysis.analyze_ms": ("ms", lambda t: statistics.mean(t.probes["analyze_ms"])),
    # runtime: scheduler and shuffle
    "runtime.narrow_ms_per_op": ("ms", lambda t: t.per_op(t.stage_ms("narrow"))),
    "runtime.shuffle_ms_per_op": ("ms", lambda t: t.per_op(t.stage_ms("shuffle", "coshuffle"))),
    "runtime.task_skew": ("ratio", lambda t: t.stages["task_skew"]),
    "runtime.partition_imbalance": ("ratio", lambda t: imbalance(t.probes["partition_records"])),
    "runtime.tasks_per_op": ("count", lambda t: t.per_op(t.c["tasks_run"])),
    "runtime.shuffle_mb_per_op": ("MB", lambda t: t.per_op(t.c["shuffle_bytes"] / MB)),
    "runtime.cross_executor_mb_per_op": ("MB", lambda t: t.per_op(t.c["cross_executor_bytes"] / MB)),
    "runtime.local_shuffle_share": ("ratio", lambda t: ratio(
        t.c["local_shuffle_bytes"], t.c["local_shuffle_bytes"] + t.c["shuffle_bytes"])),
    "runtime.layer_coverage": ("ratio", lambda t: ratio(
        t.stages["compile_ms"] + sum(t.stages["wall_ms_by_kind"].values()), t.op_ms)),
    "runtime.tasks_retried": ("count", lambda t: t.c["tasks_retried"]),
    "runtime.tasks_recomputed": ("count", lambda t: t.c["tasks_recomputed"]),
    # runtime: Value codec and block store
    "runtime.codec_serialize_mb_s": ("MB/s", lambda t: t.rate("serialize", MB)),
    "runtime.codec_deserialize_mb_s": ("MB/s", lambda t: t.rate("deserialize", MB)),
    "runtime.evictions_per_op": ("count", lambda t: t.per_op(t.c["evictions"])),
    "runtime.evicted_mb_per_op": ("MB", lambda t: t.per_op(t.c["bytes_evicted"] / MB)),
    "runtime.reloaded_mb_per_op": ("MB", lambda t: t.per_op(t.c["bytes_reloaded"] / MB)),
    "runtime.reload_recomputes": ("count", lambda t: t.c["reload_recomputes"]),
    "runtime.peak_resident_mb": ("MB", lambda t: t.c["peak_resident_bytes"] / MB),
    # runtime: sessions
    "session.queued_share": ("ratio", lambda t: ratio(
        t.c["queries_queued"], t.c["queries_admitted"])),
    "session.fairness": ("ratio", lambda t: ratio(
        min(t.r["traced"]["client_ops"]), max(t.r["traced"]["client_ops"]))),
    # la
    "la.gemm_gflop_s": ("GFLOP/s", lambda t: t.gemm_gflop_s()),
    "la.add_gb_s": ("GB/s", lambda t: t.rate("add", 1e9)),
    "la.gflop_per_op": ("GFLOP", lambda t: t.per_op(t.flops()) / 1e9),
    "la.tile_allocs_per_op": ("count", lambda t: t.per_op(t.c["tile_allocs"])),
    "la.kernel_share": ("ratio", kernel_share),
    # net / dist
    "net.frame_encode_mb_s": ("MB/s", lambda t: t.rate("frame_encode", MB)),
    "net.frame_decode_mb_s": ("MB/s", lambda t: t.rate("frame_decode", MB)),
    "net.loopback_call_mb_s": ("MB/s", lambda t: t.rate("loopback", MB)),
    "dist.wire_mb_per_op": ("MB", lambda t: t.per_op(
        (t.c["dist_bytes_sent"] + t.c["dist_bytes_received"]) / MB)),
    "dist.wire_over_cross": ("ratio", lambda t: ratio(
        t.c["dist_bytes_sent"], t.c["cross_executor_bytes"])),
    "dist.workers_lost": ("count", lambda t: t.c["workers_lost"]),
    "dist.partitions_reexecuted": ("count", lambda t: t.c["partitions_reexecuted"]),
    # storage
    "storage.spill_write_mb_s": ("MB/s", lambda t: t.rate("spill_write", MB)),
    "storage.spill_read_mb_s": ("MB/s", lambda t: t.rate("spill_read", MB)),
    "storage.checkpoint_mb_per_op": ("MB", lambda t: t.per_op(t.c["checkpoint_bytes"] / MB)),
    # the benchmark itself
    "bench.trace_overhead": ("ratio", lambda t: trace_overhead(t.r)),
    "bench.error_rate": ("ratio", lambda t: error_rate(t.r)),
}

# Metrics reported as 0 on a workload because the mechanism they measure
# does not run there.
_DIST = ["dist.wire_mb_per_op", "dist.wire_over_cross", "dist.workers_lost",
         "dist.partitions_reexecuted"]
_SPILL = ["runtime.evictions_per_op", "runtime.evicted_mb_per_op",
          "runtime.reloaded_mb_per_op", "runtime.reload_recomputes"]
NOT_APPLICABLE = {
    "factor-iter": _DIST + _SPILL + ["session.queued_share"],
    "service-mix": _DIST + _SPILL + ["storage.checkpoint_mb_per_op"],
    "add-dist-spill": ["storage.checkpoint_mb_per_op", "session.queued_share"],
}


def metrics_of(raw, trace):
    if trace:
        t = Traced(raw)
        table = {k: (u, f(t)) for k, (u, f) in PER_LAYER.items()}
    else:
        table = {k: (u, f(raw)) for k, (u, f) in END_TO_END.items()}
    return {k: {"value": float(v), "unit": u} for k, (u, v) in table.items()}


def outcome(raw, trace):
    """(correct, attempted, failed) over every timed op of the run."""
    phases = ("untraced", "traced") if trace else ("all_cpus", "one_cpu")
    attempted = sum(raw[p]["attempted"] for p in phases)
    failed = sum(raw[p]["failed"] for p in phases)
    return failed == 0 and raw["final_check"] == "OK", attempted, failed


# ---- build and run --------------------------------------------------------


def build_root():
    return os.path.join(os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def child_env():
    """The environment for the build and the driver: temporary files stay
    inside the build root."""
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the driver; returns its path."""
    tree = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, env=child_env())
    subprocess.run(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, env=child_env())
    return os.path.join(tree, "perfbench")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = ap.parse_args(argv)

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    out = os.path.join(build_root(), "out", args.workload)
    os.makedirs(out, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              env=child_env())
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        return proc.returncode
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(out, f"raw-trace{args.trace}.json"), "w") as f:
        json.dump(raw, f)

    correct, attempted, failed = outcome(raw, args.trace)
    metrics = metrics_of(raw, args.trace)
    samples = len(raw["traced" if args.trace else "all_cpus"]["op_ms"])
    info = {
        "workload": raw["workload"], "inputs": raw["inputs"], "clients": raw["clients"],
        "config": raw["config"], "samples": samples, "tail_percentile": tail_percentile(samples),
        "final_check": raw["final_check"],
        "not_applicable": NOT_APPLICABLE[args.workload] if args.trace else [],
    }
    if not args.smoke and args.trace == 0 and beyond(samples, 90) < MIN_BEYOND:
        print(f"perfbench: only {samples} ops; fewer than {MIN_BEYOND} lie beyond p90",
              file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(out, f"result-trace{args.trace}.json"), "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    print("info: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
