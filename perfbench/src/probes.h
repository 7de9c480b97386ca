// Module replay probes for the traced run: each replays one module's
// public functions on a workload's own inputs and reports work per second.
// They never run inside an untraced timed window.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"

namespace perfbench {

/// Work done by one replay loop: `work` units (bytes or flops) in
/// `seconds`.
struct Replay {
  double work = 0;
  double seconds = 0;
};

struct ProbeResults {
  Replay gemm;         // flops of packed-backend GemmAccum
  Replay add;          // bytes read + written by Add / Axpby
  Replay serialize;    // bytes produced by Value::Serialize
  Replay deserialize;  // bytes consumed by Value::Deserialize
  Replay frame_encode;  // payload bytes through EncodeFrame
  Replay frame_decode;  // payload bytes through DecodeFrame (CRC checked)
  Replay loopback;      // wire bytes of LoopbackTransport::Call round trips
  Replay spill_write;   // file bytes written by WriteSpill
  Replay spill_read;    // file bytes read by ReadSpill
  std::vector<double> compile_ms;  // fresh Sac::Compile, per query text
  std::vector<double> analyze_ms;  // Sac::Analyze, per query text
  std::vector<int64_t> partition_records;  // Value::Hash() % P histogram
};

/// Runs every probe on `in`, spending about `budget_s` seconds in total.
/// `scratch_dir` receives the spill probe's file, removed afterwards.
sac::Result<ProbeResults> RunProbes(sac::Sac& ctx, const ProbeInputs& in,
                                    double budget_s,
                                    const std::string& scratch_dir);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
