// The benchmark's workloads. Each owns one sac::Sac engine built
// from its seed, runs one closed-loop operation per call, and checks every
// result against a reference computed once outside the timed window.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/api/sac.h"
#include "src/common/metrics.h"
#include "src/runtime/value.h"

namespace perfbench {

/// One completed operation, as a client sees it.
struct OpResult {
  bool ok = false;       // ran without error and matched the oracle
  double op_ms = 0;      // wall time of the operation alone
  double flops = 0;      // analytic flops of the operation
  std::string error;     // first error or oracle mismatch, when !ok
  // Engine counters the oracle check itself added (its collects and
  // reloads); exact only while a single client runs.
  sac::MetricsSnapshot oracle_counters;
};

/// `after - before`, counter by counter (peak_resident_bytes included,
/// though as a high-water mark its difference means nothing).
sac::MetricsSnapshot Delta(const sac::MetricsSnapshot& after,
                           const sac::MetricsSnapshot& before);
/// `*sum += d`, counter by counter.
void Accumulate(sac::MetricsSnapshot* sum, const sac::MetricsSnapshot& d);

/// Inputs the module replay probes run on: the workload's own tile
/// records and the query texts it sends.
struct ProbeInputs {
  sac::runtime::ValueVec tile_records;  // ((ii,jj), Tile) rows
  std::vector<std::string> query_texts;  // bound at the Sac level
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  /// Human-readable input sizes, stamped into the report.
  virtual std::string inputs() const = 0;
  /// Closed-loop clients driving the engine concurrently.
  virtual int clients() const { return 1; }

  /// Builds a fresh engine, generates and binds the inputs, starts the
  /// workers and runs the first (cold) operation. This is what setup_s
  /// times; call Teardown() before setting up again.
  virtual sac::Status Setup() = 0;
  /// Releases the engine Setup() built, with everything bound to it.
  virtual void Teardown() = 0;
  /// Computes the oracle's reference results. Runs once after the last
  /// Setup(), outside every timed window.
  virtual sac::Status BuildOracle() = 0;
  /// Runs client `client`'s next operation and checks it. Thread-safe
  /// across distinct clients; `op_id` tags the operation's trace spans.
  virtual OpResult RunOp(int client, uint64_t op_id) = 0;
  /// An extra check after the last timed operation (default: none).
  virtual sac::Status FinalCheck() { return sac::Status::OK(); }

  virtual sac::Sac& ctx() = 0;
  virtual ProbeInputs Probe() = 0;
};

/// The workload named `name`, or nullptr. `smoke` shrinks every size so a
/// run finishes in seconds; the engines write spill and checkpoint files
/// under `spill_dir` only.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke,
                                       const std::string& spill_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
