// Runtime metrics: shuffle traffic, record counts, and stage timings.
// Benchmarks report these next to wall time so the causal story behind a
// speedup (e.g. "SUMMA shuffles 8x fewer bytes") is auditable.
//
// Every counter is named once, in SAC_METRICS_FOR_EACH_COUNTER; the
// Counter enum, the MetricsSnapshot fields, the getters, Reset() and
// Snapshot() are all generated from that list, and every increment goes
// through one call: Add(Counter, n).
//
// Two layers:
//  * Metrics       -- engine-wide cumulative totals.
//  * StageRegistry -- one StageStats per plan stage (= per DISC operator
//    invocation, keyed by the dataset node's label). A stage's Add fans
//    out through its MetricSink to the stage's own counters, the totals
//    and (when it has one) the owning session, so the registry is a
//    strict refinement of Metrics: summing any counter over all stages
//    reproduces the engine-wide value. Totals-only by design (no stage
//    owns them): the peak_resident_bytes gauge, workers_lost, the
//    dist_bytes_* of coordinator heartbeats, and the query-level
//    queries_* / plan_cache_* counters (which still reach the session).
//
// Concurrency: Metrics is sharded. Writers land on a per-thread shard
// (cache-line padded, relaxed atomics within the shard since several
// threads may hash to one), so the per-record hot path never contends on
// a shared cache line. Readers fold the shards: Snapshot() and the
// counter getters sum across shards, which is exact only when no writer
// is concurrently mid-increment -- the same "not during a query" contract
// Reset() always had.
#ifndef SAC_COMMON_METRICS_H_
#define SAC_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/trace.h"

namespace sac {

/// Every counter, in declaration order: the single source of truth for
/// counter names (bench report JSON, profile.json, and the docs glossary
/// drift check scripts/check_metrics_glossary.sh all key off these
/// strings). Adding a counter is one X(name) line here plus one glossary
/// row in docs/OPERATIONS.md. Keep one X(name) per line: the glossary
/// check extracts names line by line.
#define SAC_METRICS_FOR_EACH_COUNTER(X)                                    \
  /* Shuffle (DESIGN.md section 8): serialized bytes that crossed        \
     partitions, records routed, the subset of bytes that crossed        \
     executors, and bytes the executor-local zero-copy path moved        \
     (metered via Value::SerializedSize, so fast-path and                \
     forced-serialize runs account identically). */                     \
  X(shuffle_bytes)                                                         \
  X(shuffle_records)                                                       \
  X(cross_executor_bytes)                                                  \
  X(local_shuffle_bytes)                                                   \
  X(tasks_run)                                                             \
  X(tasks_recomputed)                                                      \
  X(records_processed)                                                     \
  /* Recovery (docs/FAULT_MODEL.md): attempts beyond the first, time     \
     slept in backoff before them, faults the FaultPlan injected, and    \
     checkpoint spill-file traffic in both directions. */                \
  X(tasks_retried)                                                         \
  X(retry_wait_us)                                                         \
  X(faults_injected)                                                       \
  X(checkpoint_bytes)                                                      \
  X(checkpoint_restore_bytes)                                              \
  /* Memory (docs/MEMORY_MODEL.md): partitions pushed out to spill       \
     files by budget pressure, bytes written out / read back by          \
     eviction+reload, reloads that fell back to lineage recomputation    \
     (unreadable spill), and the high-water mark of resident partition   \
     bytes -- a max gauge, engine-wide, never summed (IsGauge). */       \
  X(evictions)                                                             \
  X(bytes_evicted)                                                         \
  X(bytes_reloaded)                                                        \
  X(reload_recomputes)                                                     \
  X(peak_resident_bytes)                                                   \
  /* Kernel layer (docs/KERNELS.md): flops credited to each kernel       \
     backend, and output/temporary tiles allocated by elementwise plan   \
     stages (the counter the fusion gate in bench_abl_backend           \
     watches). */                                                        \
  X(flops_generic)                                                         \
  X(flops_packed)                                                          \
  X(flops_jvmlike)                                                         \
  X(tile_allocs)                                                           \
  /* Query service (docs/SERVICE.md): queries granted an admission      \
     ticket, queries that had to wait for one, and compiled-plan cache   \
     traffic (a hit skips parse->rewrite->plan). */                      \
  X(queries_admitted)                                                      \
  X(queries_queued)                                                        \
  X(plan_cache_hits)                                                       \
  X(plan_cache_misses)                                                     \
  X(plan_cache_evictions)                                                  \
  /* Distributed runtime (docs/DISTRIBUTED.md): framed wire bytes in     \
     each direction between driver and workers (headers included),      \
     workers declared dead, and map-side partitions re-executed from     \
     lineage because their buckets died with a worker. */                \
  X(dist_bytes_sent)                                                       \
  X(dist_bytes_received)                                                   \
  X(workers_lost)                                                          \
  X(partitions_reexecuted)

/// One enumerator per counter, in X-macro order.
enum class Counter : uint8_t {
#define SAC_METRICS_ENUM(name) name,
  SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_ENUM)
#undef SAC_METRICS_ENUM
};

#define SAC_METRICS_ONE(name) +1
inline constexpr size_t kNumCounters =
    0 SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_ONE);
#undef SAC_METRICS_ONE

/// True for the max gauge (peak_resident_bytes): it is raised with
/// Metrics::UpdatePeakResident, never Add-ed or summed.
constexpr bool IsGauge(Counter c) { return c == Counter::peak_resident_bytes; }

/// Plain, copyable view of the counters, folded once across shards --
/// use this instead of reading individual getters non-atomically mid-run.
struct MetricsSnapshot {
#define SAC_METRICS_FIELD(name) uint64_t name = 0;
  SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_FIELD)
#undef SAC_METRICS_FIELD

  /// Invokes fn(name, value) for every counter, in declaration order
  /// (names from SAC_METRICS_FOR_EACH_COUNTER). The mutable overload
  /// passes the field by reference -- used by the profile JSON parser.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
#define SAC_METRICS_APPLY(name) fn(#name, name);
    SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_APPLY)
#undef SAC_METRICS_APPLY
  }
  template <typename Fn>
  void ForEachCounter(Fn&& fn) {
#define SAC_METRICS_APPLY(name) fn(#name, name);
    SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_APPLY)
#undef SAC_METRICS_APPLY
  }

  std::string ToString() const;
};

/// Appends `"name":value` for every nonzero counter of `c`, in
/// declaration order, as JSON object members (no braces). A comma
/// precedes each member unless `out` ends with '{', so the members can
/// open an object or extend one. Zero counters are skipped: readers
/// default a missing counter to 0 (bench reports, profile.json).
void AppendCounterMembers(std::string* out, const MetricsSnapshot& c);

/// Counters for one engine/session. All counters are cumulative;
/// call Reset() between measured runs (never concurrently with a query --
/// Engine::ResetStats enforces this with an in-flight check).
class Metrics {
 public:
  void Reset();

  /// Adds n to counter c on the calling thread's shard.
  void Add(Counter c, uint64_t n = 1) {
    assert(!IsGauge(c) && "peak_resident_bytes is a gauge");
    Local().counts[static_cast<size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Monotone max-update of the resident-partition-bytes high-water mark.
  void UpdatePeakResident(uint64_t resident_bytes) {
    uint64_t prev = peak_resident_bytes_.load(std::memory_order_relaxed);
    while (prev < resident_bytes &&
           !peak_resident_bytes_.compare_exchange_weak(
               prev, resident_bytes, std::memory_order_relaxed)) {
    }
  }

  /// Current value of c, folded across shards.
  uint64_t Get(Counter c) const;

#define SAC_METRICS_GETTER(name) \
  uint64_t name() const { return Get(Counter::name); }
  SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_GETTER)
#undef SAC_METRICS_GETTER

  MetricsSnapshot Snapshot() const;
  std::string ToString() const;

 private:
  // Power of two so the thread->shard map is a mask, sized to cover
  // typical pool widths without making StageStats objects huge.
  static constexpr size_t kShards = 16;

  struct alignas(64) Shard {
    std::atomic<uint64_t> counts[kNumCounters] = {};
  };

  /// Shard owned by the calling thread (threads may share a shard; the
  /// relaxed atomics keep sharing correct, just slower).
  Shard& Local();

  Shard shards_[kShards];
  // Gauge high-water mark, not a sharded counter: a max cannot be folded
  // by summation, so it lives outside the shards (writes are rare --
  // once per publish/reload, not per record).
  std::atomic<uint64_t> peak_resident_bytes_{0};
};

/// A fixed fan-out list of up to three Metrics -- typically a stage's
/// own counters, the engine totals and the owning session's. Chosen once
/// per stage (or per call site), it turns every metering point into one
/// Add call. Cheap to copy.
class MetricSink {
 public:
  MetricSink() = default;
  explicit MetricSink(Metrics* a, Metrics* b = nullptr, Metrics* c = nullptr)
      : sinks_{a, b, c} {}

  void Add(Counter c, uint64_t n = 1) const {
    for (Metrics* m : sinks_) {
      if (m != nullptr) m->Add(c, n);
    }
  }

  /// The sink installed on this thread by the innermost live Scope
  /// (the engine installs the running task's stage sink), or nullptr.
  /// Lets code below the engine -- the planner's kernel closures --
  /// meter into the right stage without threading a sink through.
  static const MetricSink* Current();

  /// RAII: installs `sink` as Current() for this thread until destroyed.
  class Scope {
   public:
    explicit Scope(const MetricSink* sink);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const MetricSink* prev_;
  };

 private:
  std::array<Metrics*, 3> sinks_{};
};

/// Copyable per-stage view (see StageStats).
struct StageStatsSnapshot {
  int id = -1;
  std::string label;
  std::string kind;  // "source" | "narrow" | "shuffle" | "coshuffle" | ...
  MetricsSnapshot counters;
  double wall_ms = 0;
  trace::HistogramSnapshot task_us;  // per-task duration histogram
};

/// Counters for one plan stage: its own Metrics plus a sink that fans
/// every Add out to them, the engine-wide totals (so the global Metrics
/// stays the roll-up of all stages) and, when the stage belongs to a
/// session (docs/SERVICE.md), the session's Metrics.
class StageStats {
 public:
  StageStats(int id, std::string label, std::string kind, Metrics* totals,
             Metrics* session = nullptr)
      : id_(id), label_(std::move(label)), kind_(std::move(kind)),
        sink_(&local_, totals, session) {}

  StageStats(const StageStats&) = delete;
  StageStats& operator=(const StageStats&) = delete;

  int id() const { return id_; }
  const std::string& label() const { return label_; }
  const std::string& kind() const { return kind_; }
  const Metrics& counters() const { return local_; }
  const MetricSink& sink() const { return sink_; }

  void Add(Counter c, uint64_t n = 1) { sink_.Add(c, n); }
  void RecordTaskMicros(uint64_t us) { task_us_.Record(us); }
  void AddWallMicros(uint64_t us) {
    wall_us_.fetch_add(us, std::memory_order_relaxed);
  }

  StageStatsSnapshot Snapshot() const;

 private:
  const int id_;
  const std::string label_;
  const std::string kind_;
  Metrics local_;
  const MetricSink sink_;
  trace::Histogram task_us_;
  std::atomic<uint64_t> wall_us_{0};
};

/// Reference to a stage that stays valid across StageRegistry::Reset():
/// the generation tag makes stale references resolve to nullptr instead
/// of aliasing a new stage.
struct StageRef {
  uint64_t gen = 0;
  int id = -1;
};

/// Owns the per-stage stats of one engine. Stage objects have stable
/// addresses until Reset(); Reset() must not race with query execution
/// (same contract as Metrics::Reset()).
class StageRegistry {
 public:
  explicit StageRegistry(Metrics* totals) : totals_(totals) {}

  /// Creates a stage and returns a generation-tagged reference to it.
  /// When `session` is non-null the stage's counters additionally
  /// forward to that per-session Metrics sink (docs/SERVICE.md); the
  /// caller must keep the sink alive until the registry is Reset().
  StageRef NewStage(const std::string& label, const std::string& kind,
                    Metrics* session = nullptr);

  /// Resolves a reference; nullptr when the ref predates the last
  /// Reset() (or was never assigned).
  StageStats* Get(const StageRef& ref);

  /// Current generation tag (bumped by Reset()); a StageRef with this gen
  /// must resolve via Get() -- the invariant Engine::VerifyLineage checks.
  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return gen_;
  }

  std::vector<StageStatsSnapshot> Snapshot() const;

  /// Drops all stages (totals are reset separately).
  void Reset();

  size_t size() const;

  /// Human-readable table, one row per stage.
  std::string ReportString() const;

 private:
  mutable std::mutex mu_;
  uint64_t gen_ = 1;
  std::deque<StageStats> stages_;  // deque: stable addresses on growth
  Metrics* totals_;
};

/// Wall-clock stopwatch in milliseconds.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void Restart() { start_ = Clock::now(); }
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }
  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sac

#endif  // SAC_COMMON_METRICS_H_
