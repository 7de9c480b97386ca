#include "src/common/metrics.h"

#include <cstdio>
#include <sstream>
#include <string_view>

namespace sac {

namespace {
/// Small dense per-thread id used to spread threads over metric shards.
/// Process-wide so every Metrics instance shards the same way.
uint32_t ThreadShardSeed() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// The thread's current MetricSink (see MetricSink::Scope).
const MetricSink*& TlsSink() {
  thread_local const MetricSink* current = nullptr;
  return current;
}
}  // namespace

Metrics::Shard& Metrics::Local() {
  return shards_[ThreadShardSeed() & (kShards - 1)];
}

void AppendCounterMembers(std::string* out, const MetricsSnapshot& c) {
  c.ForEachCounter([&](const char* name, uint64_t value) {
    if (value == 0) return;
    if (!out->empty() && out->back() != '{') *out += ',';
    *out += '"';
    *out += name;
    *out += "\":";
    *out += std::to_string(value);
  });
}

void Metrics::Reset() {
  for (Shard& s : shards_) {
    for (std::atomic<uint64_t>& v : s.counts) {
      v.store(0, std::memory_order_relaxed);
    }
  }
  peak_resident_bytes_.store(0, std::memory_order_relaxed);
}

uint64_t Metrics::Get(Counter c) const {
  if (IsGauge(c)) return peak_resident_bytes_.load(std::memory_order_relaxed);
  uint64_t total = 0;
  for (const Shard& s : shards_) {
    total += s.counts[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }
  return total;
}

std::string MetricsSnapshot::ToString() const {
  // Every nonzero counter as name=value, byte counters in MB.
  std::ostringstream os;
  ForEachCounter([&](const char* name, uint64_t value) {
    if (value == 0) return;
    if (os.tellp() > 0) os << ' ';
    os << name << '=';
    if (std::string_view(name).ends_with("_bytes")) {
      os << value / (1024.0 * 1024.0) << "MB";
    } else {
      os << value;
    }
  });
  return os.str();
}

MetricsSnapshot Metrics::Snapshot() const {
  MetricsSnapshot s;
#define SAC_METRICS_READ(name) s.name = Get(Counter::name);
  SAC_METRICS_FOR_EACH_COUNTER(SAC_METRICS_READ)
#undef SAC_METRICS_READ
  return s;
}

std::string Metrics::ToString() const { return Snapshot().ToString(); }

const MetricSink* MetricSink::Current() { return TlsSink(); }

MetricSink::Scope::Scope(const MetricSink* sink) : prev_(TlsSink()) {
  TlsSink() = sink;
}

MetricSink::Scope::~Scope() { TlsSink() = prev_; }

StageStatsSnapshot StageStats::Snapshot() const {
  StageStatsSnapshot s;
  s.id = id_;
  s.label = label_;
  s.kind = kind_;
  s.counters = local_.Snapshot();
  s.wall_ms = wall_us_.load(std::memory_order_relaxed) / 1000.0;
  s.task_us = task_us_.Snapshot();
  return s;
}

StageRef StageRegistry::NewStage(const std::string& label,
                                 const std::string& kind,
                                 Metrics* session) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(stages_.size());
  stages_.emplace_back(id, label, kind, totals_, session);
  return StageRef{gen_, id};
}

StageStats* StageRegistry::Get(const StageRef& ref) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ref.gen != gen_ || ref.id < 0 ||
      ref.id >= static_cast<int>(stages_.size())) {
    return nullptr;
  }
  return &stages_[ref.id];
}

std::vector<StageStatsSnapshot> StageRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StageStatsSnapshot> out;
  out.reserve(stages_.size());
  for (const StageStats& s : stages_) out.push_back(s.Snapshot());
  return out;
}

void StageRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stages_.clear();
  ++gen_;
}

size_t StageRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stages_.size();
}

std::string StageRegistry::ReportString() const {
  const std::vector<StageStatsSnapshot> stages = Snapshot();
  std::ostringstream os;
  char line[512];
  std::snprintf(line, sizeof(line),
                "%-5s %-24s %-9s %6s %12s %12s %10s %10s %7s %7s %6s %10s "
                "%8s %8s %9s %10s %10s %6s %9s %12s\n",
                "stage", "label", "kind", "tasks", "records_in",
                "shuffle_KB", "cross_KB", "local_KB", "recomp", "retries",
                "faults", "backoff_ms", "ckpt_KB", "evict_KB", "reload_KB",
                "dist_tx_KB", "dist_rx_KB", "reexec", "wall_ms",
                "task_p95_us");
  os << line;
  for (const StageStatsSnapshot& s : stages) {
    std::snprintf(
        line, sizeof(line),
        "%-5d %-24s %-9s %6llu %12llu %12.1f %10.1f %10.1f %7llu %7llu "
        "%6llu %10.1f %8.1f %8.1f %9.1f %10.1f %10.1f %6llu %9.2f %12llu\n",
        s.id, s.label.substr(0, 24).c_str(), s.kind.c_str(),
        static_cast<unsigned long long>(s.counters.tasks_run),
        static_cast<unsigned long long>(s.counters.records_processed),
        s.counters.shuffle_bytes / 1024.0,
        s.counters.cross_executor_bytes / 1024.0,
        s.counters.local_shuffle_bytes / 1024.0,
        static_cast<unsigned long long>(s.counters.tasks_recomputed),
        static_cast<unsigned long long>(s.counters.tasks_retried),
        static_cast<unsigned long long>(s.counters.faults_injected),
        s.counters.retry_wait_us / 1000.0,
        (s.counters.checkpoint_bytes + s.counters.checkpoint_restore_bytes) /
            1024.0,
        s.counters.bytes_evicted / 1024.0,
        s.counters.bytes_reloaded / 1024.0,
        s.counters.dist_bytes_sent / 1024.0,
        s.counters.dist_bytes_received / 1024.0,
        static_cast<unsigned long long>(s.counters.partitions_reexecuted),
        s.wall_ms,
        static_cast<unsigned long long>(s.task_us.Percentile(0.95)));
    os << line;
  }
  return os.str();
}

}  // namespace sac
