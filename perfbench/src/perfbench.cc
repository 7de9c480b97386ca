// The benchmark driver: runs one workload as a closed loop for a fixed
// time and writes the raw measurements as one JSON object. run.py (next to
// this directory) turns them into the end-to-end and per-module metrics.
//
//   perfbench --workload factor-iter --seed 1 --seconds 10 --trace 0
//             --out DIR [--smoke]
//
// --trace 0 times the workload with the engine tracer off: several
// set-ups, then alternating blocks on all CPUs and pinned to one CPU.
// --trace 1 times an untraced and a traced window back to back, then
// replays each module's public functions on the workload's inputs, and
// writes a Chrome trace and a per-layer self-time table into DIR.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "perfbench/src/probes.h"
#include "perfbench/src/workloads.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace perfbench {
namespace {

using sac::Status;
using sac::Stopwatch;

/// Engine settings read from the environment. The benchmark pins its own
/// configuration, so any of them being set would silently change what it
/// measures.
constexpr const char* kEngineOverrides[] = {
    "SAC_MEM_BUDGET",        "SAC_SESSION_MEM_BUDGET", "SAC_WORKERS",
    "SAC_TRANSPORT",         "SAC_KERNEL_BACKEND",     "SAC_MAX_CONCURRENT",
    "SAC_FAULT_PLAN",        "SAC_AUTO_STRATEGY",      "SAC_SHUFFLE_FAST_PATH",
    "SAC_TRACE",             "SAC_SAMPLE_INTERVAL_US",
};

/// Share of a --trace 0 run's operations pinned to one CPU.
constexpr double kPinnedShare = 0.25;
/// Length of one all-CPU + pinned block pair.
constexpr double kCycleSeconds = 1.0;
/// A --trace 0 run sets up at least kMinSetups times and until the set-ups
/// add up to kMinSetupSeconds (setup_s is their median), so that a cheap
/// set-up is repeated often enough for its median to be steady.
constexpr int kMinSetups = 7;
constexpr double kMinSetupSeconds = 3.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1" ? 1 : v == "0" ? 0 : -1;
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->trace >= 0 &&
         !a->out.empty();
}

// ---- CPU affinity ---------------------------------------------------------

/// Applies `mask` to every thread of the process (pool threads included;
/// threads started later inherit it from their creator).
bool SetProcessAffinity(const cpu_set_t& mask) {
  bool ok = true;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = static_cast<pid_t>(std::stol(entry.path().filename()));
    if (sched_setaffinity(tid, sizeof(mask), &mask) != 0) ok = false;
  }
  return ok;
}

/// Pins the whole process to its first allowed CPU while alive; restores
/// the original mask on destruction.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&original_);
    sched_getaffinity(0, sizeof(original_), &original_);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) {
        CPU_SET(c, &one);
        break;
      }
    }
    SetProcessAffinity(one);
  }
  ~PinToOneCpu() { SetProcessAffinity(original_); }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t original_;
};

int AllowedCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return 0;
  return CPU_COUNT(&mask);
}

// ---- closed-loop phases ---------------------------------------------------

/// Every operation of one or more phases.
struct Phase {
  std::vector<double> op_ms;  // completed operations only
  int64_t attempted = 0;
  int64_t failed = 0;
  double busy_s = 0;    // summed operation time, failed ones included
  double window_s = 0;  // wall time for several clients, busy_s for one
  double flops = 0;
  std::vector<int64_t> client_ops;
  std::vector<std::string> errors;  // the first few
  sac::MetricsSnapshot oracle_counters;

  void Record(const OpResult& r) {
    ++attempted;
    busy_s += r.op_ms / 1e3;
    Accumulate(&oracle_counters, r.oracle_counters);
    if (!r.ok) {
      ++failed;
      if (errors.size() < 5) errors.push_back(r.error);
      return;
    }
    op_ms.push_back(r.op_ms);
    flops += r.flops;
  }

  void Merge(const Phase& p) {
    op_ms.insert(op_ms.end(), p.op_ms.begin(), p.op_ms.end());
    attempted += p.attempted;
    failed += p.failed;
    busy_s += p.busy_s;
    window_s += p.window_s;
    flops += p.flops;
    Accumulate(&oracle_counters, p.oracle_counters);
    client_ops.resize(std::max(client_ops.size(), p.client_ops.size()), 0);
    for (size_t c = 0; c < p.client_ops.size(); ++c) {
      client_ops[c] += p.client_ops[c];
    }
    for (const auto& e : p.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

/// Runs every client of `wl` in a closed loop: each sends its next
/// operation only after the previous one returned and was checked. One
/// client runs until its operations add up to `seconds` (oracle time left
/// out); several run for `seconds` of wall time, the oracle being their
/// think time. A single client's operations whose id is a multiple of
/// `pin_every` run pinned to one CPU and go to `*pinned` (0 = none).
Phase RunPhase(Workload& wl, double seconds, std::atomic<uint64_t>* next_op,
               int pin_every = 0, Phase* pinned = nullptr) {
  const int clients = wl.clients();
  Phase out;
  out.client_ops.assign(clients, 0);
  if (clients == 1) {
    while (out.busy_s < seconds) {
      const uint64_t id = next_op->fetch_add(1) + 1;
      const bool pin = pin_every > 0 && id % pin_every == 0;
      std::optional<PinToOneCpu> on_one_cpu;
      if (pin) on_one_cpu.emplace();
      const OpResult r = wl.RunOp(0, id);
      on_one_cpu.reset();
      (pin ? pinned : &out)->Record(r);
    }
    out.window_s = out.busy_s;
    out.client_ops[0] = static_cast<int64_t>(out.op_ms.size());
    return out;
  }
  std::vector<Phase> per(clients);
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (wall.ElapsedMillis() < seconds * 1e3) {
        per[c].Record(wl.RunOp(c, next_op->fetch_add(1) + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < clients; ++c) {
    out.Merge(per[c]);
    out.client_ops[c] = static_cast<int64_t>(per[c].op_ms.size());
  }
  out.window_s = wall.ElapsedMillis() / 1e3;
  return out;
}

/// The untraced measurement: all-CPU operations in `*all`, a quarter of
/// them pinned to one CPU in `*pinned`. A single client interleaves the
/// two per operation, so slow drifts of the host hit both alike; several
/// clients alternate short blocks. The stage registry, which grows by a
/// few stages per operation, is cleared between blocks.
void RunMeasured(Workload& wl, double seconds, Phase* all, Phase* pinned) {
  std::atomic<uint64_t> next_op{0};
  const int cycles =
      std::max(1, static_cast<int>(std::lround(seconds / kCycleSeconds)));
  const int pin_every = static_cast<int>(std::lround(1 / kPinnedShare));
  const double all_s = seconds * (1 - kPinnedShare) / cycles;
  for (int c = 0; c < cycles; ++c) {
    if (wl.clients() == 1) {
      all->Merge(RunPhase(wl, all_s, &next_op, pin_every, pinned));
    } else {
      all->Merge(RunPhase(wl, all_s, &next_op));
      PinToOneCpu pin;
      pinned->Merge(RunPhase(wl, seconds * kPinnedShare / cycles, &next_op));
    }
    wl.ctx().ResetStats();
  }
  if (wl.clients() == 1) pinned->window_s = pinned->busy_s;
}

// ---- JSON output ----------------------------------------------------------

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  return "\"" + sac::trace::JsonEscape(s) + "\"";
}

template <typename T>
std::string Array(const std::vector<T>& xs) {
  std::string s = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ",";
    if constexpr (std::is_same_v<T, std::string>) {
      s += JsonStr(xs[i]);
    } else {
      s += JsonNum(static_cast<double>(xs[i]));
    }
  }
  return s + "]";
}

/// An ordered JSON object built field by field.
class Object {
 public:
  Object& Raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + JsonStr(k) + ":" + json;
    return *this;
  }
  Object& Num(const std::string& k, double v) { return Raw(k, JsonNum(v)); }
  Object& Str(const std::string& k, const std::string& v) {
    return Raw(k, JsonStr(v));
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string CountersJson(const sac::MetricsSnapshot& m) {
  Object o;
  m.ForEachCounter([&](const char* name, uint64_t v) {
    o.Num(name, static_cast<double>(v));
  });
  return o.json();
}

std::string PhaseJson(const Phase& p) {
  return Object()
      .Raw("op_ms", Array(p.op_ms))
      .Num("attempted", static_cast<double>(p.attempted))
      .Num("failed", static_cast<double>(p.failed))
      .Num("window_s", p.window_s)
      .Num("flops", p.flops)
      .Raw("client_ops", Array(p.client_ops))
      .Raw("errors", Array(p.errors))
      .Raw("oracle_counters", CountersJson(p.oracle_counters))
      .json();
}

std::string ReplayJson(const Replay& r) {
  return Object()
      .Num("work", r.work)
      .Num("seconds", r.seconds)
      .json();
}

std::string ConfigJson(Workload& wl, const Args& a) {
  sac::Sac& ctx = wl.ctx();
  const auto& c = ctx.engine().config();
  return Object()
      .Str("kernel_backend", c.kernel_backend)
      .Str("transport", c.workers.empty() ? "none" : c.transport)
      .Str("workers", c.workers)
      .Num("memory_budget_bytes", static_cast<double>(c.memory_budget_bytes))
      .Num("num_executors", c.num_executors)
      .Num("cores_per_executor", c.cores_per_executor)
      .Num("default_parallelism", c.default_parallelism)
      .Num("max_concurrent_queries", c.max_concurrent_queries)
      .Raw("auto_strategy", ctx.options().auto_strategy ? "true" : "false")
      .Num("plan_cache_capacity",
           static_cast<double>(ctx.plan_cache().capacity()))
      .Num("host_cpus", std::thread::hardware_concurrency())
      .Num("affinity_cpus", AllowedCpus())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Raw("smoke", a.smoke ? "true" : "false")
      .json();
}

double PeakRssKib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

// ---- the traced run's span analysis ---------------------------------------

/// The layer a span is charged to: the benchmark's own spans by name,
/// engine spans by category.
std::string LayerOf(const sac::trace::SpanRecord& s) {
  return s.category == "bench" ? s.name : "engine." + s.category;
}

/// Per-layer span count, total and self time. Spans nest per thread, so
/// a span's self time is its duration less that of the spans nested
/// directly inside it on the same thread (engine tasks on pool threads
/// are layers of their own).
std::string SelfTimeJson(const std::vector<sac::trace::SpanRecord>& spans) {
  std::vector<const sac::trace::SpanRecord*> order;
  for (const auto& s : spans) {
    if (!s.instant && !s.counter) order.push_back(&s);
  }
  std::sort(order.begin(), order.end(), [](const auto* x, const auto* y) {
    return std::tie(x->tid, x->start_us, y->dur_us) <
           std::tie(y->tid, y->start_us, x->dur_us);
  });
  std::unordered_map<uint64_t, uint64_t> child_us;
  std::vector<const sac::trace::SpanRecord*> open;  // enclosing spans
  for (const auto* s : order) {
    while (!open.empty() &&
           (open.back()->tid != s->tid ||
            open.back()->start_us + open.back()->dur_us <= s->start_us)) {
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()->id] += s->dur_us;
    open.push_back(s);
  }
  struct Row {
    int64_t count = 0;
    double total_ms = 0, self_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (const auto* s : order) {
    Row& r = rows[LayerOf(*s)];
    ++r.count;
    r.total_ms += s->dur_us / 1e3;
    const uint64_t kids = child_us[s->id];
    r.self_ms += (s->dur_us > kids ? s->dur_us - kids : 0) / 1e3;
  }
  Object o;
  for (const auto& [layer, r] : rows) {
    o.Raw(layer, Object()
                     .Num("count", static_cast<double>(r.count))
                     .Num("total_ms", r.total_ms)
                     .Num("self_ms", r.self_ms)
                     .json());
  }
  return o.json();
}

/// Summed wall time per stage kind, the worst task skew, and the summed
/// duration of the planner's compile spans.
std::string StagesJson(const std::vector<sac::StageStatsSnapshot>& stages,
                       const std::vector<sac::trace::SpanRecord>& spans) {
  std::map<std::string, double> wall_by_kind;
  double skew = 0;
  for (const auto& s : stages) {
    wall_by_kind[s.kind] += s.wall_ms;
    if (s.task_us.count > 0 && s.task_us.Mean() > 0) {
      skew = std::max(skew,
                      static_cast<double>(s.task_us.max) / s.task_us.Mean());
    }
  }
  double compile_ms = 0;
  for (const auto& s : spans) {
    if (s.category == "compile" && !s.instant) compile_ms += s.dur_us / 1e3;
  }
  Object kinds;
  for (const auto& [k, ms] : wall_by_kind) kinds.Num(k, ms);
  return Object()
      .Raw("wall_ms_by_kind", kinds.json())
      .Num("task_skew", skew)
      .Num("compile_ms", compile_ms)
      .json();
}

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  f.close();
  return f ? Status::OK() : Status::IoError("cannot write " + path);
}

// ---- the two kinds of run -------------------------------------------------

/// --trace 0: set-up times, then cycles of all-CPU and pinned phases.
Status RunUntraced(Workload& wl, const Args& a, Object* report) {
  std::vector<double> setup_s;
  double total_s = 0;
  while (setup_s.empty() ||
         (!a.smoke && (static_cast<int>(setup_s.size()) < kMinSetups ||
                       total_s < kMinSetupSeconds))) {
    wl.Teardown();
    Stopwatch sw;
    SAC_RETURN_NOT_OK(wl.Setup());
    setup_s.push_back(sw.ElapsedMillis() / 1e3);
    total_s += setup_s.back();
  }
  SAC_RETURN_NOT_OK(wl.BuildOracle());
  wl.ctx().ResetStats();

  Phase all, pinned;
  RunMeasured(wl, a.seconds, &all, &pinned);
  report->Raw("setup_s", Array(setup_s))
      .Str("final_check", wl.FinalCheck().ToString())
      .Raw("all_cpus", PhaseJson(all))
      .Raw("one_cpu", PhaseJson(pinned));
  return Status::OK();
}

/// --trace 1: an untraced window, a traced window, then the module
/// replays; per-layer counters come from the traced window alone.
Status RunTraced(Workload& wl, const Args& a, Object* report) {
  SAC_RETURN_NOT_OK(wl.Setup());
  SAC_RETURN_NOT_OK(wl.BuildOracle());
  sac::Sac& ctx = wl.ctx();
  std::atomic<uint64_t> next_op{0};
  const Phase untraced = RunPhase(wl, a.seconds * 0.4, &next_op);

  ctx.ResetStats();
  ctx.tracer().set_enabled(true);
  const Phase traced = RunPhase(wl, a.seconds * 0.4, &next_op);
  const sac::MetricsSnapshot counters = ctx.metrics().Snapshot();
  const auto stages = ctx.stages().Snapshot();
  std::vector<sac::trace::SpanRecord> spans = ctx.tracer().Drain();
  const std::string stages_json = StagesJson(stages, spans);

  SAC_ASSIGN_OR_RETURN(ProbeResults probes,
                       RunProbes(ctx, wl.Probe(), a.seconds * 0.2, a.out));
  for (auto& s : ctx.tracer().Drain()) spans.push_back(std::move(s));
  const uint64_t dropped = ctx.tracer().dropped_events();
  ctx.tracer().set_enabled(false);

  const std::string prefix = a.out + "/" + wl.name();
  SAC_RETURN_NOT_OK(
      WriteFile(prefix + ".trace.json",
                sac::trace::Tracer::ToChromeJson(spans, dropped)));
  SAC_RETURN_NOT_OK(WriteFile(prefix + ".selftime.json", SelfTimeJson(spans)));

  Object replays;
  replays.Raw("gemm", ReplayJson(probes.gemm))
      .Raw("add", ReplayJson(probes.add))
      .Raw("serialize", ReplayJson(probes.serialize))
      .Raw("deserialize", ReplayJson(probes.deserialize))
      .Raw("frame_encode", ReplayJson(probes.frame_encode))
      .Raw("frame_decode", ReplayJson(probes.frame_decode))
      .Raw("loopback", ReplayJson(probes.loopback))
      .Raw("spill_write", ReplayJson(probes.spill_write))
      .Raw("spill_read", ReplayJson(probes.spill_read))
      .Raw("compile_ms", Array(probes.compile_ms))
      .Raw("analyze_ms", Array(probes.analyze_ms))
      .Raw("partition_records", Array(probes.partition_records));
  report->Str("final_check", wl.FinalCheck().ToString())
      .Raw("untraced", PhaseJson(untraced))
      .Raw("traced", PhaseJson(traced))
      .Raw("counters", CountersJson(counters))
      .Raw("stages", stages_json)
      .Raw("probes", replays.json())
      .Num("trace_dropped", static_cast<double>(dropped));
  return Status::OK();
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out DIR [--smoke]\n");
    return 2;
  }
  std::vector<std::string> set;
  for (const char* var : kEngineOverrides) {
    if (std::getenv(var) != nullptr) set.push_back(var);
  }
  if (!set.empty()) {
    std::string names;
    for (const auto& v : set) names += (names.empty() ? "" : ", ") + v;
    std::fprintf(stderr,
                 "perfbench: refusing to run with engine overrides set in the "
                 "environment (%s); unset them so every run measures the same "
                 "configuration\n",
                 names.c_str());
    return 3;
  }
  const std::string spill_dir = a.out + "/spill";
  std::error_code ec;
  std::filesystem::create_directories(spill_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", spill_dir.c_str());
    return 1;
  }
  std::unique_ptr<Workload> wl =
      MakeWorkload(a.workload, a.seed, a.smoke, spill_dir);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }

  Object report;
  report.Str("workload", wl->name())
      .Num("seed", static_cast<double>(a.seed))
      .Num("seconds", a.seconds)
      .Num("trace", a.trace)
      .Str("inputs", wl->inputs())
      .Num("clients", wl->clients());
  const Status st =
      a.trace ? RunTraced(*wl, a, &report) : RunUntraced(*wl, a, &report);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  report.Raw("config", ConfigJson(*wl, a)).Num("rss_peak_kib", PeakRssKib());
  std::printf("%s\n", report.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
