#include "src/common/profile.h"

#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.h"
#include "src/runtime/engine.h"

namespace sac {
namespace {

using profile::BuildProfile;
using profile::DiffProfiles;
using profile::DiffResult;
using profile::DiffThresholds;
using profile::IsRegression;
using profile::ParseProfile;
using profile::Profile;
using profile::ProfileInputs;
using trace::SpanRecord;

SpanRecord Span(uint64_t id, uint64_t parent, const std::string& name,
                const std::string& category, uint64_t start_us,
                uint64_t dur_us) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.category = category;
  s.start_us = start_us;
  s.dur_us = dur_us;
  return s;
}

/// Synthetic trace: three sequential-ish roots with tasks underneath.
///   "load"  stage   [0, 100)  tasks [10,40) and [20,60)   (overlap!)
///   "join"  stage   [100, 300) task  [120,170), stage arg id=7
///   "collect:join" action [250, 340) -- overlaps "join" by 50us
/// plus a counter sample and an instant marker that must not become
/// stages.
ProfileInputs SyntheticInputs() {
  ProfileInputs in;
  in.spans.push_back(Span(1, 0, "load", "stage", 0, 100));
  in.spans.push_back(Span(2, 1, "load:task[0]", "task", 10, 30));
  in.spans.push_back(Span(3, 1, "load:task[1]", "task", 20, 40));
  SpanRecord join = Span(4, 0, "join", "stage", 100, 200);
  join.args.push_back({"stage", 7});
  in.spans.push_back(join);
  in.spans.push_back(Span(5, 4, "join:shuffle-write[0]", "task", 120, 50));
  in.spans.push_back(Span(6, 0, "collect:join", "action", 250, 90));
  SpanRecord sample = Span(7, 0, "engine", "counter", 5, 0);
  sample.counter = true;
  sample.args.push_back({"resident_bytes", 123});
  in.spans.push_back(sample);
  SpanRecord marker = Span(8, 0, "evict", "memory", 30, 0);
  marker.instant = true;
  in.spans.push_back(marker);

  StageStatsSnapshot ss;
  ss.id = 7;
  ss.label = "join";
  ss.kind = "shuffle";
  ss.counters.shuffle_bytes = 4096;
  ss.counters.shuffle_records = 16;
  in.stage_stats.push_back(ss);

  in.totals.tasks_run = 3;
  in.totals.shuffle_bytes = 4096;
  in.dropped_trace_events = 9;
  in.query = "unit:synthetic";
  return in;
}

TEST(ProfileBuildTest, StageTreeSelfTimeAndPhases) {
  Profile p = BuildProfile(SyntheticInputs());

  EXPECT_EQ(p.version, profile::kProfileVersion);
  EXPECT_EQ(p.query, "unit:synthetic");
  EXPECT_EQ(p.dropped_trace_events, 9u);
  EXPECT_EQ(p.totals.tasks_run, 3u);
  // Extent: first start 0 .. last end 340 (counter/instant spans carry
  // no duration and don't extend it).
  EXPECT_NEAR(p.trace_extent_ms, 0.34, 1e-9);
  EXPECT_NEAR(p.wall_ms, 0.34, 1e-9);  // hint 0 -> extent

  // Stages by total_us desc: join(200), load(100), collect:join(90).
  // The instant marker and the counter sample must not appear.
  ASSERT_EQ(p.stages.size(), 3u);
  EXPECT_EQ(p.stages[0].name, "join");
  EXPECT_EQ(p.stages[1].name, "load");
  EXPECT_EQ(p.stages[2].name, "collect:join");
  EXPECT_EQ(p.stages[2].category, "action");

  const profile::StageProfile& join = p.stages[0];
  EXPECT_EQ(join.total_us, 200u);
  EXPECT_EQ(join.task_time_us, 50u);
  EXPECT_EQ(join.self_us, 150u);  // 200 - one 50us task
  EXPECT_EQ(join.stage_id, 7);    // from the span arg
  ASSERT_EQ(join.phases.size(), 1u);
  EXPECT_EQ(join.phases[0].phase, "shuffle-write");
  EXPECT_EQ(join.phases[0].task_count, 1u);
  EXPECT_EQ(join.phases[0].busy_us, 50u);
  EXPECT_EQ(join.phases[0].longest_task_us, 50u);

  const profile::StageProfile& load = p.stages[1];
  EXPECT_EQ(load.total_us, 100u);
  EXPECT_EQ(load.task_time_us, 70u);  // 30 + 40
  // Self time subtracts the UNION of child intervals [10,60), not their
  // sum: 100 - 50.
  EXPECT_EQ(load.self_us, 50u);
  ASSERT_EQ(load.phases.size(), 1u);
  EXPECT_EQ(load.phases[0].phase, "task");
  EXPECT_EQ(load.phases[0].task_count, 2u);
  EXPECT_EQ(load.phases[0].busy_us, 50u);
  EXPECT_EQ(load.phases[0].longest_task_us, 40u);

  // Counter join by label: only "join" has registry stats.
  EXPECT_TRUE(join.has_counters);
  EXPECT_EQ(join.counters.shuffle_bytes, 4096u);
  EXPECT_EQ(join.counters.shuffle_records, 16u);
  EXPECT_FALSE(load.has_counters);

  // Sampler series rides along.
  ASSERT_EQ(p.samples.size(), 1u);
  EXPECT_EQ(p.samples[0].t_us, 5u);
  ASSERT_EQ(p.samples[0].values.size(), 1u);
  EXPECT_EQ(p.samples[0].values[0].key, "resident_bytes");
  EXPECT_EQ(p.samples[0].values[0].value, 123);
}

TEST(ProfileBuildTest, CriticalPathIsExclusiveFirstArrival) {
  Profile p = BuildProfile(SyntheticInputs());

  // Sweep: load [0,100) credits 100; join [100,300) credits 200;
  // collect:join [250,340) starts inside join, credits only [300,340).
  ASSERT_EQ(p.stages.size(), 3u);
  EXPECT_EQ(p.stages[0].exclusive_us, 200u);  // join
  EXPECT_EQ(p.stages[1].exclusive_us, 100u);  // load
  EXPECT_EQ(p.stages[2].exclusive_us, 40u);   // collect:join, clipped

  // Critical path: indices into stages, exclusive_us desc. Exclusive
  // credits sum to the extent, so coverage is exactly 100%.
  ASSERT_EQ(p.critical_path.size(), 3u);
  EXPECT_EQ(p.stages[p.critical_path[0]].name, "join");
  EXPECT_EQ(p.stages[p.critical_path[1]].name, "load");
  EXPECT_EQ(p.stages[p.critical_path[2]].name, "collect:join");
  EXPECT_NEAR(p.coverage_pct, 100.0, 1e-6);
  EXPECT_NEAR(p.stages[0].wall_pct, 200.0 / 340.0 * 100.0, 1e-6);
}

TEST(ProfileBuildTest, WallHintScalesCoverage) {
  ProfileInputs in = SyntheticInputs();
  in.wall_ms_hint = 0.68;  // exactly 2x the trace extent
  Profile p = BuildProfile(std::move(in));
  EXPECT_NEAR(p.wall_ms, 0.68, 1e-9);
  EXPECT_NEAR(p.trace_extent_ms, 0.34, 1e-9);
  EXPECT_NEAR(p.coverage_pct, 50.0, 1e-6);
}

TEST(ProfileJsonTest, ToJsonParseProfileRoundTrips) {
  Profile p = BuildProfile(SyntheticInputs());
  const std::string text = p.ToJson();

  Result<Profile> back = ParseProfile(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Profile& q = back.value();

  EXPECT_EQ(q.version, p.version);
  EXPECT_EQ(q.query, p.query);
  EXPECT_NEAR(q.wall_ms, p.wall_ms, 1e-3);
  EXPECT_NEAR(q.coverage_pct, p.coverage_pct, 1e-2);
  EXPECT_EQ(q.dropped_trace_events, 9u);
  EXPECT_EQ(q.totals.tasks_run, 3u);

  ASSERT_EQ(q.stages.size(), p.stages.size());
  for (size_t i = 0; i < p.stages.size(); ++i) {
    EXPECT_EQ(q.stages[i].name, p.stages[i].name);
    EXPECT_EQ(q.stages[i].category, p.stages[i].category);
    EXPECT_EQ(q.stages[i].total_us, p.stages[i].total_us);
    EXPECT_EQ(q.stages[i].self_us, p.stages[i].self_us);
    EXPECT_EQ(q.stages[i].exclusive_us, p.stages[i].exclusive_us);
    EXPECT_EQ(q.stages[i].has_counters, p.stages[i].has_counters);
    ASSERT_EQ(q.stages[i].phases.size(), p.stages[i].phases.size());
    for (size_t j = 0; j < p.stages[i].phases.size(); ++j) {
      EXPECT_EQ(q.stages[i].phases[j].phase, p.stages[i].phases[j].phase);
      EXPECT_EQ(q.stages[i].phases[j].busy_us, p.stages[i].phases[j].busy_us);
    }
  }
  EXPECT_EQ(q.stages[0].counters.shuffle_bytes, 4096u);

  ASSERT_EQ(q.critical_path.size(), p.critical_path.size());
  for (size_t i = 0; i < p.critical_path.size(); ++i) {
    EXPECT_EQ(q.stages[q.critical_path[i]].name,
              p.stages[p.critical_path[i]].name);
  }

  ASSERT_EQ(q.samples.size(), 1u);
  EXPECT_EQ(q.samples[0].t_us, 5u);
  ASSERT_EQ(q.samples[0].values.size(), 1u);
  EXPECT_EQ(q.samples[0].values[0].key, "resident_bytes");
  EXPECT_EQ(q.samples[0].values[0].value, 123);
}

TEST(ProfileJsonTest, ZeroCountersAreSkippedAndParseBackIdentical) {
  ProfileInputs in = SyntheticInputs();
  in.totals.shuffle_records = 16;
  in.totals.peak_resident_bytes = 1 << 20;
  in.totals.partitions_reexecuted = 2;
  const Profile p = BuildProfile(in);
  const std::string text = p.ToJson();
  // Zero counters are left out; readers default a missing one to 0.
  EXPECT_EQ(text.find("\"evictions\""), std::string::npos);
  EXPECT_NE(text.find("\"partitions_reexecuted\":2"), std::string::npos);

  Result<Profile> back = ParseProfile(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  auto values = [](const MetricsSnapshot& m) {
    std::vector<uint64_t> v;
    m.ForEachCounter([&](const char*, uint64_t x) { v.push_back(x); });
    return v;
  };
  EXPECT_EQ(values(back.value().totals), values(p.totals));
  ASSERT_EQ(back.value().stages.size(), p.stages.size());
  for (size_t i = 0; i < p.stages.size(); ++i) {
    EXPECT_EQ(values(back.value().stages[i].counters),
              values(p.stages[i].counters));
  }
}

TEST(ProfileJsonTest, ParseRejectsNonProfilesAndFutureVersions) {
  EXPECT_FALSE(ParseProfile("not json").ok());
  EXPECT_FALSE(ParseProfile("{\"rows\":[]}").ok());  // a bench report
  EXPECT_FALSE(
      ParseProfile("{\"profile_version\":999,\"stages\":[]}").ok());
}

TEST(ProfileDiffTest, IsRegressionNeedsBothBars) {
  // Relative 25%, absolute floor 5.
  EXPECT_FALSE(IsRegression(100, 100, 25, 5));  // identical
  EXPECT_FALSE(IsRegression(100, 90, 25, 5));   // improvement
  EXPECT_FALSE(IsRegression(100, 104, 25, 5));  // below absolute floor
  EXPECT_FALSE(IsRegression(100, 110, 25, 5));  // below relative bar
  EXPECT_TRUE(IsRegression(100, 130, 25, 5));   // clears both
  EXPECT_TRUE(IsRegression(0, 10, 25, 5));      // new cost from zero
  EXPECT_FALSE(IsRegression(0, 3, 25, 5));      // zero-base wobble
}

TEST(ProfileDiffTest, SelfDiffHasZeroRegressions) {
  Profile p = BuildProfile(SyntheticInputs());
  DiffResult d = DiffProfiles(p, p);
  EXPECT_EQ(d.regressions, 0);
  ASSERT_FALSE(d.entries.empty());
  for (const profile::DiffEntry& e : d.entries) {
    EXPECT_FALSE(e.regression) << e.metric;
    EXPECT_EQ(e.delta_pct, 0) << e.metric;
  }
  EXPECT_NE(d.ToString().find("no regressions"), std::string::npos);
}

TEST(ProfileDiffTest, InflationTripsWallAndShuffleGates) {
  Profile base;
  base.wall_ms = 100;
  base.totals.shuffle_bytes = 1 << 20;
  base.totals.tasks_run = 64;
  Profile cur = base;
  cur.wall_ms = 200;                       // +100ms, +100%
  cur.totals.shuffle_bytes = 4u << 20;     // +3MiB, +300%
  DiffResult d = DiffProfiles(base, cur);
  EXPECT_GE(d.regressions, 2);
  bool wall = false, bytes = false;
  for (const profile::DiffEntry& e : d.entries) {
    if (e.metric == "wall_ms") wall = e.regression;
    if (e.metric == "shuffle_bytes_total") bytes = e.regression;
  }
  EXPECT_TRUE(wall);
  EXPECT_TRUE(bytes);
  EXPECT_NE(d.ToString().find("REGRESSION"), std::string::npos);

  // The improvement direction stays quiet.
  EXPECT_EQ(DiffProfiles(cur, base).regressions, 0);
}

TEST(ProfileJsonParserTest, ParsesObjectsArraysEscapesNumbers) {
  json::Value v;
  Status s = json::Parse(
      "{\"a\":[1,2.5,-3],\"s\":\"x\\\"y\\nz\",\"b\":true,"
      "\"n\":null,\"o\":{\"k\":\"v\"},\"big\":18446744073709551615}",
      &v);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(v.is_object());
  ASSERT_TRUE(v.At("a").is_array());
  ASSERT_EQ(v.At("a").array.size(), 3u);
  EXPECT_EQ(v.At("a").array[0].Int(), 1);
  EXPECT_NEAR(v.At("a").array[1].Num(), 2.5, 1e-12);
  EXPECT_EQ(v.At("a").array[2].Int(), -3);
  EXPECT_EQ(v.At("s").str, "x\"y\nz");
  EXPECT_TRUE(v.At("b").boolean);
  EXPECT_TRUE(v.At("n").is_null());
  EXPECT_EQ(v.At("o").GetStr("k"), "v");
  // Typed lookups default on missing keys and chain null-safely.
  EXPECT_EQ(v.GetNum("missing", 7.5), 7.5);
  EXPECT_EQ(v.At("o").At("nope").At("deeper").Int(), 0);
  EXPECT_FALSE(v.Has("missing"));
}

TEST(ProfileJsonParserTest, RejectsMalformedInput) {
  json::Value v;
  EXPECT_FALSE(json::Parse("", &v).ok());
  EXPECT_FALSE(json::Parse("{", &v).ok());
  EXPECT_FALSE(json::Parse("{\"a\":}", &v).ok());
  EXPECT_FALSE(json::Parse("[1,]", &v).ok());
  EXPECT_FALSE(json::Parse("tru", &v).ok());
  EXPECT_FALSE(json::Parse("\"unterminated", &v).ok());
  EXPECT_FALSE(json::Parse("{} trailing", &v).ok());
  // Errors carry the byte offset they were detected at.
  Status s = json::Parse("{\"a\":!}", &v);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("offset"), std::string::npos);
}

// ---------------------------------------------------------------------
// Engine integration: sampler thread, SAC_TRACE teardown, WriteProfile.
// ---------------------------------------------------------------------

runtime::ValueVec Ints(int n) {
  runtime::ValueVec out;
  for (int i = 0; i < n; ++i) out.push_back(runtime::VInt(i));
  return out;
}

TEST(EngineSamplerTest, BackgroundSamplerEmitsCounterEvents) {
  runtime::ClusterConfig cfg{2, 2, 4};
  cfg.sample_interval_us = 200;
  runtime::Engine eng(cfg);
  runtime::Dataset ds = eng.Parallelize(Ints(64), 4);
  ASSERT_TRUE(eng.Collect(ds).ok());

  // The sampler runs on its own thread; wait (bounded) for a sample.
  bool saw = false;
  for (int i = 0; i < 500 && !saw; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (const trace::SpanRecord& s : eng.tracer().Snapshot()) {
      if (!s.counter || s.name != "engine") continue;
      saw = true;
      bool resident = false, in_flight = false;
      for (const trace::SpanArg& a : s.args) {
        if (a.key == "resident_bytes") resident = true;
        if (a.key == "in_flight_tasks") in_flight = true;
      }
      EXPECT_TRUE(resident);
      EXPECT_TRUE(in_flight);
      break;
    }
  }
  EXPECT_TRUE(saw) << "no counter sample within 1s at a 200us interval";
}

TEST(EngineSamplerTest, SamplerShutdownJoinsCleanly) {
  // Construction/destruction races between the sampler thread and
  // teardown would hang or crash here (also exercised under TSan).
  runtime::ClusterConfig cfg{2, 1, 2};
  cfg.sample_interval_us = 100;
  for (int i = 0; i < 3; ++i) {
    runtime::Engine eng(cfg);
  }
  // Off by default: no sampler thread, no counter events.
  runtime::Engine off(runtime::ClusterConfig{2, 1, 2});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (const trace::SpanRecord& s : off.tracer().Snapshot()) {
    EXPECT_FALSE(s.counter);
  }
}

TEST(EngineProfileTest, SacTraceEnvWritesChromeTraceAtTeardown) {
  const std::string path =
      ::testing::TempDir() + "/sac_trace_teardown_test.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("SAC_TRACE", path.c_str(), 1), 0);
  {
    runtime::Engine eng(runtime::ClusterConfig{2, 2, 4});
    runtime::Dataset ds = eng.Parallelize(Ints(16), 2);
    ASSERT_TRUE(eng.Collect(ds).ok());
  }
  ASSERT_EQ(unsetenv("SAC_TRACE"), 0);

  // Later engines get "<path>.N", the first gets the path verbatim; this
  // test owns the env var, so its single engine may land on either
  // depending on what ran before it in this process.
  std::ifstream f(path);
  std::string found = path;
  if (!f.is_open()) {
    for (int i = 1; i < 64 && !f.is_open(); ++i) {
      found = path + "." + std::to_string(i);
      f.open(found);
    }
  }
  ASSERT_TRUE(f.is_open()) << "no Chrome trace written for SAC_TRACE";
  std::stringstream buf;
  buf << f.rdbuf();
  json::Value doc;
  Status s = json::Parse(buf.str(), &doc);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(doc.At("traceEvents").is_array());
  EXPECT_FALSE(doc.At("traceEvents").array.empty());
  std::remove(found.c_str());
}

TEST(EngineProfileTest, WriteProfileRoundTripsWithCriticalPath) {
  runtime::ClusterConfig cfg{2, 2, 4};
  runtime::Engine eng(cfg);
  runtime::Dataset ds = eng.Parallelize(Ints(256), 4);
  auto mapped = eng.Map(ds, [](const runtime::Value& v) {
    return runtime::VInt(v.AsInt() * 2);
  });
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(eng.Collect(mapped.value()).ok());

  const std::string path = ::testing::TempDir() + "/unit_profile.json";
  ASSERT_TRUE(eng.WriteProfile(path, /*wall_ms_hint=*/0, "unit:engine").ok());

  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::stringstream buf;
  buf << f.rdbuf();
  Result<Profile> p = ParseProfile(buf.str());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p.value().version, profile::kProfileVersion);
  EXPECT_EQ(p.value().query, "unit:engine");
  EXPECT_FALSE(p.value().stages.empty());
  EXPECT_FALSE(p.value().critical_path.empty());
  EXPECT_GT(p.value().wall_ms, 0);
  // Self-diff of a real profile is clean, like sac_prof diff in check.sh.
  EXPECT_EQ(DiffProfiles(p.value(), p.value()).regressions, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sac
