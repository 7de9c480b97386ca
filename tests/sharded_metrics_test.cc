// The sharded Metrics must fold to exact totals under concurrent writers
// (the whole point of sharding is lock-free writes with no lost counts).
#include "src/common/metrics.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"

namespace sac {
namespace {

TEST(ShardedMetricsTest, ConcurrentWritersFoldExactly) {
  Metrics m;
  ThreadPool pool(8);
  constexpr size_t kOps = 20000;
  pool.ParallelFor(kOps, [&](size_t i) {
    m.Add(Counter::shuffle_bytes, 3);
    m.Add(Counter::shuffle_records, 1);
    if (i % 2 == 0) m.Add(Counter::cross_executor_bytes, 3);
    m.Add(Counter::local_shuffle_bytes, 5);
    m.Add(Counter::tasks_run);
    m.Add(Counter::records_processed, 2);
    if (i % 10 == 0) m.Add(Counter::tasks_recomputed);
  });
  const MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.shuffle_bytes, 3 * kOps);
  EXPECT_EQ(s.shuffle_records, kOps);
  EXPECT_EQ(s.cross_executor_bytes, 3 * (kOps / 2));
  EXPECT_EQ(s.local_shuffle_bytes, 5 * kOps);
  EXPECT_EQ(s.tasks_run, kOps);
  EXPECT_EQ(s.records_processed, 2 * kOps);
  EXPECT_EQ(s.tasks_recomputed, kOps / 10);
}

TEST(ShardedMetricsTest, GettersMatchSnapshot) {
  Metrics m;
  m.Add(Counter::shuffle_bytes, 10);
  m.Add(Counter::shuffle_records, 2);
  m.Add(Counter::cross_executor_bytes, 10);
  m.Add(Counter::local_shuffle_bytes, 7);
  const MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(m.shuffle_bytes(), s.shuffle_bytes);
  EXPECT_EQ(m.shuffle_records(), s.shuffle_records);
  EXPECT_EQ(m.cross_executor_bytes(), s.cross_executor_bytes);
  EXPECT_EQ(m.local_shuffle_bytes(), s.local_shuffle_bytes);
}

TEST(ShardedMetricsTest, ResetClearsEveryShard) {
  Metrics m;
  ThreadPool pool(8);
  // Writers spread across threads land on several shards; Reset must
  // clear them all, not just the caller's.
  pool.ParallelFor(1000, [&](size_t) {
    m.Add(Counter::shuffle_bytes, 1);
    m.Add(Counter::shuffle_records, 1);
    m.Add(Counter::cross_executor_bytes, 1);
    m.Add(Counter::local_shuffle_bytes, 1);
    m.Add(Counter::tasks_run);
  });
  m.Reset();
  const MetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.shuffle_bytes, 0u);
  EXPECT_EQ(s.shuffle_records, 0u);
  EXPECT_EQ(s.cross_executor_bytes, 0u);
  EXPECT_EQ(s.local_shuffle_bytes, 0u);
  EXPECT_EQ(s.tasks_run, 0u);
}

TEST(ShardedMetricsTest, StageStatsForwardLocalShuffleToTotals) {
  Metrics totals;
  StageStats stage(1, "s", "shuffle", &totals);
  stage.Add(Counter::local_shuffle_bytes, 11);
  stage.Add(Counter::shuffle_bytes, 4);
  stage.Add(Counter::shuffle_records, 1);
  EXPECT_EQ(stage.counters().local_shuffle_bytes(), 11u);
  EXPECT_EQ(totals.local_shuffle_bytes(), 11u);
  EXPECT_EQ(totals.shuffle_bytes(), 4u);
}

// Table-driven over every Counter, so a new X-macro line is covered
// without touching this file: a stage's Add lands exactly k in its own
// counters, the totals and the session (and nowhere else); Reset zeroes
// every shard after writes from 8 pool threads; ForEachCounter walks the
// X-macro names in enum order.
TEST(ShardedMetricsTest, EveryCounterFansOutResetsAndKeepsItsName) {
  const std::vector<std::string> names = {
#define SAC_TEST_NAME(name) #name,
      SAC_METRICS_FOR_EACH_COUNTER(SAC_TEST_NAME)
#undef SAC_TEST_NAME
  };
  ASSERT_EQ(names.size(), kNumCounters);
  std::vector<std::string> walked;
  MetricsSnapshot{}.ForEachCounter(
      [&](const char* name, uint64_t) { walked.push_back(name); });
  EXPECT_EQ(walked, names);

  auto values = [](const Metrics& m) {
    std::vector<uint64_t> v;
    m.Snapshot().ForEachCounter([&](const char*, uint64_t x) {
      v.push_back(x);
    });
    return v;
  };
  ThreadPool pool(8);
  for (size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    if (IsGauge(c)) continue;
    SCOPED_TRACE(names[i]);
    const uint64_t k = 1000 + i;
    Metrics totals, session;
    StageStats stage(0, "s", "shuffle", &totals, &session);
    stage.Add(c, k);
    const std::vector<const Metrics*> sinks = {&stage.counters(), &totals,
                                               &session};
    for (const Metrics* m : sinks) {
      EXPECT_EQ(m->Get(c), k);
      const std::vector<uint64_t> v = values(*m);
      for (size_t j = 0; j < kNumCounters; ++j) {
        EXPECT_EQ(v[j], j == i ? k : 0u) << names[j];
      }
    }

    Metrics m;
    pool.ParallelFor(512, [&](size_t) { m.Add(c, 3); });
    EXPECT_EQ(m.Get(c), 3u * 512);
    m.Reset();
    EXPECT_EQ(values(m), std::vector<uint64_t>(kNumCounters, 0));
  }

  // The gauge stays outside the summed shards: a max, cleared by Reset.
  Metrics g;
  g.UpdatePeakResident(5);
  g.UpdatePeakResident(3);
  EXPECT_EQ(g.peak_resident_bytes(), 5u);
  g.Reset();
  EXPECT_EQ(g.peak_resident_bytes(), 0u);
}

}  // namespace
}  // namespace sac
