#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace ltm {
namespace obs {
namespace {

TEST(ObsMetricsTest, CounterAccumulatesAcrossShards) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(ObsMetricsTest, GaugeSetAddValue) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Add(5);
  EXPECT_EQ(g.Value(), 12);
}

TEST(ObsMetricsTest, RegistryReturnsStablePointersPerName) {
  MetricsRegistry reg;
  Counter* a = reg.counter("ltm_test_a_total");
  EXPECT_EQ(a, reg.counter("ltm_test_a_total"));
  EXPECT_NE(a, reg.counter("ltm_test_b_total"));
  EXPECT_EQ(reg.NumMetrics(), 2u);
  a->Increment(3);
  EXPECT_EQ(reg.CounterValue("ltm_test_a_total"), 3u);
  // Unregistered names read as zero rather than registering themselves.
  EXPECT_EQ(reg.CounterValue("ltm_test_missing_total"), 0u);
  EXPECT_EQ(reg.GaugeValue("ltm_test_missing"), 0);
  EXPECT_EQ(reg.NumMetrics(), 2u);
}

TEST(ObsMetricsTest, KindCollisionRendersUnderBangSuffix) {
  MetricsRegistry reg;
  reg.counter("ltm_test_clash")->Increment();
  Gauge* g = reg.gauge("ltm_test_clash");  // wrong kind, same name
  g->Set(7);
  const std::string text = reg.RenderText();
  EXPECT_NE(text.find("ltm_test_clash 1\n"), std::string::npos);
  EXPECT_NE(text.find("ltm_test_clash!gauge 7\n"), std::string::npos);
}

// Golden exposition: deterministic name ordering, counter/gauge lines,
// histogram cumulative buckets with merged labels, exact sum and count.
TEST(ObsMetricsTest, RenderTextGoldenFormat) {
  MetricsRegistry reg;
  reg.counter("ltm_test_ops_total")->Increment(3);
  reg.gauge("ltm_test_depth")->Set(-2);
  Histogram* plain = reg.histogram("ltm_test_micros");
  plain->Record(1);   // bucket [1, 2)
  plain->Record(5);   // bucket [4, 8)
  plain->Record(6);   // bucket [4, 8)
  Histogram* labeled = reg.histogram("ltm_test_lat_micros{level=\"1\"}");
  labeled->Record(3);  // bucket [2, 4)

  EXPECT_EQ(reg.RenderText(),
            "ltm_test_depth -2\n"
            "ltm_test_lat_micros_bucket{level=\"1\",le=\"4\"} 1\n"
            "ltm_test_lat_micros_bucket{level=\"1\",le=\"+Inf\"} 1\n"
            "ltm_test_lat_micros_sum{level=\"1\"} 3\n"
            "ltm_test_lat_micros_count{level=\"1\"} 1\n"
            "ltm_test_micros_bucket{le=\"2\"} 1\n"
            "ltm_test_micros_bucket{le=\"8\"} 3\n"
            "ltm_test_micros_bucket{le=\"+Inf\"} 3\n"
            "ltm_test_micros_sum 12\n"
            "ltm_test_micros_count 3\n"
            "ltm_test_ops_total 3\n");
}

// Family sums: the bare series plus every `{...}`-labelled series, as the
// partitioned store registers them side by side.
TEST(ObsMetricsTest, FamilySumsBareAndLabelledSeries) {
  MetricsRegistry reg;
  reg.counter("ltm_test_ops_total")->Increment(2);
  reg.counter("ltm_test_ops_total{partition=\"1\"}")->Increment(3);
  reg.counter("ltm_test_ops_total{partition=\"2\",level=\"1\"}")->Increment(5);
  EXPECT_EQ(reg.CounterSum("ltm_test_ops_total"), 10u);
  reg.gauge("ltm_test_size")->Set(-4);
  reg.gauge("ltm_test_size{partition=\"1\"}")->Set(7);
  reg.gauge("ltm_test_size{partition=\"2\"}")->Set(100);
  EXPECT_EQ(reg.GaugeSum("ltm_test_size"), 103);
  // Only labelled series, no bare one: still summed.
  reg.counter("ltm_test_lonely_total{partition=\"3\"}")->Increment(4);
  EXPECT_EQ(reg.CounterSum("ltm_test_lonely_total"), 4u);
  // Each kind reads only its own map.
  EXPECT_EQ(reg.GaugeSum("ltm_test_ops_total"), 0);
  EXPECT_EQ(reg.CounterSum("ltm_test_size"), 0u);
}

// A family never sums another family that merely shares its prefix.
TEST(ObsMetricsTest, FamilySumsIgnorePrefixCollisions) {
  MetricsRegistry reg;
  reg.counter("ltm_store_flushes_total")->Increment(1);
  reg.counter("ltm_store_flushes_total{partition=\"2\"}")->Increment(2);
  reg.counter("ltm_store_flush_rows_total")->Increment(1000);
  reg.counter("ltm_store_flush_rows_total{partition=\"2\"}")->Increment(500);
  EXPECT_EQ(reg.CounterSum("ltm_store_flushes_total"), 3u);
  EXPECT_EQ(reg.CounterSum("ltm_store_flush_rows_total"), 1500u);
  // `ltm_store_flush` is a strict prefix of both families, but is not
  // itself registered; `ltm_test_x` is a strict prefix of `ltm_test_xy`.
  EXPECT_EQ(reg.CounterSum("ltm_store_flush"), 0u);
  reg.gauge("ltm_test_x")->Set(1);
  reg.gauge("ltm_test_xy")->Set(20);
  reg.gauge("ltm_test_xy{partition=\"1\"}")->Set(300);
  reg.gauge("ltm_test_x_y{partition=\"1\"}")->Set(4000);
  EXPECT_EQ(reg.GaugeSum("ltm_test_x"), 1);
  EXPECT_EQ(reg.GaugeSum("ltm_test_xy"), 320);
  // A kind collision renders under "!kind" and is not part of the family.
  reg.counter("ltm_test_x")->Increment(9);
  EXPECT_EQ(reg.GaugeSum("ltm_test_x"), 1);
  EXPECT_EQ(reg.CounterSum("ltm_test_x"), 0u);
}

TEST(ObsMetricsTest, FamilySumsOfUnregisteredNamesReadZero) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.CounterSum("ltm_test_missing_total"), 0u);
  EXPECT_EQ(reg.GaugeSum("ltm_test_missing"), 0);
  // Reading does not register anything.
  EXPECT_EQ(reg.NumMetrics(), 0u);
}

// Concurrency storm: many threads hammering one counter, one gauge, and
// one histogram while a reader polls snapshots. Run under TSan, this is
// the data-race check for the sharded hot path; in every mode the final
// totals must be exact once the writers join.
TEST(ObsMetricsTest, ConcurrentWritersProduceExactTotals) {
  MetricsRegistry reg;
  Counter* counter = reg.counter("ltm_test_storm_total");
  Gauge* gauge = reg.gauge("ltm_test_storm_depth");
  Histogram* histogram = reg.histogram("ltm_test_storm_micros");

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(1);
        histogram->Record(static_cast<uint64_t>(i % 1024));
      }
    });
  }
  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      (void)reg.RenderText();
      (void)histogram->Snapshot();
      (void)counter->Value();
    }
  });
  for (std::thread& w : writers) w.join();
  reader.join();

  EXPECT_EQ(counter->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(gauge->Value(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(histogram->Count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace obs
}  // namespace ltm
