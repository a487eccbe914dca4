#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "json_lint.h"

namespace hdmm {
namespace {

// Each test uses its own metric names: the registry is process-global and
// these tests run in one binary, so sharing a name would couple their
// counts. ResetAllForTest is exercised explicitly where the test needs it.

TEST(Metrics, CounterCountsExactly) {
  Counter* c = Metrics::GetCounter("test.counter.exact");
  const uint64_t before = c->Value();
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->Value(), before + 42);
}

TEST(Metrics, GetReturnsSamePointerAndValue) {
  Counter* a = Metrics::GetCounter("test.counter.same");
  Counter* b = Metrics::GetCounter("test.counter.same");
  EXPECT_EQ(a, b);
  a->Add(7);
  EXPECT_EQ(b->Value(), a->Value());
}

TEST(Metrics, GaugeLastWriteWins) {
  Gauge* g = Metrics::GetGauge("test.gauge.lww");
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_DOUBLE_EQ(g->Value(), -2.25);
}

TEST(Metrics, DisabledRecordsNothing) {
  Counter* c = Metrics::GetCounter("test.counter.disabled");
  Histogram* h = Metrics::GetHistogram("test.histogram.disabled");
  const uint64_t c_before = c->Value();
  const uint64_t h_before = h->Snapshot().count;
  Metrics::SetEnabled(false);
  c->Add(100);
  h->Record(100);
  Metrics::SetEnabled(true);
  EXPECT_EQ(c->Value(), c_before);
  EXPECT_EQ(h->Snapshot().count, h_before);
  c->Add(1);
  EXPECT_EQ(c->Value(), c_before + 1);  // Re-enabled records again.
}

// The satellite requirement: 16 threads hammering one counter and one
// histogram concurrently, then a snapshot that must see every update. With
// kSlots = 64 every thread gets an exclusive single-writer slot, so the
// totals are exact, not approximate.
TEST(Metrics, ConcurrentRecordingMergesExactly) {
  constexpr int kThreads = 16;
  constexpr int kPerThread = 10'000;
  Counter* c = Metrics::GetCounter("test.counter.concurrent");
  Histogram* h = Metrics::GetHistogram("test.histogram.concurrent");
  const uint64_t c_before = c->Value();
  const HistogramSnapshot h_before = h->Snapshot();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add(1);
        // Values spread across buckets; sum is deterministic.
        h->Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c->Value(), c_before + kThreads * kPerThread);
  const HistogramSnapshot after = h->Snapshot();
  EXPECT_EQ(after.count, h_before.count + kThreads * kPerThread);
  const uint64_t n = kThreads * kPerThread;
  const double expected_sum =
      static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  EXPECT_DOUBLE_EQ(after.sum - h_before.sum, expected_sum);
}

TEST(Metrics, ConcurrentSnapshotsDoNotBlockWriters) {
  Counter* c = Metrics::GetCounter("test.counter.snapshot_race");
  const uint64_t before = c->Value();
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) c->Add(1);
  });
  // Snapshot until the writer has advanced under the snapshots (and at
  // least 100 were taken), so the check does not hinge on when the
  // scheduler first runs the writer; a writer the snapshots block never
  // advances, and the deadline fails the test.
  constexpr uint64_t kWrites = 1000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int snapshots = 0;
  while ((snapshots < 100 || c->Value() < before + kWrites) &&
         std::chrono::steady_clock::now() < deadline) {
    (void)Metrics::Snapshot();  // Must not tear, deadlock, or race (TSan).
    ++snapshots;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GE(snapshots, 100);
  EXPECT_GE(c->Value(), before + kWrites);
}

TEST(Metrics, HistogramPercentilesOrderedAndBracketed) {
  Metrics::ResetAllForTest();
  Histogram* h = Metrics::GetHistogram("test.histogram.percentiles");
  // 1..1000: p50 ~ 500, p99 ~ 990, within a 2x log-bucket.
  for (uint64_t v = 1; v <= 1000; ++v) h->Record(v);
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, 500500.0);
  EXPECT_LE(s.min, 1.0);
  EXPECT_GE(s.max, 1000.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
  // Log-bucketed estimates are within the bucket's 2x width.
  EXPECT_GE(s.p50, 250.0);
  EXPECT_LE(s.p50, 1000.0);
  EXPECT_GE(s.p99, 500.0);
}

TEST(Metrics, HistogramZeroAndHugeValues) {
  Histogram* h = Metrics::GetHistogram("test.histogram.extremes");
  h->Record(0);
  h->Record(UINT64_MAX);
  const HistogramSnapshot s = h->Snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_GE(s.max, 9e18);
}

TEST(Metrics, SnapshotContainsAllThreeKinds) {
  Metrics::GetCounter("test.kind.counter")->Add(3);
  Metrics::GetGauge("test.kind.gauge")->Set(1.25);
  Metrics::GetHistogram("test.kind.histogram")->Record(8);
  const MetricsSnapshot s = Metrics::Snapshot();
  ASSERT_TRUE(s.counters.count("test.kind.counter"));
  EXPECT_GE(s.counters.at("test.kind.counter"), 3u);
  ASSERT_TRUE(s.gauges.count("test.kind.gauge"));
  EXPECT_DOUBLE_EQ(s.gauges.at("test.kind.gauge"), 1.25);
  ASSERT_TRUE(s.histograms.count("test.kind.histogram"));
  EXPECT_GE(s.histograms.at("test.kind.histogram").count, 1u);
}

TEST(Metrics, JsonIsWellFormedAndCarriesValues) {
  Metrics::GetCounter("test.json.counter")->Add(5);
  Metrics::GetGauge("test.json.gauge")->Set(0.5);
  Metrics::GetHistogram("test.json.histogram")->Record(123);
  const std::string json = Metrics::ToJson();
  std::string error;
  EXPECT_TRUE(hdmm_tests::JsonLinter::Valid(json, &error)) << error << "\n"
                                                           << json;
  EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Metrics, ResetZeroesValuesButKeepsPointers) {
  Counter* c = Metrics::GetCounter("test.reset.counter");
  Histogram* h = Metrics::GetHistogram("test.reset.histogram");
  c->Add(9);
  h->Record(9);
  Metrics::ResetAllForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Snapshot().count, 0u);
  EXPECT_EQ(c, Metrics::GetCounter("test.reset.counter"));
  c->Add(2);
  EXPECT_EQ(c->Value(), 2u);
}

}  // namespace
}  // namespace hdmm
