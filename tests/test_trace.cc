#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "json_lint.h"

namespace hdmm {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TracePath(const std::string& leaf) {
  return testing::TempDir() + "/" + leaf;
}

TEST(Trace, DisabledSpansRecordNothing) {
  ASSERT_FALSE(Trace::Enabled());
  const uint64_t before = Trace::RecordedSpans();
  for (int i = 0; i < 1000; ++i) {
    HDMM_TRACE_SPAN("never.recorded");
  }
  EXPECT_EQ(Trace::RecordedSpans(), before);
}

TEST(Trace, RoundTripProducesWellFormedChromeTrace) {
  const std::string path = TracePath("trace_roundtrip.json");
  std::string error;
  ASSERT_TRUE(Trace::Start(path).ok());
  Trace::SetThreadName("test-main");
  {
    HDMM_TRACE_SPAN("outer.span");
    {
      HDMM_TRACE_SPAN("inner.span");
    }
  }
  std::thread worker([] {
    Trace::SetThreadName("test-worker");
    HDMM_TRACE_SPAN("worker.span");
  });
  worker.join();
  EXPECT_GE(Trace::RecordedSpans(), 3u);
  ASSERT_TRUE(Trace::Stop().ok());
  EXPECT_FALSE(Trace::Enabled());

  const std::string json = ReadFileOrDie(path);
  EXPECT_TRUE(hdmm_tests::JsonLinter::Valid(json, &error)) << error << "\n"
                                                           << json;
  // Chrome trace-event essentials Perfetto keys on.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"test-main\""), std::string::npos);
  EXPECT_NE(json.find("\"test-worker\""), std::string::npos);
  EXPECT_NE(json.find("\"outer.span\""), std::string::npos);
  EXPECT_NE(json.find("\"inner.span\""), std::string::npos);
  EXPECT_NE(json.find("\"worker.span\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, StartWhileCollectingFails) {
  const std::string path = TracePath("trace_double_start.json");
  ASSERT_TRUE(Trace::Start(path).ok());
  const Status second = Trace::Start(TracePath("trace_other.json"));
  EXPECT_EQ(second.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(second.message().empty());
  ASSERT_TRUE(Trace::Stop().ok());
  std::remove(path.c_str());
}

TEST(Trace, StopWhenIdleIsANoOp) {
  ASSERT_FALSE(Trace::Enabled());
  EXPECT_TRUE(Trace::Stop().ok());
}

TEST(Trace, RestartDoesNotReplayOldSpans) {
  const std::string first = TracePath("trace_first.json");
  const std::string second = TracePath("trace_second.json");
  std::string error;
  ASSERT_TRUE(Trace::Start(first).ok());
  {
    HDMM_TRACE_SPAN("stale.span");
  }
  ASSERT_TRUE(Trace::Stop().ok());
  ASSERT_TRUE(Trace::Start(second).ok());
  {
    HDMM_TRACE_SPAN("fresh.span");
  }
  ASSERT_TRUE(Trace::Stop().ok());
  const std::string json = ReadFileOrDie(second);
  EXPECT_TRUE(hdmm_tests::JsonLinter::Valid(json, &error)) << error;
  EXPECT_NE(json.find("\"fresh.span\""), std::string::npos);
  EXPECT_EQ(json.find("\"stale.span\""), std::string::npos);
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(Trace, RingOverflowDropsOldestAndStaysWellFormed) {
  const std::string path = TracePath("trace_overflow.json");
  std::string error;
  ASSERT_TRUE(Trace::Start(path).ok());
  // Overrun the 1<<14 per-thread ring so the writer takes the dropped path.
  constexpr int kSpans = (1 << 14) + 500;
  for (int i = 0; i < kSpans; ++i) {
    HDMM_TRACE_SPAN("overflow.span");
  }
  ASSERT_TRUE(Trace::Stop().ok());
  const std::string json = ReadFileOrDie(path);
  EXPECT_TRUE(hdmm_tests::JsonLinter::Valid(json, &error)) << error;
  EXPECT_NE(json.find("\"hdmm_dropped_spans\""), std::string::npos);
  EXPECT_NE(json.find("\"overflow.span\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Trace, FlushWritesWithoutStopping) {
  const std::string path = TracePath("trace_flush.json");
  std::string error;
  ASSERT_TRUE(Trace::Start(path).ok());
  {
    HDMM_TRACE_SPAN("flushed.span");
  }
  ASSERT_TRUE(Trace::Flush().ok());
  EXPECT_TRUE(Trace::Enabled());
  const std::string json = ReadFileOrDie(path);
  EXPECT_TRUE(hdmm_tests::JsonLinter::Valid(json, &error)) << error;
  EXPECT_NE(json.find("\"flushed.span\""), std::string::npos);
  ASSERT_TRUE(Trace::Stop().ok());
  std::remove(path.c_str());
}

TEST(Trace, StopReportsUnwritablePath) {
  ASSERT_TRUE(Trace::Start("/nonexistent-dir/trace.json").ok());
  {
    HDMM_TRACE_SPAN("doomed.span");
  }
  const Status stopped = Trace::Stop();
  EXPECT_EQ(stopped.code(), StatusCode::kIoError);
  EXPECT_FALSE(stopped.message().empty());
  EXPECT_FALSE(Trace::Enabled());  // Disabled even when the write failed.
}

}  // namespace
}  // namespace hdmm
