// Unit tests for the Status/StatusOr error channel and the named-failpoint
// registry (mode semantics, spec parsing, hit accounting).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/failpoint.h"
#include "common/status.h"

namespace hdmm {
namespace {

// ----------------------------------------------------------------- status --

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status status = Status::Corruption("bad magic");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(status.message(), "bad magic");
  EXPECT_EQ(status.ToString(), "CORRUPTION: bad magic");
}

TEST(Status, AnnotatedPrefixesContextAndKeepsCode) {
  const Status status =
      Status::OverBudget("spent 1 of 1").Annotated("dataset 'census'");
  EXPECT_EQ(status.code(), StatusCode::kOverBudget);
  EXPECT_EQ(status.message(), "dataset 'census': spent 1 of 1");
  EXPECT_TRUE(Status::Ok().Annotated("ignored").ok());
}

TEST(Status, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIoError, StatusCode::kCorruption, StatusCode::kContention,
        StatusCode::kOverBudget, StatusCode::kFailedPrecondition,
        StatusCode::kUnavailable}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

Status FailsThenSucceeds(bool fail) {
  HDMM_RETURN_IF_ERROR(fail ? Status::IoError("early") : Status::Ok());
  return Status::Ok();
}

TEST(Status, ReturnIfErrorMacro) {
  EXPECT_TRUE(FailsThenSucceeds(false).ok());
  EXPECT_EQ(FailsThenSucceeds(true).code(), StatusCode::kIoError);
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(*good, 42);

  StatusOr<int> bad = Status::NotFound("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(StatusOr, MovesMoveOnlyValuesOut) {
  StatusOr<std::unique_ptr<int>> holder = std::make_unique<int>(7);
  ASSERT_TRUE(holder.ok());
  std::unique_ptr<int> moved = std::move(holder).value();
  EXPECT_EQ(*moved, 7);
}

TEST(StatusOrDeath, ValueOnErrorDies) {
  StatusOr<int> bad = Status::IoError("gone");
  EXPECT_DEATH(bad.value(), "value\\(\\) on an error status: IO_ERROR: gone");
}

// ------------------------------------------------------------- failpoints --

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DeactivateAll(); }
};

TEST_F(FailpointTest, InactiveSitesNeverFire) {
  EXPECT_FALSE(HDMM_FAILPOINT("test.nowhere"));
  EXPECT_EQ(Failpoints::HitCount("test.nowhere"), 0u);
}

TEST_F(FailpointTest, AlwaysMode) {
  ASSERT_TRUE(Failpoints::Activate("test.p", "always").ok());
  EXPECT_TRUE(HDMM_FAILPOINT("test.p"));
  EXPECT_TRUE(HDMM_FAILPOINT("test.p"));
  EXPECT_EQ(Failpoints::HitCount("test.p"), 2u);
}

TEST_F(FailpointTest, NthModeFiresExactlyOnce) {
  ASSERT_TRUE(Failpoints::Activate("test.p", "nth:3").ok());
  EXPECT_FALSE(HDMM_FAILPOINT("test.p"));
  EXPECT_FALSE(HDMM_FAILPOINT("test.p"));
  EXPECT_TRUE(HDMM_FAILPOINT("test.p"));
  EXPECT_FALSE(HDMM_FAILPOINT("test.p"));
}

TEST_F(FailpointTest, TimesModeFiresAPrefix) {
  ASSERT_TRUE(Failpoints::Activate("test.p", "times:2").ok());
  EXPECT_TRUE(HDMM_FAILPOINT("test.p"));
  EXPECT_TRUE(HDMM_FAILPOINT("test.p"));
  EXPECT_FALSE(HDMM_FAILPOINT("test.p"));
}

TEST_F(FailpointTest, AfterModeFiresASuffix) {
  ASSERT_TRUE(Failpoints::Activate("test.p", "after:2").ok());
  EXPECT_FALSE(HDMM_FAILPOINT("test.p"));
  EXPECT_FALSE(HDMM_FAILPOINT("test.p"));
  EXPECT_TRUE(HDMM_FAILPOINT("test.p"));
  EXPECT_TRUE(HDMM_FAILPOINT("test.p"));
}

TEST_F(FailpointTest, ProbModeExtremesAreDeterministic) {
  ASSERT_TRUE(Failpoints::Activate("test.never", "prob:0").ok());
  ASSERT_TRUE(Failpoints::Activate("test.surely", "prob:1").ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(HDMM_FAILPOINT("test.never"));
    EXPECT_TRUE(HDMM_FAILPOINT("test.surely"));
  }
}

TEST_F(FailpointTest, OffModeCountsHitsWithoutFiring) {
  ASSERT_TRUE(Failpoints::Activate("test.p", "off").ok());
  EXPECT_FALSE(HDMM_FAILPOINT("test.p"));
  EXPECT_FALSE(HDMM_FAILPOINT("test.p"));
  EXPECT_EQ(Failpoints::HitCount("test.p"), 2u);
}

TEST_F(FailpointTest, ReactivationResetsHitCount) {
  ASSERT_TRUE(Failpoints::Activate("test.p", "always").ok());
  EXPECT_TRUE(HDMM_FAILPOINT("test.p"));
  ASSERT_TRUE(Failpoints::Activate("test.p", "nth:1").ok());
  EXPECT_EQ(Failpoints::HitCount("test.p"), 0u);
  EXPECT_TRUE(HDMM_FAILPOINT("test.p"));
}

TEST_F(FailpointTest, DeactivateStopsFiring) {
  ASSERT_TRUE(Failpoints::Activate("test.p", "always").ok());
  EXPECT_TRUE(HDMM_FAILPOINT("test.p"));
  Failpoints::Deactivate("test.p");
  EXPECT_FALSE(HDMM_FAILPOINT("test.p"));
  EXPECT_EQ(Failpoints::HitCount("test.p"), 0u);
}

TEST_F(FailpointTest, SpecActivatesSeveralPointsAtOnce) {
  ASSERT_TRUE(Failpoints::ActivateSpec("test.a=always,test.b=nth:2").ok());
  EXPECT_TRUE(HDMM_FAILPOINT("test.a"));
  EXPECT_FALSE(HDMM_FAILPOINT("test.b"));
  EXPECT_TRUE(HDMM_FAILPOINT("test.b"));
}

TEST_F(FailpointTest, MalformedSpecsAreRejectedWithAReason) {
  const Status no_equals = Failpoints::ActivateSpec("no-equals-sign");
  EXPECT_EQ(no_equals.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_equals.message().find("name=mode"), std::string::npos);
  EXPECT_NE(Failpoints::Activate("test.p", "nth").message().find("wants :N"),
            std::string::npos);
  EXPECT_FALSE(Failpoints::Activate("test.p", "nth:0").ok());
  EXPECT_FALSE(Failpoints::Activate("test.p", "prob:1.5").ok());
  EXPECT_NE(
      Failpoints::Activate("test.p", "warble").message().find("unknown mode"),
      std::string::npos);
  EXPECT_FALSE(Failpoints::Activate("", "always").ok());
  // None of the rejected specs left a point behind.
  EXPECT_FALSE(Failpoints::Enabled());
}

TEST_F(FailpointTest, EnabledTracksActivePointCount) {
  EXPECT_FALSE(Failpoints::Enabled());
  ASSERT_TRUE(Failpoints::Activate("test.a", "off").ok());
  EXPECT_TRUE(Failpoints::Enabled());
  ASSERT_TRUE(Failpoints::Activate("test.b", "off").ok());
  Failpoints::Deactivate("test.a");
  EXPECT_TRUE(Failpoints::Enabled());
  Failpoints::Deactivate("test.b");
  EXPECT_FALSE(Failpoints::Enabled());
}

TEST_F(FailpointTest, CrashModeKillsWithSigkill) {
  ASSERT_TRUE(Failpoints::Activate("test.die", "crash:2").ok());
  EXPECT_FALSE(HDMM_FAILPOINT("test.die"));  // Hit 1 of crash:2 — survives.
  // gtest death tests report raw-signal deaths through ExitedWithCode's
  // negation; assert on the KilledBySignal predicate directly.
  EXPECT_EXIT(HDMM_FAILPOINT("test.die"), ::testing::KilledBySignal(SIGKILL),
              "");
}

}  // namespace
}  // namespace hdmm
