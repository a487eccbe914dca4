// Resource governor and deadline tests: admission control, the
// degradation ladder (degrade-to-mmap -> hibernate -> refuse), ticket
// lifecycle under concurrency, and the cancellation contract (a refused or
// cancelled request has no side effects — no noise drawn, no budget spent).
//
// Test groups are named Governor*/GovernorStress* so the sanitizer CI jobs
// (ASan and TSan) pick them up by filter; the timing-sensitive Deadline*
// tests stay out of the sanitizer filters on purpose (instrumented builds
// dilate wall time).
#include "engine/governor.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "engine/accountant.h"
#include "engine/engine.h"
#include "engine/tile_store.h"
#include "workload/parser.h"

namespace hdmm {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

UnionWorkload SmallWorkload() {
  return ParseWorkload(
      "domain sex=2 age=8\n"
      "product sex=identity age=prefix\n"
      "product age=identity\n").value();
}

EngineOptions FastEngineOptions() {
  EngineOptions options;
  options.optimizer.restarts = 1;
  options.optimizer.seed = 5;
  options.total_epsilon = 1.0;
  return options;
}

// A GovernedSession that only counts ladder calls — lets the ladder be
// exercised without building real tile stores.
class FakeSession : public GovernedSession {
 public:
  bool Hibernatable() const override { return hibernatable_; }
  void HibernateStores() override { ++hibernate_calls_; }
  void WakeStores() override { ++wake_calls_; }

  bool hibernatable_ = true;
  std::atomic<int> hibernate_calls_{0};
  std::atomic<int> wake_calls_{0};
};

SessionStorageOptions MmapStorage(int64_t tile_bytes, int64_t hot_budget) {
  SessionStorageOptions storage;
  storage.backend = SessionStorage::kMmap;
  storage.tile_bytes = tile_bytes;
  storage.hot_tile_budget = hot_budget;
  return storage;
}

// --- Footprint arithmetic ----------------------------------------------------

TEST(Governor, FootprintEstimateMatchesLadderArithmetic) {
  constexpr int64_t kSlack = 4096;  // Per-tile header + page rounding.
  SessionStorageOptions memory;     // Default backend.
  // Memory backend: two dense stores (x_hat + summed-area table).
  EXPECT_EQ(ResourceGovernor::EstimateFootprintBytes(1000, memory),
            2 * 1000 * 8);
  EXPECT_EQ(ResourceGovernor::EstimateFootprintBytes(0, memory), 0);
  EXPECT_EQ(ResourceGovernor::EstimateFootprintBytes(-5, memory), 0);

  // Mmap backend: per store, min(whole vector, max(hot budget, one tile)).
  SessionStorageOptions mmap = MmapStorage(/*tile_bytes=*/1 << 16,
                                           /*hot_budget=*/1 << 20);
  const int64_t big = 1 << 24;  // Dense far exceeds the hot budget.
  EXPECT_EQ(ResourceGovernor::EstimateFootprintBytes(big, mmap),
            2 * (1 << 20));
  const int64_t tiny = 16;  // Whole vector smaller than the hot budget.
  EXPECT_EQ(ResourceGovernor::EstimateFootprintBytes(tiny, mmap),
            2 * (tiny * 8 + kSlack));
  // A zero hot budget still maps the tile being read.
  SessionStorageOptions cold = MmapStorage(1 << 16, 0);
  EXPECT_EQ(ResourceGovernor::EstimateFootprintBytes(big, cold),
            2 * ((1 << 16) + kSlack));
}

// --- Admission and release ---------------------------------------------------

TEST(Governor, AdmitChargesAndReleaseRefunds) {
  GovernorOptions options;
  options.memory_budget_bytes = 1 << 20;
  auto governor = std::make_shared<ResourceGovernor>(options);
  SessionStorageOptions storage;  // Memory backend.

  const int64_t cells = 1024;  // 2 * 8 KiB.
  auto ticket = governor->Admit(cells, &storage);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  EXPECT_TRUE(ticket.value().valid());
  EXPECT_EQ(governor->live_sessions(), 1);
  EXPECT_EQ(governor->charged_bytes(),
            ResourceGovernor::EstimateFootprintBytes(cells, storage));

  {
    AdmissionTicket moved = std::move(ticket).value();
    EXPECT_EQ(governor->live_sessions(), 1);  // Move does not double-charge.
  }
  EXPECT_EQ(governor->live_sessions(), 0);
  EXPECT_EQ(governor->charged_bytes(), 0);
}

TEST(Governor, SessionLimitRefusalIsRetryableAndFree) {
  GovernorOptions options;
  options.max_sessions = 1;
  options.retry_after_ms = 250;
  auto governor = std::make_shared<ResourceGovernor>(options);
  SessionStorageOptions storage;

  auto first = governor->Admit(64, &storage);
  ASSERT_TRUE(first.ok());

  auto refused = governor->Admit(64, &storage);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsRetryable(refused.status().code()));
  EXPECT_EQ(RetryAfterMillis(refused.status()), 250);
  EXPECT_EQ(governor->live_sessions(), 1);  // Nothing charged for the refusal.

  first.value().Unbind();  // Unbind keeps the charge; only release refunds.
  EXPECT_EQ(governor->live_sessions(), 1);
}

TEST(Governor, BudgetRefusalNamesTheShortfall) {
  GovernorOptions options;
  options.memory_budget_bytes = 1024;
  auto governor = std::make_shared<ResourceGovernor>(options);
  // Even the mmap floor of this shape exceeds 1 KiB: refusal, not degrade.
  SessionStorageOptions storage = MmapStorage(1 << 20, 1 << 20);
  auto refused = governor->Admit(1 << 24, &storage);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("memory budget exhausted"),
            std::string::npos);
  EXPECT_GE(RetryAfterMillis(refused.status()), 0);
}

TEST(Governor, DegradesMemorySessionsToMmapUnderPressure) {
  GovernorOptions options;
  options.memory_budget_bytes = 1 << 20;  // 1 MiB.
  auto governor = std::make_shared<ResourceGovernor>(options);

  // Dense would need 2 * 8 MiB; the mmap rung shrinks it to the hot-tile
  // budgets, which fit.
  SessionStorageOptions storage;
  storage.backend = SessionStorage::kMemory;
  storage.tile_bytes = 1 << 16;
  storage.hot_tile_budget = 1 << 18;  // 256 KiB per store.
  auto ticket = governor->Admit(1 << 20, &storage);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  EXPECT_EQ(storage.backend, SessionStorage::kMmap);
  EXPECT_LE(governor->charged_bytes(), options.memory_budget_bytes);
}

TEST(Governor, ForceRefuseFailpointDrillsOverload) {
  auto governor = std::make_shared<ResourceGovernor>(GovernorOptions{});
  SessionStorageOptions storage;
  ASSERT_TRUE(
      Failpoints::Activate("governor.admit.force_refuse", "always").ok());
  auto refused = governor->Admit(8, &storage);
  Failpoints::Deactivate("governor.admit.force_refuse");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(RetryAfterMillis(refused.status()), 0);
  // The drill over, admission works again.
  EXPECT_TRUE(governor->Admit(8, &storage).ok());
}

// --- The hibernation rung ----------------------------------------------------

TEST(Governor, HibernatesIdleSessionsToMakeRoomAndWakesOnTouch) {
  GovernorOptions options;
  options.memory_budget_bytes = 300 << 10;  // 300 KiB.
  auto governor = std::make_shared<ResourceGovernor>(options);

  // Awake charge 2 * 100 KiB; hibernated floor 2 * (8 KiB + slack).
  SessionStorageOptions shape = MmapStorage(8 << 10, 100 << 10);
  const int64_t cells = 1 << 22;  // Dense dwarfs the hot budget.

  SessionStorageOptions a_storage = shape;
  auto a = governor->Admit(cells, &a_storage);
  ASSERT_TRUE(a.ok());
  FakeSession fake_a;
  a.value().Bind(&fake_a);
  const int64_t awake_charge = governor->charged_bytes();

  // B does not fit next to an awake A — the ladder hibernates A.
  SessionStorageOptions b_storage = shape;
  auto b = governor->Admit(cells, &b_storage);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(fake_a.hibernate_calls_.load(), 1);
  EXPECT_LE(governor->charged_bytes(), options.memory_budget_bytes);
  EXPECT_EQ(governor->live_sessions(), 2);

  // Releasing B frees budget; touching A wakes it back to full charge.
  { AdmissionTicket drop = std::move(b).value(); }
  a.value().Touch();
  EXPECT_EQ(fake_a.wake_calls_.load(), 1);
  EXPECT_EQ(governor->charged_bytes(), awake_charge);

  a.value().Unbind();
}

TEST(Governor, HibernateIoErrorFailpointSkipsVictim) {
  GovernorOptions options;
  options.memory_budget_bytes = 300 << 10;
  auto governor = std::make_shared<ResourceGovernor>(options);
  SessionStorageOptions shape = MmapStorage(8 << 10, 100 << 10);
  const int64_t cells = 1 << 22;

  SessionStorageOptions a_storage = shape;
  auto a = governor->Admit(cells, &a_storage);
  ASSERT_TRUE(a.ok());
  FakeSession fake_a;
  a.value().Bind(&fake_a);

  // With hibernation failing, the only remaining rung is refusal — and the
  // victim must not be half-hibernated.
  ASSERT_TRUE(
      Failpoints::Activate("governor.hibernate.io_error", "always").ok());
  SessionStorageOptions b_storage = shape;
  auto b = governor->Admit(cells, &b_storage);
  Failpoints::Deactivate("governor.hibernate.io_error");
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fake_a.hibernate_calls_.load(), 0);

  a.value().Unbind();
}

TEST(Governor, UnboundSessionsAreNotHibernationVictims) {
  GovernorOptions options;
  options.memory_budget_bytes = 300 << 10;
  auto governor = std::make_shared<ResourceGovernor>(options);
  SessionStorageOptions shape = MmapStorage(8 << 10, 100 << 10);

  SessionStorageOptions a_storage = shape;
  auto a = governor->Admit(1 << 22, &a_storage);
  ASSERT_TRUE(a.ok());  // Never bound: mirrors a session mid-teardown.

  SessionStorageOptions b_storage = shape;
  auto b = governor->Admit(1 << 22, &b_storage);
  EXPECT_FALSE(b.ok());  // No victim available; refuse rather than touch it.
}

// --- Engine integration ------------------------------------------------------

TEST(Governor, EngineRefusalSpendsNoPrivacyBudget) {
  UnionWorkload w = SmallWorkload();
  EngineOptions options = FastEngineOptions();
  options.governor.max_sessions = 1;
  Engine engine(options);
  ASSERT_NE(engine.governor(), nullptr);
  Vector x(static_cast<size_t>(w.DomainSize()), 2.0);
  Rng rng(7);

  auto first = engine.MeasureOr(w, "census", x, MeasureRequest::Laplace(0.3),
                                &rng, nullptr);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NEAR(engine.accountant().Spent("census"), 0.3, 1e-15);

  auto refused = engine.MeasureOr(w, "census", x,
                                  MeasureRequest::Laplace(0.3), &rng, nullptr);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(RetryAfterMillis(refused.status()), 0);
  // The refusal was free: admission precedes the accountant charge.
  EXPECT_NEAR(engine.accountant().Spent("census"), 0.3, 1e-15);

  // Releasing the session frees the slot.
  first.value().reset();
  EXPECT_EQ(engine.governor()->live_sessions(), 0);
  auto second = engine.MeasureOr(w, "census", x, MeasureRequest::Laplace(0.3),
                                 &rng, nullptr);
  EXPECT_TRUE(second.ok()) << second.status().ToString();
}

TEST(Governor, SessionOutlivesItsEngine) {
  UnionWorkload w = SmallWorkload();
  std::unique_ptr<MeasurementSession> session;
  {
    EngineOptions options = FastEngineOptions();
    options.governor.max_sessions = 4;
    Engine engine(options);
    Vector x(static_cast<size_t>(w.DomainSize()), 1.0);
    Rng rng(11);
    auto got = engine.MeasureOr(w, "d", x, MeasureRequest::Laplace(0.5), &rng,
                                nullptr);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    session = std::move(got).value();
  }
  // The ticket's shared ownership keeps the governor alive past the engine.
  BoxQuery q;
  q.lo = {0, 0};
  q.hi = {0, 3};
  EXPECT_TRUE(std::isfinite(session->AnswerBatch({q})[0]));
  session.reset();  // Releases against the orphaned governor; must not crash.
}

TEST(Governor, UngovernedEngineBuildsNoGovernor) {
  Engine engine(FastEngineOptions());
  EXPECT_EQ(engine.governor(), nullptr);
}

// Acceptance invariant: under a 256 MiB governor budget, concurrent session
// builds never push the governor's charge (an upper bound on session
// mapped+resident bytes) past the budget, and every refusal is retryable.
TEST(Governor, BudgetInvariantUnderConcurrentBuilds) {
  constexpr int64_t kBudget = 256ll << 20;
  GovernorOptions options;
  options.memory_budget_bytes = kBudget;
  auto governor = std::make_shared<ResourceGovernor>(options);

  const Domain domain({1 << 11, 1 << 10});  // 2^21 cells = 16 MiB dense.
  const std::string base_dir = FreshDir("governor_budget");
  std::filesystem::create_directories(base_dir);

  std::mutex mu;
  std::vector<std::unique_ptr<MeasurementSession>> live;
  std::atomic<int> refused{0};
  std::atomic<bool> over_budget{false};

  auto builder = [&](int worker) {
    for (int round = 0; round < 2; ++round) {
      SessionStorageOptions storage;  // Memory backend: 32 MiB per session.
      storage.tile_bytes = 1 << 20;
      storage.hot_tile_budget = 4 << 20;
      storage.dir = base_dir + "/w" + std::to_string(worker) + "_r" +
                    std::to_string(round);
      auto ticket = governor->Admit(domain.TotalSize(), &storage);
      if (!ticket.ok()) {
        if (ticket.status().code() != StatusCode::kResourceExhausted) {
          over_budget.store(true);  // Only retryable refusals are allowed.
        }
        ++refused;
        continue;
      }
      if (governor->charged_bytes() > kBudget) over_budget.store(true);
      auto session = std::make_unique<MeasurementSession>(
          domain,
          [](int64_t begin, int64_t end, double* out) {
            for (int64_t i = begin; i < end; ++i) out[i - begin] = 1.0;
          },
          PrivacyCharge::Laplace(0.1), nullptr, storage);
      session->AttachTicket(std::move(ticket).value());
      if (governor->charged_bytes() > kBudget) over_budget.store(true);
      std::lock_guard<std::mutex> lock(mu);
      live.push_back(std::move(session));
    }
  };
  std::vector<std::thread> workers;
  for (int i = 0; i < 10; ++i) workers.emplace_back(builder, i);
  for (auto& t : workers) t.join();

  EXPECT_FALSE(over_budget.load());
  EXPECT_LE(governor->charged_bytes(), kBudget);
  EXPECT_EQ(governor->live_sessions(), static_cast<int64_t>(live.size()));
  // 20 x 32 MiB dense does not fit 256 MiB: the ladder had to act (degrade
  // to mmap, hibernate, or refuse) — but most builds must still be served.
  EXPECT_GE(live.size(), 8u);

  // Every surviving session still answers.
  BoxQuery q;
  q.lo = {0, 0};
  q.hi = {0, 0};
  for (const auto& session : live) {
    EXPECT_DOUBLE_EQ(session->AnswerBatch({q})[0], 1.0);
  }
  live.clear();
  EXPECT_EQ(governor->charged_bytes(), 0);
  EXPECT_EQ(governor->live_sessions(), 0);
}

// --- Concurrency stress (TSan target) ----------------------------------------

TEST(GovernorStress, ConcurrentAdmitTouchHibernateRelease) {
  GovernorOptions options;
  options.max_sessions = 64;
  options.memory_budget_bytes = 64 << 10;  // Tight: forces the full ladder.
  auto governor = std::make_shared<ResourceGovernor>(options);
  SessionStorageOptions shape = MmapStorage(1 << 10, 8 << 10);

  std::atomic<int> admitted{0};
  std::atomic<int> refused{0};
  auto worker = [&]() {
    FakeSession fake;
    for (int i = 0; i < 200; ++i) {
      SessionStorageOptions storage = shape;
      auto ticket = governor->Admit(1 << 20, &storage);
      if (!ticket.ok()) {
        ASSERT_EQ(ticket.status().code(), StatusCode::kResourceExhausted);
        ++refused;
        continue;
      }
      ++admitted;
      AdmissionTicket held = std::move(ticket).value();
      held.Bind(&fake);
      for (int t = 0; t < 3; ++t) held.Touch();
      if (i % 3 == 0) held.Unbind();  // Mix unbound teardown into the soup.
      // Ticket destructor releases; fake outlives it in this scope.
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  EXPECT_EQ(governor->live_sessions(), 0);
  EXPECT_EQ(governor->charged_bytes(), 0);
  EXPECT_GT(admitted.load(), 0);
  EXPECT_EQ(admitted.load() + refused.load(), 8 * 200);
}

// --- Retry-after protocol ----------------------------------------------------

TEST(GovernorProtocol, RetryAfterRoundTripsThroughStatus) {
  Status refused = WithRetryAfter(Status::ResourceExhausted("full"), 350);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(RetryAfterMillis(refused), 350);
  EXPECT_EQ(RetryAfterMillis(Status::ResourceExhausted("no hint")), -1);
  EXPECT_EQ(RetryAfterMillis(Status::Ok()), -1);

  EXPECT_TRUE(IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsRetryable(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsRetryable(StatusCode::kUnavailable));
  EXPECT_FALSE(IsRetryable(StatusCode::kOverBudget));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
}

// The flock wait respects lock_timeout_ms: with the lock held forever
// (injected),
// construction dies right after the configured timeout instead of a backoff
// step beyond it.
TEST(GovernorProtocol, AccountantLockWaitDiesAfterConfiguredTimeout) {
  const std::string dir = FreshDir("governor_flock");
  std::filesystem::create_directories(dir);
  BudgetAccountantOptions options;
  options.total_epsilon = 1.0;
  options.ledger_path = dir + "/budget.ledger";
  options.lock_timeout_ms = 200;
  ASSERT_TRUE(Failpoints::Activate("accountant.flock.busy", "always").ok());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_DEATH(BudgetAccountant accountant(options),
               "locked by another accountant");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  Failpoints::Deactivate("accountant.flock.busy");
  // Generous upper bound (fork + engine setup overhead included), but far
  // below what repeated unclamped 100ms oversleeps would produce.
  EXPECT_GE(elapsed.count(), 200);
  EXPECT_LE(elapsed.count(), 5000);
}

// --- Deadlines ---------------------------------------------------------------

TEST(Deadline, ValueSemantics) {
  Deadline infinite;
  EXPECT_FALSE(infinite.Expired());
  EXPECT_GT(infinite.RemainingMillis(), 0);

  Deadline past = Deadline::AfterMillis(0);
  EXPECT_TRUE(past.Expired());
  EXPECT_EQ(past.RemainingMillis(), 0);

  CancelToken token;
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_TRUE(token.StopStatus().ok());
  token.Cancel();
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.StopStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(CancelRequested(&token));
  EXPECT_FALSE(CancelRequested(nullptr));

  CancelToken expired(Deadline::AfterMillis(0));
  EXPECT_TRUE(expired.ShouldStop());
  EXPECT_EQ(expired.StopStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(Deadline, CancelledColdPlanIsBoundedAndSideEffectFree) {
  // A workload whose uncancelled cold plan (~0.3 s) is far slower than the
  // stop bound below.
  UnionWorkload w = ParseWorkload(
      "domain a=128 b=64\n"
      "product a=prefix b=prefix\n"
      "product a=identity b=prefix\n"
      "product a=prefix b=identity\n").value();
  EngineOptions options;
  options.optimizer.restarts = 24;
  options.optimizer.seed = 5;
  options.total_epsilon = 1.0;
  Engine engine(options);

  // Cancel only once the optimizer has provably started: a watcher waits
  // for the OPT_0 evaluation counter to advance, so the stop always lands
  // mid-optimization however fast this host plans.
  Counter* const evals = Metrics::GetCounter("optimizer.evals");
  const uint64_t evals_before = evals->Value();
  CancelToken token;
  std::atomic<bool> plan_returned{false};
  std::chrono::steady_clock::time_point triggered;
  std::thread watcher([&] {
    while (evals->Value() == evals_before) {
      if (plan_returned.load()) return;
      std::this_thread::yield();
    }
    triggered = std::chrono::steady_clock::now();
    token.Cancel();
  });
  auto plan = engine.PlanOr(w, &token);
  const auto returned = std::chrono::steady_clock::now();
  plan_returned.store(true);
  watcher.join();

  ASSERT_TRUE(token.ShouldStop()) << "the plan returned before any evaluation";
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kDeadlineExceeded);
  // Acceptance bound: the cancelled plan returns within 50ms of the
  // trigger — the optimizer polls the token per L-BFGS-B iteration.
  EXPECT_LE(std::chrono::duration_cast<std::chrono::milliseconds>(returned -
                                                                  triggered)
                .count(),
            50);

  // No side effects: the partial result was not cached, so the next plan is
  // a genuine (uncancelled) optimization, and it converges to the same
  // deterministic winner a fresh engine would pick.
  auto full = engine.PlanOr(w, nullptr);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.value().source, PlanSource::kOptimized);
}

TEST(Deadline, ExpiredMeasureSpendsNothing) {
  UnionWorkload w = SmallWorkload();
  EngineOptions options = FastEngineOptions();
  Engine engine(options);
  Vector x(static_cast<size_t>(w.DomainSize()), 1.0);
  Rng rng(3);

  CancelToken token;
  token.Cancel();
  auto refused = engine.MeasureOr(w, "d", x, MeasureRequest::Laplace(0.5),
                                  &rng, &token);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(engine.accountant().Spent("d"), 0.0);

  // Without the token the same request succeeds — the engine held nothing
  // back from the cancelled attempt.
  auto ok = engine.MeasureOr(w, "d", x, MeasureRequest::Laplace(0.5), &rng,
                             nullptr);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(Deadline, AnswerBatchOrHonorsCancellation) {
  UnionWorkload w = SmallWorkload();
  Engine engine(FastEngineOptions());
  Vector x(static_cast<size_t>(w.DomainSize()), 1.0);
  Rng rng(9);
  auto session = engine.MeasureOr(w, "d", x, MeasureRequest::Laplace(0.5),
                                  &rng, nullptr);
  ASSERT_TRUE(session.ok());

  BoxQuery q;
  q.lo = {0, 0};
  q.hi = {1, 7};
  CancelToken cancelled;
  cancelled.Cancel();
  auto stopped = session.value()->AnswerBatchOr({q}, &cancelled);
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.status().code(), StatusCode::kDeadlineExceeded);

  auto answered = session.value()->AnswerBatchOr({q}, nullptr);
  ASSERT_TRUE(answered.ok());
  EXPECT_TRUE(std::isfinite(answered.value()[0]));
}

}  // namespace
}  // namespace hdmm
