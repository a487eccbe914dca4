// Crash-consistency tests: SIGKILL a forked child at every registered crash
// failpoint mid-ledger-append and mid-cache-write, then re-open the durable
// state and assert the recovery invariants. The accountant's contract is
// "durable before spendable": recovery must see every acked charge, may see
// at most one in-flight charge more, and must never abort on the torn bytes
// a crash leaves behind. The strategy cache's contract is atomic install:
// after any crash, every installed `.strategy` file parses and a fresh
// plan-and-put cycle works.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/strategy.h"
#include "core/strategy_io.h"
#include "counter_delta.h"
#include "crash_harness.h"
#include "engine/accountant.h"
#include "engine/strategy_cache.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Every crash site the harness below exercises must be registered — the
// registry is how a newly added crash point automatically gains coverage,
// so a site disappearing from it is a test bug, not a soft skip.
TEST(CrashSites, AllExpectedSitesRegistered) {
  const std::vector<std::string> sites = Failpoints::CrashSites();
  for (const char* expected :
       {"accountant.append.before", "accountant.append.torn",
        "accountant.append.after_sync", "strategy_cache.put.torn_tmp",
        "strategy_cache.put.tmp_synced", "strategy_cache.put.after_rename"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << "crash site not registered: " << expected;
  }
}

// ---------------------------------------------------- accountant crashes --

// Child: charge 1.0 epsilon against a 100.0 ceiling up to `kAttempts`
// times, acking after each successful charge. A crash site armed at nth:N
// kills it during the Nth append.
constexpr int kAttempts = 5;
constexpr double kEps = 1.0;

CrashResult CrashChargingChild(const std::string& ledger,
                               const std::string& spec) {
  return RunCrashChild(spec, [&ledger](const std::function<void()>& ack) {
    BudgetAccountant accountant(100.0, ledger);
    for (int i = 0; i < kAttempts; ++i) {
      if (!accountant.Charge("census", PrivacyCharge::Laplace(kEps)).ok()) {
        break;
      }
      ack();
    }
  });
}

TEST(CrashRecovery, AccountantSurvivesEveryAppendCrashSite) {
  const std::string dir = FreshDir("crash_accountant");
  const std::vector<std::string> sites = Failpoints::CrashSites();
  int exercised = 0;
  for (const std::string& site : sites) {
    if (site.rfind("accountant.append.", 0) != 0) continue;
    for (int nth = 1; nth <= 3; ++nth) {
      const std::string ledger = dir + "/" + std::to_string(exercised) + "-" +
                                 std::to_string(nth) + ".ledger";
      const CrashResult crash =
          CrashChargingChild(ledger, site + "=nth:" + std::to_string(nth));
      ASSERT_TRUE(crash.forked) << site;
      ASSERT_TRUE(crash.sigkilled)
          << site << " nth:" << nth << " status " << crash.raw_status;
      // The crash landed inside append #nth, so exactly nth-1 charges were
      // acked before it.
      EXPECT_EQ(crash.acked, nth - 1) << site;

      // Recovery invariant: replay does not abort (torn bytes included),
      // and the recovered spend brackets the client's view — everything
      // acked, at most the one in-flight charge more (it is durable iff
      // the crash fell after the fsync).
      BudgetAccountant recovered(100.0, ledger);
      const double spent = recovered.Spent("census");
      EXPECT_GE(spent, crash.acked * kEps - 1e-12) << site << " nth:" << nth;
      EXPECT_LE(spent, (crash.acked + 1) * kEps + 1e-12)
          << site << " nth:" << nth;
      ++exercised;
    }
  }
  EXPECT_EQ(exercised, 9);  // 3 accountant crash sites x 3 positions.
}

TEST(CrashRecovery, AccountantReplayIsIdempotent) {
  // Re-opening a crashed ledger twice must land on the same spend — the
  // canonical rewrite at recovery truncates the torn tail away, so the
  // second replay sees a clean file.
  const std::string dir = FreshDir("crash_accountant_idem");
  const std::string ledger = dir + "/budget.ledger";
  const CrashResult crash =
      CrashChargingChild(ledger, "accountant.append.torn=nth:3");
  ASSERT_TRUE(crash.sigkilled);
  double first_spent = 0.0;
  {
    BudgetAccountant first(100.0, ledger);
    first_spent = first.Spent("census");
  }
  BudgetAccountant second(100.0, ledger);
  EXPECT_EQ(second.Spent("census"), first_spent);
  EXPECT_EQ(second.NumCharges("census"), crash.acked);
}

TEST(CrashRecovery, TornCrashLeavesPartialFinalLine) {
  // White-box check that the torn site really produces the failure mode it
  // claims to: a final line without its newline, dropped on replay.
  const std::string dir = FreshDir("crash_accountant_torn");
  const std::string ledger = dir + "/budget.ledger";
  const CrashResult crash =
      CrashChargingChild(ledger, "accountant.append.torn=nth:2");
  ASSERT_TRUE(crash.sigkilled);
  std::ifstream in(ledger, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  ASSERT_FALSE(content.empty());
  EXPECT_NE(content.back(), '\n');
  BudgetAccountant recovered(100.0, ledger);
  EXPECT_NEAR(recovered.Spent("census"), crash.acked * kEps, 1e-12);
}

// ------------------------------------------------- strategy cache crashes --

std::shared_ptr<const Strategy> CacheStrategy(const std::string& name) {
  return std::make_shared<ExplicitStrategy>(PrefixBlock(4), name);
}

TEST(CrashRecovery, CacheSurvivesEveryPutCrashSite) {
  const std::vector<std::string> sites = Failpoints::CrashSites();
  int exercised = 0;
  for (const std::string& site : sites) {
    if (site.rfind("strategy_cache.put.", 0) != 0) continue;
    const std::string dir = FreshDir("crash_cache_" + std::to_string(exercised));
    const CrashResult crash = RunCrashChild(
        site + "=nth:1", [&dir](const std::function<void()>& ack) {
          StrategyCacheOptions options;
          options.disk_dir = dir;
          StrategyCache cache(options);
          (void)cache.Put(Fingerprint{9}, CacheStrategy("victim"));
          ack();  // Unreachable: the site kills inside Put.
        });
    ASSERT_TRUE(crash.forked) << site;
    ASSERT_TRUE(crash.sigkilled) << site << " status " << crash.raw_status;
    EXPECT_EQ(crash.acked, 0) << site;

    // Invariant 1: whatever the crash left behind, every installed
    // `.strategy` file parses — the install is atomic, so torn bytes can
    // only live in `.tmp` siblings.
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() != ".strategy") continue;
      const auto loaded = LoadStrategyFile(entry.path().string());
      EXPECT_TRUE(loaded.ok())
          << site << ": torn install at " << entry.path() << ": "
          << loaded.status().ToString();
    }

    // Invariant 2: a fresh cache over the same directory serves without
    // aborting or quarantining, and a new plan-and-put cycle works.
    const CounterDelta quarantined("strategy_cache.corrupt_quarantined");
    StrategyCacheOptions options;
    options.disk_dir = dir;
    StrategyCache cache(options);
    std::shared_ptr<const Strategy> recovered = cache.Get(Fingerprint{9});
    if (site == "strategy_cache.put.after_rename") {
      // Crash after the atomic install: the entry is durable.
      ASSERT_NE(recovered, nullptr) << site;
      EXPECT_EQ(recovered->Name(), "victim");
    } else {
      // Crash before the rename: a clean miss, not a corrupt read.
      EXPECT_EQ(recovered, nullptr) << site;
      EXPECT_EQ(quarantined(), 0u) << site;
    }
    ASSERT_TRUE(cache.Put(Fingerprint{9}, CacheStrategy("replacement")).ok());
    cache.ClearMemory();
    recovered = cache.Get(Fingerprint{9});
    ASSERT_NE(recovered, nullptr) << site;
    EXPECT_EQ(recovered->Name(), "replacement");
    ++exercised;
  }
  EXPECT_EQ(exercised, 3);
}

// -------------------------------------------------------- flock backoff --

TEST(FlockBackoff, RetriesThroughInjectedContention) {
  // Three attempts see a held lock (injected), the fourth succeeds — the
  // accountant must come up instead of dying on the first busy attempt.
  const std::string dir = FreshDir("flock_injected");
  ASSERT_TRUE(Failpoints::Activate("accountant.flock.busy", "times:3").ok());
  {
    BudgetAccountantOptions options;
    options.total_epsilon = 1.0;
    options.ledger_path = dir + "/budget.ledger";
    options.lock_timeout_ms = 5000;
    BudgetAccountant accountant(options);
    EXPECT_TRUE(accountant.Charge("d", PrivacyCharge::Laplace(0.5)).ok());
  }
  EXPECT_GE(Failpoints::HitCount("accountant.flock.busy"), 4u);
  Failpoints::Deactivate("accountant.flock.busy");
}

TEST(FlockBackoff, WaitsOutARealHolderReleasingWithinDeadline) {
  // A genuinely held flock released mid-backoff: the second accountant must
  // acquire it within the deadline and see the first one's spend.
  const std::string dir = FreshDir("flock_real");
  const std::string ledger = dir + "/budget.ledger";
  auto first = std::make_unique<BudgetAccountant>(1.0, ledger);
  EXPECT_TRUE(first->Charge("census", PrivacyCharge::Laplace(0.6)).ok());
  std::thread releaser([&first] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    first.reset();  // Destructor releases the flock.
  });
  BudgetAccountantOptions options;
  options.total_epsilon = 1.0;
  options.ledger_path = ledger;
  options.lock_timeout_ms = 10000;
  BudgetAccountant second(options);  // Blocks in backoff until the release.
  releaser.join();
  EXPECT_NEAR(second.Spent("census"), 0.6, 1e-12);
  EXPECT_FALSE(second.Charge("census", PrivacyCharge::Laplace(0.5)).ok());
}

// --------------------------------------------- injected I/O errors (no fork) --

TEST(InjectedFailure, AppendIoErrorRefusesChargeWithoutRecordingIt) {
  const std::string dir = FreshDir("inject_append_io");
  const std::string ledger = dir + "/budget.ledger";
  ASSERT_TRUE(Failpoints::Activate("accountant.append.io_error", "nth:2").ok());
  {
    BudgetAccountant accountant(10.0, ledger);
    EXPECT_TRUE(accountant.Charge("d", PrivacyCharge::Laplace(1.0)).ok());
    // The injected failure refuses the charge as kIoError, spends nothing.
    const Status status = accountant.Charge("d", PrivacyCharge::Laplace(1.0));
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    EXPECT_NEAR(accountant.Spent("d"), 1.0, 1e-12);
    // The accountant is not wedged: the rollback restored the record
    // boundary, so the next charge lands cleanly.
    EXPECT_TRUE(accountant.Charge("d", PrivacyCharge::Laplace(1.0)).ok());
    EXPECT_NEAR(accountant.Spent("d"), 2.0, 1e-12);
  }
  Failpoints::Deactivate("accountant.append.io_error");
  // Replay agrees with the in-memory view: the refused charge left no
  // record, the others both did.
  BudgetAccountant recovered(10.0, ledger);
  EXPECT_NEAR(recovered.Spent("d"), 2.0, 1e-12);
  EXPECT_EQ(recovered.NumCharges("d"), 2);
}

TEST(InjectedFailure, CacheDegradesToMemoryOnlyAfterRepeatedWriteFailures) {
  const CounterDelta write_failures("strategy_cache.disk_write_failures");
  const std::string dir = FreshDir("inject_cache_degrade");
  StrategyCacheOptions options;
  options.disk_dir = dir;
  StrategyCache cache(options);
  ASSERT_TRUE(
      Failpoints::Activate("strategy_cache.put.io_error", "always").ok());
  for (int i = 0; i < StrategyCache::kDiskFailureLimit; ++i) {
    const Status status =
        cache.Put(Fingerprint{static_cast<uint64_t>(i + 1)},
                  CacheStrategy("s" + std::to_string(i)));
    EXPECT_EQ(status.code(), StatusCode::kIoError) << i;
    // The memory tier took the entry regardless.
    EXPECT_NE(cache.Get(Fingerprint{static_cast<uint64_t>(i + 1)}), nullptr);
  }
  EXPECT_TRUE(cache.DiskWriteDegraded());
  EXPECT_EQ(write_failures(),
            static_cast<uint64_t>(StrategyCache::kDiskFailureLimit));
  // Degraded: Put skips the disk (and the failpoint) and reports OK.
  EXPECT_TRUE(cache.Put(Fingerprint{50}, CacheStrategy("mem-only")).ok());
  Failpoints::Deactivate("strategy_cache.put.io_error");
  EXPECT_NE(cache.Get(Fingerprint{50}), nullptr);
  cache.ClearMemory();
  // Nothing reached the disk while degraded.
  EXPECT_EQ(cache.Get(Fingerprint{50}), nullptr);
}

TEST(InjectedFailure, OneCacheWriteSuccessResetsTheDegradationCounter) {
  const std::string dir = FreshDir("inject_cache_reset");
  StrategyCacheOptions options;
  options.disk_dir = dir;
  StrategyCache cache(options);
  ASSERT_TRUE(
      Failpoints::Activate("strategy_cache.put.io_error", "times:2").ok());
  EXPECT_FALSE(cache.Put(Fingerprint{1}, CacheStrategy("a")).ok());
  EXPECT_FALSE(cache.Put(Fingerprint{2}, CacheStrategy("b")).ok());
  EXPECT_FALSE(cache.DiskWriteDegraded());
  // A success between failures resets the consecutive count...
  EXPECT_TRUE(cache.Put(Fingerprint{3}, CacheStrategy("c")).ok());
  // ...so two more failures still stay under the limit.
  ASSERT_TRUE(
      Failpoints::Activate("strategy_cache.put.io_error", "times:2").ok());
  EXPECT_FALSE(cache.Put(Fingerprint{4}, CacheStrategy("d")).ok());
  EXPECT_FALSE(cache.Put(Fingerprint{5}, CacheStrategy("e")).ok());
  EXPECT_FALSE(cache.DiskWriteDegraded());
  Failpoints::Deactivate("strategy_cache.put.io_error");
}

TEST(InjectedFailure, CacheFsyncFailureInstallsNothing) {
  // Durable before installed: a strategy whose bytes cannot be fsync'd must
  // never be renamed into place, or a power loss could leave a torn
  // `<hex>.strategy` for the next restart to serve.
  const std::string dir = FreshDir("inject_cache_fsync");
  StrategyCacheOptions options;
  options.disk_dir = dir;
  StrategyCache cache(options);
  ASSERT_TRUE(
      Failpoints::Activate("strategy_io.save.fsync_error", "always").ok());
  const Status status = cache.Put(Fingerprint{8}, CacheStrategy("unsynced"));
  Failpoints::Deactivate("strategy_io.save.fsync_error");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("fsync"), std::string::npos)
      << status.ToString();
  // Neither an installed entry nor tmp residue reached the directory.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ADD_FAILURE() << "unexpected file after a failed fsync: " << entry.path();
  }
  cache.ClearMemory();
  EXPECT_EQ(cache.Get(Fingerprint{8}), nullptr);
}

TEST(InjectedFailure, CacheGetCountsInjectedReadErrorsAsMisses) {
  const std::string dir = FreshDir("inject_cache_read");
  StrategyCacheOptions options;
  options.disk_dir = dir;
  StrategyCache cache(options);
  ASSERT_TRUE(cache.Put(Fingerprint{7}, CacheStrategy("durable")).ok());
  cache.ClearMemory();
  const CounterDelta read_errors("strategy_cache.disk_read_errors");
  const CounterDelta quarantined("strategy_cache.corrupt_quarantined");
  ASSERT_TRUE(Failpoints::Activate("strategy_io.load.io_error", "always").ok());
  EXPECT_EQ(cache.Get(Fingerprint{7}), nullptr);
  EXPECT_EQ(read_errors(), 1u);
  EXPECT_EQ(quarantined(), 0u);
  Failpoints::Deactivate("strategy_io.load.io_error");
  // A transient read error must not quarantine the (healthy) file: once the
  // disk recovers, the entry is served again.
  EXPECT_NE(cache.Get(Fingerprint{7}), nullptr);
}

}  // namespace
}  // namespace hdmm
