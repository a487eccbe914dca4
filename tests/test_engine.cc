#include "engine/engine.h"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/rng.h"
#include "core/gaussian.h"
#include "core/measure.h"
#include "core/strategy_io.h"
#include "counter_delta.h"
#include "engine/accountant.h"
#include "engine/fingerprint.h"
#include "engine/privacy.h"
#include "engine/strategy_cache.h"
#include "workload/building_blocks.h"
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

// --- Fingerprints ------------------------------------------------------------

TEST(Fingerprint, ProductOrderInsensitive) {
  UnionWorkload a = ParseWorkload(
      "domain x=4 y=3\nproduct x=identity\nproduct y=prefix\n").value();
  UnionWorkload b = ParseWorkload(
      "domain x=4 y=3\nproduct y=prefix\nproduct x=identity\n").value();
  EXPECT_EQ(FingerprintWorkload(a).value, FingerprintWorkload(b).value);
}

TEST(Fingerprint, SensitiveToWeightsFactorsAndDomain) {
  UnionWorkload base = ParseWorkload(
      "domain x=4 y=3\nproduct x=identity\n").value();
  UnionWorkload reweighted = ParseWorkload(
      "domain x=4 y=3\nproduct weight=2.0 x=identity\n").value();
  UnionWorkload other_block = ParseWorkload(
      "domain x=4 y=3\nproduct x=prefix\n").value();
  UnionWorkload other_domain = ParseWorkload(
      "domain x=4 y=5\nproduct x=identity\n").value();
  const uint64_t fp = FingerprintWorkload(base).value;
  EXPECT_NE(fp, FingerprintWorkload(reweighted).value);
  EXPECT_NE(fp, FingerprintWorkload(other_block).value);
  EXPECT_NE(fp, FingerprintWorkload(other_domain).value);
}

TEST(Fingerprint, IgnoresAttributeNames) {
  UnionWorkload a = ParseWorkload("domain x=4\nproduct x=identity\n").value();
  UnionWorkload b = ParseWorkload("domain z=4\nproduct z=identity\n").value();
  EXPECT_EQ(FingerprintWorkload(a).value, FingerprintWorkload(b).value);
}

TEST(Fingerprint, PlanDependsOnOptimizerOptions) {
  UnionWorkload w = SmallWorkload();
  HdmmOptions base;
  HdmmOptions more_restarts = base;
  more_restarts.restarts = base.restarts + 1;
  HdmmOptions other_seed = base;
  other_seed.seed = 12345;
  HdmmOptions no_marginals = base;
  no_marginals.use_marginals = false;
  const uint64_t fp = FingerprintPlan(w, base).value;
  EXPECT_NE(fp, FingerprintPlan(w, more_restarts).value);
  EXPECT_NE(fp, FingerprintPlan(w, other_seed).value);
  EXPECT_NE(fp, FingerprintPlan(w, no_marginals).value);
  EXPECT_EQ(fp, FingerprintPlan(w, HdmmOptions()).value);
}

TEST(Fingerprint, HexIsStable16Digits) {
  Fingerprint fp{0x0123456789abcdefULL};
  EXPECT_EQ(fp.Hex(), "0123456789abcdef");
  EXPECT_EQ(Fingerprint{0}.Hex(), "0000000000000000");
}

// --- Strategy cache ----------------------------------------------------------

TEST(StrategyCache, MemoryHitAndMiss) {
  const CounterDelta memory_hits("strategy_cache.memory_hits");
  const CounterDelta misses("strategy_cache.misses");
  StrategyCache cache;
  Fingerprint fp{42};
  StrategyCache::Tier tier;
  EXPECT_EQ(cache.Get(fp, &tier), nullptr);
  EXPECT_EQ(tier, StrategyCache::Tier::kMiss);

  cache.Put(fp, std::make_shared<ExplicitStrategy>(PrefixBlock(4), "p4"));
  auto hit = cache.Get(fp, &tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(tier, StrategyCache::Tier::kMemory);
  EXPECT_EQ(hit->Name(), "p4");
  EXPECT_EQ(memory_hits(), 1u);
  EXPECT_EQ(misses(), 1u);
}

TEST(StrategyCache, LruEviction) {
  const CounterDelta evictions("strategy_cache.evictions");
  StrategyCacheOptions options;
  options.memory_capacity = 2;
  StrategyCache cache(options);
  cache.Put(Fingerprint{1},
            std::make_shared<ExplicitStrategy>(PrefixBlock(2), "a"));
  cache.Put(Fingerprint{2},
            std::make_shared<ExplicitStrategy>(PrefixBlock(2), "b"));
  // Touch 1 so 2 becomes the LRU entry, then insert 3.
  EXPECT_NE(cache.Get(Fingerprint{1}), nullptr);
  cache.Put(Fingerprint{3},
            std::make_shared<ExplicitStrategy>(PrefixBlock(2), "c"));
  EXPECT_EQ(cache.MemorySize(), 2u);
  EXPECT_NE(cache.Get(Fingerprint{1}), nullptr);
  EXPECT_NE(cache.Get(Fingerprint{3}), nullptr);
  EXPECT_EQ(cache.Get(Fingerprint{2}), nullptr);
  EXPECT_EQ(evictions(), 1u);
}

TEST(StrategyCache, DiskTierSurvivesRestart) {
  const std::string dir = FreshDir("cache_restart");
  Fingerprint fp{7};
  {
    StrategyCacheOptions options;
    options.disk_dir = dir;
    StrategyCache cache(options);
    const Status put = cache.Put(
        fp, std::make_shared<ExplicitStrategy>(PrefixBlock(5), "persisted"));
    ASSERT_TRUE(put.ok()) << put.ToString();
    EXPECT_TRUE(std::filesystem::exists(cache.DiskPath(fp)));
  }
  // A new cache instance (fresh process in real life) finds it on disk.
  StrategyCacheOptions options;
  options.disk_dir = dir;
  StrategyCache cache(options);
  StrategyCache::Tier tier;
  auto hit = cache.Get(fp, &tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(tier, StrategyCache::Tier::kDisk);
  EXPECT_EQ(hit->Name(), "persisted");
  // Promoted into memory: second lookup is a memory hit.
  EXPECT_NE(cache.Get(fp, &tier), nullptr);
  EXPECT_EQ(tier, StrategyCache::Tier::kMemory);
}

TEST(StrategyCache, EvictedEntryReloadsFromDisk) {
  const std::string dir = FreshDir("cache_evict_reload");
  StrategyCacheOptions options;
  options.memory_capacity = 1;
  options.disk_dir = dir;
  StrategyCache cache(options);
  cache.Put(Fingerprint{1},
            std::make_shared<ExplicitStrategy>(PrefixBlock(3), "one"));
  cache.Put(Fingerprint{2},
            std::make_shared<ExplicitStrategy>(PrefixBlock(3), "two"));
  StrategyCache::Tier tier;
  auto hit = cache.Get(Fingerprint{1}, &tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(tier, StrategyCache::Tier::kDisk);
  EXPECT_EQ(hit->Name(), "one");
}

TEST(StrategyCache, AllKindsRoundTripThroughCacheFixedPoint) {
  // The persistence satellite seen from the cache: every strategy kind the
  // optimizers produce must come back from the disk tier serializing to the
  // identical normal form.
  const std::string dir = FreshDir("cache_kinds");
  Rng rng(17);
  std::vector<std::shared_ptr<const Strategy>> strategies;
  strategies.push_back(std::make_shared<ExplicitStrategy>(
      Matrix::RandomUniform(5, 4, &rng, 0.0, 1.0), "explicit"));
  strategies.push_back(std::make_shared<KronStrategy>(
      std::vector<Matrix>{PrefixBlock(4), IdentityBlock(3)}, "kron"));
  strategies.push_back(std::make_shared<UnionKronStrategy>(
      std::vector<std::vector<Matrix>>{{PrefixBlock(4)}, {IdentityBlock(4)}},
      std::vector<std::vector<int>>{{0}, {1}}, "union-kron"));
  strategies.push_back(std::make_shared<MarginalsStrategy>(
      Domain({2, 3}), Vector{0.5, 1.0 / 3.0, 0.0, 1.25}, "marginals"));

  StrategyCacheOptions options;
  options.disk_dir = dir;
  options.memory_capacity = 1;  // Forces every Get through the disk tier.
  StrategyCache cache(options);
  for (size_t i = 0; i < strategies.size(); ++i) {
    cache.Put(Fingerprint{i + 1}, strategies[i]);
  }
  for (size_t i = 0; i < strategies.size(); ++i) {
    auto restored = cache.Get(Fingerprint{i + 1});
    ASSERT_NE(restored, nullptr) << "kind " << i;
    EXPECT_EQ(SerializeStrategy(*restored), SerializeStrategy(*strategies[i]))
        << "kind " << i;
  }
}

TEST(StrategyCache, PutIsAtomicOnDisk) {
  const std::string dir = FreshDir("cache_atomic");
  StrategyCacheOptions options;
  options.disk_dir = dir;
  StrategyCache cache(options);
  const Fingerprint fp{11};
  const Status put = cache.Put(
      fp, std::make_shared<ExplicitStrategy>(PrefixBlock(4), "atomic"));
  ASSERT_TRUE(put.ok()) << put.ToString();
  // The write went through a tmp file + rename: the final file exists and
  // no tmp residue is left behind.
  EXPECT_TRUE(std::filesystem::exists(cache.DiskPath(fp)));
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().extension(), ".strategy") << entry.path();
  }
}

TEST(StrategyCache, TornStrategyFileFromCrashedWriterIsInvisible) {
  // Simulates a writer that crashed mid-Put under the tmp+rename protocol:
  // the tmp file holds a torn prefix, the final path was never created.
  // Get must miss cleanly (and a fresh Put must succeed) — the scenario the
  // non-atomic write could not survive.
  const std::string dir = FreshDir("cache_torn");
  std::filesystem::create_directories(dir);
  StrategyCacheOptions options;
  options.disk_dir = dir;
  StrategyCache cache(options);
  const Fingerprint fp{12};
  {
    std::ofstream torn(cache.DiskPath(fp) + ".1234-0.tmp");
    torn << "hdmm-strategy v1\nkind expl";  // Torn mid-write.
  }
  StrategyCache::Tier tier;
  EXPECT_EQ(cache.Get(fp, &tier), nullptr);
  EXPECT_EQ(tier, StrategyCache::Tier::kMiss);
  ASSERT_TRUE(cache.Put(
      fp, std::make_shared<ExplicitStrategy>(PrefixBlock(4), "fresh")).ok());
  cache.ClearMemory();
  auto hit = cache.Get(fp, &tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->Name(), "fresh");
}

TEST(StrategyCache, CorruptDiskFileIsQuarantinedNotFatal) {
  // A corrupt cache file (bit rot, a concurrent writer from a buggy build)
  // must read as a miss, move aside so it cannot poison later lookups, and
  // leave the slot writable.
  const CounterDelta quarantined("strategy_cache.corrupt_quarantined");
  const std::string dir = FreshDir("cache_quarantine");
  std::filesystem::create_directories(dir);
  StrategyCacheOptions options;
  options.disk_dir = dir;
  StrategyCache cache(options);
  const Fingerprint fp{13};
  {
    std::ofstream garbage(cache.DiskPath(fp));
    garbage << "hdmm-strategy v1\nkind alien\nname zap\n";
  }
  StrategyCache::Tier tier;
  EXPECT_EQ(cache.Get(fp, &tier), nullptr);
  EXPECT_EQ(tier, StrategyCache::Tier::kMiss);
  EXPECT_EQ(quarantined(), 1u);
  EXPECT_FALSE(std::filesystem::exists(cache.DiskPath(fp)));
  EXPECT_TRUE(std::filesystem::exists(cache.DiskPath(fp) + ".corrupt"));
  // The quarantine is once per file: the next Get is a plain miss.
  EXPECT_EQ(cache.Get(fp, &tier), nullptr);
  EXPECT_EQ(quarantined(), 1u);
  // And the slot recovers through a normal replan+Put.
  ASSERT_TRUE(cache.Put(
      fp, std::make_shared<ExplicitStrategy>(PrefixBlock(4), "replanned"))
          .ok());
  cache.ClearMemory();
  auto hit = cache.Get(fp, &tier);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->Name(), "replanned");
}

TEST(StrategyCache, ConcurrentGetPutEvictStress) {
  // Hammers one small cache from several threads mixing Put, memory/disk
  // Get, and ClearMemory. The assertions are modest (never a wrong
  // strategy back for a fingerprint); the real payoff is under
  // -DHDMM_SANITIZE=thread, where any lock-discipline regression in the
  // LRU/disk promotion paths trips the sanitizer.
  const CounterDelta quarantined("strategy_cache.corrupt_quarantined");
  const CounterDelta read_errors("strategy_cache.disk_read_errors");
  const std::string dir = FreshDir("cache_stress");
  StrategyCacheOptions options;
  options.memory_capacity = 4;  // Small: forces constant eviction churn.
  options.disk_dir = dir;
  StrategyCache cache(options);
  constexpr int kFingerprints = 8;
  constexpr int kThreads = 6;
  constexpr int kItersPerThread = 200;

  std::atomic<int> wrong_strategy{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &wrong_strategy, t] {
      Rng rng(static_cast<uint64_t>(7000 + t));
      for (int i = 0; i < kItersPerThread; ++i) {
        const auto id = static_cast<size_t>(
            rng.Uniform(0.0, static_cast<double>(kFingerprints)));
        const Fingerprint fp{100 + id};
        const double action = rng.Uniform(0.0, 1.0);
        if (action < 0.3) {
          const Status put = cache.Put(
              fp, std::make_shared<ExplicitStrategy>(
                      PrefixBlock(3), "fp-" + std::to_string(id)));
          if (!put.ok()) ++wrong_strategy;
        } else if (action < 0.95) {
          auto hit = cache.Get(fp);
          if (hit != nullptr && hit->Name() != "fp-" + std::to_string(id)) {
            ++wrong_strategy;
          }
        } else {
          cache.ClearMemory();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong_strategy.load(), 0);
  EXPECT_EQ(quarantined(), 0u);
  EXPECT_EQ(read_errors(), 0u);
  EXPECT_FALSE(cache.DiskWriteDegraded());
}

TEST(StrategyCache, DiskTierReenablesAfterRecoveryProbe) {
  // Regression: degradation used to be one-way — once Put stopped touching
  // the disk, no write could ever succeed to reset the failure counter, so
  // a recovered disk (volume remounted, space freed) stayed unused until
  // restart. Now every kReprobeInterval-th degraded Put probes the disk.
  const CounterDelta reprobes("strategy_cache.disk_reprobes");
  const std::string dir = FreshDir("cache_reprobe");
  StrategyCacheOptions options;
  options.disk_dir = dir;
  StrategyCache cache(options);
  auto strategy = [] {
    return std::make_shared<ExplicitStrategy>(PrefixBlock(3), "probe");
  };

  ASSERT_TRUE(
      Failpoints::Activate("strategy_cache.put.io_error", "always").ok());
  for (int i = 0; i < StrategyCache::kDiskFailureLimit; ++i) {
    EXPECT_FALSE(
        cache.Put(Fingerprint{static_cast<uint64_t>(i + 1)}, strategy())
            .ok());
  }
  ASSERT_TRUE(cache.DiskWriteDegraded());
  Failpoints::Deactivate("strategy_cache.put.io_error");

  // The disk has "recovered", but degraded Puts skip it — until the probe.
  int puts = 0;
  uint64_t last = 0;
  while (cache.DiskWriteDegraded() &&
         puts < StrategyCache::kReprobeInterval + 1) {
    last = static_cast<uint64_t>(100 + puts);
    EXPECT_TRUE(cache.Put(Fingerprint{last}, strategy()).ok());
    ++puts;
  }
  EXPECT_FALSE(cache.DiskWriteDegraded());
  EXPECT_LE(puts, StrategyCache::kReprobeInterval);
  EXPECT_GE(reprobes(), 1u);
  // The probe write itself landed on disk, and the tier is live again for
  // ordinary Puts.
  EXPECT_TRUE(std::filesystem::exists(cache.DiskPath(Fingerprint{last})));
  EXPECT_TRUE(cache.Put(Fingerprint{999}, strategy()).ok());
  EXPECT_TRUE(std::filesystem::exists(cache.DiskPath(Fingerprint{999})));

  // And a failed probe keeps the degraded contract: Put returns OK.
  ASSERT_TRUE(
      Failpoints::Activate("strategy_cache.put.io_error", "always").ok());
  for (int i = 0; i < StrategyCache::kDiskFailureLimit; ++i) {
    cache.Put(Fingerprint{static_cast<uint64_t>(200 + i)}, strategy());
  }
  ASSERT_TRUE(cache.DiskWriteDegraded());
  const uint64_t probes_before = reprobes();
  for (int i = 0; i < StrategyCache::kReprobeInterval; ++i) {
    EXPECT_TRUE(
        cache.Put(Fingerprint{static_cast<uint64_t>(300 + i)}, strategy())
            .ok());
  }
  EXPECT_GT(reprobes(), probes_before);
  EXPECT_TRUE(cache.DiskWriteDegraded());  // Probe failed: still degraded.
  Failpoints::Deactivate("strategy_cache.put.io_error");
}

// --- Accountant --------------------------------------------------------------

TEST(Accountant, SequentialCompositionLedger) {
  BudgetAccountant accountant(1.0);
  EXPECT_TRUE(accountant.Charge("census", PrivacyCharge::Laplace(0.25)).ok());
  EXPECT_TRUE(accountant.Charge("census", PrivacyCharge::Laplace(0.5)).ok());
  EXPECT_NEAR(accountant.Spent("census"), 0.75, 1e-15);
  EXPECT_NEAR(accountant.Remaining("census"), 0.25, 1e-15);
  // Over budget: refused, ledger unchanged.
  EXPECT_FALSE(accountant.Charge("census", PrivacyCharge::Laplace(0.5)).ok());
  EXPECT_NEAR(accountant.Spent("census"), 0.75, 1e-15);
  EXPECT_EQ(accountant.NumCharges("census"), 2);
  // Exactly exhausting the budget is allowed.
  EXPECT_TRUE(accountant.Charge("census", PrivacyCharge::Laplace(0.25)).ok());
  EXPECT_FALSE(accountant.Charge("census", PrivacyCharge::Laplace(1e-9)).ok());
  EXPECT_EQ(accountant.Remaining("census"), 0.0);
}

TEST(Accountant, DatasetsAreIndependent) {
  BudgetAccountant accountant(0.5);
  EXPECT_TRUE(accountant.Charge("a", PrivacyCharge::Laplace(0.5)).ok());
  EXPECT_FALSE(accountant.Charge("a", PrivacyCharge::Laplace(0.1)).ok());
  EXPECT_TRUE(accountant.Charge("b", PrivacyCharge::Laplace(0.5)).ok());
  EXPECT_EQ(accountant.Spent("unknown"), 0.0);
  EXPECT_NEAR(accountant.Remaining("unknown"), 0.5, 1e-15);
}

TEST(Accountant, ToleratesFloatingPointSplits) {
  // 10 equal slices of 1/10 must exactly exhaust a unit budget despite
  // accumulation rounding.
  BudgetAccountant accountant(1.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(accountant.Charge("d", PrivacyCharge::Laplace(0.1)).ok())
        << "slice " << i;
  }
  EXPECT_FALSE(accountant.Charge("d", PrivacyCharge::Laplace(0.01)).ok());
}

TEST(Accountant, LedgerSurvivesRestart) {
  const std::string path = FreshDir("ledger_restart") + "/budget.ledger";
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  {
    BudgetAccountant accountant(1.0, path);
    EXPECT_TRUE(
        accountant.Charge("census data.csv", PrivacyCharge::Laplace(0.6)).ok());
    EXPECT_TRUE(accountant.Charge("other", PrivacyCharge::Laplace(0.25)).ok());
  }
  // A fresh accountant (new process in real life) replays the ledger: the
  // ceiling holds across restarts instead of resetting to the full budget.
  // Scoped — the flock admits one live accountant per ledger at a time.
  {
    BudgetAccountant restarted(1.0, path);
    EXPECT_NEAR(restarted.Spent("census data.csv"), 0.6, 1e-15);
    EXPECT_EQ(restarted.NumCharges("census data.csv"), 1);
    EXPECT_FALSE(
        restarted.Charge("census data.csv", PrivacyCharge::Laplace(0.5)).ok());
    EXPECT_TRUE(
        restarted.Charge("census data.csv", PrivacyCharge::Laplace(0.4)).ok());
  }
  BudgetAccountant third(1.0, path);
  EXPECT_EQ(third.Remaining("census data.csv"), 0.0);
  EXPECT_NEAR(third.Spent("other"), 0.25, 1e-15);
}

TEST(AccountantDeath, DiesOnCorruptLedger) {
  const std::string path = FreshDir("ledger_corrupt") + "/budget.ledger";
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  {
    std::ofstream out(path);
    out << "not-a-number census.csv\n";
  }
  EXPECT_DEATH(BudgetAccountant(1.0, path), "malformed budget ledger");
}

TEST(AccountantDeath, RejectsInvalidEpsilon) {
  BudgetAccountant accountant(1.0);
  // Built field by field, bypassing PrivacyCharge::Laplace's own check: the
  // accountant must refuse a malformed charge however it was constructed.
  for (double epsilon : {0.0, -0.5, std::nan(""),
                         std::numeric_limits<double>::infinity()}) {
    PrivacyCharge charge;
    charge.mechanism = Mechanism::kLaplace;
    charge.epsilon = epsilon;
    EXPECT_DEATH(accountant.Charge("d", charge), "positive and finite")
        << epsilon;
  }
}

TEST(AccountantDeath, RejectsInvalidTotal) {
  EXPECT_DEATH(BudgetAccountant(0.0), "positive and finite");
  EXPECT_DEATH(BudgetAccountant(std::numeric_limits<double>::infinity()),
               "positive and finite");
}

TEST(Accountant, PerDatasetCeilingOverrides) {
  BudgetAccountantOptions options;
  options.regime = BudgetRegime::kPureDp;
  options.total_epsilon = 1.0;
  options.dataset_ceilings["sensitive"] = 0.4;
  BudgetAccountant accountant(options);
  EXPECT_NEAR(accountant.TotalBudget("sensitive"), 0.4, 1e-15);
  EXPECT_NEAR(accountant.TotalBudget("other"), 1.0, 1e-15);
  EXPECT_NEAR(accountant.Remaining("sensitive"), 0.4, 1e-15);
  // A charge the default ceiling would admit is refused on the overridden
  // dataset, admitted elsewhere; the refusal records nothing.
  EXPECT_FALSE(
      accountant.Charge("sensitive", PrivacyCharge::Laplace(0.6)).ok());
  EXPECT_EQ(accountant.Spent("sensitive"), 0.0);
  EXPECT_TRUE(accountant.Charge("other", PrivacyCharge::Laplace(0.6)).ok());
  // Exactly exhausting the override is allowed; one more dust charge isn't.
  EXPECT_TRUE(accountant.Charge("sensitive", PrivacyCharge::Laplace(0.4)).ok());
  EXPECT_FALSE(
      accountant.Charge("sensitive", PrivacyCharge::Laplace(1e-9)).ok());
  EXPECT_EQ(accountant.Remaining("sensitive"), 0.0);
  EXPECT_NEAR(accountant.Remaining("other"), 0.4, 1e-15);
}

TEST(Accountant, PerDatasetCeilingSurvivesLedgerReplay) {
  const std::string path = FreshDir("ledger_override") + "/budget.ledger";
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  BudgetAccountantOptions options;
  options.total_epsilon = 1.0;
  options.dataset_ceilings["tight"] = 0.3;
  options.ledger_path = path;
  {
    BudgetAccountant accountant(options);
    EXPECT_TRUE(accountant.Charge("tight", PrivacyCharge::Laplace(0.3)).ok());
  }
  BudgetAccountant restarted(options);
  EXPECT_NEAR(restarted.Spent("tight"), 0.3, 1e-15);
  EXPECT_FALSE(restarted.Charge("tight", PrivacyCharge::Laplace(0.1)).ok());
  EXPECT_TRUE(restarted.Charge("loose", PrivacyCharge::Laplace(0.9)).ok());
}

TEST(AccountantDeath, RejectsInvalidDatasetCeiling) {
  BudgetAccountantOptions options;
  options.total_epsilon = 1.0;
  options.dataset_ceilings["d"] = 0.0;
  EXPECT_DEATH(BudgetAccountant{options}, "positive and finite");
}

// --- zCDP accounting ---------------------------------------------------------

BudgetAccountantOptions ZCdpOptions(double total_rho,
                                    const std::string& ledger_path = "") {
  BudgetAccountantOptions options;
  options.regime = BudgetRegime::kZCdp;
  options.total_rho = total_rho;
  options.delta = 1e-6;
  options.ledger_path = ledger_path;
  return options;
}

TEST(AccountantZCdp, ComposesRhoAdditively) {
  // k charges of rho/k must exactly exhaust the budget; charge k+1 refused.
  const int k = 8;
  const double total_rho = 0.5;
  BudgetAccountant accountant(ZCdpOptions(total_rho));
  for (int i = 0; i < k; ++i) {
    EXPECT_TRUE(accountant.Charge(
        "census", PrivacyCharge::Gaussian(total_rho / k)).ok())
        << "charge " << i;
  }
  EXPECT_NEAR(accountant.Spent("census"), total_rho, 1e-12);
  const Status refused =
      accountant.Charge("census", PrivacyCharge::Gaussian(total_rho / k));
  EXPECT_EQ(refused.code(), StatusCode::kOverBudget);
  EXPECT_NE(refused.message().find("budget exceeded"), std::string::npos);
  EXPECT_EQ(accountant.NumCharges("census"), k);
}

TEST(AccountantZCdp, ReportsBunSteinkeEpsilon) {
  BudgetAccountant accountant(ZCdpOptions(1.0));
  EXPECT_TRUE(accountant.Charge("d", PrivacyCharge::Gaussian(0.25)).ok());
  // eps = rho + 2 sqrt(rho ln(1/delta)), the Bun-Steinke closed form.
  const double expected = 0.25 + 2.0 * std::sqrt(0.25 * std::log(1e6));
  EXPECT_NEAR(accountant.ReportedEpsilon("d"), expected, 1e-12);
  EXPECT_NEAR(accountant.ReportedEpsilon("unknown"), 0.0, 1e-15);
  EXPECT_NEAR(accountant.total_epsilon(), RhoToEpsilon(1.0, 1e-6), 1e-12);
}

TEST(AccountantZCdp, LaplaceChargesCostEpsilonSquaredOverTwo) {
  // Pure eps-DP => (eps^2/2)-zCDP: a Laplace measurement is accountable in
  // the zCDP regime, at quadratic cost.
  BudgetAccountant accountant(ZCdpOptions(1.0));
  EXPECT_TRUE(accountant.Charge("d", PrivacyCharge::Laplace(1.0)).ok());
  EXPECT_NEAR(accountant.Spent("d"), 0.5, 1e-15);
  EXPECT_TRUE(accountant.Charge("d", PrivacyCharge::Laplace(0.5)).ok());
  EXPECT_NEAR(accountant.Spent("d"), 0.625, 1e-15);
}

TEST(AccountantZCdp, CeilingDerivedFromEpsilonDelta) {
  // total_rho == 0: the rho ceiling is the Bun-Steinke inverse of
  // (total_epsilon, delta) — spending it all reports exactly total_epsilon.
  BudgetAccountantOptions options;
  options.regime = BudgetRegime::kZCdp;
  options.total_epsilon = 2.0;
  options.delta = 1e-9;
  BudgetAccountant accountant(options);
  EXPECT_NEAR(accountant.TotalBudget(), RhoFromEpsilonDelta(2.0, 1e-9),
              1e-15);
  EXPECT_TRUE(accountant.Charge(
      "d", PrivacyCharge::Gaussian(accountant.TotalBudget())).ok());
  EXPECT_NEAR(accountant.ReportedEpsilon("d"), 2.0, 1e-9);
  EXPECT_FALSE(accountant.Charge("d", PrivacyCharge::Gaussian(1e-6)).ok());
}

TEST(AccountantZCdp, PureRegimeRefusesGaussianCharges) {
  // A Gaussian release has no finite pure-eps cost: the pure regime must
  // refuse (softly — a serve-mode request must not abort the process), not
  // approximate.
  BudgetAccountant accountant(1.0);
  const Status refused = accountant.Charge("d", PrivacyCharge::Gaussian(0.1));
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(refused.message(),
            "a Gaussian (zCDP) charge cannot be accounted in the pure-dp "
            "regime; configure the zcdp regime");
  EXPECT_EQ(accountant.Spent("d"), 0.0);
  EXPECT_EQ(accountant.NumCharges("d"), 0);
}

// --- Ledger v2: durability, migration, locking -------------------------------

std::string LedgerPathIn(const std::string& name) {
  const std::string dir = FreshDir(name);
  std::filesystem::create_directories(dir);
  return dir + "/budget.ledger";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(AccountantLedger, V2RecordsMechanismAndRoundTrips) {
  const std::string path = LedgerPathIn("ledger_v2");
  {
    BudgetAccountant accountant(ZCdpOptions(1.0, path));
    EXPECT_TRUE(accountant.Charge("census data.csv",
                                     PrivacyCharge::Gaussian(0.25)).ok());
    EXPECT_TRUE(accountant.Charge("census data.csv",
                                     PrivacyCharge::Laplace(0.5)).ok());
  }
  const std::string content = ReadFile(path);
  EXPECT_EQ(content.rfind("hdmm-budget-ledger v2\n", 0), 0u) << content;
  EXPECT_NE(content.find("gaussian 0.25"), std::string::npos) << content;
  EXPECT_NE(content.find("laplace 0.5"), std::string::npos) << content;

  BudgetAccountant restarted(ZCdpOptions(1.0, path));
  EXPECT_NEAR(restarted.Spent("census data.csv"), 0.25 + 0.125, 1e-15);
  EXPECT_EQ(restarted.NumCharges("census data.csv"), 2);
}

TEST(AccountantLedger, V1LedgerReplaysAndMigratesToV2) {
  const std::string path = LedgerPathIn("ledger_v1_migrate");
  {
    std::ofstream out(path);
    out << "0.25 census data.csv\n0.5 census data.csv\n0.1 other\n";
  }
  // The v2 reader replays headerless v1 content as pure-eps charges...
  BudgetAccountant accountant(1.0, path);
  EXPECT_NEAR(accountant.Spent("census data.csv"), 0.75, 1e-15);
  EXPECT_EQ(accountant.NumCharges("census data.csv"), 2);
  EXPECT_NEAR(accountant.Spent("other"), 0.1, 1e-15);
  // ...and migrates the file to v2 in place.
  const std::string content = ReadFile(path);
  EXPECT_EQ(content.rfind("hdmm-budget-ledger v2\n", 0), 0u) << content;
  EXPECT_NE(content.find("laplace 0.25 0 census data.csv"),
            std::string::npos)
      << content;
  EXPECT_TRUE(
      accountant.Charge("census data.csv", PrivacyCharge::Laplace(0.25)).ok());
  EXPECT_FALSE(
      accountant.Charge("census data.csv", PrivacyCharge::Laplace(0.01)).ok());
}

TEST(AccountantLedger, TruncatedFinalLineIsCrashReplaySafe) {
  // A torn final record without a trailing newline is the signature of a
  // crash mid-append; by durable-before-spendable its charge was never
  // acted on, so replay drops it — and only it — and truncates the tail so
  // subsequent appends land on a record boundary.
  const std::string path = LedgerPathIn("ledger_torn");
  {
    std::ofstream out(path, std::ios::binary);
    out << "hdmm-budget-ledger v2\n"
        << "laplace 0.25 0 census.csv\n"
        << "gaussian 0.125 1e-";  // Torn mid-write: no newline.
  }
  {
    BudgetAccountant accountant(ZCdpOptions(1.0, path));
    EXPECT_NEAR(accountant.Spent("census.csv"), 0.03125, 1e-15);  // eps^2/2.
    EXPECT_EQ(accountant.NumCharges("census.csv"), 1);
    EXPECT_TRUE(accountant.Charge("census.csv",
                                     PrivacyCharge::Gaussian(0.25)).ok());
    const std::string content = ReadFile(path);
    EXPECT_EQ(content.find("1e-"), std::string::npos) << content;
  }

  BudgetAccountant restarted(ZCdpOptions(1.0, path));
  EXPECT_NEAR(restarted.Spent("census.csv"), 0.28125, 1e-12);
  EXPECT_EQ(restarted.NumCharges("census.csv"), 2);
}

TEST(AccountantLedgerDeath, InteriorCorruptionStillDies) {
  // The torn-tail tolerance must not soften interior corruption: a
  // malformed line *followed by* valid records (or with its newline intact)
  // is not a crash artifact and must abort.
  const std::string path = LedgerPathIn("ledger_interior_corrupt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "hdmm-budget-ledger v2\n"
        << "garbage not-a-record\n"
        << "laplace 0.25 0 census.csv\n";
  }
  EXPECT_DEATH(BudgetAccountant(1.0, path), "malformed budget ledger");
}

TEST(AccountantLedgerDeath, GaussianHistoryNeedsZCdpRegime) {
  // Replaying Gaussian charges under a pure-eps accountant would silently
  // drop spend from the ledger — a configuration error that must abort.
  const std::string path = LedgerPathIn("ledger_regime_mismatch");
  {
    BudgetAccountant accountant(ZCdpOptions(1.0, path));
    EXPECT_TRUE(accountant.Charge("d", PrivacyCharge::Gaussian(0.25)).ok());
  }
  EXPECT_DEATH(BudgetAccountant(1.0, path), "zcdp");
}

TEST(AccountantLedgerDeath, FlockExcludesSecondAccountant) {
  // Two accountants replaying one ledger would each see only the
  // pre-existing spend and could jointly spend up to twice the ceiling; the
  // flock makes the second one die instead of double-spending.
  const std::string path = LedgerPathIn("ledger_flock");
  BudgetAccountant first(1.0, path);
  EXPECT_TRUE(first.Charge("census", PrivacyCharge::Laplace(0.6)).ok());
  // Short lock timeout: the lock is held for the whole test, so the default
  // backoff window would only slow the death down.
  BudgetAccountantOptions contended;
  contended.total_epsilon = 1.0;
  contended.ledger_path = path;
  contended.lock_timeout_ms = 50;
  EXPECT_DEATH(BudgetAccountant{contended}, "locked by another");
  // The budget stays jointly bounded: only the lock holder can spend.
  EXPECT_TRUE(first.Charge("census", PrivacyCharge::Laplace(0.4)).ok());
  EXPECT_FALSE(first.Charge("census", PrivacyCharge::Laplace(0.1)).ok());
}

TEST(AccountantLedger, FlockReleasedOnDestruction) {
  const std::string path = LedgerPathIn("ledger_flock_release");
  {
    BudgetAccountant first(1.0, path);
    EXPECT_TRUE(first.Charge("census", PrivacyCharge::Laplace(0.6)).ok());
  }
  BudgetAccountant second(1.0, path);  // Lock released: no death.
  EXPECT_NEAR(second.Spent("census"), 0.6, 1e-15);
  EXPECT_FALSE(second.Charge("census", PrivacyCharge::Laplace(0.5)).ok());
}

// --- Laplace measurement validation ------------------------------------------

TEST(MeasureDeath, RejectsNonFiniteEpsilonAndSensitivity) {
  ExplicitStrategy s(IdentityBlock(4), "id");
  Vector x{1.0, 2.0, 3.0, 4.0};
  Rng rng(1);
  EXPECT_DEATH(s.Measure(x, 0.0, &rng), "epsilon");
  EXPECT_DEATH(s.Measure(x, std::nan(""), &rng), "epsilon");
  EXPECT_DEATH(s.Measure(x, std::numeric_limits<double>::infinity(), &rng),
               "epsilon");
  EXPECT_DEATH(LaplaceScale(1.0, -1.0), "epsilon");
  EXPECT_DEATH(LaplaceScale(0.0, 1.0), "sensitivity");
  EXPECT_DEATH(LaplaceScale(std::nan(""), 1.0), "sensitivity");
  EXPECT_EQ(LaplaceScale(2.0, 0.5), 4.0);
}

// --- Queries and sessions ----------------------------------------------------

TEST(Queries, ParseQueryLineForms) {
  Domain d({"sex", "age"}, {2, 8});

  StatusOr<BoxQuery> q = ParseQueryLine("point sex=1 age=3", d);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->lo, (std::vector<int64_t>{1, 3}));
  EXPECT_EQ(q->hi, (std::vector<int64_t>{1, 3}));

  q = ParseQueryLine("marginal sex=0", d);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->lo, (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(q->hi, (std::vector<int64_t>{0, 7}));

  q = ParseQueryLine("range age=2:5", d);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->lo, (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(q->hi, (std::vector<int64_t>{1, 5}));

  // Unnamed domains accept zero-based attribute indices...
  Domain unnamed({2, 8});
  q = ParseQueryLine("range 1=2:5", unnamed);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->lo, (std::vector<int64_t>{0, 2}));
  // ...but named schemas reject bare indices: positions silently shift when
  // the schema changes, and a wrong answer is worse than a rejected query.
  q = ParseQueryLine("range 1=2:5", d);
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(q.status().message().find("unknown attribute"), std::string::npos);
}

TEST(Queries, ParseQueryLineRejections) {
  Domain d({"sex", "age"}, {2, 8});
  auto rejection = [&d](const char* line) {
    const StatusOr<BoxQuery> q = ParseQueryLine(line, d);
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << line;
    return q.status().message();
  };
  EXPECT_NE(rejection("point sex=1").find("every attribute"),
            std::string::npos);
  EXPECT_NE(rejection("marginal height=1").find("unknown attribute"),
            std::string::npos);
  EXPECT_NE(rejection("marginal age=9").find("outside"), std::string::npos);
  EXPECT_NE(rejection("marginal age=2:5").find("single value"),
            std::string::npos);
  EXPECT_NE(rejection("sum age=1").find("unknown query kind"),
            std::string::npos);
  EXPECT_NE(rejection("marginal age=1 age=2").find("twice"),
            std::string::npos);
  EXPECT_NE(rejection("marginal").find("binds no attributes"),
            std::string::npos);
}

// Brute-force box sum for cross-checking the summed-area table.
double BruteForceBox(const Domain& d, const Vector& x, const BoxQuery& q) {
  double total = 0.0;
  for (int64_t i = 0; i < d.TotalSize(); ++i) {
    const std::vector<int64_t> coords = d.Unflatten(i);
    bool inside = true;
    for (size_t a = 0; a < coords.size(); ++a) {
      if (coords[a] < q.lo[a] || coords[a] > q.hi[a]) inside = false;
    }
    if (inside) total += x[static_cast<size_t>(i)];
  }
  return total;
}

TEST(Session, AnswersMatchBruteForce) {
  Domain d({3, 4, 5});
  Rng rng(23);
  Vector x(static_cast<size_t>(d.TotalSize()));
  for (double& v : x) v = rng.Uniform(-1.0, 3.0);
  MeasurementSession session(d, x, PrivacyCharge::Laplace(1.0), nullptr);

  Rng qrng(29);
  for (int trial = 0; trial < 200; ++trial) {
    BoxQuery q = FullRangeQuery(d);
    for (int a = 0; a < d.NumAttributes(); ++a) {
      const int64_t n = d.AttributeSize(a);
      int64_t lo = static_cast<int64_t>(qrng.Uniform(0.0, double(n)));
      int64_t hi = static_cast<int64_t>(qrng.Uniform(0.0, double(n)));
      if (lo > hi) std::swap(lo, hi);
      q.lo[static_cast<size_t>(a)] = lo;
      q.hi[static_cast<size_t>(a)] = hi;
    }
    EXPECT_NEAR(session.Answer(q), BruteForceBox(d, x, q), 1e-9)
        << "trial " << trial;
  }
}

TEST(Session, BatchMatchesSingleAnswers) {
  Domain d({4, 6});
  Rng rng(31);
  Vector x(static_cast<size_t>(d.TotalSize()));
  for (double& v : x) v = rng.Uniform(0.0, 10.0);
  MeasurementSession session(d, x, PrivacyCharge::Laplace(0.5), nullptr);

  std::vector<BoxQuery> queries;
  for (int64_t a = 0; a < 4; ++a) {
    for (int64_t b = 0; b < 6; ++b) {
      queries.push_back(BoxQuery{{a, 0}, {a, b}});
    }
  }
  const Vector batch = session.AnswerBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], session.Answer(queries[i])) << "query " << i;
  }
}

// --- Engine ------------------------------------------------------------------

EngineOptions FastEngineOptions(const std::string& cache_dir = "") {
  EngineOptions options;
  options.optimizer.restarts = 1;
  options.optimizer.seed = 5;
  options.cache.disk_dir = cache_dir;
  options.total_epsilon = 1.0;
  return options;
}

TEST(Engine, PlanCachesAcrossCallsAndRestarts) {
  const std::string dir = FreshDir("engine_plan");
  UnionWorkload w = SmallWorkload();

  Engine engine(FastEngineOptions(dir));
  PlanResult cold = engine.PlanOr(w).value();
  ASSERT_NE(cold.strategy, nullptr);
  EXPECT_EQ(cold.source, PlanSource::kOptimized);

  PlanResult warm = engine.PlanOr(w).value();
  EXPECT_EQ(warm.source, PlanSource::kMemoryCache);
  EXPECT_EQ(warm.strategy.get(), cold.strategy.get());
  EXPECT_EQ(warm.fingerprint.value, cold.fingerprint.value);

  // A second engine over the same directory plans from disk.
  Engine restarted(FastEngineOptions(dir));
  PlanResult from_disk = restarted.PlanOr(w).value();
  EXPECT_EQ(from_disk.source, PlanSource::kDiskCache);
  EXPECT_EQ(SerializeStrategy(*from_disk.strategy),
            SerializeStrategy(*cold.strategy));
}

TEST(Engine, PlanTreatsWrongDomainCacheEntryAsMiss) {
  // A stale or foreign cache entry (copied directory, hand-placed file)
  // whose domain does not match must be re-optimized over, not served — and
  // certainly not allowed to abort Measure deep inside Strategy::Apply.
  UnionWorkload w = SmallWorkload();
  EngineOptions options = FastEngineOptions();
  Engine engine(options);
  const Fingerprint fp = FingerprintPlan(w, options.optimizer);
  engine.cache().Put(fp, std::make_shared<ExplicitStrategy>(
                             PrefixBlock(3), "foreign"));  // Domain 3 != 16.
  PlanResult plan = engine.PlanOr(w).value();
  ASSERT_NE(plan.strategy, nullptr);
  EXPECT_EQ(plan.source, PlanSource::kOptimized);
  EXPECT_EQ(plan.strategy->DomainSize(), w.DomainSize());
  // The bad entry was overwritten: the next plan is a healthy cache hit.
  PlanResult again = engine.PlanOr(w).value();
  EXPECT_EQ(again.source, PlanSource::kMemoryCache);
  EXPECT_EQ(again.strategy->DomainSize(), w.DomainSize());
}

TEST(Engine, PlanSurfacesDiskWriteFailure) {
  EngineOptions options = FastEngineOptions();
  // A file where the cache directory should be: create_directories fails.
  const std::string bogus = ::testing::TempDir() + "/engine_not_a_dir";
  std::filesystem::remove_all(bogus);
  { std::ofstream out(bogus); out << "occupied"; }
  options.cache.disk_dir = bogus + "/cache";
  Engine engine(options);
  PlanResult plan = engine.PlanOr(SmallWorkload()).value();
  ASSERT_NE(plan.strategy, nullptr);  // The plan itself still serves.
  EXPECT_EQ(plan.source, PlanSource::kOptimized);
  EXPECT_EQ(plan.cache_error.code(), StatusCode::kIoError);
}

TEST(Engine, BudgetLedgerPersistsAcrossEngines) {
  const std::string dir = FreshDir("engine_ledger");
  std::filesystem::create_directories(dir);
  EngineOptions options = FastEngineOptions(dir);
  options.ledger_path = dir + "/budget.ledger";
  UnionWorkload w = SmallWorkload();
  Vector x(static_cast<size_t>(w.DomainSize()), 1.0);
  {
    Engine engine(options);
    Rng rng(51);
    const auto measured =
        engine.MeasureOr(w, "d.csv", x, MeasureRequest::Laplace(0.8), &rng);
    ASSERT_TRUE(measured.ok()) << measured.status().ToString();
  }
  Engine restarted(options);
  EXPECT_NEAR(restarted.accountant().Spent("d.csv"), 0.8, 1e-15);
  Rng rng(52);
  const auto refused =
      restarted.MeasureOr(w, "d.csv", x, MeasureRequest::Laplace(0.5), &rng);
  EXPECT_EQ(refused.status().code(), StatusCode::kOverBudget);
  EXPECT_NE(refused.status().message().find("budget exceeded"),
            std::string::npos);
}

TEST(Engine, MeasureChargesAndRefuses) {
  UnionWorkload w = SmallWorkload();
  Engine engine(FastEngineOptions());
  Vector x(static_cast<size_t>(w.DomainSize()), 2.0);
  Rng rng(41);

  auto first =
      engine.MeasureOr(w, "census", x, MeasureRequest::Laplace(0.7), &rng);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NEAR(engine.accountant().Spent("census"), 0.7, 1e-15);

  auto refused =
      engine.MeasureOr(w, "census", x, MeasureRequest::Laplace(0.5), &rng);
  EXPECT_EQ(refused.status().code(), StatusCode::kOverBudget);
  EXPECT_NE(refused.status().message().find("budget exceeded"),
            std::string::npos);
  EXPECT_NEAR(engine.accountant().Spent("census"), 0.7, 1e-15);

  auto second =
      engine.MeasureOr(w, "census", x, MeasureRequest::Laplace(0.3), &rng);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(engine.accountant().Remaining("census"), 0.0);
}

TEST(Engine, PerDatasetBudgetOverridesGateMeasure) {
  UnionWorkload w = SmallWorkload();
  EngineOptions options = FastEngineOptions();  // total_epsilon = 1.0.
  options.dataset_budgets["sensitive.csv"] = 0.4;
  Engine engine(options);
  Vector x(static_cast<size_t>(w.DomainSize()), 2.0);
  Rng rng(43);

  // 0.6 fits the fleet-wide ceiling but not the override.
  auto refused = engine.MeasureOr(w, "sensitive.csv", x,
                                  MeasureRequest::Laplace(0.6), &rng);
  EXPECT_EQ(refused.status().code(), StatusCode::kOverBudget);
  EXPECT_NE(refused.status().message().find("budget exceeded"),
            std::string::npos);
  EXPECT_EQ(engine.accountant().Spent("sensitive.csv"), 0.0);

  auto allowed = engine.MeasureOr(w, "other.csv", x,
                                  MeasureRequest::Laplace(0.6), &rng);
  ASSERT_TRUE(allowed.ok()) << allowed.status().ToString();

  auto under = engine.MeasureOr(w, "sensitive.csv", x,
                                MeasureRequest::Laplace(0.4), &rng);
  ASSERT_TRUE(under.ok()) << under.status().ToString();
  EXPECT_EQ(engine.accountant().Remaining("sensitive.csv"), 0.0);
  EXPECT_NEAR(engine.accountant().Remaining("other.csv"), 0.4, 1e-15);
}

TEST(Engine, PerDatasetBudgetOverridesConvertUnderZCdp) {
  // Engine overrides are epsilon ceilings; under zcdp they must arrive at
  // the accountant as the Bun-Steinke rho, same as total_epsilon does.
  EngineOptions options = FastEngineOptions();
  options.regime = BudgetRegime::kZCdp;
  options.total_epsilon = 2.0;
  options.delta = 1e-9;
  options.dataset_budgets["tight"] = 0.5;
  Engine engine(options);
  EXPECT_NEAR(engine.accountant().TotalBudget("tight"),
              RhoFromEpsilonDelta(0.5, 1e-9), 1e-15);
  EXPECT_NEAR(engine.accountant().TotalBudget("other"),
              RhoFromEpsilonDelta(2.0, 1e-9), 1e-15);
}

TEST(Engine, SessionAnswersApproximateTruthAtHighEpsilon) {
  // With epsilon large the noise is negligible, so session answers must be
  // close to the true box sums — this checks the whole path: plan, measure,
  // reconstruct, summed-area table, batched answering.
  UnionWorkload w = SmallWorkload();
  EngineOptions options = FastEngineOptions();
  options.total_epsilon = 2e6;
  Engine engine(options);
  Rng rng(43);
  Vector x(static_cast<size_t>(w.DomainSize()));
  for (double& v : x) v = std::floor(rng.Uniform(0.0, 20.0));

  auto session =
      engine.MeasureOr(w, "d", x, MeasureRequest::Laplace(1e6), &rng).value();

  const std::vector<BoxQuery> queries = {
      ParseQueryLine("point sex=1 age=3", w.domain()).value(),
      ParseQueryLine("marginal sex=0", w.domain()).value(),
      ParseQueryLine("range age=2:6", w.domain()).value()};

  const Vector answers = session->AnswerBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_NEAR(answers[i], BruteForceBox(w.domain(), x, queries[i]), 0.05)
        << "query " << i;
  }
}

TEST(Engine, ExplicitStrategyReconstructsThroughStrategyPinv) {
  // An explicit-strategy plan has no engine-side reconstruction path: x_hat
  // is bit-identical to the strategy's own Measure + Reconstruct replayed
  // from the same seed.
  UnionWorkload w = ParseWorkload("domain x=6\nproduct x=prefix\n").value();
  EngineOptions options = FastEngineOptions();
  options.total_epsilon = 4e6;
  Engine engine(options);

  // Seed the cache with an explicit strategy under this plan's fingerprint
  // so PlanOr() returns it.
  const Fingerprint fp = FingerprintPlan(w, options.optimizer);
  auto explicit_strategy =
      std::make_shared<ExplicitStrategy>(PrefixBlock(6), "explicit-prefix");
  engine.cache().Put(fp, explicit_strategy);

  const double eps = 1e6;
  Rng rng(47);
  Rng rng2(47);
  Vector x{5.0, 3.0, 8.0, 1.0, 0.0, 2.0};
  for (int round = 0; round < 2; ++round) {
    auto session =
        engine.MeasureOr(w, "d", x, MeasureRequest::Laplace(eps), &rng)
            .value();
    const Vector y = explicit_strategy->Measure(x, eps, &rng2);
    EXPECT_EQ(session->XHat(), explicit_strategy->Reconstruct(y));
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(session->XHat()[i], x[i], 1e-3);
    }
  }
}

// --- Gaussian measurement and marginal-table sessions ------------------------

EngineOptions ZCdpEngineOptions(double total_rho) {
  EngineOptions options;
  options.optimizer.restarts = 1;
  options.optimizer.seed = 5;
  options.regime = BudgetRegime::kZCdp;
  options.total_rho = total_rho;
  options.delta = 1e-6;
  return options;
}

TEST(Engine, GaussianMeasureChargesRhoAndRefusesOverBudget) {
  UnionWorkload w = SmallWorkload();
  Engine engine(ZCdpEngineOptions(1.0));
  Vector x(static_cast<size_t>(w.DomainSize()), 2.0);
  Rng rng(61);

  auto first =
      engine.MeasureOr(w, "census", x, MeasureRequest::Gaussian(0.7), &rng)
          .value();
  EXPECT_EQ(first->mechanism(), Mechanism::kGaussian);
  EXPECT_EQ(first->rho(), 0.7);
  EXPECT_NEAR(engine.accountant().Spent("census"), 0.7, 1e-15);

  auto refused =
      engine.MeasureOr(w, "census", x, MeasureRequest::Gaussian(0.5), &rng);
  EXPECT_EQ(refused.status().code(), StatusCode::kOverBudget);
  EXPECT_NE(refused.status().message().find("budget exceeded"),
            std::string::npos);
  EXPECT_NEAR(engine.accountant().Spent("census"), 0.7, 1e-15);

  auto second =
      engine.MeasureOr(w, "census", x, MeasureRequest::Gaussian(0.3), &rng);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(engine.accountant().Remaining("census"), 0.0);
}

TEST(Engine, GaussianMeasureRefusedInPureRegimeWithoutNoise) {
  UnionWorkload w = SmallWorkload();
  Engine engine(FastEngineOptions());  // Pure-dp regime.
  Vector x(static_cast<size_t>(w.DomainSize()), 1.0);
  Rng rng(62);
  auto refused =
      engine.MeasureOr(w, "d", x, MeasureRequest::Gaussian(0.5), &rng);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("zcdp"), std::string::npos);
  EXPECT_EQ(engine.accountant().Spent("d"), 0.0);
}

TEST(Engine, GaussianSessionAnswersApproximateTruthAtHighRho) {
  // End-to-end zCDP path: plan, rho-charge, Gaussian measure, reconstruct,
  // answer. At huge rho the noise is negligible.
  UnionWorkload w = SmallWorkload();
  Engine engine(ZCdpEngineOptions(2e12));
  Rng rng(63);
  Vector x(static_cast<size_t>(w.DomainSize()));
  for (double& v : x) v = std::floor(rng.Uniform(0.0, 20.0));

  auto session =
      engine.MeasureOr(w, "d", x, MeasureRequest::Gaussian(1e12), &rng)
          .value();

  const std::vector<BoxQuery> queries = {
      ParseQueryLine("point sex=1 age=3", w.domain()).value(),
      ParseQueryLine("marginal sex=0", w.domain()).value(),
      ParseQueryLine("range age=2:6", w.domain()).value()};

  const Vector answers = session->AnswerBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_NEAR(answers[i], BruteForceBox(w.domain(), x, queries[i]), 0.05)
        << "query " << i;
  }
}

// A marginals strategy over both attributes plus each one-way marginal, so
// marginal queries are covered by measured tables.
std::shared_ptr<const MarginalsStrategy> TwoAttributeMarginals(
    const Domain& domain) {
  Vector theta(4, 0.0);
  theta[1] = 1.0;  // attr 0 marginal.
  theta[2] = 1.0;  // attr 1 marginal.
  theta[3] = 1.0;  // Two-way (full) table.
  return std::make_shared<MarginalsStrategy>(domain, theta, "marginals");
}

TEST(Engine, MarginalsSessionServesMarginalsFromMeasuredTables) {
  UnionWorkload w = SmallWorkload();
  EngineOptions options = ZCdpEngineOptions(4e12);
  Engine engine(options);
  // Pin the plan to a marginals strategy so Measure builds a
  // marginal-table session.
  const Fingerprint fp = FingerprintPlan(w, options.optimizer);
  engine.cache().Put(fp, TwoAttributeMarginals(w.domain()));

  Rng rng(67);
  Vector x(static_cast<size_t>(w.DomainSize()));
  for (double& v : x) v = std::floor(rng.Uniform(0.0, 30.0));
  auto session =
      engine.MeasureOr(w, "d", x, MeasureRequest::Gaussian(1e12), &rng)
          .value();
  ASSERT_EQ(session->marginal_tables().size(), 3u);

  // Marginal queries are covered by the measured tables and answered from
  // them directly — within noise tolerance of the truth.
  BoxQuery q = ParseQueryLine("marginal sex=1", w.domain()).value();
  EXPECT_TRUE(session->CoveredByMarginal(q));
  EXPECT_NEAR(session->Answer(q), BruteForceBox(w.domain(), x, q), 0.05);

  q = ParseQueryLine("marginal age=5", w.domain()).value();
  EXPECT_TRUE(session->CoveredByMarginal(q));
  EXPECT_NEAR(session->Answer(q), BruteForceBox(w.domain(), x, q), 0.05);

  q = ParseQueryLine("point sex=0 age=2", w.domain()).value();
  EXPECT_TRUE(session->CoveredByMarginal(q));
  EXPECT_NEAR(session->Answer(q), BruteForceBox(w.domain(), x, q), 0.05);

  // Range queries over a strict sub-range are covered too (the covering
  // table is summed over the sub-box).
  q = ParseQueryLine("range age=2:6", w.domain()).value();
  EXPECT_NEAR(session->Answer(q), BruteForceBox(w.domain(), x, q), 0.1);
}

TEST(Engine, MarginalsSessionLazilyMaterializesXHat) {
  // A marginals session defers full-domain reconstruction; XHat() (or an
  // uncovered query) triggers it lazily, and the materialized x_hat agrees
  // with the truth at negligible noise. Queries keep working afterwards.
  UnionWorkload w = SmallWorkload();
  EngineOptions options = ZCdpEngineOptions(4e12);
  Engine engine(options);
  const Fingerprint fp = FingerprintPlan(w, options.optimizer);
  engine.cache().Put(fp, TwoAttributeMarginals(w.domain()));

  Rng rng(71);
  Vector x(static_cast<size_t>(w.DomainSize()));
  for (double& v : x) v = std::floor(rng.Uniform(0.0, 30.0));
  auto session =
      engine.MeasureOr(w, "d", x, MeasureRequest::Gaussian(1e12), &rng)
          .value();

  const Vector& x_hat = session->XHat();
  ASSERT_EQ(x_hat.size(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x_hat[i], x[i], 0.05) << "cell " << i;
  }
  const BoxQuery q = ParseQueryLine("marginal age=3", w.domain()).value();
  EXPECT_NEAR(session->Answer(q), BruteForceBox(w.domain(), x, q), 0.05);
}

TEST(Session, UncoveredQueryFallsBackToSummedAreaTable) {
  // A session whose measured marginals do not cover a query must fall back
  // to the summed-area path. Built directly (no engine) with a one-way-only
  // strategy: the point query constrains both attributes and is uncovered —
  // coverage detection is what routes it away from the tables.
  Domain d({"a", "b"}, {2, 3});
  Vector theta(4, 0.0);
  theta[1] = 1.0;  // attr a marginal.
  theta[2] = 1.0;  // attr b marginal.
  auto one_way = std::make_shared<MarginalsStrategy>(d, theta, "one-way");
  Vector x{3.0, 1.0, 4.0, 1.0, 5.0, 9.0};
  const Vector y = one_way->Apply(x);  // Noiseless: tables are exact.
  MeasurementSession session(d, one_way, y, PrivacyCharge::Gaussian(1.0));
  ASSERT_EQ(session.marginal_tables().size(), 2u);

  const BoxQuery covered = ParseQueryLine("marginal a=1", d).value();
  EXPECT_TRUE(session.CoveredByMarginal(covered));
  EXPECT_NEAR(session.Answer(covered), 1.0 + 5.0 + 9.0, 1e-9);

  const BoxQuery uncovered = ParseQueryLine("point a=1 b=2", d).value();
  EXPECT_FALSE(session.CoveredByMarginal(uncovered));
}

TEST(Engine, ZCdpLedgerPersistsGaussianChargesAcrossEngines) {
  const std::string dir = FreshDir("engine_zcdp_ledger");
  std::filesystem::create_directories(dir);
  EngineOptions options = ZCdpEngineOptions(1.0);
  options.cache.disk_dir = dir;
  options.ledger_path = dir + "/budget.ledger";
  UnionWorkload w = SmallWorkload();
  Vector x(static_cast<size_t>(w.DomainSize()), 1.0);
  {
    Engine engine(options);
    Rng rng(73);
    const auto measured =
        engine.MeasureOr(w, "d.csv", x, MeasureRequest::Gaussian(0.8), &rng);
    ASSERT_TRUE(measured.ok()) << measured.status().ToString();
  }
  Engine restarted(options);
  EXPECT_NEAR(restarted.accountant().Spent("d.csv"), 0.8, 1e-15);
  Rng rng(74);
  const auto refused =
      restarted.MeasureOr(w, "d.csv", x, MeasureRequest::Gaussian(0.5), &rng);
  EXPECT_EQ(refused.status().code(), StatusCode::kOverBudget);
  EXPECT_NE(refused.status().message().find("budget exceeded"),
            std::string::npos);
}

}  // namespace
}  // namespace hdmm
