#include "core/strategy_io.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/hdmm.h"
#include "workload/building_blocks.h"
#include "workload/marginals.h"

namespace hdmm {
namespace {

// Round-trip invariant: the reloaded strategy must agree with the original
// on every observable — name, shape, sensitivity, measurement operator, and
// expected error on a reference workload.
void ExpectEquivalent(const Strategy& a, const Strategy& b,
                      const UnionWorkload& w, Rng* rng) {
  EXPECT_EQ(a.Name(), b.Name());
  EXPECT_EQ(a.DomainSize(), b.DomainSize());
  EXPECT_EQ(a.NumQueries(), b.NumQueries());
  EXPECT_NEAR(a.Sensitivity(), b.Sensitivity(), 1e-12);
  EXPECT_NEAR(a.SquaredError(w), b.SquaredError(w),
              1e-9 * std::max(1.0, a.SquaredError(w)));
  Vector x(static_cast<size_t>(a.DomainSize()));
  for (double& v : x) v = rng->Uniform(0.0, 5.0);
  const Vector ya = a.Apply(x);
  const Vector yb = b.Apply(x);
  ASSERT_EQ(ya.size(), yb.size());
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(StrategyIo, ExplicitRoundTrip) {
  Rng rng(1);
  ExplicitStrategy original(
      Matrix::RandomUniform(5, 4, &rng, 0.0, 1.0), "my-explicit");
  UnionWorkload w = MakeProductWorkload(Domain({4}), {PrefixBlock(4)});

  auto parsed = ParseStrategy(SerializeStrategy(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::unique_ptr<Strategy> restored = std::move(parsed).value();
  ExpectEquivalent(original, *restored, w, &rng);
}

TEST(StrategyIo, KronRoundTrip) {
  Rng rng(2);
  KronStrategy original(
      {Matrix::RandomUniform(3, 2, &rng, 0.1, 1.0),
       Matrix::RandomUniform(6, 5, &rng, 0.1, 1.0)},
      "opt-kron");
  UnionWorkload w = MakeProductWorkload(Domain({2, 5}),
                                        {IdentityBlock(2), PrefixBlock(5)});

  auto parsed = ParseStrategy(SerializeStrategy(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::unique_ptr<Strategy> restored = std::move(parsed).value();
  ExpectEquivalent(original, *restored, w, &rng);
  EXPECT_NE(dynamic_cast<KronStrategy*>(restored.get()), nullptr);
}

TEST(StrategyIo, UnionKronRoundTrip) {
  Domain d({4, 4});
  UnionWorkload w(d);
  ProductWorkload p1;
  p1.factors = {AllRangeBlock(4), TotalBlock(4)};
  w.AddProduct(p1);
  ProductWorkload p2;
  p2.factors = {TotalBlock(4), AllRangeBlock(4)};
  w.AddProduct(p2);

  Rng rng(3);
  UnionKronStrategy original(
      {{MatScale(PrefixBlock(4), 0.5), MatScale(TotalBlock(4), 1.0)},
       {MatScale(TotalBlock(4), 1.0), MatScale(PrefixBlock(4), 0.5)}},
      {{0}, {1}}, "opt-union");

  auto parsed = ParseStrategy(SerializeStrategy(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::unique_ptr<Strategy> restored = std::move(parsed).value();
  ExpectEquivalent(original, *restored, w, &rng);
  auto* u = dynamic_cast<UnionKronStrategy*>(restored.get());
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->NumParts(), 2);
  EXPECT_EQ(u->group_products()[0], std::vector<int>{0});
  EXPECT_EQ(u->group_products()[1], std::vector<int>{1});
}

TEST(StrategyIo, MarginalsRoundTrip) {
  Domain d({3, 4, 2});
  Rng rng(4);
  Vector theta(8);
  for (double& v : theta) v = rng.Uniform(0.1, 2.0);
  MarginalsStrategy original(d, theta, "opt-marginals");
  UnionWorkload w = KWayMarginals(d, 2);

  auto parsed = ParseStrategy(SerializeStrategy(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::unique_ptr<Strategy> restored = std::move(parsed).value();
  ExpectEquivalent(original, *restored, w, &rng);
}

TEST(StrategyIo, OptimizerOutputRoundTripsThroughDisk) {
  // The Section 3.6 use case: optimize once, save, reload for a later
  // release, and measure with identical accuracy.
  UnionWorkload w = MakeProductWorkload(Domain({16, 4}),
                                        {AllRangeBlock(16), IdentityBlock(4)});
  HdmmOptions options;
  options.restarts = 1;
  options.seed = 11;
  HdmmResult result = OptimizeStrategy(w, options);

  const std::string path = ::testing::TempDir() + "/strategy.hdmm";
  const Status saved = SaveStrategyFile(path, *result.strategy);
  ASSERT_TRUE(saved.ok()) << saved.ToString();
  auto loaded = LoadStrategyFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::unique_ptr<Strategy> restored = std::move(loaded).value();

  Rng rng(5);
  ExpectEquivalent(*result.strategy, *restored, w, &rng);

  // The reloaded strategy reconstructs identically: same noisy input, same
  // inference output.
  Vector x(static_cast<size_t>(w.DomainSize()));
  for (double& v : x) v = std::floor(rng.Uniform(0.0, 9.0));
  Rng noise_a(99), noise_b(99);
  const Vector ans_a =
      RunMechanism(w, *result.strategy, x, 1.0, &noise_a);
  const Vector ans_b = RunMechanism(w, *restored, x, 1.0, &noise_b);
  for (size_t i = 0; i < ans_a.size(); ++i) {
    EXPECT_NEAR(ans_a[i], ans_b[i], 1e-9 * std::max(1.0, std::abs(ans_a[i])));
  }
}

TEST(StrategyIo, ExactDoubleFidelity) {
  // %.17g round-trips doubles exactly: a strategy with non-representable
  // decimal weights must survive unchanged bit for bit.
  KronStrategy original({Matrix::FromRows({{1.0 / 3.0, 0.1}, {0.7, 2.0 / 7.0}})},
                        "precision");
  auto parsed = ParseStrategy(SerializeStrategy(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::unique_ptr<Strategy> restored = std::move(parsed).value();
  auto* k = dynamic_cast<KronStrategy*>(restored.get());
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->factors()[0].MaxAbsDiff(original.factors()[0]), 0.0);
}

// --- Fixed-point fuzzing -----------------------------------------------------
// serialize(parse(serialize(s))) == serialize(s) for randomized strategies of
// every kind: one parse/serialize round must already be the normal form, so
// cached strategies never drift however many times they bounce through the
// serving engine's disk tier.

Matrix FuzzMatrix(Rng* rng, int64_t max_rows, int64_t max_cols) {
  const int64_t rows = 1 + static_cast<int64_t>(rng->Uniform(0.0, 1.0) *
                                                static_cast<double>(max_rows));
  const int64_t cols = 1 + static_cast<int64_t>(rng->Uniform(0.0, 1.0) *
                                                static_cast<double>(max_cols));
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    // Mix exactly-representable and irrational-looking values, plus sparse
    // zeros, so both integer and %.17g serialization paths are exercised.
    const double pick = rng->Uniform(0.0, 1.0);
    if (pick < 0.25) {
      m.data()[i] = std::floor(rng->Uniform(-4.0, 5.0));
    } else if (pick < 0.4) {
      m.data()[i] = 0.0;
    } else {
      m.data()[i] = rng->Uniform(-1.0, 1.0) / 3.0;
    }
  }
  return m;
}

void ExpectSerializationFixedPoint(const Strategy& s) {
  const std::string first = SerializeStrategy(s);
  const auto reparsed = ParseStrategy(first);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(SerializeStrategy(**reparsed), first);
}

TEST(StrategyIoFixedPoint, ExplicitFuzz) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(1000 + seed);
    ExplicitStrategy s(FuzzMatrix(&rng, 8, 8),
                       "fuzz-explicit-" + std::to_string(seed));
    ExpectSerializationFixedPoint(s);
  }
}

TEST(StrategyIoFixedPoint, KronFuzz) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(2000 + seed);
    std::vector<Matrix> factors;
    const int d = 1 + static_cast<int>(rng.Uniform(0.0, 3.0));
    for (int i = 0; i < d; ++i) factors.push_back(FuzzMatrix(&rng, 6, 5));
    KronStrategy s(std::move(factors), "fuzz-kron-" + std::to_string(seed));
    ExpectSerializationFixedPoint(s);
  }
}

TEST(StrategyIoFixedPoint, UnionKronFuzz) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(3000 + seed);
    const int nparts = 1 + static_cast<int>(rng.Uniform(0.0, 3.0));
    const int d = 1 + static_cast<int>(rng.Uniform(0.0, 2.0));
    // All parts must agree on the per-attribute domain sizes.
    std::vector<int64_t> sizes;
    for (int i = 0; i < d; ++i) {
      sizes.push_back(2 + static_cast<int64_t>(rng.Uniform(0.0, 4.0)));
    }
    std::vector<std::vector<Matrix>> parts;
    std::vector<std::vector<int>> covers;
    for (int p = 0; p < nparts; ++p) {
      std::vector<Matrix> factors;
      for (int i = 0; i < d; ++i) {
        Matrix f = FuzzMatrix(&rng, 5, 1);
        factors.push_back(Matrix(f.rows(), sizes[static_cast<size_t>(i)]));
        for (int64_t r = 0; r < f.rows(); ++r) {
          for (int64_t c = 0; c < sizes[static_cast<size_t>(i)]; ++c) {
            factors.back()(r, c) = rng.Uniform(-1.0, 1.0);
          }
        }
      }
      parts.push_back(std::move(factors));
      covers.push_back({p});
    }
    UnionKronStrategy s(std::move(parts), std::move(covers),
                        "fuzz-union-" + std::to_string(seed));
    ExpectSerializationFixedPoint(s);
  }
}

TEST(StrategyIoFixedPoint, MarginalsFuzz) {
  for (uint64_t seed = 0; seed < 25; ++seed) {
    Rng rng(4000 + seed);
    const int d = 1 + static_cast<int>(rng.Uniform(0.0, 3.0));
    std::vector<int64_t> sizes;
    for (int i = 0; i < d; ++i) {
      sizes.push_back(2 + static_cast<int64_t>(rng.Uniform(0.0, 3.0)));
    }
    Vector theta(size_t{1} << d);
    for (double& v : theta) {
      v = rng.Uniform(0.0, 1.0) < 0.3 ? 0.0 : rng.Uniform(0.01, 2.0);
    }
    // Keep at least one positive weight so the strategy is well formed.
    theta.back() = 1.0 / 7.0;
    MarginalsStrategy s(Domain(std::move(sizes)), theta,
                        "fuzz-marginals-" + std::to_string(seed));
    ExpectSerializationFixedPoint(s);
  }
}

struct BadStrategyText {
  const char* text;
  const char* message_fragment;
};

class StrategyIoErrorTest
    : public ::testing::TestWithParam<BadStrategyText> {};

TEST_P(StrategyIoErrorTest, RejectsWithMessage) {
  const Status status = ParseStrategy(GetParam().text).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find(GetParam().message_fragment),
            std::string::npos)
      << "actual error: " << status.message();
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, StrategyIoErrorTest,
    ::testing::Values(
        BadStrategyText{"", "header"},
        BadStrategyText{"bogus header\n", "header"},
        BadStrategyText{"hdmm-strategy v1\n", "missing 'kind'"},
        BadStrategyText{"hdmm-strategy v1\nkind alien\nname x\n",
                        "unknown strategy kind"},
        BadStrategyText{"hdmm-strategy v1\nkind kron\nname x\n",
                        "no factors"},
        BadStrategyText{"hdmm-strategy v1\nkind kron\nname x\nfactor 2x2 1,2,3\n",
                        "entry count"},
        BadStrategyText{"hdmm-strategy v1\nkind kron\nname x\nfactor 2xq 1,2\n",
                        "bad shape"},
        BadStrategyText{
            "hdmm-strategy v1\nkind explicit\nname x\nmatrix 1x2 1,zz\n",
            "bad entry"},
        BadStrategyText{
            "hdmm-strategy v1\nkind union-kron\nname x\nfactor 1x1 1\n",
            "expected 'part'"},
        BadStrategyText{"hdmm-strategy v1\nkind union-kron\nname x\npart\n",
                        "no factors"},
        BadStrategyText{
            "hdmm-strategy v1\nkind marginals\nname x\ndomain 2 2\ntheta 1 1\n",
            "2^d"}));

TEST(StrategyIo, LoadMissingFile) {
  const Status status = LoadStrategyFile("/nonexistent.hdmm").status();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.message().find("cannot open"), std::string::npos);
}

// ------------------------------------------------- malformed-input corpus --
//
// The corpus is the fuzz generators' own output, mutated: every valid
// serialization the library can produce is truncated, byte-flipped, and
// extended with garbage. The contract under test is narrow but absolute —
// ParseStrategy either returns a strategy or a kCorruption status with a
// non-empty message; corrupt input must never reach an aborting constructor
// contract.
std::vector<std::string> FuzzCorpus() {
  std::vector<std::string> corpus;
  Rng rng(9000);
  corpus.push_back(SerializeStrategy(
      ExplicitStrategy(FuzzMatrix(&rng, 6, 6), "corpus-explicit")));
  corpus.push_back(SerializeStrategy(KronStrategy(
      std::vector<Matrix>{FuzzMatrix(&rng, 5, 4), FuzzMatrix(&rng, 4, 3)},
      "corpus-kron")));
  corpus.push_back(SerializeStrategy(UnionKronStrategy(
      std::vector<std::vector<Matrix>>{{PrefixBlock(4), IdentityBlock(3)},
                                       {TotalBlock(4), PrefixBlock(3)}},
      std::vector<std::vector<int>>{{0}, {1}}, "corpus-union")));
  corpus.push_back(SerializeStrategy(MarginalsStrategy(
      Domain({2, 3, 2}), Vector{0.5, 0.0, 1.0, 0.25, 0.0, 0.75, 0.125, 1.5},
      "corpus-marginals")));
  return corpus;
}

// Parse must not abort; on rejection it must say why.
void ExpectParseIsTotal(const std::string& text, const char* what) {
  const Status status = ParseStrategy(text).status();
  if (!status.ok()) {
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << what;
    EXPECT_FALSE(status.message().empty())
        << what << ": rejected without a message";
  }
}

TEST(StrategyIoCorpus, TruncationAtEveryByteNeverAborts) {
  for (const std::string& good : FuzzCorpus()) {
    const Status status = ParseStrategy(good).status();
    ASSERT_TRUE(status.ok()) << status.ToString();
    for (size_t cut = 0; cut < good.size(); ++cut) {
      ExpectParseIsTotal(good.substr(0, cut), "truncation");
    }
  }
}

TEST(StrategyIoCorpus, WrongMagicIsRejectedUpFront) {
  for (std::string text : FuzzCorpus()) {
    text[0] ^= 0x20;  // "hdmm" -> "Hdmm"
    const Status status = ParseStrategy(text).status();
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("header"), std::string::npos)
        << status.message();
  }
}

TEST(StrategyIoCorpus, ByteFlipsNeverAbort) {
  Rng rng(9100);
  for (const std::string& good : FuzzCorpus()) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string mutant = good;
      const size_t pos = static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(mutant.size())));
      mutant[pos] = static_cast<char>(rng.Uniform(1.0, 127.0));
      ExpectParseIsTotal(mutant, "byte flip");
    }
  }
}

TEST(StrategyIoCorpus, TrailingGarbageIsRejectedNotAbsorbed) {
  for (const std::string& good : FuzzCorpus()) {
    const Status status =
        ParseStrategy(good + "spurious trailing line\n").status();
    EXPECT_FALSE(status.ok())
        << "garbage after a complete strategy must not parse";
    EXPECT_FALSE(status.message().empty());
  }
}

TEST(StrategyIoCorpus, LoadStatusClassifiesTheFailure) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "strategy_io_corpus";
  fs::remove_all(dir);
  fs::create_directories(dir);

  EXPECT_EQ(LoadStrategyFile((dir / "absent.hdmm").string()).status().code(),
            StatusCode::kNotFound);

  const fs::path corrupt = dir / "corrupt.hdmm";
  std::ofstream(corrupt) << "hdmm-strategy v1\nkind kron\nname x\n";
  const Status status = LoadStrategyFile(corrupt.string()).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("no factors"), std::string::npos)
      << status.ToString();

  const fs::path good = dir / "good.hdmm";
  std::ofstream(good) << FuzzCorpus().front();
  const auto loaded = LoadStrategyFile(good.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(*loaded, nullptr);
  EXPECT_EQ((*loaded)->Name(), "corpus-explicit");
}

}  // namespace
}  // namespace hdmm
