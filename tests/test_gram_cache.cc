#include "core/gram_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "counter_delta.h"
#include "workload/building_blocks.h"
#include "workload/workload.h"

namespace hdmm {
namespace {

// Reverses the row order of a matrix (Grams are row-order invariant; the
// recognizer must be too).
Matrix ReversedRows(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  for (int64_t i = 0; i < m.rows(); ++i)
    for (int64_t j = 0; j < m.cols(); ++j) out(m.rows() - 1 - i, j) = m(i, j);
  return out;
}

TEST(GramCacheRecognize, ClosedFormsMatchSyrk) {
  const int64_t n = 17;
  struct Case {
    const char* name;
    Matrix factor;
  } cases[] = {
      {"identity", IdentityBlock(n)},
      {"total", TotalBlock(n)},
      {"prefix", PrefixBlock(n)},
      {"all-range", AllRangeBlock(n)},
      {"width-5", WidthRangeBlock(n, 5)},
  };
  for (const Case& c : cases) {
    Matrix recognized;
    ASSERT_TRUE(RecognizeClosedFormGram(c.factor, &recognized)) << c.name;
    EXPECT_LT(recognized.MaxAbsDiff(Gram(c.factor)), 1e-12) << c.name;
  }
}

TEST(GramCacheRecognize, RowOrderInvariant) {
  const int64_t n = 9;
  for (const Matrix& f :
       {PrefixBlock(n), AllRangeBlock(n), WidthRangeBlock(n, 3)}) {
    Matrix shuffled = ReversedRows(f);
    Matrix recognized;
    ASSERT_TRUE(RecognizeClosedFormGram(shuffled, &recognized));
    EXPECT_LT(recognized.MaxAbsDiff(Gram(shuffled)), 1e-12);
  }
}

TEST(GramCacheRecognize, RejectsNonBuildingBlocks) {
  Matrix gram;
  // Weighted entries are not a 0/1 building block.
  Matrix weighted = PrefixBlock(6);
  weighted.ScaleInPlace(2.0);
  EXPECT_FALSE(RecognizeClosedFormGram(weighted, &gram));
  // Two disjoint runs in one row.
  Matrix split(1, 5);
  split(0, 0) = 1.0;
  split(0, 3) = 1.0;
  EXPECT_FALSE(RecognizeClosedFormGram(split, &gram));
  // A duplicated interval cannot be AllRange even at the right row count.
  Matrix dup = AllRangeBlock(3);  // 6 x 3.
  for (int64_t j = 0; j < 3; ++j) dup(1, j) = dup(0, j);
  EXPECT_FALSE(RecognizeClosedFormGram(dup, &gram));
  // Random dense matrix.
  Rng rng(3);
  Matrix dense = Matrix::RandomUniform(4, 6, &rng);
  EXPECT_FALSE(RecognizeClosedFormGram(dense, &gram));
}

TEST(GramCacheRecognize, UnrecognizedStillComputedExactly) {
  // The cache must serve exact SYRK Grams for factors it cannot recognize.
  Rng rng(9);
  Matrix f = Matrix::RandomUniform(11, 7, &rng);
  const CounterDelta closed_form("gram_cache.closed_form");
  GramCache cache;
  auto g = cache.FactorGram(f);
  EXPECT_LT(g->MaxAbsDiff(Gram(f)), 1e-12);
  EXPECT_EQ(closed_form(), 0u);
}

TEST(GramCacheKeys, ContentIdentity) {
  Matrix a = PrefixBlock(8);
  Matrix b = PrefixBlock(8);
  Matrix c = PrefixBlock(9);
  EXPECT_EQ(GramCache::FactorKey(a), GramCache::FactorKey(b));
  EXPECT_NE(GramCache::FactorKey(a), GramCache::FactorKey(c));
  Matrix d = a;
  d(3, 2) += 1e-9;  // Any bit flip must change the key.
  EXPECT_NE(GramCache::FactorKey(a), GramCache::FactorKey(d));
  // Shape participates even when the flattened content matches.
  Matrix row(1, 4, {1.0, 1.0, 1.0, 1.0});
  Matrix col(4, 1, {1.0, 1.0, 1.0, 1.0});
  EXPECT_NE(GramCache::FactorKey(row), GramCache::FactorKey(col));
}

TEST(GramCache, HitsShareOneGram) {
  const CounterDelta hits("gram_cache.hits");
  const CounterDelta misses("gram_cache.misses");
  const CounterDelta closed_form("gram_cache.closed_form");
  GramCache cache;
  Matrix f = PrefixBlock(12);
  auto first = cache.FactorGram(f);
  auto second = cache.FactorGram(Matrix(f));  // Equal content, new object.
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(misses(), 1u);
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(closed_form(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_doubles(), 12 * 12);
}

TEST(GramCache, ClearKeepsOutstandingGramsValid) {
  GramCache cache;
  auto g = cache.FactorGram(AllRangeBlock(6));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_LT(g->MaxAbsDiff(AllRangeGram(6)), 1e-12);  // Still readable.
}

TEST(GramCache, FactorGramThroughWorkload) {
  // ProductWorkload::FactorGram consults the global cache and must agree
  // with the direct SYRK.
  Domain d({5, 3});
  UnionWorkload w = MakeProductWorkload(d, {PrefixBlock(5), IdentityBlock(3)});
  const ProductWorkload& p = w.products()[0];
  EXPECT_LT(p.FactorGram(0).MaxAbsDiff(PrefixGram(5)), 1e-12);
  EXPECT_LT(p.FactorGram(1).MaxAbsDiff(Matrix::Identity(3)), 1e-12);
  // The shared variant hands out the cached object itself.
  auto shared_a = p.FactorGramShared(0);
  auto shared_b = p.FactorGramShared(0);
  EXPECT_EQ(shared_a.get(), shared_b.get());
}

TEST(GramCacheConcurrency, SharedAndDistinctFactors) {
  // Concurrent restarts and plans share the global cache. Threads racing on
  // the same factor may both miss and both compute, but every Gram handed
  // out must be exact, equal factors must settle on one resident entry, and
  // the registry must count every call exactly once.
  Rng rng(17);
  const std::vector<Matrix> distinct = {
      PrefixBlock(16),       AllRangeBlock(8),   IdentityBlock(10),
      WidthRangeBlock(12, 3), Matrix::RandomUniform(20, 12, &rng),
  };
  std::vector<Matrix> expected;
  for (const Matrix& f : distinct) expected.push_back(Gram(f));

  const CounterDelta hits("gram_cache.hits");
  const CounterDelta misses("gram_cache.misses");
  GramCache cache;
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> inexact{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < distinct.size(); ++k) {
          // Each thread walks the factors from a different offset, and every
          // call passes a fresh copy: sharing is by content, not address.
          const size_t i = (k + static_cast<size_t>(t)) % distinct.size();
          const Matrix factor = distinct[i];
          if (cache.FactorGram(factor)->MaxAbsDiff(expected[i]) != 0.0) {
            ++inexact;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const uint64_t calls = kThreads * kRounds * distinct.size();
  EXPECT_EQ(inexact.load(), 0);
  EXPECT_EQ(hits() + misses(), calls);
  EXPECT_GE(misses(), distinct.size());
  EXPECT_EQ(cache.size(), distinct.size());
  int64_t distinct_doubles = 0;
  for (const Matrix& g : expected) distinct_doubles += g.size();
  EXPECT_EQ(cache.resident_doubles(), distinct_doubles);
}

}  // namespace
}  // namespace hdmm
