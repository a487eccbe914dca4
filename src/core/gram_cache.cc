#include "core/gram_cache.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "linalg/gemm.h"
#include "workload/building_blocks.h"

namespace hdmm {
namespace {

// One row scanned as a contiguous run of ones: [a, b] inclusive.
struct OnesRun {
  int64_t a = 0;
  int64_t b = 0;
};

// Scans every row of `f`; returns false unless each row is exactly a
// contiguous run of 1.0 entries (zeros elsewhere). Bails on the first
// offending entry, so non-binary factors cost one partial row scan.
bool ScanOnesRuns(const Matrix& f, std::vector<OnesRun>* runs) {
  const int64_t n = f.cols();
  runs->clear();
  runs->reserve(static_cast<size_t>(f.rows()));
  for (int64_t i = 0; i < f.rows(); ++i) {
    const double* row = f.Row(i);
    int64_t a = -1, b = -1;
    for (int64_t j = 0; j < n; ++j) {
      const double v = row[j];
      if (v == 0.0) {
        if (a >= 0 && b < 0) b = j - 1;
        continue;
      }
      if (v != 1.0) return false;
      if (a < 0) {
        a = j;
      } else if (b >= 0) {
        return false;  // Second run of ones.
      }
    }
    if (a < 0) return false;  // Empty row: not a building block.
    if (b < 0) b = n - 1;
    runs->push_back({a, b});
  }
  return true;
}

// True when `values` is a permutation of {0, ..., count-1}.
bool IsPermutationOfIota(const std::vector<OnesRun>& runs, int64_t count,
                         int64_t (*pick)(const OnesRun&)) {
  if (static_cast<int64_t>(runs.size()) != count) return false;
  std::vector<char> seen(static_cast<size_t>(count), 0);
  for (const OnesRun& r : runs) {
    const int64_t v = pick(r);
    if (v < 0 || v >= count || seen[static_cast<size_t>(v)]) return false;
    seen[static_cast<size_t>(v)] = 1;
  }
  return true;
}

}  // namespace

bool RecognizeClosedFormGram(const Matrix& factor, Matrix* gram) {
  const int64_t rows = factor.rows();
  const int64_t n = factor.cols();
  if (rows == 0 || n == 0) return false;
  // Quick reject on the row count: every recognizable family has rows <= n
  // except AllRange with exactly n(n+1)/2 rows. This keeps the scan away
  // from large explicit workloads that cannot match anyway.
  if (rows > n && rows != n * (n + 1) / 2) return false;

  std::vector<OnesRun> runs;
  if (!ScanOnesRuns(factor, &runs)) return false;

  // Total: the single all-ones predicate. Gram(1_{1 x n}) = 1_{n x n}.
  if (rows == 1 && runs[0].a == 0 && runs[0].b == n - 1) {
    *gram = Matrix::Ones(n, n);
    return true;
  }

  if (rows == n) {
    // Identity: n point queries, one per cell, in any order.
    bool all_points = true;
    for (const OnesRun& r : runs) all_points &= (r.a == r.b);
    if (all_points &&
        IsPermutationOfIota(runs, n, [](const OnesRun& r) { return r.a; })) {
      *gram = Matrix::Identity(n);
      return true;
    }
    // Prefix: every run starts at 0 and the endpoints cover 0..n-1.
    bool all_prefixes = true;
    for (const OnesRun& r : runs) all_prefixes &= (r.a == 0);
    if (all_prefixes &&
        IsPermutationOfIota(runs, n, [](const OnesRun& r) { return r.b; })) {
      *gram = PrefixGram(n);
      return true;
    }
  }

  // Fixed-width ranges: all runs share one width w and the starts cover
  // 0..n-w exactly once. (w == 1 is Identity, caught above; w == n is
  // Total, caught above.)
  if (rows <= n) {
    const int64_t w = runs[0].b - runs[0].a + 1;
    bool same_width = rows == n - w + 1;
    for (const OnesRun& r : runs) same_width &= (r.b - r.a + 1 == w);
    if (same_width && IsPermutationOfIota(runs, n - w + 1, [](const OnesRun& r) {
          return r.a;
        })) {
      *gram = WidthRangeGram(n, w);
      return true;
    }
  }

  // AllRange: every interval [a, b], a <= b, exactly once.
  if (rows == n * (n + 1) / 2) {
    std::vector<char> seen(static_cast<size_t>(n) * static_cast<size_t>(n), 0);
    for (const OnesRun& r : runs) {
      const size_t idx =
          static_cast<size_t>(r.a) * static_cast<size_t>(n) +
          static_cast<size_t>(r.b);
      if (seen[idx]) return false;
      seen[idx] = 1;
    }
    *gram = AllRangeGram(n);
    return true;
  }
  return false;
}

uint64_t GramCache::FactorKey(const Matrix& factor) {
  Fnv1aHasher h;
  h.U64(0x6772616d6b310000ULL);  // Format tag: "gramk1".
  h.I64(factor.rows());
  h.I64(factor.cols());
  for (int64_t i = 0; i < factor.size(); ++i) h.F64(factor.data()[i]);
  return h.Digest();
}

std::shared_ptr<const Matrix> GramCache::FactorGram(const Matrix& factor) {
  static Counter* const hit_count = Metrics::GetCounter("gram_cache.hits");
  static Counter* const miss_count = Metrics::GetCounter("gram_cache.misses");
  static Counter* const closed_count =
      Metrics::GetCounter("gram_cache.closed_form");
  const uint64_t key = FactorKey(factor);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second->cols() == factor.cols()) {
      hit_count->Add(1);
      return it->second;
    }
  }
  miss_count->Add(1);
  // Compute outside the lock: concurrent misses of the same factor may
  // duplicate the work, but both arrive at the same value and the loser's
  // insert is a no-op overwrite.
  Matrix gram;
  if (RecognizeClosedFormGram(factor, &gram)) {
    closed_count->Add(1);
  } else {
    GramInto(factor, &gram);
  }
  auto shared = std::make_shared<const Matrix>(std::move(gram));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (resident_doubles_ + shared->size() > kMaxResidentDoubles) {
      map_.clear();
      resident_doubles_ = 0;
    }
    auto inserted = map_.emplace(key, shared);
    if (inserted.second) resident_doubles_ += shared->size();
  }
  return shared;
}

void GramCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  resident_doubles_ = 0;
}

size_t GramCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

int64_t GramCache::resident_doubles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_doubles_;
}

GramCache& GramCache::Global() {
  static GramCache* cache = new GramCache();  // Leaked like the thread pool.
  return *cache;
}

}  // namespace hdmm
