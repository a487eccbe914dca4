// Cross-call memoization of workload-factor Gram matrices. Strategy
// optimization re-derives the same per-attribute Grams W_i^T W_i over and
// over: every OPT_x restart re-reads the same factor pools, every serve-mode
// `plan` call re-walks the same workload, and unions routinely share a small
// set of per-attribute building blocks across products. The cache keys each
// factor by a content fingerprint (the same FNV-1a hashing the serving
// layer's plan fingerprints use — see common/hash.h) so identical factors
// share one immutable Gram across restarts, across optimizer calls, and
// across plans, with no invalidation protocol at all: a key is derived from
// the factor's bits, so an entry can never go stale.
//
// On a miss the cache first tries to *recognize* the factor as one of the
// closed-form building blocks (Identity, Total, Prefix, AllRange,
// WidthRange — in any row order), building the Gram in O(n^2) from the
// closed form instead of the O(rows * n^2) SYRK.
#ifndef HDMM_CORE_GRAM_CACHE_H_
#define HDMM_CORE_GRAM_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "linalg/matrix.h"

namespace hdmm {

/// Structural recognition of the closed-form building-block Grams. Returns
/// true and fills `gram` when `factor` is (any row permutation of) Identity,
/// Total, Prefix, AllRange, or a fixed-width range workload; false — with
/// `gram` untouched — otherwise. Cost is one O(rows x cols) scan with an
/// early bail on the first row that is not a contiguous run of ones.
bool RecognizeClosedFormGram(const Matrix& factor, Matrix* gram);

/// Thread-safe, content-keyed Gram memoizer. Shared immutable Grams are
/// handed out as shared_ptr so concurrent restarts/plans can hold them with
/// no copies and no lifetime coupling to the cache (a capacity sweep never
/// invalidates a Gram someone is still using).
class GramCache {
 public:
  GramCache() = default;
  GramCache(const GramCache&) = delete;
  GramCache& operator=(const GramCache&) = delete;

  /// Content fingerprint of a factor: shape plus bit-exact entries (-0.0
  /// canonicalized, as in engine/fingerprint). Equal keys mean equal
  /// factors up to 64-bit collision odds, so the key doubles as the
  /// dedup/sharing identity OPT_x uses for its per-attribute Gram pools.
  static uint64_t FactorKey(const Matrix& factor);

  /// The Gram factor^T factor, memoized on FactorKey. Each call counts one
  /// `gram_cache.hits` or `gram_cache.misses` in the metrics registry, and a
  /// miss served by a recognized closed form also counts one
  /// `gram_cache.closed_form`.
  std::shared_ptr<const Matrix> FactorGram(const Matrix& factor);

  /// Drops every entry (outstanding shared_ptrs stay valid).
  void Clear();
  size_t size() const;

  /// Total doubles held across all cached Grams. When an insert would push
  /// this past the budget the cache is swept wholesale — entries are cheap
  /// to rebuild and an LRU chain is not worth the bookkeeping here.
  int64_t resident_doubles() const;

  /// Process-wide cache consulted by ProductWorkload::FactorGram and OPT_x's
  /// per-attribute Gram pools.
  static GramCache& Global();

 private:
  // ~256 MiB of cached Grams before a wholesale sweep.
  static constexpr int64_t kMaxResidentDoubles = int64_t{1} << 25;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const Matrix>> map_;
  int64_t resident_doubles_ = 0;
};

}  // namespace hdmm

#endif  // HDMM_CORE_GRAM_CACHE_H_
