#include "core/opt_kron.h"

#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "core/gram_cache.h"

namespace hdmm {

int AttributeDefaultP(const UnionWorkload& w, int attribute) {
  int p = 1;
  for (const ProductWorkload& prod : w.products()) {
    int candidate = DefaultP(prod.factors[static_cast<size_t>(attribute)]);
    p = std::max(p, candidate);
  }
  return p;
}

OptKronResult OptKron(const UnionWorkload& w, const OptKronOptions& options,
                      Rng* rng) {
  const int d = w.domain().NumAttributes();
  const int k = w.NumProducts();
  HDMM_CHECK(k >= 1);

  // Per-product, per-attribute Gram matrices (Section 6.2 notes (W^T W)_i^(j)
  // can be precomputed), deduplicated on the GramCache content fingerprint:
  // products that share an identical factor for attribute i (the common case
  // — unions are usually built from a small set of per-attribute building
  // blocks) share one Gram, one trace entry in the t table, and one term in
  // the surrogate sum. The Grams themselves come from the process-wide
  // GramCache, so they also survive across restarts and across optimizer
  // calls (serve-mode plans re-planning similar workloads pay nothing).
  // unique_grams[i][u] is the Gram pool for attribute i; gram_id[j][i] maps
  // product j into it.
  std::vector<std::vector<std::shared_ptr<const Matrix>>> unique_grams(
      static_cast<size_t>(d));
  std::vector<std::vector<int>> gram_id(static_cast<size_t>(k),
                                        std::vector<int>(static_cast<size_t>(d)));
  for (int i = 0; i < d; ++i) {
    std::unordered_map<uint64_t, int> by_key;  // fingerprint -> pool index
    for (int j = 0; j < k; ++j) {
      const Matrix& f =
          w.products()[static_cast<size_t>(j)].factors[static_cast<size_t>(i)];
      const uint64_t key = GramCache::FactorKey(f);
      auto it = by_key.find(key);
      if (it == by_key.end()) {
        it = by_key.emplace(key, static_cast<int>(
                                     unique_grams[static_cast<size_t>(i)].size()))
                 .first;
        unique_grams[static_cast<size_t>(i)].push_back(
            GramCache::Global().FactorGram(f));
      }
      gram_id[static_cast<size_t>(j)][static_cast<size_t>(i)] = it->second;
    }
  }

  std::vector<int> p(static_cast<size_t>(d));
  for (int i = 0; i < d; ++i) {
    p[static_cast<size_t>(i)] = options.p.empty()
                                    ? AttributeDefaultP(w, i)
                                    : options.p[static_cast<size_t>(i)];
  }

  // One start per call: Algorithm 2's grid (OptimizeStrategy) supplies the
  // restarts, each with its own stream. Theta_i ~ U[0, 0.5), which is
  // markedly more robust than U[0, 1) at small n (see Opt0).
  Rng stream = rng->Fork(0);
  OptKronResult out;
  std::vector<Matrix>& thetas = out.thetas;
  for (int i = 0; i < d; ++i) {
    thetas.push_back(Matrix::RandomUniform(p[static_cast<size_t>(i)],
                                           w.domain().AttributeSize(i),
                                           &stream, 0.0, 0.5));
  }
  // tu[i][u] = tr[(A_i^T A_i)^{-1} G_i^(u)], evaluated once per *unique*
  // Gram; t[j][i] reads through gram_id so products sharing a factor share
  // the trace.
  std::vector<std::vector<double>> tu(static_cast<size_t>(d));
  auto refresh_traces = [&](int i) {
    const auto& pool = unique_grams[static_cast<size_t>(i)];
    tu[static_cast<size_t>(i)].resize(pool.size());
    for (size_t u = 0; u < pool.size(); ++u)
      tu[static_cast<size_t>(i)][u] = PIdentityObjective::TraceWithGram(
          thetas[static_cast<size_t>(i)], *pool[u]);
  };
  for (int i = 0; i < d; ++i) refresh_traces(i);
  auto t = [&](int j, int i) {
    return tu[static_cast<size_t>(i)][static_cast<size_t>(
        gram_id[static_cast<size_t>(j)][static_cast<size_t>(i)])];
  };

  auto total_error = [&]() {
    double total = 0.0;
    for (int j = 0; j < k; ++j) {
      double term = w.products()[static_cast<size_t>(j)].weight *
                    w.products()[static_cast<size_t>(j)].weight;
      for (int i = 0; i < d; ++i) term *= t(j, i);
      total += term;
    }
    return total;
  };

  double err = total_error();
  // Block-cyclic optimization (Problem 3). With k == 1 the surrogate is
  // just a rescaled G_i, so one pass reduces to independent OPT_0 calls
  // (Definition 10).
  const int cycles = (d == 1) ? 1 : options.max_cycles;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (int i = 0; i < d; ++i) {
      // Surrogate Gram: \hat{G}_i = sum_j c_j^2 G_i^(j) with
      // c_j = w_j prod_{i' != i} ||W_i'^(j) A_i'^+||_F (Equation 6).
      // Coefficients of products sharing a Gram are merged first so each
      // unique Gram is accumulated exactly once.
      const int64_t ni = w.domain().AttributeSize(i);
      const auto& pool = unique_grams[static_cast<size_t>(i)];
      std::vector<double> coeff(pool.size(), 0.0);
      for (int j = 0; j < k; ++j) {
        double c2 = w.products()[static_cast<size_t>(j)].weight *
                    w.products()[static_cast<size_t>(j)].weight;
        for (int i2 = 0; i2 < d; ++i2) {
          if (i2 == i) continue;
          c2 *= t(j, i2);
        }
        coeff[static_cast<size_t>(
            gram_id[static_cast<size_t>(j)][static_cast<size_t>(i)])] += c2;
      }
      Matrix surrogate = Matrix::Zeros(ni, ni);
      for (size_t u = 0; u < pool.size(); ++u)
        surrogate.AddInPlace(*pool[u], coeff[u]);
      Opt0Result res = Opt0WarmStart(surrogate, thetas[static_cast<size_t>(i)],
                                     options.lbfgs);
      thetas[static_cast<size_t>(i)] = std::move(res.theta);
      refresh_traces(i);
    }
    // Stop once a pass improves the error by less than 1e-4 relative.
    double new_err = total_error();
    if (err - new_err <= 1e-4 * std::fabs(err)) {
      err = new_err;
      break;
    }
    err = new_err;
  }
  out.error = err;
  return out;
}

std::vector<Matrix> KronStrategyFactors(const OptKronResult& result) {
  std::vector<Matrix> factors;
  factors.reserve(result.thetas.size());
  for (const Matrix& theta : result.thetas)
    factors.push_back(PIdentityObjective::BuildStrategy(theta));
  return factors;
}

}  // namespace hdmm
