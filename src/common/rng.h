// Seeded random number generation, including the Laplace sampler used by the
// Laplace mechanism (Definition 6 of the paper).
#ifndef HDMM_COMMON_RNG_H_
#define HDMM_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace hdmm {

/// Deterministic, seedable random source. All randomized components of the
/// library (strategy initialization, noise, synthetic data) draw from an Rng
/// passed in by the caller so experiments are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0) : seed_(seed), gen_(seed) {}

  /// Forks an independent child stream, SplitMix64-style: the child's seed
  /// is derived from the parent's *original* seed, a per-parent fork
  /// counter, and the caller-supplied stream id — never from how far the
  /// parent's own sequence has advanced. Parallel restarts that each draw
  /// from a fork therefore see the same streams no matter which thread runs
  /// them (or in what order), which is what makes optimizer results
  /// bit-identical at any thread count. Successive Fork calls on the same
  /// parent yield distinct streams even for equal `stream` ids.
  Rng Fork(uint64_t stream);

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal sample.
  double Gaussian();

  /// Zero-mean Laplace sample with scale `b` (variance 2b^2).
  double Laplace(double b);

  /// Rademacher (+1/-1) vector, used by the Hutchinson trace estimator.
  std::vector<double> RademacherVector(int64_t n);

  /// Uniform random permutation of {0, ..., n-1}.
  std::vector<int> Permutation(int n);

  /// Access to the underlying engine for std distributions.
  std::mt19937_64& engine() { return gen_; }

 private:
  uint64_t seed_;
  uint64_t fork_epoch_ = 0;  ///< Number of Fork calls made on this instance.
  std::mt19937_64 gen_;
};

}  // namespace hdmm

#endif  // HDMM_COMMON_RNG_H_
