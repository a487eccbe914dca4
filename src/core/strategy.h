// Strategy representations (Section 7): explicit matrices, Kronecker
// products of p-Identity blocks, unions of Kronecker products, and weighted
// marginals. Every representation knows how to MEASURE (apply itself + its
// sensitivity), RECONSTRUCT (apply its pseudo-inverse or solve least squares),
// and evaluate the closed-form expected error against an implicit workload.
#ifndef HDMM_CORE_STRATEGY_H_
#define HDMM_CORE_STRATEGY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/opt_marginals.h"
#include "linalg/kron.h"
#include "linalg/matrix.h"
#include "linalg/pinv.h"
#include "workload/workload.h"

namespace hdmm {

/// Abstract differentially-private measurement strategy A.
///
/// Error convention: SquaredError returns ||A||_1^2 * ||W A^+||_F^2, i.e. the
/// expected total squared error at unit budget up to the universal 2/eps^2
/// factor (Definition 7). TotalSquaredError applies the factor.
class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual std::string Name() const = 0;
  virtual int64_t DomainSize() const = 0;
  virtual int64_t NumQueries() const = 0;

  /// Sensitivity ||A||_1 (maximum absolute column sum).
  virtual double Sensitivity() const = 0;

  /// L2 sensitivity ||A||_2 (maximum column Euclidean norm), the quantity
  /// Gaussian noise is calibrated to. Implementations may return a sound
  /// upper bound where the exact maximum has no closed form (union-kron);
  /// calibrating to an upper bound only adds noise, never loses privacy.
  virtual double L2Sensitivity() const = 0;

  /// Noiseless strategy query answers a = A x.
  virtual Vector Apply(const Vector& x) const = 0;

  /// x_hat = A^+ y (least-squares inference on noisy answers).
  virtual Vector Reconstruct(const Vector& y) const = 0;

  /// ||A||_1^2 * ||W A^+||_F^2 for an implicit workload.
  virtual double SquaredError(const UnionWorkload& w) const = 0;

  /// The MEASURE step (Definition 6): y = A x + Lap(||A||_1 / epsilon)^m.
  Vector Measure(const Vector& x, double epsilon, Rng* rng) const;

  /// The MEASURE step under rho-zCDP: y = A x + N(0, sigma^2)^m with
  /// sigma = L2Sensitivity() / sqrt(2 rho) (Bun-Steinke Prop 1.6). Same
  /// positive-and-finite contract on rho as Measure has on epsilon.
  Vector MeasureGaussian(const Vector& x, double rho, Rng* rng) const;

  /// Err(W, A) = (2/eps^2) * SquaredError(W) (Definition 7).
  double TotalSquaredError(const UnionWorkload& w, double epsilon) const;

  /// Root-mean squared error per workload query at budget epsilon.
  double RootMeanSquaredError(const UnionWorkload& w, double epsilon) const;
};

/// A strategy held as a dense matrix. Only for modest domains.
class ExplicitStrategy : public Strategy {
 public:
  explicit ExplicitStrategy(Matrix a, std::string name = "explicit");

  std::string Name() const override { return name_; }
  int64_t DomainSize() const override { return a_.cols(); }
  int64_t NumQueries() const override { return a_.rows(); }
  double Sensitivity() const override;
  double L2Sensitivity() const override;
  Vector Apply(const Vector& x) const override;
  Vector Reconstruct(const Vector& y) const override;
  double SquaredError(const UnionWorkload& w) const override;

  const Matrix& matrix() const { return a_; }

 private:
  const Matrix& Pinv() const;

  Matrix a_;
  std::string name_;
  mutable Matrix pinv_;  // Cached lazily.
  mutable std::once_flag pinv_once_;
};

/// A single Kronecker product A_1 x ... x A_d (the OPT_x output form).
class KronStrategy : public Strategy {
 public:
  explicit KronStrategy(std::vector<Matrix> factors,
                        std::string name = "kron");

  std::string Name() const override { return name_; }
  int64_t DomainSize() const override;
  int64_t NumQueries() const override;
  double Sensitivity() const override;
  /// Product of factor L2 sensitivities (exact; Kronecker columns are
  /// Kronecker products of columns).
  double L2Sensitivity() const override;
  Vector Apply(const Vector& x) const override;
  /// (A_1 x ... x A_d)^+ = A_1^+ x ... x A_d^+ (Section 4.4) applied via
  /// the Kronecker mat-vec algorithm.
  Vector Reconstruct(const Vector& y) const override;
  /// Theorem 6: sum_j w_j^2 prod_i ||W_i^(j) A_i^+||_F^2, scaled by sens^2.
  double SquaredError(const UnionWorkload& w) const override;

  const std::vector<Matrix>& factors() const { return factors_; }

 private:
  const std::vector<Matrix>& FactorPinvs() const;
  const std::vector<PinvGramTracer>& FactorTracers() const;

  std::vector<Matrix> factors_;
  std::string name_;
  mutable std::vector<Matrix> pinvs_;  // Cached lazily, under pinvs_once_.
  /// Per-factor trace engines, built once (first SquaredError call): the
  /// factor Grams and their inverses stop being re-materialized per
  /// evaluation, so repeated error evaluations allocate nothing.
  mutable std::vector<PinvGramTracer> tracers_;
  mutable std::once_flag tracers_once_;
  /// Memoized L1 sensitivity (MaxAbsColSum allocates; SquaredError calls it
  /// every evaluation).
  mutable double sensitivity_ = 0.0;
  mutable std::once_flag sensitivity_once_;
  // Last, where it fills tail padding: the object keeps its size.
  mutable std::once_flag pinvs_once_;
};

/// A union (vertical stack) of Kronecker products A_1 + ... + A_l, the OPT_+
/// output form. Each part covers a recorded subset of the workload products;
/// error uses the per-group inference convention of Definition 11 (each group
/// answers its own products; the stacked sensitivity multiplies the noise).
class UnionKronStrategy : public Strategy {
 public:
  UnionKronStrategy(std::vector<std::vector<Matrix>> parts,
                    std::vector<std::vector<int>> group_products,
                    std::string name = "union-kron");

  std::string Name() const override { return name_; }
  int64_t DomainSize() const override;
  int64_t NumQueries() const override;
  /// Exact for parts with uniform column sums (true of p-Identity blocks):
  /// sum of part sensitivities.
  double Sensitivity() const override;
  /// Upper bound sqrt(sum of squared part L2 sensitivities): stacked columns
  /// concatenate, so the squared column norms add; bounding each part by its
  /// max column gives a sound (possibly loose) stack bound.
  double L2Sensitivity() const override;
  Vector Apply(const Vector& x) const override;
  /// No closed-form pseudo-inverse exists (Section 7.2): solves the least
  /// squares problem with LSMR on the implicit stacked operator.
  Vector Reconstruct(const Vector& y) const override;
  double SquaredError(const UnionWorkload& w) const override;

  int NumParts() const { return static_cast<int>(parts_.size()); }
  const std::vector<std::vector<Matrix>>& parts() const { return parts_; }
  const std::vector<std::vector<int>>& group_products() const {
    return group_products_;
  }

 private:
  const std::vector<std::vector<PinvGramTracer>>& PartTracers() const;

  std::vector<std::vector<Matrix>> parts_;
  std::vector<std::vector<int>> group_products_;
  std::string name_;
  std::shared_ptr<LinearOperator> op_;
  /// Per-part factor trace engines (see KronStrategy::tracers_).
  mutable std::vector<std::vector<PinvGramTracer>> part_tracers_;
  mutable std::once_flag part_tracers_once_;
  /// Memoized L1 sensitivity (see KronStrategy::sensitivity_).
  mutable double sensitivity_ = 0.0;
  mutable std::once_flag sensitivity_once_;
};

/// The weighted-marginals strategy M(theta) produced by OPT_M.
class MarginalsStrategy : public Strategy {
 public:
  MarginalsStrategy(Domain domain, Vector theta,
                    std::string name = "marginals");

  std::string Name() const override { return name_; }
  int64_t DomainSize() const override { return domain_.TotalSize(); }
  int64_t NumQueries() const override;
  /// Every domain cell is counted once per active marginal: sum theta_a.
  double Sensitivity() const override;
  /// Every domain cell is counted exactly once per active marginal with
  /// coefficient theta_a, so every column norm is sqrt(sum theta_a^2)
  /// (exact).
  double L2Sensitivity() const override;
  Vector Apply(const Vector& x) const override;
  /// M^+ y = (M^T M)^+ M^T y in the marginals algebra's eigenbasis
  /// (Section 7.2 / Appendix A.4): MarginalsStreamReconstructor filled over
  /// the whole domain.
  Vector Reconstruct(const Vector& y) const override;
  double SquaredError(const UnionWorkload& w) const override;

  const Vector& theta() const { return theta_; }
  const Domain& domain() const { return domain_; }

  /// Masks with non-negligible weight, in ascending order — the order in
  /// which Apply/Measure concatenate the per-marginal answer tables, so
  /// callers (e.g. marginal-table measurement sessions) can split y back
  /// into tables.
  std::vector<uint32_t> ActiveMasks() const;

 private:
  std::vector<Matrix> MarginalFactors(uint32_t mask) const;

  Domain domain_;
  Vector theta_;
  std::string name_;
  MarginalsAlgebra algebra_;
};

/// Streams a marginals-measured reconstruction tile-by-tile: the closed-form
/// x_hat = G(v) M^T y of MarginalsStrategy::Reconstruct re-expressed as a
/// sum of small per-submask tables, so any cell range of x_hat can be
/// produced in O(#tables) per cell without ever materializing a full-domain
/// vector. Out-of-core sessions build their tiled summed-area table through
/// this — the only full-domain state during construction is one tile buffer.
///
/// Derivation: M^T M = G(theta^2) acts on eigenspace S of the marginals
/// algebra as mu_S (MarginalsAlgebra::Eigenvalues), so with P_S the
/// projector on S and y split into raw per-mask measurement tables Y_m,
///
///   x_hat = sum_S (1 / mu_S) P_S M^T y,
///   P_S M^T y = sum_{m superset of S} theta_m B_S[center_S(mean_{m\S} Y_m)]
///
/// where mean_{m\S} averages Y_m over the attributes of m outside S,
/// center_S subtracts the mean along every attribute of S, and B_S
/// broadcasts a table over S to the full domain (P_S kills every table
/// over a mask that does not contain S). So x_hat[c] = sum_S E_S[c|_S] with
/// one table E_S per submask of a measured mask. Eigenspaces no measured
/// mask reaches get no table, which makes x_hat the pseudo-inverse
/// solution even for rank-deficient M(theta).
class MarginalsStreamReconstructor {
 public:
  /// `y` is the strategy's raw (theta-weighted) measurement vector, exactly
  /// as MeasurementSession receives it.
  MarginalsStreamReconstructor(const MarginalsStrategy& strategy,
                               const Vector& y);

  /// Writes x_hat[begin..end) into out[0..end-begin). Stateless per call
  /// (ranges may be produced in any order) and allocation-light: per-table
  /// indices advance with the cell odometer, no division per cell.
  void Fill(int64_t begin, int64_t end, double* out) const;

  int64_t NumTables() const { return static_cast<int64_t>(tables_.size()); }

 private:
  struct Table {
    Vector values;
    /// Per-domain-axis stride within the compact table (0 = axis summed
    /// out) and the index delta applied when the odometer increments that
    /// axis (wrapping every inner axis back to zero).
    std::vector<int64_t> stride;
    std::vector<int64_t> roll;
  };

  Domain domain_;
  std::vector<Table> tables_;
};

}  // namespace hdmm

#endif  // HDMM_CORE_STRATEGY_H_
