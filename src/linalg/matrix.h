// Dense row-major matrix of doubles plus the core BLAS-like kernels the rest
// of the library depends on. Eigen is deliberately not a dependency: this file
// is the project's linear-algebra substrate.
#ifndef HDMM_LINALG_MATRIX_H_
#define HDMM_LINALG_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "linalg/vector_ops.h"

namespace hdmm {

class Rng;

/// Dense row-major matrix of doubles.
///
/// The class is a value type: copyable, movable, comparable for testing via
/// MaxAbsDiff. Heavy kernels (matrix products) live as free functions below.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix, zero-initialized.
  Matrix(int64_t rows, int64_t cols)
      : rows_(rows), cols_(cols), data_(CheckedSize(rows, cols), 0.0) {}

  /// rows x cols matrix initialized from row-major data.
  Matrix(int64_t rows, int64_t cols, std::vector<double> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    HDMM_CHECK(data_.size() == CheckedSize(rows, cols));
  }

  /// n x n identity.
  static Matrix Identity(int64_t n);

  /// rows x cols of all zeros.
  static Matrix Zeros(int64_t rows, int64_t cols);

  /// rows x cols of all ones.
  static Matrix Ones(int64_t rows, int64_t cols);

  /// Diagonal matrix with the given entries.
  static Matrix Diagonal(const Vector& d);

  /// rows x cols with iid Uniform[lo, hi) entries.
  static Matrix RandomUniform(int64_t rows, int64_t cols, Rng* rng,
                              double lo = 0.0, double hi = 1.0);

  /// Build from nested initializer-style rows (for tests/examples).
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }

  double& operator()(int64_t i, int64_t j) {
    return data_[static_cast<size_t>(i * cols_ + j)];
  }
  double operator()(int64_t i, int64_t j) const {
    return data_[static_cast<size_t>(i * cols_ + j)];
  }

  /// Pointer to the start of row i.
  double* Row(int64_t i) { return data_.data() + i * cols_; }
  const double* Row(int64_t i) const { return data_.data() + i * cols_; }

  /// Raw row-major storage.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  const std::vector<double>& storage() const { return data_; }

  /// Reshapes to rows x cols and zero-fills, reusing the existing heap
  /// allocation whenever the new element count fits its capacity. This is
  /// the workspace-reuse fast path under the *Into kernels: repeated
  /// same-shape calls (optimizer inner loops) touch the heap zero times.
  void ResizeZeroed(int64_t rows, int64_t cols) {
    const size_t n = CheckedSize(rows, cols);
    rows_ = rows;
    cols_ = cols;
    data_.assign(n, 0.0);
  }

  /// Transposed copy.
  Matrix Transposed() const;

  /// In-place scalar multiply.
  void ScaleInPlace(double alpha);

  /// this += alpha * other (same shape).
  void AddInPlace(const Matrix& other, double alpha = 1.0);

  /// Copies column j into a vector.
  Vector ColVector(int64_t j) const;

  /// Sets row i from a vector.
  void SetRow(int64_t i, const Vector& v);

  /// Sum of all entries.
  double Sum() const;

  /// Trace (requires square).
  double Trace() const;

  /// Squared Frobenius norm.
  double FrobeniusNormSquared() const;

  /// L1 operator norm: the maximum absolute column sum. Equals the
  /// sensitivity of the query set defined by this matrix (Section 3.5).
  double MaxAbsColSum() const;

  /// Per-column sums of absolute values (the per-column sensitivity profile).
  Vector AbsColSums() const;

  /// Per-column plain sums.
  Vector ColSums() const;

  /// Maximum absolute difference against another matrix (testing helper).
  double MaxAbsDiff(const Matrix& other) const;

 private:
  // Validates the shape BEFORE the storage allocation sizes itself from it;
  // a negative dimension must trip the check, not a wrapped-around huge
  // allocation in the member-init list.
  static size_t CheckedSize(int64_t rows, int64_t cols) {
    HDMM_CHECK(rows >= 0 && cols >= 0);
    return static_cast<size_t>(rows) * static_cast<size_t>(cols);
  }

  int64_t rows_;
  int64_t cols_;
  std::vector<double> data_;
};

/// C = A * B. Cache-blocked, register-tiled, parallelized over the shared
/// ThreadPool (see linalg/gemm.h for the kernels and *Into variants).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B without forming A^T.
Matrix MatMulTN(const Matrix& a, const Matrix& b);

/// C = A * B^T without forming B^T.
Matrix MatMulNT(const Matrix& a, const Matrix& b);

/// Gram matrix A^T A via the SYRK kernel: only the lower triangle is
/// computed and then mirrored, so the output is exactly symmetric and costs
/// about half a general product.
Matrix Gram(const Matrix& a);

/// y = A x.
Vector MatVec(const Matrix& a, const Vector& x);

/// y = A^T x without forming A^T.
Vector MatTVec(const Matrix& a, const Vector& x);

/// alpha * A.
Matrix MatScale(const Matrix& a, double alpha);

/// Vertically stacks the given matrices (all must share a column count).
Matrix VStack(const std::vector<Matrix>& blocks);

}  // namespace hdmm

#endif  // HDMM_LINALG_MATRIX_H_
