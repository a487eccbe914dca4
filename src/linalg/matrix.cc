#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.h"
#include "linalg/gemm.h"

namespace hdmm {

Matrix Matrix::Identity(int64_t n) {
  Matrix m(n, n);
  for (int64_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Zeros(int64_t rows, int64_t cols) { return Matrix(rows, cols); }

Matrix Matrix::Ones(int64_t rows, int64_t cols) {
  Matrix m(rows, cols);
  std::fill(m.data_.begin(), m.data_.end(), 1.0);
  return m;
}

Matrix Matrix::Diagonal(const Vector& d) {
  int64_t n = static_cast<int64_t>(d.size());
  Matrix m(n, n);
  for (int64_t i = 0; i < n; ++i) m(i, i) = d[static_cast<size_t>(i)];
  return m;
}

Matrix Matrix::RandomUniform(int64_t rows, int64_t cols, Rng* rng, double lo,
                             double hi) {
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->Uniform(lo, hi);
  return m;
}

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  HDMM_CHECK(!rows.empty());
  int64_t r = static_cast<int64_t>(rows.size());
  int64_t c = static_cast<int64_t>(rows[0].size());
  Matrix m(r, c);
  for (int64_t i = 0; i < r; ++i) {
    HDMM_CHECK(static_cast<int64_t>(rows[static_cast<size_t>(i)].size()) == c);
    std::copy(rows[static_cast<size_t>(i)].begin(),
              rows[static_cast<size_t>(i)].end(), m.Row(i));
  }
  return m;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (int64_t i = 0; i < rows_; ++i)
    for (int64_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

void Matrix::ScaleInPlace(double alpha) {
  for (double& v : data_) v *= alpha;
}

void Matrix::AddInPlace(const Matrix& other, double alpha) {
  HDMM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

Vector Matrix::ColVector(int64_t j) const {
  Vector v(static_cast<size_t>(rows_));
  for (int64_t i = 0; i < rows_; ++i) v[static_cast<size_t>(i)] = (*this)(i, j);
  return v;
}

void Matrix::SetRow(int64_t i, const Vector& v) {
  HDMM_CHECK(static_cast<int64_t>(v.size()) == cols_);
  std::copy(v.begin(), v.end(), Row(i));
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::Trace() const {
  HDMM_CHECK(rows_ == cols_);
  double s = 0.0;
  for (int64_t i = 0; i < rows_; ++i) s += (*this)(i, i);
  return s;
}

double Matrix::FrobeniusNormSquared() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

double Matrix::MaxAbsColSum() const {
  Vector sums = AbsColSums();
  double m = 0.0;
  for (double v : sums) m = std::max(m, v);
  return m;
}

Vector Matrix::AbsColSums() const {
  Vector sums(static_cast<size_t>(cols_), 0.0);
  for (int64_t i = 0; i < rows_; ++i) {
    const double* row = Row(i);
    for (int64_t j = 0; j < cols_; ++j)
      sums[static_cast<size_t>(j)] += std::fabs(row[j]);
  }
  return sums;
}

Vector Matrix::ColSums() const {
  Vector sums(static_cast<size_t>(cols_), 0.0);
  for (int64_t i = 0; i < rows_; ++i) {
    const double* row = Row(i);
    for (int64_t j = 0; j < cols_; ++j) sums[static_cast<size_t>(j)] += row[j];
  }
  return sums;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  HDMM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i)
    m = std::max(m, std::fabs(data_[i] - other.data_[i]));
  return m;
}

std::string Matrix::DebugString(int64_t max_rows, int64_t max_cols) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " matrix\n";
  for (int64_t i = 0; i < std::min(rows_, max_rows); ++i) {
    for (int64_t j = 0; j < std::min(cols_, max_cols); ++j) {
      os << (*this)(i, j) << (j + 1 < std::min(cols_, max_cols) ? " " : "");
    }
    if (cols_ > max_cols) os << " ...";
    os << "\n";
  }
  if (rows_ > max_rows) os << "...\n";
  return os.str();
}

Matrix MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulInto(a, b, &c);
  return c;
}

Matrix MatMulTN(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulTNInto(a, b, &c);
  return c;
}

Matrix MatMulNT(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulNTInto(a, b, &c);
  return c;
}

Matrix Gram(const Matrix& a) {
  Matrix g;
  GramInto(a, &g);
  return g;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  HDMM_CHECK(static_cast<int64_t>(x.size()) == a.cols());
  Vector y(static_cast<size_t>(a.rows()), 0.0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double* row = a.Row(i);
    double s = 0.0;
    for (int64_t j = 0; j < a.cols(); ++j) s += row[j] * x[static_cast<size_t>(j)];
    y[static_cast<size_t>(i)] = s;
  }
  return y;
}

Vector MatTVec(const Matrix& a, const Vector& x) {
  HDMM_CHECK(static_cast<int64_t>(x.size()) == a.rows());
  Vector y(static_cast<size_t>(a.cols()), 0.0);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const double xi = x[static_cast<size_t>(i)];
    if (xi == 0.0) continue;
    const double* row = a.Row(i);
    for (int64_t j = 0; j < a.cols(); ++j) y[static_cast<size_t>(j)] += xi * row[j];
  }
  return y;
}

Matrix MatScale(const Matrix& a, double alpha) {
  Matrix c = a;
  c.ScaleInPlace(alpha);
  return c;
}

Matrix VStack(const std::vector<Matrix>& blocks) {
  HDMM_CHECK(!blocks.empty());
  int64_t cols = blocks[0].cols();
  int64_t rows = 0;
  for (const Matrix& b : blocks) {
    HDMM_CHECK(b.cols() == cols);
    rows += b.rows();
  }
  Matrix out(rows, cols);
  int64_t r = 0;
  for (const Matrix& b : blocks) {
    std::copy(b.data(), b.data() + b.size(), out.Row(r));
    r += b.rows();
  }
  return out;
}

}  // namespace hdmm
