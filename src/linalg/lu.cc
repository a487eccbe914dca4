#include "linalg/lu.h"

#include <cmath>

namespace hdmm {

Vector UpperTriangularSolve(const Matrix& u, const Vector& b) {
  HDMM_CHECK(u.rows() == u.cols());
  const int64_t n = u.rows();
  Vector x = b;
  for (int64_t i = n - 1; i >= 0; --i) {
    double s = x[static_cast<size_t>(i)];
    const double* row = u.Row(i);
    for (int64_t k = i + 1; k < n; ++k) s -= row[k] * x[static_cast<size_t>(k)];
    HDMM_CHECK_MSG(std::fabs(row[i]) > 1e-300, "singular triangular system");
    x[static_cast<size_t>(i)] = s / row[i];
  }
  return x;
}

Vector UpperTriangularSolveTranspose(const Matrix& u, const Vector& b) {
  HDMM_CHECK(u.rows() == u.cols());
  const int64_t n = u.rows();
  Vector x = b;
  for (int64_t i = 0; i < n; ++i) {
    double s = x[static_cast<size_t>(i)];
    for (int64_t k = 0; k < i; ++k) s -= u(k, i) * x[static_cast<size_t>(k)];
    HDMM_CHECK_MSG(std::fabs(u(i, i)) > 1e-300, "singular triangular system");
    x[static_cast<size_t>(i)] = s / u(i, i);
  }
  return x;
}

}  // namespace hdmm
