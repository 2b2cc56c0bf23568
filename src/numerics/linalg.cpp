#include "numerics/linalg.hpp"

#include <cmath>

#include "core/error.hpp"

namespace cat::numerics {

Matrix::Matrix(std::size_t r, std::size_t c, double value)
    : rows_(r), cols_(c), data_(r * c, value) {}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::axpy(double s, const Matrix& other) {
  CAT_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
              "axpy shape mismatch");
  for (std::size_t k = 0; k < data_.size(); ++k) data_[k] += s * other.data_[k];
}

Matrix& Matrix::operator-=(const Matrix& o) {
  axpy(-1.0, o);
  return *this;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  CAT_REQUIRE(a.cols() == b.rows(), "matrix product shape mismatch");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

// cat-lint: allow-alloc (value-returning convenience API; the stiff hot
// loop uses lu_solve_inplace with workspace scratch instead)
std::vector<double> Matrix::operator*(std::span<const double> x) const {
  CAT_REQUIRE(cols_ == x.size(), "matrix-vector shape mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) acc += (*this)(i, j) * x[j];
    y[i] = acc;
  }
  return y;
}

LuFactor::LuFactor(const Matrix& a) : n_(a.rows()), lu_(a), piv_(a.rows()) {
  lu_factor_inplace(lu_, piv_);
  // Permutation parity for the determinant sign: count transpositions by
  // walking the cycles of piv_.
  // cat-lint: allow-alloc (factor-time parity walk, not the solve path)
  std::vector<bool> seen(n_, false);
  for (std::size_t i = 0; i < n_; ++i) {
    if (seen[i]) continue;
    std::size_t len = 0;
    for (std::size_t j = i; !seen[j]; j = piv_[j]) {
      seen[j] = true;
      ++len;
    }
    if (len % 2 == 0) pivot_sign_ = -pivot_sign_;
  }
}

// cat-lint: allow-alloc (convenience API; the stiff hot loop calls the
// free lu_solve_inplace with workspace scratch instead)
void LuFactor::solve_inplace(std::span<double> b) const {
  std::vector<double> scratch(n_);
  lu_solve_inplace(lu_, piv_, b, scratch);
}

// cat-lint: allow-alloc (value-returning convenience API)
std::vector<double> LuFactor::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_inplace(x);
  return x;
}

// cat-lint: allow-alloc (value-returning convenience API)
Matrix LuFactor::solve(const Matrix& b) const {
  CAT_REQUIRE(b.rows() == n_, "matrix rhs shape mismatch");
  Matrix x(n_, b.cols());
  std::vector<double> col(n_);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < n_; ++i) col[i] = b(i, j);
    solve_inplace(col);
    for (std::size_t i = 0; i < n_; ++i) x(i, j) = col[i];
  }
  return x;
}

double LuFactor::determinant() const {
  double d = pivot_sign_;
  for (std::size_t i = 0; i < n_; ++i) d *= lu_(i, i);
  return d;
}

void lu_factor_inplace(Matrix& a, std::span<std::size_t> piv) {
  if (!try_lu_factor_inplace(a, piv))
    throw SolverError("lu_factor_inplace: matrix is numerically singular");
}

bool try_lu_factor_inplace(Matrix& a, std::span<std::size_t> piv) {
  const std::size_t n = a.rows();
  CAT_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  CAT_REQUIRE(piv.size() == n, "pivot array size mismatch");
  for (std::size_t i = 0; i < n; ++i) piv[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    double pmax = std::fabs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::fabs(a(i, k));
      if (v > pmax) {
        pmax = v;
        p = i;
      }
    }
    if (pmax < 1e-300) return false;
    if (p != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
      std::swap(piv[k], piv[p]);
    }
    const double inv_pivot = 1.0 / a(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = a(i, k) * inv_pivot;
      a(i, k) = m;
      if (m == 0.0) continue;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= m * a(k, j);
    }
  }
  return true;
}

void lu_solve_inplace(const Matrix& lu, std::span<const std::size_t> piv,
                      std::span<double> b, std::span<double> scratch) {
  const std::size_t n = lu.rows();
  CAT_REQUIRE(b.size() == n && scratch.size() >= n, "rhs size mismatch");
  std::span<double> x = scratch.first(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[piv[i]];
  for (std::size_t i = 1; i < n; ++i) {
    double acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
    x[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x[j];
    x[ii] = acc / lu(ii, ii);
  }
  for (std::size_t i = 0; i < n; ++i) b[i] = x[i];
}

// cat-lint: allow-alloc (value-returning convenience API)
std::vector<double> solve(const Matrix& a, std::span<const double> b) {
  return LuFactor(a).solve(b);
}

Matrix inverse(const Matrix& a) {
  return LuFactor(a).solve(Matrix::identity(a.rows()));
}

double norm2(std::span<const double> v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

double norm_inf(std::span<const double> v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

double dot(std::span<const double> a, std::span<const double> b) {
  CAT_REQUIRE(a.size() == b.size(), "dot size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

}  // namespace cat::numerics
