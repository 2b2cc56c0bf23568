#pragma once
/// \file linalg.hpp
/// Small dense linear algebra used by the implicit solvers.
///
/// The matrices that appear in CAT solvers are block entries of
/// tridiagonal systems (block size = number of conserved variables,
/// typically 4-14), so everything here is tuned for small dense systems:
/// row-major storage, LU with partial pivoting, no allocation in solve paths
/// when a Workspace is reused.

#include <cstddef>
#include <span>
#include <vector>

namespace cat::numerics {

/// Dynamically sized row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Create an \p r x \p c matrix initialised to \p value.
  Matrix(std::size_t r, std::size_t c, double value = 0.0);

  /// Identity matrix of dimension \p n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// In-place scaled addition: *this += s * other. Shapes must match.
  void axpy(double s, const Matrix& other);

  Matrix& operator-=(const Matrix& o);
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }

  /// Dense matrix product (shapes checked).
  friend Matrix operator*(const Matrix& a, const Matrix& b);

  /// Matrix-vector product y = A x (shapes checked).
  std::vector<double> operator*(std::span<const double> x) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of a square matrix.
/// Factorizes once, then solves many right-hand sides cheaply — the access
/// pattern of block-tridiagonal elimination.
class LuFactor {
 public:
  /// Factorize \p a. Throws cat::SolverError if the matrix is singular to
  /// working precision.
  explicit LuFactor(const Matrix& a);

  std::size_t dim() const { return n_; }

  /// Solve A x = b in-place: \p b holds x on return.
  void solve_inplace(std::span<double> b) const;

  /// Solve A x = b; returns x.
  std::vector<double> solve(std::span<const double> b) const;

  /// Solve A X = B for a matrix right-hand side; returns X.
  Matrix solve(const Matrix& b) const;

  /// Determinant from the factorization (product of U diagonal x sign).
  double determinant() const;

 private:
  std::size_t n_ = 0;
  Matrix lu_;                  // combined L (unit diagonal) and U factors
  std::vector<std::size_t> piv_;
  int pivot_sign_ = 1;
};

/// --- workspace (in-place) LU --------------------------------------------
/// Allocation-free factor/solve pair for hot loops that re-factorize every
/// iteration (the stiff integrator's Newton matrix): the caller owns both
/// the matrix storage and the pivot array, nothing is copied.

/// Factorize \p a in place (combined L with unit diagonal and U), recording
/// the row permutation in \p piv (size = a.rows()). Throws cat::SolverError
/// when the matrix is numerically singular.
void lu_factor_inplace(Matrix& a, std::span<std::size_t> piv);

/// Non-throwing form of lu_factor_inplace for loops that recover from a
/// singular matrix themselves (the Gibbs Newton's ridge fallback): returns
/// false, leaving \p a partially factorized, where lu_factor_inplace throws.
[[nodiscard]] bool try_lu_factor_inplace(Matrix& a,
                                         std::span<std::size_t> piv);

/// Solve A x = b in place using factors/pivots from lu_factor_inplace; \p b
/// holds x on return. \p scratch must have size >= b.size().
void lu_solve_inplace(const Matrix& lu, std::span<const std::size_t> piv,
                      std::span<double> b, std::span<double> scratch);

/// Convenience: solve the dense system A x = b (single use).
std::vector<double> solve(const Matrix& a, std::span<const double> b);

/// Inverse via LU; prefer LuFactor::solve for repeated solves.
Matrix inverse(const Matrix& a);

/// Euclidean norm of a vector.
double norm2(std::span<const double> v);

/// Infinity norm of a vector.
double norm_inf(std::span<const double> v);

/// Dot product (sizes checked).
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace cat::numerics
