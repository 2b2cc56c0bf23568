#pragma once
/// \file interp.hpp
/// Interpolation utilities: piecewise-linear, monotone cubic (PCHIP), and
/// bilinear lookup on a regular 2-D grid. The bilinear table backs the fast
/// equilibrium EOS used inside the finite-volume solvers.

#include <cstddef>
#include <span>
#include <vector>

namespace cat::numerics {

/// Piecewise-linear interpolant on strictly increasing abscissae.
/// Evaluations outside the range clamp or extrapolate per `extrapolate`.
class LinearInterp {
 public:
  LinearInterp() = default;
  LinearInterp(std::vector<double> x, std::vector<double> y,
               bool extrapolate = false);

  double operator()(double x) const;
  /// Derivative dy/dx of the interpolant at x (piecewise constant).
  double derivative(double x) const;

  std::size_t size() const { return x_.size(); }
  std::span<const double> abscissae() const { return x_; }
  std::span<const double> ordinates() const { return y_; }

 private:
  std::vector<double> x_, y_;
  bool extrapolate_ = false;
  std::size_t locate(double x) const;
};

/// Monotone piecewise-cubic Hermite (PCHIP, Fritsch-Carlson slopes).
/// Preserves monotonicity of the data — essential when interpolating
/// thermodynamic tables where overshoot would produce unphysical states.
class Pchip {
 public:
  Pchip() = default;
  Pchip(std::vector<double> x, std::vector<double> y);

  /// The interval and Hermite weights at one abscissa (clamped to the node
  /// range). Interpolants built on the same abscissae can share one: each
  /// evaluated at basis(x) gives exactly its value at x, so a caller that
  /// needs several tables at one x finds the interval once.
  struct Basis {
    std::size_t i;  ///< left node of the interval
    double h00, h10, h01, h11;  ///< weights; h10, h11 carry the width
  };
  Basis basis(double x) const;

  double operator()(const Basis& b) const {
    return b.h00 * y_[b.i] + b.h10 * m_[b.i] + b.h01 * y_[b.i + 1] +
           b.h11 * m_[b.i + 1];
  }
  double operator()(double x) const { return (*this)(basis(x)); }

 private:
  std::vector<double> x_, y_, m_;  // m_ = endpoint slopes per node
  double inv_mean_h_ = 0.0;        // (n - 1) / (x_n - x_0)
  std::size_t locate(double x) const;
};

/// Bilinear interpolation on a regular (uniformly spaced) grid.
/// Values are stored row-major: v(i,j) = value at (x0 + i dx, y0 + j dy).
class BilinearTable {
 public:
  BilinearTable() = default;
  BilinearTable(double x0, double dx, std::size_t nx, double y0, double dy,
                std::size_t ny);

  double& at(std::size_t i, std::size_t j) { return v_[i * ny_ + j]; }
  double at(std::size_t i, std::size_t j) const { return v_[i * ny_ + j]; }

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  double xmin() const { return x0_; }
  double xmax() const { return x0_ + dx_ * static_cast<double>(nx_ - 1); }
  double ymin() const { return y0_; }
  double ymax() const { return y0_ + dy_ * static_cast<double>(ny_ - 1); }

  /// Bilinear value at (x, y); arguments are clamped to the table range.
  /// Queries exactly on a grid line (including the upper edges and the
  /// far corner) reproduce the stored node values exactly.
  double operator()(double x, double y) const;

 private:
  double x0_ = 0, dx_ = 1, y0_ = 0, dy_ = 1;
  std::size_t nx_ = 0, ny_ = 0;
  std::vector<double> v_;
};

}  // namespace cat::numerics
