#pragma once
/// \file quadrature.hpp
/// Numerical integration and the exponential integrals E_n used by the
/// tangent-slab radiative transport solution (plane-slab approximation of
/// the paper's "detailed spectral radiation transport").

#include <functional>
#include <span>
#include <vector>

namespace cat::numerics {

/// Composite trapezoid on sampled data (x strictly increasing).
double trapz(std::span<const double> x, std::span<const double> y);

/// Composite Simpson of f on [a,b] with n uniform intervals (n rounded up
/// to even).
double simpson(const std::function<double(double)>& f, double a, double b,
               std::size_t n);

/// Gauss-Legendre nodes/weights on [-1, 1] for arbitrary order n
/// (Newton iteration on Legendre polynomials).
void gauss_legendre(std::size_t n, std::vector<double>& nodes,
                    std::vector<double>& weights);

/// Gauss-Legendre integration of f over [a, b] with n points.
double gauss(const std::function<double(double)>& f, double a, double b,
             std::size_t n);

/// Exponential integral E1(x) = \int_1^inf e^{-xt}/t dt, x > 0.
double expint_e1(double x);

/// Exponential integral E_n(x), n >= 1, x >= 0 (E_n(0) = 1/(n-1) for n>1).
double expint_en(int n, double x);

}  // namespace cat::numerics
