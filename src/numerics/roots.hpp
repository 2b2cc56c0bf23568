#pragma once
/// \file roots.hpp
/// Scalar root finding: Newton with derivative, safeguarded Newton-bisection
/// hybrids, and Brent's method. Used to invert equations of state
/// (T from internal energy, equilibrium temperature iterations, Vigneron
/// pressure recovery, ...).

#include <functional>

namespace cat::numerics {

struct RootOptions {
  double tol = 1e-12;          ///< relative tolerance on x
  std::size_t max_iter = 100;
};

/// Newton's method with user-supplied derivative. Falls back to throwing
/// cat::SolverError if the derivative vanishes or iteration diverges.
double newton(const std::function<double(double)>& f,
              const std::function<double(double)>& dfdx, double x0,
              const RootOptions& opt = {});

/// Safeguarded Newton: bracketed by [lo, hi]; bisects whenever the Newton
/// step leaves the bracket. Robust default for EOS inversion.
double newton_bracketed(const std::function<double(double)>& f,
                        const std::function<double(double)>& dfdx, double lo,
                        double hi, const RootOptions& opt = {});

/// Brent's method on a sign-changing bracket [lo, hi].
double brent(const std::function<double(double)>& f, double lo, double hi,
             const RootOptions& opt = {});

/// Same, for a caller that already holds \p f_lo = f(lo) and
/// \p f_hi = f(hi) (from its own bracket checks): f is not called at the
/// ends again.
double brent(const std::function<double(double)>& f, double lo, double hi,
             double f_lo, double f_hi, const RootOptions& opt = {});

/// Simple bisection (guaranteed, slow); mostly used as a test oracle.
double bisection(const std::function<double(double)>& f, double lo, double hi,
                 const RootOptions& opt = {});

}  // namespace cat::numerics
