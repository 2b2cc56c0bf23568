#pragma once
/// \file ode.hpp
/// ODE integrators: explicit RK4, adaptive RKF45, and an implicit stiff
/// integrator (backward Euler / BDF2 with damped Newton).
///
/// CAT needs all three regimes (paper, "STATUS OF CAT"): trajectories and
/// inviscid relaxation are non-stiff; finite-rate chemistry spans rate
/// scales "many orders of magnitude wider than the mean-flow time scale" —
/// the single most complicating factor — and demands an implicit method.
///
/// Hot-path convention: StiffIntegrator::integrate takes a caller-owned
/// StiffWorkspace, so repeated integrations (one per reactor advance,
/// operator-split cell or relaxation sample) reuse the Jacobian, Newton and
/// LU storage and allocate nothing in the stepping loop.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "numerics/linalg.hpp"

namespace cat::numerics {

/// Right-hand side f(t, y, dy/dt). dydt is preallocated to y.size().
using OdeRhs =
    std::function<void(double t, std::span<const double> y, std::span<double> dydt)>;

/// One classical 4th-order Runge-Kutta step from t to t+h (y updated).
void rk4_step(const OdeRhs& f, double t, double h, std::vector<double>& y);

/// Integrate from t0 to t1 with fixed-step RK4 (nsteps steps).
void integrate_rk4(const OdeRhs& f, double t0, double t1, std::size_t nsteps,
                   std::vector<double>& y);

/// Options for the adaptive integrators.
struct AdaptiveOptions {
  double rel_tol = 1e-8;
  double abs_tol = 1e-10;
};

/// Dense observer: called after every accepted step with (t, y).
using OdeObserver = std::function<void(double t, std::span<const double> y)>;

/// Adaptive Runge-Kutta-Fehlberg 4(5). Returns the number of accepted steps.
/// The first trial step is (t1-t0)/100; steps never shrink below
/// 1e-14 |t1-t0|. Throws cat::SolverError after 2,000,000 step attempts.
std::size_t integrate_rkf45(const OdeRhs& f, double t0, double t1,
                            std::vector<double>& y,
                            const AdaptiveOptions& opt = {},
                            const OdeObserver& observer = nullptr);

/// Options for StiffIntegrator (namespace scope so it can serve as a
/// default argument; GCC requires nested-class member initializers to be
/// complete before such use).
struct StiffOptions {
  double rel_tol = 1e-6;
  double abs_tol = 1e-12;
  double h_initial = 1e-10;
  std::size_t max_steps = 500'000;
  std::size_t max_newton = 12;
  bool use_bdf2 = true;        ///< second order after startup
  /// Forced step size for the verification harness: when positive the
  /// integrator takes uniform steps of exactly this size (final step
  /// clipped to t1) with local-error control disabled, so observed-order
  /// studies can halve the step on a ladder. A Newton failure is then a
  /// hard error instead of a step-size retreat.
  double fixed_step = 0.0;
};

/// Reusable scratch state for StiffIntegrator: Jacobian and Newton
/// iteration matrices, LU pivots, stage vectors, and finite-difference
/// Jacobian buffers. Hold one per integration context and pass it to
/// StiffIntegrator::integrate: every allocation then happens at most once
/// (first use / growth), and repeated integrations — e.g. one per reactor
/// advance, operator-split cell or relaxation sample — run allocation-free.
struct StiffWorkspace {
  Matrix jac, iter_matrix;
  std::vector<double> fval, res, ynew, yprev, lu_scratch;
  std::vector<double> fd_yp, fd_f0, fd_f1;  // finite-difference Jacobian
  std::vector<std::size_t> piv;

  /// Ensure capacity for an n-dimensional system (no-op when sized).
  void resize(std::size_t n);
};

/// Implicit stiff integrator: variable-step backward Euler (order 1) with a
/// BDF2 finisher, damped-Newton inner iterations on a finite-difference
/// Jacobian, and step-size control on the Newton convergence rate. Designed
/// for chemical-kinetics source terms.
class StiffIntegrator {
 public:
  using Options = StiffOptions;

  explicit StiffIntegrator(OdeRhs f, Options opt = {});

  /// Integrate y from t0 to t1 in place. With the caller-owned workspace the
  /// inner loop performs zero heap allocations (given an allocation-free
  /// RHS). Returns accepted step count.
  std::size_t integrate(double t0, double t1, std::span<double> y,
                        StiffWorkspace& ws,
                        const OdeObserver& observer = nullptr) const;

 private:
  OdeRhs f_;
  Options opt_;

  void numerical_jacobian(double t, std::span<const double> y,
                          StiffWorkspace& ws) const;
};

}  // namespace cat::numerics
