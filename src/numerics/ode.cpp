#include "numerics/ode.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace cat::numerics {

// cat-lint: allow-alloc (explicit RK helpers serve the verification and
// trajectory layers; the chemistry hot path uses StiffIntegrator with a
// caller-held StiffWorkspace)
void rk4_step(const OdeRhs& f, double t, double h, std::vector<double>& y) {
  const std::size_t n = y.size();
  std::vector<double> k1(n), k2(n), k3(n), k4(n), tmp(n);
  f(t, y, k1);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * h * k1[i];
  f(t + 0.5 * h, tmp, k2);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * h * k2[i];
  f(t + 0.5 * h, tmp, k3);
  for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + h * k3[i];
  f(t + h, tmp, k4);
  for (std::size_t i = 0; i < n; ++i)
    y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
}

void integrate_rk4(const OdeRhs& f, double t0, double t1, std::size_t nsteps,
                   std::vector<double>& y) {
  CAT_REQUIRE(nsteps > 0, "nsteps must be positive");
  const double h = (t1 - t0) / static_cast<double>(nsteps);
  double t = t0;
  for (std::size_t s = 0; s < nsteps; ++s, t = t0 + (s * (t1 - t0)) / nsteps)
    rk4_step(f, t, h, y);
}

namespace {
// Fehlberg 4(5) tableau.
constexpr double kA[6][5] = {
    {0, 0, 0, 0, 0},
    {1.0 / 4, 0, 0, 0, 0},
    {3.0 / 32, 9.0 / 32, 0, 0, 0},
    {1932.0 / 2197, -7200.0 / 2197, 7296.0 / 2197, 0, 0},
    {439.0 / 216, -8.0, 3680.0 / 513, -845.0 / 4104, 0},
    {-8.0 / 27, 2.0, -3544.0 / 2565, 1859.0 / 4104, -11.0 / 40}};
constexpr double kC[6] = {0, 1.0 / 4, 3.0 / 8, 12.0 / 13, 1.0, 0.5};
constexpr double kB5[6] = {16.0 / 135,      0, 6656.0 / 12825,
                           28561.0 / 56430, -9.0 / 50, 2.0 / 55};
constexpr double kB4[6] = {25.0 / 216, 0, 1408.0 / 2565, 2197.0 / 4104,
                           -1.0 / 5, 0};
}  // namespace

std::size_t integrate_rkf45(const OdeRhs& f, double t0, double t1,
                            std::vector<double>& y, const AdaptiveOptions& opt,
                            const OdeObserver& observer) {
  const std::size_t n = y.size();
  const double span = t1 - t0;
  CAT_REQUIRE(span != 0.0, "degenerate integration interval");
  const double dir = span > 0 ? 1.0 : -1.0;
  double h = span / 100.0;
  const double h_min = 1e-14 * std::fabs(span);

  // cat-lint: allow-alloc (per-integration setup of the adaptive RK45
  // stage buffers; not the chemistry hot path)
  std::vector<std::vector<double>> k(6, std::vector<double>(n));
  std::vector<double> ytmp(n), y5(n), y4(n);  // cat-lint: allow-alloc
  double t = t0;
  std::size_t accepted = 0;

  for (std::size_t step = 0; step < 2'000'000; ++step) {
    if ((t - t1) * dir >= 0.0) return accepted;
    if ((t + h - t1) * dir > 0.0) h = t1 - t;  // land exactly on t1

    for (int s = 0; s < 6; ++s) {
      for (std::size_t i = 0; i < n; ++i) {
        double acc = y[i];
        for (int j = 0; j < s; ++j) acc += h * kA[s][j] * k[j][i];
        ytmp[i] = acc;
      }
      f(t + kC[s] * h, ytmp, k[s]);
    }
    double err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double d5 = y[i], d4 = y[i];
      for (int s = 0; s < 6; ++s) {
        d5 += h * kB5[s] * k[s][i];
        d4 += h * kB4[s] * k[s][i];
      }
      y5[i] = d5;
      y4[i] = d4;
      const double scale =
          opt.abs_tol + opt.rel_tol * std::max(std::fabs(y[i]), std::fabs(d5));
      const double e = (d5 - d4) / scale;
      err += e * e;
    }
    err = std::sqrt(err / static_cast<double>(n));

    if (err <= 1.0 || std::fabs(h) <= h_min) {
      t += h;
      y = y5;
      ++accepted;
      if (observer) observer(t, y);
    }
    const double safety = 0.9;
    double factor =
        err > 0.0 ? safety * std::pow(err, -0.2) : 5.0;
    factor = std::clamp(factor, 0.2, 5.0);
    h *= factor;
    if (std::fabs(h) < h_min) h = h_min * dir;
  }
  throw SolverError("integrate_rkf45: max_steps exceeded");
}

StiffIntegrator::StiffIntegrator(OdeRhs f, Options opt)
    : f_(std::move(f)), opt_(opt) {}

// cat-lint: allow-alloc (this IS the designated growth point: capacity is
// established here once and every later call is a no-op)
void StiffWorkspace::resize(std::size_t n) {
  if (jac.rows() != n) {
    jac = Matrix(n, n);
    iter_matrix = Matrix(n, n);
  }
  fval.resize(n);
  res.resize(n);
  ynew.resize(n);
  yprev.resize(n);
  lu_scratch.resize(n);
  fd_yp.resize(n);
  fd_f0.resize(n);
  fd_f1.resize(n);
  piv.resize(n);
}

void StiffIntegrator::numerical_jacobian(double t, std::span<const double> y,
                                         StiffWorkspace& ws) const {
  const std::size_t n = y.size();
  std::copy(y.begin(), y.end(), ws.fd_yp.begin());
  f_(t, y, ws.fd_f0);
  for (std::size_t j = 0; j < n; ++j) {
    const double eps = 1e-7 * std::max(std::fabs(y[j]), 1e-20);
    const double saved = ws.fd_yp[j];
    ws.fd_yp[j] = saved + eps;
    f_(t, ws.fd_yp, ws.fd_f1);
    ws.fd_yp[j] = saved;
    for (std::size_t i = 0; i < n; ++i)
      ws.jac(i, j) = (ws.fd_f1[i] - ws.fd_f0[i]) / eps;
  }
}

std::size_t StiffIntegrator::integrate(double t0, double t1,
                                       std::span<double> y, StiffWorkspace& ws,
                                       const OdeObserver& observer) const {
  const std::size_t n = y.size();
  CAT_REQUIRE(t1 > t0, "stiff integrator marches forward only");
  ws.resize(n);  // cat-lint: allow-alloc (no-op once the workspace is sized)
  double t = t0;
  const bool fixed = opt_.fixed_step > 0.0;
  double h = fixed ? opt_.fixed_step : opt_.h_initial;

  std::span<double> yprev(ws.yprev);  // y_{n-1} for BDF2
  std::copy(y.begin(), y.end(), yprev.begin());
  bool have_prev = false;
  double h_prev = 0.0;

  Matrix& jac = ws.jac;
  Matrix& iter_matrix = ws.iter_matrix;
  std::span<double> fval(ws.fval), res(ws.res), ynew(ws.ynew);
  std::size_t accepted = 0;

  for (std::size_t step = 0; step < opt_.max_steps; ++step) {
    if (t >= t0 + (t1 - t0) * (1.0 - 1e-12)) return accepted;
    if (fixed) h = opt_.fixed_step;
    h = std::min(h, t1 - t);

    const bool bdf2 = opt_.use_bdf2 && have_prev;
    // BDF2 with variable step ratio r = h/h_prev:
    //   y' = (alpha0 y + alpha1 y_n + alpha2 y_{n-1}) / h
    double alpha0 = 1.0, alpha1 = -1.0, alpha2 = 0.0;
    if (bdf2) {
      const double r = h / h_prev;
      alpha0 = (1.0 + 2.0 * r) / (1.0 + r);
      alpha1 = -(1.0 + r);
      alpha2 = r * r / (1.0 + r);
    }

    // Newton solve of  alpha0 y - h f(t+h, y) + alpha1 y_n + alpha2 y_{n-1} = 0
    std::copy(y.begin(), y.end(), ynew.begin());
    bool converged = false;
    bool factored = false;
    numerical_jacobian(t + h, ynew, ws);
    // cat-lint: converges-by-construction (a Newton stall leaves
    // !converged set and the step controller below rejects the step and
    // halves h — exhaustion is recorded, not swallowed)
    for (std::size_t it = 0; it < opt_.max_newton; ++it) {
      f_(t + h, ynew, fval);
      double rnorm = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        res[i] = alpha0 * ynew[i] - h * fval[i] + alpha1 * y[i] +
                 alpha2 * (bdf2 ? yprev[i] : 0.0);
        const double scale =
            opt_.abs_tol + opt_.rel_tol * std::fabs(ynew[i]);
        rnorm = std::max(rnorm, std::fabs(res[i]) / scale);
      }
      if (rnorm < 1.0e-2) {  // residual small relative to tolerance scale
        converged = true;
        break;
      }
      // Iteration matrix M = alpha0 I - h J: J, alpha0 and h are fixed for
      // the step attempt, so M is built and LU-factored in place once, on
      // the first iteration that needs it, and reused by later iterations.
      // A singular M fails the step attempt.
      if (!factored) {
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j)
            iter_matrix(i, j) = (i == j ? alpha0 : 0.0) - h * jac(i, j);
        if (!try_lu_factor_inplace(iter_matrix, ws.piv)) break;
        factored = true;
      }
      lu_solve_inplace(iter_matrix, ws.piv, res, ws.lu_scratch);
      for (std::size_t i = 0; i < n; ++i) ynew[i] -= res[i];
      if (!std::all_of(ynew.begin(), ynew.end(),
                       [](double v) { return std::isfinite(v); })) {
        converged = false;
        break;
      }
    }

    if (converged) {
      // Local-error control: the distance between the implicit solution
      // and the explicit history predictor estimates the truncation error
      // (standard BDF practice). Reject and shrink when it exceeds the
      // tolerance scale.
      double err = 0.0;
      if (!fixed && have_prev && h_prev > 0.0) {
        const double r = h / h_prev;
        for (std::size_t i = 0; i < n; ++i) {
          const double y_pred = y[i] + r * (y[i] - yprev[i]);
          const double scale =
              opt_.abs_tol + opt_.rel_tol * std::max(std::fabs(y[i]),
                                                     std::fabs(ynew[i]));
          err = std::max(err,
                         std::fabs(ynew[i] - y_pred) / (scale * 8.0));
        }
      }
      if (err > 1.0) {
        h *= std::clamp(0.9 / std::cbrt(err), 0.1, 0.9);
        if (h < 1e-30) throw SolverError("StiffIntegrator: step underflow");
        continue;  // reject: retry with smaller step
      }
      std::copy(y.begin(), y.end(), yprev.begin());
      std::copy(ynew.begin(), ynew.end(), y.begin());
      h_prev = h;
      have_prev = true;
      t += h;
      ++accepted;
      if (observer) observer(t, y);
      if (!fixed) {
        const double grow =
            err > 1e-8 ? std::clamp(0.9 / std::cbrt(err), 0.3, 2.2) : 2.2;
        h *= grow;
      }
    } else {
      if (fixed)
        throw SolverError(
            "StiffIntegrator: Newton failed at the forced step size");
      h *= 0.25;
      if (h < 1e-30) throw SolverError("StiffIntegrator: step underflow");
    }
  }
  throw SolverError("StiffIntegrator: max_steps exceeded");
}

}  // namespace cat::numerics
