// Tests for the numerics substrate: linear algebra, tridiagonal solvers,
// root finding, interpolation, quadrature, exponential integrals, ODE
// integrators, limiters.

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "numerics/interp.hpp"
#include "numerics/limiters.hpp"
#include "numerics/linalg.hpp"
#include "numerics/ode.hpp"
#include "numerics/quadrature.hpp"
#include "numerics/roots.hpp"
#include "numerics/tridiag.hpp"

namespace {

using namespace cat::numerics;

// ---------- linalg ----------

TEST(Linalg, LuSolvesRandomSystem) {
  Matrix a(3, 3);
  a(0, 0) = 4;  a(0, 1) = -2; a(0, 2) = 1;
  a(1, 0) = -2; a(1, 1) = 4;  a(1, 2) = -2;
  a(2, 0) = 1;  a(2, 1) = -2; a(2, 2) = 4;
  const std::vector<double> x_true{1.0, -2.0, 3.0};
  const auto b = a * std::span<const double>(x_true);
  const auto x = solve(a, b);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(Linalg, LuNeedsPivoting) {
  // Zero leading diagonal demands a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  const std::vector<double> b{2.0, 3.0};
  const auto x = solve(a, b);
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Linalg, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW((void)LuFactor(a), cat::SolverError);
}

TEST(Linalg, DeterminantAndInverse) {
  Matrix a(2, 2);
  a(0, 0) = 3; a(0, 1) = 1;
  a(1, 0) = 2; a(1, 1) = 5;
  EXPECT_NEAR(LuFactor(a).determinant(), 13.0, 1e-12);
  const Matrix inv = inverse(a);
  const Matrix prod = a * inv;
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 1), 1.0, 1e-12);
}

TEST(Linalg, NormsAndDot) {
  const std::vector<double> v{3.0, 4.0};
  EXPECT_NEAR(norm2(v), 5.0, 1e-15);
  EXPECT_NEAR(norm_inf(v), 4.0, 1e-15);
  EXPECT_NEAR(dot(v, v), 25.0, 1e-15);
}

// ---------- tridiagonal ----------

TEST(Tridiag, MatchesDenseSolve) {
  const std::size_t n = 12;
  std::vector<double> a(n, -1.0), b(n, 2.2), c(n, -0.9), d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = std::sin(0.7 * i);
  const auto x = solve_tridiagonal(a, b, c, d);
  // Residual check.
  for (std::size_t i = 0; i < n; ++i) {
    double r = b[i] * x[i] - d[i];
    if (i > 0) r += a[i] * x[i - 1];
    if (i + 1 < n) r += c[i] * x[i + 1];
    EXPECT_NEAR(r, 0.0, 1e-12);
  }
}

TEST(Tridiag, BlockMatchesScalarWhenDiagonalBlocks) {
  const std::size_t n = 8, m = 3;
  BlockTridiagonal sys(n, m);
  std::vector<double> a(n, -1.0), b(n, 3.0), c(n, -1.2), d(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < m; ++k) {
      sys.lower(i)(k, k) = a[i];
      sys.diag(i)(k, k) = b[i];
      sys.upper(i)(k, k) = c[i];
      sys.rhs(i)[k] = d[i];
    }
  }
  const auto xs = solve_tridiagonal(a, b, c, d);
  const auto xb = sys.solve();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < m; ++k)
      EXPECT_NEAR(xb[i * m + k], xs[i], 1e-12);
}

TEST(Tridiag, NearSingularSystemThrowsInsteadOfReturningGarbage) {
  // Rows 0 and 1 are linearly dependent up to a 1e-14 perturbation:
  // elimination leaves a pivot of order 1e-14, far above the old absolute
  // 1e-300 cutoff, which silently produced O(1e14) garbage. The
  // scale-relative guard must reject it.
  const std::vector<double> a{0.0, 1.0, 0.0};
  const std::vector<double> b{1.0, 1.0 + 1e-14, 2.0};
  const std::vector<double> c{1.0, 0.0, 0.0};
  const std::vector<double> d{1.0, 2.0, 3.0};
  EXPECT_THROW(solve_tridiagonal(a, b, c, d), cat::SolverError);
}

TEST(Tridiag, IllScaledButWellConditionedSystemSolves) {
  // A diagonally dominant system scaled down to ~1e-305 (near the subnormal
  // range) is perfectly well-conditioned; the singularity check must be
  // invariant to the scaling. With a fixed absolute threshold, scale choices
  // like this either trip the guard spuriously or sail past it when singular.
  const std::size_t n = 6;
  const double scale = 1e-305;
  std::vector<double> a(n, -1.0 * scale), b(n, 2.5 * scale),
      c(n, -1.0 * scale), d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = scale * std::sin(0.3 * i);
  const auto x = solve_tridiagonal(a, b, c, d);
  const auto x_ref = [&] {
    std::vector<double> au(n, -1.0), bu(n, 2.5), cu(n, -1.0), du(n);
    for (std::size_t i = 0; i < n; ++i) du[i] = std::sin(0.3 * i);
    return solve_tridiagonal(au, bu, cu, du);
  }();
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-9);
}

TEST(Tridiag, PeriodicResidual) {
  const std::size_t n = 10;
  std::vector<double> a(n, -1.0), b(n, 3.0), c(n, -1.0), d(n);
  for (std::size_t i = 0; i < n; ++i) d[i] = std::cos(0.5 * i);
  const auto x = solve_periodic_tridiagonal(a, b, c, d);
  for (std::size_t i = 0; i < n; ++i) {
    const double xm = x[(i + n - 1) % n], xp = x[(i + 1) % n];
    EXPECT_NEAR(a[i] * xm + b[i] * x[i] + c[i] * xp, d[i], 1e-10);
  }
}

// ---------- roots ----------

TEST(Roots, NewtonSqrtTwo) {
  const double r = newton([](double x) { return x * x - 2.0; },
                          [](double x) { return 2.0 * x; }, 1.0);
  EXPECT_NEAR(r, std::sqrt(2.0), 1e-12);
}

TEST(Roots, BrentTranscendental) {
  const double r = brent([](double x) { return std::cos(x) - x; }, 0.0, 1.0,
                         {.tol = 1e-14});
  EXPECT_NEAR(r, 0.7390851332151607, 1e-9);
}

TEST(Roots, BracketedNewtonForcedBisection) {
  // Derivative lies: safeguard must still find the root.
  const double r = newton_bracketed(
      [](double x) { return x * x * x - 8.0; },
      [](double) { return 1e-6; }, 0.0, 10.0, {.tol = 1e-12});
  EXPECT_NEAR(r, 2.0, 1e-8);
}

TEST(Roots, BisectionMatchesBrent) {
  auto f = [](double x) { return std::exp(x) - 3.0; };
  EXPECT_NEAR(bisection(f, 0.0, 2.0, {.tol = 1e-12}),
              brent(f, 0.0, 2.0, {.tol = 1e-14}), 1e-9);
}

TEST(Roots, ThrowsWithoutSignChange) {
  EXPECT_THROW(brent([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               std::invalid_argument);
}

// ---------- interpolation ----------

TEST(Interp, LinearExactOnLines) {
  LinearInterp f({0.0, 1.0, 2.0}, {1.0, 3.0, 5.0});
  EXPECT_NEAR(f(0.5), 2.0, 1e-15);
  EXPECT_NEAR(f(1.75), 4.5, 1e-15);
  EXPECT_NEAR(f.derivative(0.5), 2.0, 1e-15);
}

TEST(Interp, PchipMonotonePreserving) {
  // Data with a plateau: cubic splines overshoot, PCHIP must not.
  Pchip f({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 0.0, 1.0, 1.0, 1.0});
  for (double x = 0.0; x <= 4.0; x += 0.05) {
    EXPECT_GE(f(x), -1e-12);
    EXPECT_LE(f(x), 1.0 + 1e-12);
  }
}

TEST(Interp, PchipInterpolatesNodes) {
  const std::vector<double> xs{0.0, 0.4, 1.1, 2.0};
  const std::vector<double> ys{1.0, -0.2, 0.7, 3.0};
  Pchip f(xs, ys);
  for (std::size_t i = 0; i < xs.size(); ++i)
    EXPECT_NEAR(f(xs[i]), ys[i], 1e-13);
}

TEST(Interp, BilinearExactOnBilinearFunction) {
  BilinearTable t(0.0, 0.5, 5, 0.0, 0.25, 9);
  auto fun = [](double x, double y) { return 2.0 + 3.0 * x - y + 0.5 * x * y; };
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 9; ++j)
      t.at(i, j) = fun(0.5 * i, 0.25 * j);
  EXPECT_NEAR(t(0.7, 1.1), fun(0.7, 1.1), 1e-12);
  EXPECT_NEAR(t(1.999, 1.999), fun(1.999, 1.999), 1e-10);
}

TEST(Interp, BilinearReproducesEveryNodeExactly) {
  // Regression for the upper-edge defect: the old implementation nudged
  // queries on the last grid line by -1e-12 cells, so boundary nodes
  // (and especially the far corner) came back perturbed. Node queries
  // must be bit-exact everywhere, including all four edges.
  BilinearTable t(-1.0, 0.5, 4, 2.0, 0.25, 6);
  auto fun = [](double x, double y) { return std::sin(3.0 * x) + y * y; };
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      t.at(i, j) = fun(-1.0 + 0.5 * i, 2.0 + 0.25 * j);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_EQ(t(-1.0 + 0.5 * i, 2.0 + 0.25 * j),
                t.at(i, j))
          << "node (" << i << ", " << j << ")";
}

TEST(Interp, BilinearUpperEdgesInterpolateNotExtrapolate) {
  // Points ON the max-x / max-y grid lines (not at nodes) interpolate
  // along the edge; out-of-domain queries clamp to the edge value.
  BilinearTable t(0.0, 1.0, 3, 0.0, 1.0, 3);
  auto fun = [](double x, double y) { return 2.0 * x + 3.0 * y; };
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      t.at(i, j) = fun(static_cast<double>(i), static_cast<double>(j));
  EXPECT_NEAR(t(2.0, 0.5), fun(2.0, 0.5), 1e-14);  // max-x edge
  EXPECT_NEAR(t(1.3, 2.0), fun(1.3, 2.0), 1e-14);  // max-y edge
  EXPECT_EQ(t(2.0, 2.0), t.at(2, 2));              // far corner
  EXPECT_EQ(t(99.0, 99.0), t.at(2, 2));            // clamps, no blow-up
  EXPECT_EQ(t(-99.0, -99.0), t.at(0, 0));
}

TEST(Interp, RejectsNonMonotoneAbscissae) {
  EXPECT_THROW(LinearInterp({0.0, 2.0, 1.0}, {0.0, 1.0, 2.0}),
               std::invalid_argument);
}

// ---------- quadrature ----------

TEST(Quadrature, SimpsonExactForCubics) {
  const double v = simpson([](double x) { return x * x * x - x; }, 0.0, 2.0,
                           4);
  EXPECT_NEAR(v, 2.0, 1e-12);
}

TEST(Quadrature, GaussLegendreHighAccuracy) {
  const double v = gauss([](double x) { return std::exp(-x * x); }, -3.0,
                         3.0, 24);
  EXPECT_NEAR(v, std::sqrt(M_PI) * std::erf(3.0), 1e-10);
}

TEST(Quadrature, GaussNodesSymmetricAndWeightsSumToTwo) {
  std::vector<double> x, w;
  gauss_legendre(7, x, w);
  double wsum = 0.0;
  for (std::size_t i = 0; i < 7; ++i) {
    wsum += w[i];
    EXPECT_NEAR(x[i], -x[6 - i], 1e-14);
  }
  EXPECT_NEAR(wsum, 2.0, 1e-13);
}

TEST(Quadrature, ExpintKnownValues) {
  // Abramowitz & Stegun: E1(1) = 0.2193839344.
  EXPECT_NEAR(expint_e1(1.0), 0.21938393439552, 1e-10);
  EXPECT_NEAR(expint_e1(0.5), 0.55977359477616, 1e-10);
  // E2(0) = 1, E3(0) = 1/2.
  EXPECT_NEAR(expint_en(2, 0.0), 1.0, 1e-14);
  EXPECT_NEAR(expint_en(3, 0.0), 0.5, 1e-14);
  // E2(1) = e^{-1} - E1(1).
  EXPECT_NEAR(expint_en(2, 1.0), std::exp(-1.0) - expint_e1(1.0), 1e-12);
}

TEST(Quadrature, TrapzSampledData) {
  std::vector<double> x{0.0, 0.5, 1.0, 2.0};
  std::vector<double> y{0.0, 0.5, 1.0, 2.0};  // y = x
  EXPECT_NEAR(trapz(x, y), 2.0, 1e-14);
}

// ---------- ODE ----------

TEST(Ode, Rk4ConvergesOnExponential) {
  OdeRhs f = [](double, std::span<const double> y, std::span<double> dy) {
    dy[0] = -y[0];
  };
  std::vector<double> y{1.0};
  integrate_rk4(f, 0.0, 1.0, 100, y);
  EXPECT_NEAR(y[0], std::exp(-1.0), 1e-8);
}

TEST(Ode, Rkf45AdaptsAndHitsTolerance) {
  OdeRhs f = [](double t, std::span<const double> y, std::span<double> dy) {
    dy[0] = y[1];
    dy[1] = -y[0];
    (void)t;
  };
  std::vector<double> y{1.0, 0.0};
  integrate_rkf45(f, 0.0, 10.0, y, {.rel_tol = 1e-10, .abs_tol = 1e-12});
  EXPECT_NEAR(y[0], std::cos(10.0), 1e-7);
  EXPECT_NEAR(y[1], -std::sin(10.0), 1e-7);
}

TEST(Ode, StiffIntegratorHandlesRobertsonLikeProblem) {
  // Classic stiff system: fast/slow decay pair.
  OdeRhs f = [](double, std::span<const double> y, std::span<double> dy) {
    dy[0] = -1e4 * y[0] + 1.0;
    dy[1] = -y[1];
  };
  std::vector<double> y{1.0, 1.0};
  StiffIntegrator integ(f);
  StiffWorkspace ws;
  integ.integrate(0.0, 2.0, y, ws);
  EXPECT_NEAR(y[0], 1e-4, 1e-6);       // equilibrium of the fast mode
  EXPECT_NEAR(y[1], std::exp(-2.0), 1e-4);
}

TEST(Ode, StiffMatchesRk4OnNonstiff) {
  OdeRhs f = [](double, std::span<const double> y, std::span<double> dy) {
    dy[0] = -0.5 * y[0];
  };
  std::vector<double> y1{2.0}, y2{2.0};
  integrate_rk4(f, 0.0, 3.0, 300, y1);
  StiffIntegrator integ(f, {.rel_tol = 1e-10, .abs_tol = 1e-14});
  StiffWorkspace ws;
  integ.integrate(0.0, 3.0, y2, ws);
  EXPECT_NEAR(y1[0], y2[0], 1e-5);
}

// ---------- limiters ----------

TEST(Limiters, AllVanishAtExtrema) {
  for (auto lim : {Limiter::kMinmod, Limiter::kVanLeer, Limiter::kVanAlbada,
                   Limiter::kSuperbee}) {
    EXPECT_EQ(limited_slope(lim, 1.0, -1.0), 0.0);
    EXPECT_EQ(limited_slope(lim, -0.5, 0.2), 0.0);
  }
}

TEST(Limiters, SymmetricInSmoothRegions) {
  for (auto lim : {Limiter::kMinmod, Limiter::kVanLeer, Limiter::kVanAlbada,
                   Limiter::kSuperbee}) {
    EXPECT_NEAR(limited_slope(lim, 1.0, 1.0), 1.0, 1e-14);
  }
}

TEST(Limiters, BoundedByTwiceSmallerSlope) {
  for (auto lim : {Limiter::kMinmod, Limiter::kVanLeer, Limiter::kVanAlbada,
                   Limiter::kSuperbee}) {
    const double s = limited_slope(lim, 0.3, 2.0);
    EXPECT_LE(std::fabs(s), 2.0 * 0.3 + 1e-14);
  }
}

// Property sweep: tanh-clustered quadrature of expint behaves smoothly.
class ExpintSweep : public ::testing::TestWithParam<double> {};

TEST_P(ExpintSweep, RecurrenceConsistency) {
  // n E_{n+1}(x) = e^{-x} - x E_n(x)
  const double x = GetParam();
  for (int n = 1; n <= 3; ++n) {
    const double lhs = static_cast<double>(n) * expint_en(n + 1, x);
    const double rhs = std::exp(-x) - x * expint_en(n, x);
    EXPECT_NEAR(lhs, rhs, 1e-12 + 1e-10 * std::fabs(rhs));
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ExpintSweep,
                         ::testing::Values(0.05, 0.2, 0.7, 1.0, 2.5, 8.0,
                                           20.0));

}  // namespace
