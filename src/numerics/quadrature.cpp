#include "numerics/quadrature.hpp"

#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace cat::numerics {

double trapz(std::span<const double> x, std::span<const double> y) {
  CAT_REQUIRE(x.size() == y.size(), "trapz size mismatch");
  CAT_REQUIRE(x.size() >= 2, "trapz needs at least two samples");
  double acc = 0.0;
  for (std::size_t i = 1; i < x.size(); ++i)
    acc += 0.5 * (y[i] + y[i - 1]) * (x[i] - x[i - 1]);
  return acc;
}

double simpson(const std::function<double(double)>& f, double a, double b,
               std::size_t n) {
  CAT_REQUIRE(n > 0, "simpson needs n > 0");
  if (n % 2 != 0) ++n;
  const double h = (b - a) / static_cast<double>(n);
  double acc = f(a) + f(b);
  for (std::size_t i = 1; i < n; ++i) {
    const double w = (i % 2 == 1) ? 4.0 : 2.0;
    acc += w * f(a + h * static_cast<double>(i));
  }
  return acc * h / 3.0;
}

void gauss_legendre(std::size_t n, std::vector<double>& nodes,
                    std::vector<double>& weights) {
  CAT_REQUIRE(n >= 1, "need at least one node");
  nodes.assign(n, 0.0);
  weights.assign(n, 0.0);
  const std::size_t m = (n + 1) / 2;
  for (std::size_t i = 0; i < m; ++i) {
    // Chebyshev-based initial guess, then Newton on P_n.
    double x = std::cos(M_PI * (static_cast<double>(i) + 0.75) /
                        (static_cast<double>(n) + 0.5));
    double pp = 0.0;
    bool converged = false;
    for (int iter = 0; iter < 100; ++iter) {
      double p0 = 1.0, p1 = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double p2 = p1;
        p1 = p0;
        p0 = ((2.0 * static_cast<double>(j) + 1.0) * x * p1 -
              static_cast<double>(j) * p2) /
             (static_cast<double>(j) + 1.0);
      }
      pp = static_cast<double>(n) * (x * p0 - p1) / (x * x - 1.0);
      const double dx = p0 / pp;
      x -= dx;
      if (std::fabs(dx) < 1e-15) {
        converged = true;
        break;
      }
    }
    if (!converged) {
      // Newton from the Chebyshev seed converges in a handful of steps for
      // every reachable n; exhausting the budget means the node (and with
      // it every downstream quadrature) would be silently inaccurate.
      throw SolverError("gauss_legendre: Newton failed to converge on a "
                        "Legendre root");
    }
    nodes[i] = -x;
    nodes[n - 1 - i] = x;
    const double w = 2.0 / ((1.0 - x * x) * pp * pp);
    weights[i] = w;
    weights[n - 1 - i] = w;
  }
}

double gauss(const std::function<double(double)>& f, double a, double b,
             std::size_t n) {
  std::vector<double> x, w;
  gauss_legendre(n, x, w);
  const double mid = 0.5 * (a + b), half = 0.5 * (b - a);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += w[i] * f(mid + half * x[i]);
  return acc * half;
}

double expint_e1(double x) {
  CAT_REQUIRE(x > 0.0, "E1 requires x > 0");
  constexpr double euler = 0.5772156649015328606;
  if (x <= 1.0) {
    // Power series: E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k/(k k!)
    double sum = 0.0, term = 1.0;
    for (int k = 1; k <= 60; ++k) {
      term *= -x / static_cast<double>(k);
      const double add = -term / static_cast<double>(k);
      sum += add;
      if (std::fabs(add) < 1e-18 * std::fabs(sum)) break;
    }
    return -euler - std::log(x) + sum;
  }
  // Continued fraction (Lentz) for x > 1.
  const double tiny = 1e-300;
  double b = x + 1.0, c = 1.0 / tiny, d = 1.0 / b, h = d;
  for (int i = 1; i <= 200; ++i) {
    const double a = -static_cast<double>(i) * static_cast<double>(i);
    b += 2.0;
    d = a * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + a / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double del = c * d;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-15) break;
  }
  return h * std::exp(-x);
}

double expint_en(int n, double x) {
  CAT_REQUIRE(n >= 1, "E_n requires n >= 1");
  CAT_REQUIRE(x >= 0.0, "E_n requires x >= 0");
  if (x == 0.0) {
    CAT_REQUIRE(n > 1, "E1(0) diverges");
    return 1.0 / static_cast<double>(n - 1);
  }
  if (x > 700.0) return 0.0;  // exp(-x) underflows anyway
  double e = expint_e1(x);
  // Upward recurrence: E_{n+1}(x) = (e^{-x} - x E_n(x)) / n  — stable for
  // the small n (2, 3) used by the tangent-slab solver.
  for (int k = 1; k < n; ++k)
    e = (std::exp(-x) - x * e) / static_cast<double>(k);
  return e;
}

}  // namespace cat::numerics
