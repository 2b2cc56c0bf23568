#include "numerics/roots.hpp"

#include <cmath>

#include "core/error.hpp"

namespace cat::numerics {

double newton(const std::function<double(double)>& f,
              const std::function<double(double)>& dfdx, double x0,
              const RootOptions& opt) {
  double x = x0;
  for (std::size_t it = 0; it < opt.max_iter; ++it) {
    const double fx = f(x);
    const double d = dfdx(x);
    if (std::fabs(d) < 1e-300) throw SolverError("newton: zero derivative");
    const double dx = fx / d;
    x -= dx;
    if (!std::isfinite(x)) throw SolverError("newton: diverged");
    if (std::fabs(dx) <= opt.tol * std::max(1.0, std::fabs(x))) return x;
  }
  throw SolverError("newton: max_iter exceeded");
}

double newton_bracketed(const std::function<double(double)>& f,
                        const std::function<double(double)>& dfdx, double lo,
                        double hi, const RootOptions& opt) {
  CAT_REQUIRE(lo < hi, "invalid bracket");
  double flo = f(lo), fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  CAT_REQUIRE(flo * fhi < 0.0, "bracket does not change sign");

  double x = 0.5 * (lo + hi);
  for (std::size_t it = 0; it < opt.max_iter; ++it) {
    const double fx = f(x);
    if (fx * flo < 0.0) {
      hi = x;
      fhi = fx;
    } else {
      lo = x;
      flo = fx;
    }
    const double d = dfdx(x);
    double xn = (std::fabs(d) > 1e-300) ? x - fx / d : lo - 1.0;  // force bisect
    if (!(xn > lo && xn < hi)) xn = 0.5 * (lo + hi);
    if (std::fabs(xn - x) <= opt.tol * std::max(1.0, std::fabs(xn))) return xn;
    x = xn;
  }
  throw SolverError("newton_bracketed: max_iter exceeded");
}

double brent(const std::function<double(double)>& f, double lo, double hi,
             const RootOptions& opt) {
  const double f_lo = f(lo), f_hi = f(hi);
  return brent(f, lo, hi, f_lo, f_hi, opt);
}

double brent(const std::function<double(double)>& f, double lo, double hi,
             double f_lo, double f_hi, const RootOptions& opt) {
  double a = lo, b = hi;
  double fa = f_lo, fb = f_hi;
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  CAT_REQUIRE(fa * fb < 0.0, "brent: bracket does not change sign");
  double c = a, fc = fa;
  double d = b - a, e = d;
  for (std::size_t it = 0; it < std::max<std::size_t>(opt.max_iter, 200); ++it) {
    if (std::fabs(fc) < std::fabs(fb)) {
      a = b; b = c; c = a;
      fa = fb; fb = fc; fc = fa;
    }
    const double tol1 = 2.0 * 1e-16 * std::fabs(b) + 0.5 * opt.tol;
    const double xm = 0.5 * (c - b);
    if (std::fabs(xm) <= tol1 || fb == 0.0) return b;
    if (std::fabs(e) >= tol1 && std::fabs(fa) > std::fabs(fb)) {
      // Attempt inverse quadratic interpolation.
      const double s = fb / fa;
      double p, q;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc, r = fb / fc;
        p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::fabs(p);
      if (2.0 * p < std::min(3.0 * xm * q - std::fabs(tol1 * q),
                             std::fabs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    b += (std::fabs(d) > tol1) ? d : (xm > 0 ? tol1 : -tol1);
    fb = f(b);
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
  }
  throw SolverError("brent: max_iter exceeded");
}

double bisection(const std::function<double(double)>& f, double lo, double hi,
                 const RootOptions& opt) {
  double flo = f(lo);
  const double fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  CAT_REQUIRE(flo * fhi < 0.0, "bisection: bracket does not change sign");
  // cat-lint: converges-by-construction (the bracket halves every
  // iteration and was sign-checked above; >= 200 halvings exhaust double
  // precision, so the final midpoint is as converged as the type allows)
  for (std::size_t it = 0; it < std::max<std::size_t>(opt.max_iter, 200); ++it) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    if (fm == 0.0 || (hi - lo) < opt.tol * std::max(1.0, std::fabs(mid)))
      return mid;
    if (fm * flo < 0.0) {
      hi = mid;
    } else {
      lo = mid;
      flo = fm;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace cat::numerics
