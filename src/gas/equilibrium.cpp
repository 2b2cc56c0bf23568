#include "gas/equilibrium.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo.hpp"
#include "numerics/linalg.hpp"
#include "numerics/roots.hpp"

namespace cat::gas {

using constants::kPressureRef;
using constants::kRu;
using numerics::Matrix;

// cat-lint: allow-alloc(construction: binds the species data once)
EquilibriumSolver::EquilibriumSolver(SpeciesSet set,
                                     std::array<double, kNumElements> b)
    : mix_(std::move(set)), b_(b) {
  // Species containing an element of zero abundance are pinned to zero
  // (their mole fraction would be exactly zero at the optimum, but a free
  // potential for that element would never converge).
  const std::size_t q = static_cast<std::size_t>(Element::kCharge);
  enabled_.assign(mix_.n_species(), true);
  for (std::size_t s = 0; s < mix_.n_species(); ++s) {
    for (std::size_t e = 0; e < kNumElements; ++e) {
      if (e == q) continue;
      if (mix_.set().species(s).composition[e] != 0 && b_[e] == 0.0)
        enabled_[s] = false;
    }
  }
  // An element is active when some *enabled* species contains it. The
  // charge pseudo-element is active when ions/electrons survive even
  // though its abundance is zero (neutrality).
  for (std::size_t e = 0; e < kNumElements; ++e) {
    bool present = false;
    for (std::size_t s = 0; s < mix_.n_species(); ++s)
      present |= enabled_[s] && (mix_.set().species(s).composition[e] != 0);
    if (present) {
      active_elements_.push_back(e);
    } else {
      CAT_REQUIRE(b_[e] == 0.0,
                  "element abundance given for element absent from set");
    }
  }
  CAT_REQUIRE(!active_elements_.empty(), "no active elements");
  const std::size_t ns = mix_.n_species();
  comp_.resize(active_elements_.size() * ns);
  for (std::size_t i = 0; i < active_elements_.size(); ++i)
    for (std::size_t s = 0; s < ns; ++s)
      comp_[i * ns + s] =
          mix_.set().species(s).composition[active_elements_[i]];
}

EquilibriumSolver::EquilibriumSolver(
    SpeciesSet set,
    const std::vector<std::pair<std::string, double>>& cold)
    : EquilibriumSolver(std::move(set), element_moles_per_kg(cold)) {}

namespace {

// Newton budgets. A cold start takes ~45-70 damped iterations (steps of at
// most 2 in the potentials). A warm start converges in a handful from a
// nearby state and in tens from a distant one (a bracket end); one still
// short of 1e-12 after kWarmIter iterations is abandoned for the cold
// path. 60 gave the fewest total iterations over the smoke pulse cases:
// 30 gives up on many distant Titan starts that would converge, 100
// spends longer on the ones that never do.
constexpr int kColdIter = 300;
constexpr int kWarmIter = 60;

// Converged states one inversion call remembers. Brent's answer is one of
// its last few evaluations; an evicted one is simply evaluated again.
constexpr std::size_t kMemory = 16;

// Mixture specific entropy [J/(kg K)], including the entropy of mixing
// (each species at its partial pressure).
double entropy_of(const Mixture& mix, double t, double p,
                  std::span<const double> x, double molar_mass) {
  double s_mix = 0.0;  // [J/(mol K)] per mole of mixture
  for (std::size_t s = 0; s < mix.n_species(); ++s) {
    if (x[s] <= 0.0) continue;
    s_mix += x[s] * entropy_mole(mix.set().species(s), t, p * x[s]);
  }
  return s_mix / molar_mass;
}

void normalize(std::span<double> x) {
  double sx = 0.0;
  for (double v : x) sx += v;
  for (double& v : x) v /= sx;
}

// Temperature bracket of the (p, h) inversion [K].
constexpr double kTLo = 150.0, kTHi = 40000.0;
// First growth factor of a hinted bracket. Successive stagnation-line
// queries sit within a few percent of each other in T; squaring the
// factor each step still reaches either clamp in about eight steps.
constexpr double kHintGrowth = 1.02;

// Root in [lo, hi] of a residual increasing in T, or the clamp end when
// the residual keeps one sign up to it. The bracket grows from t0 toward
// the sign change by the factor `grow`, squared after every step, then
// Brent closes it. t0 = lo or hi with an infinite factor is the plain
// full-bracket search: that end, then the other, then Brent.
double bracket_root(const std::function<double(double)>& resid, double lo,
                    double hi, double t0, double grow) {
  double t = t0, f = resid(t0);
  if (f == 0.0) return t;
  const bool up = f < 0.0;  // the root lies above t0
  const double clamp_end = up ? hi : lo;
  double t_near = t, f_near = f;
  // Each step moves t by a factor of at least 1.02 toward the clamp end
  // (clamped to it), so the search ends at the clamp or a sign change.
  while ((up ? f < 0.0 : f > 0.0) && t != clamp_end) {
    t_near = t;
    f_near = f;
    t = up ? std::min(t * grow, hi) : std::max(t / grow, lo);
    grow *= grow;
    f = resid(t);
  }
  if (up ? f < 0.0 : f > 0.0) return t;  // beyond the bracket: clamp
  return up ? numerics::brent(resid, t_near, t, f_near, f, {.tol = 1e-10})
            : numerics::brent(resid, t, t_near, f, f_near, {.tol = 1e-10});
}

}  // namespace

// One equilibrium state converged during the current call.
struct EquilibriumSolver::Trial {
  double t = 0.0, p = 0.0;
  double molar_mass = 0.0;  // [kg/mol]
  double h = 0.0;           // [J/kg]
  /// pi_u holds converged potentials (false after a loosely accepted
  /// stall, whose potentials are not a solution).
  bool has_potentials = false;
  std::size_t seq = 0;  // evaluation order, from 1; 0 marks an empty slot
  std::span<double> pi_u, x;

  double e() const { return h - kRu / molar_mass * t; }
};

struct EquilibriumSolver::Scratch {
  explicit Scratch(const EquilibriumSolver& eq);
  // The spans view buf, so a copy would alias the original's storage.
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  /// The remembered state with converged potentials nearest in
  /// temperature (the latest on a tie), or null.
  const Trial* nearest(double t) const {
    const Trial* best = nullptr;
    for (const Trial& st : memory) {
      if (st.seq == 0 || !st.has_potentials) continue;
      if (!best || std::fabs(st.t - t) < std::fabs(best->t - t) ||
          (std::fabs(st.t - t) == std::fabs(best->t - t) &&
           st.seq > best->seq))
        best = &st;
    }
    return best;
  }

  /// The latest state evaluated at exactly \p t, or null.
  const Trial* latest_at(double t) const {
    const Trial* found = nullptr;
    for (const Trial& st : memory)
      if (st.seq != 0 && st.t == t && (!found || st.seq > found->seq))
        found = &st;
    return found;
  }

  /// The state \p resid evaluated at \p t; one since evicted is evaluated
  /// again (resid remembers every state it evaluates).
  const Trial& recall(double t, const std::function<double(double)>& resid) {
    if (!latest_at(t)) resid(t);
    return *latest_at(t);
  }

  /// Potentials a caller's hint supplies for the first trial (empty: none).
  std::span<const double> seed;
  std::vector<double> buf;
  // Newton state and temporaries; cont carries the potentials along the
  // cold path's temperature continuation. h_mass holds each species'
  // enthalpy_mass at the temperature of the latest Newton solve.
  std::span<double> mu0, h_mass, x, best_x, y, ax, res, step, lu_tmp, pi_u,
      cont;
  Matrix jac, lu;
  std::vector<std::size_t> piv;
  std::array<Trial, kMemory> memory;
  std::size_t n_evaluated = 0;
};

// cat-lint: allow-alloc(per-call scratch: one buffer, two matrices and a
// pivot array per public call, sized by the species set)
EquilibriumSolver::Scratch::Scratch(const EquilibriumSolver& eq)
    : jac(eq.active_elements_.size() + 1, eq.active_elements_.size() + 1),
      lu(jac),
      piv(jac.rows()) {
  const std::size_t ns = eq.mix_.n_species();
  const std::size_t ne = eq.active_elements_.size(), m = ne + 1;
  buf.assign(5 * ns + ne + 5 * m + kMemory * (m + ns), 0.0);
  std::size_t used = 0;
  auto take = [&](std::size_t n) {
    const std::span<double> out = std::span<double>(buf).subspan(used, n);
    used += n;
    return out;
  };
  mu0 = take(ns);
  h_mass = take(ns);
  x = take(ns);
  best_x = take(ns);
  y = take(ns);
  ax = take(ne);
  res = take(m);
  step = take(m);
  lu_tmp = take(m);
  pi_u = take(m);
  cont = take(m);
  for (Trial& st : memory) {
    st.pi_u = take(m);
    st.x = take(ns);
  }
}

// Damped Newton on the element potentials pi and u = ln(total moles/kg) at
// (t, p), from `start` (pi..., u) or, when empty, from the cold start.
// Returns true when the residual reaches 1e-12: ws.x holds the mole
// fractions and ws.pi_u the potentials. On exhaustion a speculative (warm)
// attempt returns false so its caller can fall back to the cold path;
// otherwise the best iterate is accepted when within 1e-8 (ws.x; returns
// false, ws.pi_u is no solution), and anything worse throws.
bool EquilibriumSolver::newton(double t, double p,
                               std::span<const double> start,
                               bool speculative, Scratch& ws) const {
  CAT_REQUIRE(t > 0.0 && p > 0.0, "state must be positive");
  const std::size_t ns = mix_.n_species();
  const std::size_t ne = active_elements_.size();

  // mu0[s] = g_s(T, p_ref)/(Ru T) + ln(p/p_ref): standard-state chemical
  // potential in Ru*T units at the mixture pressure, g = h - T s from one
  // thermodynamic pass per species. The same pass leaves each species'
  // enthalpy for evaluate().
  for (std::size_t s = 0; s < ns; ++s) {
    const Species& sp = mix_.set().species(s);
    const EnthalpyEntropy hs = enthalpy_entropy_mole(sp, t, kPressureRef);
    ws.mu0[s] = (hs.h - t * hs.s) / (kRu * t) + std::log(p / kPressureRef);
    ws.h_mass[s] = hs.h / sp.molar_mass;
  }

  double b_scale = 0.0;
  for (std::size_t e : active_elements_) b_scale = std::max(b_scale, b_[e]);
  CAT_REQUIRE(b_scale > 0.0, "zero elemental abundance");

  const std::span<double> pi = ws.pi_u.first(ne);
  double& u = ws.pi_u[ne];
  if (start.size() == ne + 1) {
    std::copy(start.begin(), start.end(), ws.pi_u.begin());
  } else {
    std::fill(pi.begin(), pi.end(), 0.0);
    u = std::log(2.0 * b_scale);
  }

  const std::span<double> x = ws.x, res = ws.res, step = ws.step;
  Matrix& jac = ws.jac;
  double best_rnorm = 1e300;
  const int max_iter = speculative ? kWarmIter : kColdIter;
  for (int iter = 0; iter < max_iter; ++iter) {
    const double n_total = std::exp(u);
    for (std::size_t s = 0; s < ns; ++s) {
      if (!enabled_[s]) {
        x[s] = 0.0;
        continue;
      }
      double zz = -ws.mu0[s];
      for (std::size_t i = 0; i < ne; ++i) zz += comp_[i * ns + s] * pi[i];
      // Overflow guard; step limiting keeps genuine solutions far below.
      x[s] = std::exp(std::min(zz, 200.0));
    }

    // Residuals: element balances (ax[i] = sum_s a_is x_s), then sum x = 1.
    double rnorm = 0.0;
    for (std::size_t i = 0; i < ne; ++i) {
      double acc = 0.0;
      for (std::size_t s = 0; s < ns; ++s) acc += comp_[i * ns + s] * x[s];
      ws.ax[i] = acc;
      res[i] = (n_total * acc - b_[active_elements_[i]]) / b_scale;
      rnorm = std::max(rnorm, std::fabs(res[i]));
    }
    {
      double sx = 0.0;
      for (std::size_t s = 0; s < ns; ++s) sx += x[s];
      res[ne] = sx - 1.0;
      rnorm = std::max(rnorm, std::fabs(res[ne]));
    }
    if (rnorm < best_rnorm) {
      best_rnorm = rnorm;
      std::copy(x.begin(), x.end(), ws.best_x.begin());
    }
    if (rnorm < 1e-12) {
      normalize(x);  // remove residual drift
      return true;
    }

    // Jacobian (symmetric in the element block).
    for (std::size_t i = 0; i < ne; ++i) {
      const double* ai = &comp_[i * ns];
      for (std::size_t j = 0; j <= i; ++j) {
        const double* aj = &comp_[j * ns];
        double acc = 0.0;
        for (std::size_t s = 0; s < ns; ++s) acc += ai[s] * aj[s] * x[s];
        jac(i, j) = jac(j, i) = n_total * acc / b_scale;
      }
      jac(i, ne) = n_total * ws.ax[i] / b_scale;  // d/d(lnN)
      jac(ne, i) = ws.ax[i];
    }
    jac(ne, ne) = 0.0;

    ws.lu = jac;  // same shape: copies into the existing storage
    if (!numerics::try_lu_factor_inplace(ws.lu, ws.piv)) {
      // Singular Jacobian: at low temperature the trace species that pin
      // individual element potentials underflow, leaving a null direction
      // (only combinations like pi_C + 4 pi_H are determined). A ridge
      // selects the minimum-norm Newton step in that case.
      double dmax = 0.0;
      for (std::size_t i = 0; i <= ne; ++i)
        dmax = std::max(dmax, std::fabs(jac(i, i)));
      ws.lu = jac;
      for (std::size_t i = 0; i <= ne; ++i)
        ws.lu(i, i) += 1e-10 * (dmax + 1e-30);
      if (!numerics::try_lu_factor_inplace(ws.lu, ws.piv)) {
        for (double& v : pi) v += 1e-3;
        continue;
      }
    }
    std::copy(res.begin(), res.end(), step.begin());
    numerics::lu_solve_inplace(ws.lu, ws.piv, step, ws.lu_tmp);
    // Damped Newton: cap the step so exp() stays controlled.
    double smax = 0.0;
    for (double v : step) smax = std::max(smax, std::fabs(v));
    const double damp = smax > 2.0 ? 2.0 / smax : 1.0;
    for (std::size_t i = 0; i < ne; ++i) pi[i] -= damp * step[i];
    u -= damp * step[ne];
    u = std::clamp(u, std::log(b_scale * 1e-6), std::log(b_scale * 1e6));
  }
  if (speculative) return false;
  // Newton stalled (typically a residual plateau along a numerically null
  // potential direction at low temperature). Accept the best iterate when
  // it already satisfies a slightly looser engineering tolerance.
  if (best_rnorm < 1e-8) {
    std::copy(ws.best_x.begin(), ws.best_x.end(), x.begin());
    normalize(x);
    return false;
  }
  throw SolverError("EquilibriumSolver: Newton failed to converge");
}

bool EquilibriumSolver::solve_cold(double t, double p, Scratch& ws) const {
  try {
    return newton(t, p, {}, false, ws);
  } catch (const SolverError&) {
    // Continuation in temperature: equilibrium at ~6000 K converges from a
    // cold start for every CAT mixture; walk toward the target T reusing
    // the element potentials of each strictly converged step.
    std::span<const double> warm;
    auto step_to = [&](double tt) {
      const bool converged = newton(tt, p, warm, false, ws);
      if (converged) {
        std::copy(ws.pi_u.begin(), ws.pi_u.end(), ws.cont.begin());
        warm = ws.cont;
      }
      return converged;
    };
    const double t_cur = 6000.0;
    step_to(t_cur);
    const int steps = 40;
    for (int i = 1; i <= steps; ++i) {
      const double frac = static_cast<double>(i) / steps;
      step_to(t_cur * std::pow(t / t_cur, frac));
    }
    return step_to(t);
  }
}

const EquilibriumSolver::Trial& EquilibriumSolver::evaluate(
    double t, double p, Scratch& ws) const {
  const Trial* near = ws.nearest(t);
  const std::span<const double> start = near ? near->pi_u : ws.seed;
  const bool converged = (!start.empty() && newton(t, p, start, true, ws)) ||
                         solve_cold(t, p, ws);
  Trial& st = ws.memory[ws.n_evaluated++ % kMemory];
  st.t = t;
  st.p = p;
  st.seq = ws.n_evaluated;
  st.has_potentials = converged;
  std::copy(ws.pi_u.begin(), ws.pi_u.end(), st.pi_u.begin());
  std::copy(ws.x.begin(), ws.x.end(), st.x.begin());
  // The totals package() reports, computed here once per state. Newton's
  // last pass was at (t, p), so ws.h_mass holds the species enthalpies at
  // t (Mixture::enthalpy_mass's sum, without evaluating them again).
  mix_.mass_fractions_from_moles(st.x, ws.y);
  st.molar_mass = 0.0;
  st.h = 0.0;
  for (std::size_t s = 0; s < mix_.n_species(); ++s) {
    st.molar_mass += st.x[s] * mix_.set().species(s).molar_mass;
    if (ws.y[s] != 0.0) st.h += ws.y[s] * ws.h_mass[s];
  }
  return st;
}

// cat-lint: allow-alloc(result packaging: the owned copy a call returns)
EquilibriumResult EquilibriumSolver::package(const Trial& st) const {
  EquilibriumResult out;
  out.t = st.t;
  out.p = st.p;
  out.x.assign(st.x.begin(), st.x.end());
  out.y.resize(out.x.size());
  mix_.mass_fractions_from_moles(out.x, out.y);
  out.molar_mass = st.molar_mass;
  const double r = kRu / out.molar_mass;
  out.rho = st.p / (r * st.t);
  out.h = st.h;
  out.e = st.e();
  out.gamma_eff = out.e != 0.0 ? st.p / (out.rho * std::fabs(out.e)) + 1.0
                               : 0.0;
  if (st.has_potentials)
    out.potentials.assign(st.pi_u.begin(), st.pi_u.end());
  return out;
}

EquilibriumResult EquilibriumSolver::solve_tp(double t, double p) const {
  Scratch ws(*this);
  return package(evaluate(t, p, ws));
}

EquilibriumResult EquilibriumSolver::solve_rho_e(double rho, double e) const {
  CAT_REQUIRE(rho > 0.0, "density must be positive");
  Scratch ws(*this);
  // For a trial temperature, pressure follows from rho and the converged
  // molar mass: p = rho Ru T / Mbar(T, p). Mbar depends weakly on p, so a
  // short fixed-point iteration suffices; its last iterate is the state.
  // cat-lint: allow-alloc(per-call residual closure)
  const std::function<double(double)> resid = [&](double t) {
    double mbar = 0.0288;  // air-like initial guess
    const Trial* st = nullptr;
    for (int k = 0; k < 40; ++k) {
      st = &evaluate(t, rho * kRu * t / mbar, ws);
      if (std::fabs(st->molar_mass - mbar) < 1e-12) break;
      mbar = st->molar_mass;
    }
    return st->e() - e;
  };

  double lo = 150.0;
  const double hi = 40000.0;
  // The residual is monotone in T; make sure the bracket straddles.
  double f_lo = resid(lo);
  if (f_lo > 0.0) {
    lo = 50.0;
    f_lo = resid(lo);
    if (f_lo > 0.0)
      throw SolverError(
          "EquilibriumSolver::solve_rho_e: energy below the 50 K "
          "equilibrium state (cold end of the temperature bracket)");
  }
  const double f_hi = resid(hi);
  if (f_hi < 0.0) {
    // Energy beyond the bracket: clamp at the maximum temperature.
    return package(ws.recall(hi, resid));
  }
  const double t_sol =
      numerics::brent(resid, lo, hi, f_lo, f_hi, {.tol = 1e-10});
  return package(ws.recall(t_sol, resid));
}

EquilibriumResult EquilibriumSolver::solve_ph(
    double p, double h, const EquilibriumResult* hint) const {
  Scratch ws(*this);
  // cat-lint: allow-alloc(per-call residual closure)
  const std::function<double(double)> resid = [&](double t) {
    return evaluate(t, p, ws).h - h;
  };
  // Unhinted: the full bracket, hot end first.
  double t0 = kTHi, grow = std::numeric_limits<double>::infinity();
  if (hint) {
    if (hint->potentials.size() == ws.pi_u.size()) ws.seed = hint->potentials;
    t0 = std::clamp(hint->t, kTLo, kTHi);
    grow = kHintGrowth;
  }
  return package(ws.recall(bracket_root(resid, kTLo, kTHi, t0, grow), resid));
}

double EquilibriumSolver::entropy(const EquilibriumResult& st) const {
  return entropy_of(mix_, st.t, st.p, st.x, st.molar_mass);
}

EquilibriumResult EquilibriumSolver::expand_isentropic(
    const EquilibriumResult& from, double p) const {
  CAT_REQUIRE(p > 0.0, "pressure must be positive");
  Scratch ws(*this);
  const double s_target = entropy(from);
  // cat-lint: allow-alloc(per-call residual closure)
  const std::function<double(double)> resid = [&](double t) {
    const Trial& st = evaluate(t, p, ws);
    return entropy_of(mix_, st.t, st.p, st.x, st.molar_mass) - s_target;
  };
  // Entropy rises monotonically with T at fixed p; full bracket, cold end
  // first.
  const double lo = 160.0;
  return package(ws.recall(
      bracket_root(resid, lo, kTHi, lo,
                   std::numeric_limits<double>::infinity()),
      resid));
}

double EquilibriumSolver::sound_speed(const EquilibriumResult& st) const {
  // a^2 = (dp/drho)_e + (p/rho^2)(dp/de)_rho, evaluated by centered
  // differences of the equilibrium EOS.
  const double drho = 1e-4 * st.rho;
  const double de = 1e-4 * std::max(std::fabs(st.e), 1e5);
  const EquilibriumResult r1 = solve_rho_e(st.rho + drho, st.e);
  const EquilibriumResult r2 = solve_rho_e(st.rho - drho, st.e);
  const EquilibriumResult e1 = solve_rho_e(st.rho, st.e + de);
  const EquilibriumResult e2 = solve_rho_e(st.rho, st.e - de);
  const double dp_drho = (r1.p - r2.p) / (2.0 * drho);
  const double dp_de = (e1.p - e2.p) / (2.0 * de);
  const double a2 = dp_drho + st.p / (st.rho * st.rho) * dp_de;
  if (a2 <= 0.0) throw SolverError("equilibrium sound speed imaginary");
  return std::sqrt(a2);
}

}  // namespace cat::gas
