#include "solvers/relax1d/relax1d.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo.hpp"
#include "numerics/ode.hpp"
#include "numerics/roots.hpp"

namespace cat::solvers {

using gas::constants::kRu;

PostShockRelaxation::PostShockRelaxation(const chemistry::Mechanism& mech,
                                         Options opt)
    : mech_(mech), ttg_(mech.species_set()), opt_(opt) {
  CAT_REQUIRE(opt_.x_max_m > 0.0 && opt_.n_samples >= 8, "bad options");
}

namespace {
/// Gas constants of the heavy-particle and electron partial mixtures.
struct SplitR {
  double r_heavy, r_electron;
};
SplitR split_gas_constant(const gas::SpeciesSet& set,
                          std::span<const double> y) {
  SplitR r{0.0, 0.0};
  for (std::size_t s = 0; s < set.size(); ++s) {
    const gas::Species& sp = set.species(s);
    const double rs = y[s] * kRu / sp.molar_mass;
    if (sp.is_electron()) {
      r.r_electron += rs;
    } else {
      r.r_heavy += rs;
    }
  }
  return r;
}

/// T(h) at fixed composition with the vibronic pool frozen at Tv:
///   h = e_ref + cv_tr T + ev(Tv) + (rh T + re Tv)
/// is linear in T (translation and rotation are classical), so one probe
/// evaluation per (y, Tv) fixes the line for every h.
struct FrozenVibronicLine {
  static constexpr double kTProbe = 1000.0;
  double h_probe, slope;

  double t_of_h(double h) const { return kTProbe + (h - h_probe) / slope; }
};
FrozenVibronicLine frozen_vibronic_line(const gas::TwoTemperatureGas& ttg,
                                        std::span<const double> y, double tv,
                                        SplitR r, double cv_tr) {
  const double t = FrozenVibronicLine::kTProbe;
  return {ttg.energy(y, t, tv) + r.r_heavy * t + r.r_electron * tv,
          cv_tr + r.r_heavy};
}

/// Density residual of the algebraic state recovery at fixed (y, Tv):
/// momentum gives p, energy gives h and so T, and the equation of state
/// closes. brent takes the residual through a std::function, which
/// heap-allocates a closure larger than two pointers, so the closure
/// captures one reference to this struct.
struct StateRecovery {
  const gas::TwoTemperatureGas& ttg;
  std::span<const double> y;
  double m_flux, p_flux, h_total;
  double tv;  ///< frozen vibronic temperature; <= 0 in one-temperature mode
  SplitR r;
  double cv_tr;
  FrozenVibronicLine line;  ///< two-temperature mode only

  double t_of_h(double h_target) const {
    // Two-temperature: vibronic pool frozen at tv -> h linear in T.
    if (tv > 0.0) return std::clamp(line.t_of_h(h_target), 50.0, 100000.0);
    // One-temperature: h(T, T) nonlinear (vibration at T) -> Newton.
    const double rh = r.r_heavy, re = r.r_electron;
    double t = 5000.0;
    // cat-lint: converges-by-construction (clamped Newton on a smooth,
    // monotone h(T); the result only seeds the outer density bisection's
    // residual, which tolerates an inexact inversion)
    for (int it = 0; it < 80; ++it) {
      const double h = ttg.energy(y, t, t) + (rh + re) * t;
      const double cp = cv_tr + ttg.vibronic_cv(y, t) + rh + re;
      const double tn = std::clamp(t - (h - h_target) / cp, 50.0, 100000.0);
      if (std::fabs(tn - t) < 1e-10 * t) return tn;
      t = tn;
    }
    return t;
  }

  double residual(double rho) const {
    const double u = m_flux / rho;
    const double p_mom = p_flux - m_flux * u;
    const double h_tgt = h_total - 0.5 * u * u;
    const double t = t_of_h(h_tgt);
    const double tve = tv > 0.0 ? tv : t;
    const double p_eos = rho * (r.r_heavy * t + r.r_electron * tve);
    return p_eos - p_mom;
  }
};

// cat-lint: allow-alloc (per-sample profile growth: one station per stored
// sample, never per right-hand-side evaluation)
void append_station(RelaxationProfile& prof, double x, double t, double tv,
                    double rho, double u, double p,
                    std::span<const double> y) {
  prof.x.push_back(x);
  prof.t.push_back(t);
  prof.tv.push_back(tv);
  prof.rho.push_back(rho);
  prof.u.push_back(u);
  prof.p.push_back(p);
  for (std::size_t s = 0; s < y.size(); ++s) prof.y[s].push_back(y[s]);
}
}  // namespace

FrozenJump PostShockRelaxation::frozen_jump(
    const ShockTubeFreestream& fs, std::span<const double> y) const {
  CAT_REQUIRE(fs.pressure > 0.0 && fs.temperature > 0.0, "bad freestream");
  const SplitR r = split_gas_constant(mech_.species_set(), y);
  const auto [rh, re] = r;
  const double t1 = fs.temperature;
  const double rho1 = fs.pressure / (rh * t1 + re * t1);
  const double u1 = fs.velocity;
  const double h1 = ttg_.energy(y, t1, t1) + fs.pressure / rho1;

  // Unknown density ratio: momentum and energy give (p2, h2); the
  // temperature follows algebraically (frozen vibronic pool at T1), and the
  // equation of state closes the residual.
  const FrozenVibronicLine line =
      frozen_vibronic_line(ttg_, y, t1, r, ttg_.trans_rot_cv(y));
  auto resid = [&](double ratio) {
    const double u2 = u1 / ratio;
    const double p2 = fs.pressure + rho1 * u1 * u1 * (1.0 - 1.0 / ratio);
    const double h2 = h1 + 0.5 * (u1 * u1 - u2 * u2);
    const double t2 = line.t_of_h(h2);
    const double p_eos = rho1 * ratio * (rh * t2 + re * t1);
    return p_eos - p2;
  };
  const double r_sol = numerics::brent(resid, 1.05, 60.0, {.tol = 1e-13});
  FrozenJump j;
  j.density_ratio = r_sol;
  j.rho = rho1 * r_sol;
  j.u = u1 / r_sol;
  j.p = fs.pressure + rho1 * u1 * u1 * (1.0 - 1.0 / r_sol);
  j.t = line.t_of_h(h1 + 0.5 * (u1 * u1 - j.u * j.u));
  return j;
}

PostShockRelaxation::FlowState PostShockRelaxation::recover_state(
    double m_flux, double p_flux, double h_total, std::span<const double> y,
    double tv, double rho_guess) const {
  const SplitR r = split_gas_constant(mech_.species_set(), y);
  const double cv_tr = ttg_.trans_rot_cv(y);
  const StateRecovery rec{
      ttg_, y, m_flux, p_flux, h_total, tv, r, cv_tr,
      tv > 0.0 ? frozen_vibronic_line(ttg_, y, tv, r, cv_tr)
               : FrozenVibronicLine{}};
  auto resid = [&rec](double rho) { return rec.residual(rho); };

  // Bracket around the guess (subsonic post-shock branch is locally
  // monotone); expand until a sign change is found.
  double lo = rho_guess * 0.7, hi = rho_guess * 1.4;
  double flo = resid(lo), fhi = resid(hi);
  for (int k = 0; k < 60 && flo * fhi > 0.0; ++k) {
    lo *= 0.9;
    hi *= 1.1;
    flo = resid(lo);
    fhi = resid(hi);
  }
  if (flo * fhi > 0.0)
    throw SolverError("relax1d: state recovery lost its bracket");
  const double rho =
      numerics::brent(resid, lo, hi, flo, fhi, {.tol = 1e-13});

  FlowState st;
  st.rho = rho;
  st.u = m_flux / rho;
  st.p = p_flux - m_flux * st.u;
  st.t = rec.t_of_h(h_total - 0.5 * st.u * st.u);
  return st;
}

RelaxationProfile PostShockRelaxation::solve(
    const ShockTubeFreestream& fs, std::span<const double> y1) const {
  const std::size_t ns = mech_.n_species();
  CAT_REQUIRE(y1.size() == ns, "composition size mismatch");

  const FrozenJump jump = frozen_jump(fs, y1);
  const auto [rh1, re1] = split_gas_constant(mech_.species_set(), y1);
  const double rho1 = fs.pressure / ((rh1 + re1) * fs.temperature);
  const double m_flux = rho1 * fs.velocity;
  const double p_flux = fs.pressure + rho1 * fs.velocity * fs.velocity;
  const double h_total = ttg_.energy(y1, fs.temperature, fs.temperature) +
                         fs.pressure / rho1 +
                         0.5 * fs.velocity * fs.velocity;

  const bool two_t = opt_.two_temperature;
  const double tv0 = fs.temperature;

  // Caller-held scratch, local to this call so solve() stays reentrant:
  // the right-hand side and the sample store below allocate nothing.
  chemistry::Workspace ws;
  numerics::StiffWorkspace stiff;
  // cat-lint: allow-alloc (per-solve scratch: composition, mass and molar
  // rates, mole fractions)
  std::vector<double> y(ns), wdot(ns), c(ns), x_mole(ns);

  // Marching state: [y_0..y_{ns-1}, ev]; ev tracked even in 1-T mode (then
  // slaved, derivative unused).
  double rho_prev = jump.rho;  // warm start for the algebraic recovery
  numerics::OdeRhs rhs = [&](double x, std::span<const double> u,
                             std::span<double> du) {
    std::copy(u.begin(), u.begin() + ns, y.begin());
    gas::Mixture::clean_mass_fractions(y);
    double tv = -1.0;
    if (two_t) tv = ttg_.tv_from_vibronic_energy(y, u[ns], 5000.0);
    const FlowState st =
        recover_state(m_flux, p_flux, h_total, y, tv, rho_prev);
    rho_prev = st.rho;
    const double t_eff = st.t;
    const double tv_eff = two_t ? tv : st.t;
    // Ablation hook: disable Park's sqrt(T Tv) by feeding Tv = T to the
    // kinetics while keeping the true Tv in the relaxation source.
    const double tv_chem = opt_.park_sqrt_ttv ? tv_eff : t_eff;

    mech_.mass_production_rates(st.rho, y, t_eff, tv_chem, wdot, ws);
    for (std::size_t s = 0; s < ns; ++s) {
      du[s] = wdot[s] / m_flux;
      c[s] = st.rho * y[s] / mech_.species_set().species(s).molar_mass;
    }
    if (two_t) {
      const double q_lt = ttg_.landau_teller_source(st.rho, y, t_eff, tv_eff,
                                                    st.p, x_mole);
      const double q_chem =
          mech_.chemistry_vibronic_source(c, t_eff, tv_chem, ws);
      du[ns] = (q_lt + q_chem) / m_flux;
    } else {
      du[ns] = 0.0;
    }
    if (opt_.source) opt_.source(x, u, du);
  };

  // cat-lint: allow-alloc (per-solve setup: marching state and profile)
  std::vector<double> state(ns + 1);
  std::copy(y1.begin(), y1.end(), state.begin());
  state[ns] = ttg_.vibronic_energy(y1, tv0);

  RelaxationProfile prof;
  prof.n_species = ns;
  prof.y.assign(ns, {});  // cat-lint: allow-alloc (per-solve setup)
  auto store = [&](double x, std::span<const double> u) {
    std::copy(u.begin(), u.begin() + ns, y.begin());
    gas::Mixture::clean_mass_fractions(y);
    double tv = -1.0;
    if (two_t) tv = ttg_.tv_from_vibronic_energy(y, u[ns], 5000.0);
    const FlowState st =
        recover_state(m_flux, p_flux, h_total, y, tv, rho_prev);
    append_station(prof, x, st.t, two_t ? tv : st.t, st.rho, st.u, st.p, y);
  };

  store(0.0, state);
  const numerics::StiffIntegrator integ(
      std::move(rhs), {.rel_tol = 1e-7,
                       .abs_tol = 1e-13,
                       .h_initial = opt_.x_first_m * 1e-3,
                       .max_steps = 4'000'000});
  double x_prev = 0.0;
  for (std::size_t k = 0; k < opt_.n_samples; ++k) {
    const double frac =
        static_cast<double>(k) / static_cast<double>(opt_.n_samples - 1);
    const double x_next =
        opt_.x_first_m * std::pow(opt_.x_max_m / opt_.x_first_m, frac);
    if (x_next <= x_prev) continue;
    integ.integrate(x_prev, x_next, state, stiff);
    store(x_next, state);
    x_prev = x_next;
  }
  return prof;
}

}  // namespace cat::solvers
