#include "chemistry/source.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo.hpp"

namespace cat::chemistry {

using gas::constants::kRu;

// cat-lint: allow-alloc (one-time construction: per-species tables)
IsochoricReactor::IsochoricReactor(const Mechanism& mech) : mech_(mech) {
  const std::size_t ns = mech_.n_species();
  h_const_.reserve(ns);
  inv_m_.reserve(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    const gas::Species& sp = mech_.species_set().species(s);
    h_const_.push_back(sp.h_formation_298 -
                       gas::reference_thermal_enthalpy(sp));
    inv_m_.push_back(1.0 / sp.molar_mass);
  }
  y_scratch_.resize(ns);
}

double IsochoricReactor::energy(const State& state) const {
  return mech_.mixture().internal_energy_mass(state.y, state.t);
}

void IsochoricReactor::advance_coupled(State& state, double rho,
                                       double dt) const {
  const std::size_t ns = mech_.n_species();
  CAT_REQUIRE(state.y.size() == ns, "state size mismatch");
  // Unknowns: [y_0..y_{ns-1}, T]; energy conservation closes T:
  //   de/dt = 0  =>  cv dT/dt = -sum_s e_s(T) dy_s/dt
  // All temporaries live in the reactor's persistent scratch: the RHS
  // performs zero heap allocations.
  std::vector<double>& y = y_scratch_;
  numerics::OdeRhs rhs = [&, rho](double t_now, std::span<const double> u,
                                  std::span<double> dudt) {
    std::copy(u.begin(), u.begin() + ns, y.begin());
    gas::Mixture::clean_mass_fractions(y);
    const double t = std::clamp(u[ns], 200.0, 60000.0);
    std::span<double> dydt = dudt.first(ns);
    mech_.mass_production_rates(rho, y, t, t, dydt, ws_);
    double esum = 0.0, cv = 0.0;
    const double inv_rho = 1.0 / rho;
    for (std::size_t s = 0; s < ns; ++s) {
      const gas::Species& sp = mech_.species_set().species(s);
      // Fused e_th/cv evaluation; e_s = (h_f - h_th_ref + e_th(T)) / M is
      // the specific internal energy incl. formation.
      const gas::ThermalEnergyCv te = gas::thermal_energy_cv(sp, t);
      const double e_s = (h_const_[s] + te.e) * inv_m_[s];
      dydt[s] *= inv_rho;
      esum += e_s * dydt[s];
      cv += y[s] * te.cv * inv_m_[s];
    }
    dudt[ns] = -esum / std::max(cv, 1e-6);
    if (source_) source_(t_now, u, dudt);
  };
  u_scratch_.resize(ns + 1);  // cat-lint: allow-alloc (no-op after 1st call)
  std::copy(state.y.begin(), state.y.end(), u_scratch_.begin());
  u_scratch_[ns] = state.t;
  numerics::StiffIntegrator integ(rhs, stiff_opt_);
  integ.integrate(0.0, dt, std::span<double>(u_scratch_), stiff_);
  std::copy(u_scratch_.begin(), u_scratch_.begin() + ns, state.y.begin());
  gas::Mixture::clean_mass_fractions(state.y);
  state.t = u_scratch_[ns];
}

void IsochoricReactor::advance_split(State& state, double rho,
                                     double dt) const {
  const std::size_t ns = mech_.n_species();
  CAT_REQUIRE(state.y.size() == ns, "state size mismatch");
  CAT_REQUIRE(!source_,
              "advance_split: the operator split has no single RHS for a "
              "manufactured source; use advance_coupled");
  const double e_target = energy(state);  // adiabatic: e is invariant
  // Step 1: chemistry with frozen temperature.
  const double t_frozen = state.t;
  std::vector<double>& y = y_scratch_;
  numerics::OdeRhs rhs = [&, rho, t_frozen](double, std::span<const double> u,
                                            std::span<double> dudt) {
    std::copy(u.begin(), u.end(), y.begin());
    gas::Mixture::clean_mass_fractions(y);
    mech_.mass_production_rates(rho, y, t_frozen, t_frozen, dudt, ws_);
    const double inv_rho = 1.0 / rho;
    for (std::size_t s = 0; s < ns; ++s) dudt[s] *= inv_rho;
  };
  u_scratch_.resize(ns);  // cat-lint: allow-alloc (no-op after 1st call)
  std::copy(state.y.begin(), state.y.end(), u_scratch_.begin());
  numerics::StiffIntegrator integ(rhs, stiff_opt_);
  integ.integrate(0.0, dt, std::span<double>(u_scratch_), stiff_);
  std::copy(u_scratch_.begin(), u_scratch_.end(), state.y.begin());
  gas::Mixture::clean_mass_fractions(state.y);
  // Step 2: recover temperature from the (conserved) energy.
  state.t = mech_.mixture().temperature_from_energy(state.y, e_target,
                                                    state.t);
}

// cat-lint: allow-alloc (one-time construction: per-species tables)
TwoTemperatureReactor::TwoTemperatureReactor(const Mechanism& mech)
    : mech_(mech), ttg_(mech.species_set()) {
  const std::size_t ns = mech_.n_species();
  h_const_.reserve(ns);
  inv_m_.reserve(ns);
  etr_coeff_.reserve(ns);
  for (std::size_t s = 0; s < ns; ++s) {
    const gas::Species& sp = mech_.species_set().species(s);
    h_const_.push_back(sp.h_formation_298 -
                       gas::reference_thermal_enthalpy(sp));
    inv_m_.push_back(1.0 / sp.molar_mass);
    double coeff = 1.5 * kRu;
    if (sp.rotor == gas::RotorType::kLinear) coeff += kRu;
    if (sp.rotor == gas::RotorType::kNonlinear) coeff += 1.5 * kRu;
    etr_coeff_.push_back(coeff);
    is_electron_.push_back(sp.is_electron() ? 1 : 0);
  }
  y_scratch_.resize(ns);
  wdot_scratch_.resize(ns);
  x_scratch_.resize(ns);
}

void TwoTemperatureReactor::advance(State& state, double rho,
                                    double dt) const {
  const std::size_t ns = mech_.n_species();
  CAT_REQUIRE(state.y.size() == ns, "state size mismatch");
  // Unknowns: [y_s..., T, Tv]. Total energy conservation closes T; the
  // vibronic pool evolves by Landau-Teller exchange plus the vibronic
  // energy carried by created/destroyed molecules. All temporaries are
  // persistent scratch: zero heap allocations per RHS evaluation.
  std::vector<double>& y = y_scratch_;
  std::vector<double>& wdot = wdot_scratch_;
  numerics::OdeRhs rhs = [&, rho](double t_now, std::span<const double> u,
                                  std::span<double> dudt) {
    std::copy(u.begin(), u.begin() + ns, y.begin());
    gas::Mixture::clean_mass_fractions(y);
    const double t = std::clamp(u[ns], 200.0, 80000.0);
    const double tv = std::clamp(u[ns + 1], 200.0, 80000.0);
    mech_.mass_production_rates(rho, y, t, tv, wdot, ws_);
    const double p = ttg_.pressure(rho, y, t, tv);
    const double q_lt = ttg_.landau_teller_source(rho, y, t, tv, p,
                                                  x_scratch_);
    // Reuse the molar rates the mass-rate kernel just computed instead of
    // re-running it for the vibronic source.
    const double q_chem =
        mech_.vibronic_source_from_rates(ws_.wdot_mole, tv, ws_);

    const double inv_rho = 1.0 / rho;
    for (std::size_t s = 0; s < ns; ++s) dudt[s] = wdot[s] * inv_rho;

    // d(ev)/dt per unit mass:
    const double dev_dt = (q_lt + q_chem) * inv_rho;
    const double cv_v = std::max(ttg_.vibronic_cv(y, tv), 1e-6);
    // Subtract composition change contribution to ev at fixed Tv. The
    // per-species vibronic energies at tv are cached in ws_.vib_e by the
    // vibronic-source call above.
    double dev_comp = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      const double evs = is_electron_[s] ? 1.5 * kRu * tv * inv_m_[s]
                                         : ws_.vib_e[s] * inv_m_[s];
      dev_comp += evs * dudt[s];
    }
    dudt[ns + 1] = (dev_dt - dev_comp) / cv_v;

    // Total energy conservation: de/dt = 0 with
    // e = sum y_s e_s(T, Tv):  cv_tr dT/dt = -sum e_s dy_s/dt - cv_v dTv/dt
    double esum = 0.0;
    for (std::size_t s = 0; s < ns; ++s) {
      const double e_mole = is_electron_[s]
                                ? h_const_[s] + 1.5 * kRu * tv
                                : h_const_[s] + etr_coeff_[s] * t + ws_.vib_e[s];
      esum += e_mole * inv_m_[s] * dudt[s];
    }
    const double cv_tr = std::max(ttg_.trans_rot_cv(y), 1e-6);
    dudt[ns] = (-esum - cv_v * dudt[ns + 1]) / cv_tr;
    if (source_) source_(t_now, u, dudt);
  };

  u_scratch_.resize(ns + 2);  // cat-lint: allow-alloc (no-op after 1st call)
  std::copy(state.y.begin(), state.y.end(), u_scratch_.begin());
  u_scratch_[ns] = state.t;
  u_scratch_[ns + 1] = state.tv;
  numerics::StiffIntegrator integ(rhs, stiff_opt_);
  integ.integrate(0.0, dt, std::span<double>(u_scratch_), stiff_);
  std::copy(u_scratch_.begin(), u_scratch_.begin() + ns, state.y.begin());
  gas::Mixture::clean_mass_fractions(state.y);
  state.t = u_scratch_[ns];
  state.tv = u_scratch_[ns + 1];
}

}  // namespace cat::chemistry
