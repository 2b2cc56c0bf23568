#pragma once
/// \file two_temperature.hpp
/// Park two-temperature (T, Tv) thermochemical-nonequilibrium model.
///
/// The paper (Fig. 7): "The nonequilibrium thermodynamics is modeled by a
/// two-temperature, dissociating and ionizing air model." Heavy-particle
/// translation and rotation equilibrate at T; vibration, electronic
/// excitation and free-electron translation share a second temperature Tv.
/// Energy exchange between the pools follows Landau-Teller relaxation with
/// Millikan-White times plus Park's high-temperature collision-limited
/// correction.

#include <span>
#include <vector>

#include "gas/mixture.hpp"

namespace cat::gas {

/// Two-temperature thermodynamic closure over a SpeciesSet.
class TwoTemperatureGas {
 public:
  explicit TwoTemperatureGas(SpeciesSet set);

  const Mixture& mixture() const { return mix_; }
  std::size_t n_species() const { return mix_.n_species(); }

  /// Mixture specific internal energy [J/kg] at (T, Tv).
  double energy(std::span<const double> y, double t, double tv) const;

  /// Energy in the vibronic pool [J/kg]: molecular vibration + electronic
  /// excitation at Tv + free-electron translation at Tv.
  double vibronic_energy(std::span<const double> y, double tv) const;

  /// Heat capacity of the vibronic pool d(ev)/dTv [J/(kg K)].
  double vibronic_cv(std::span<const double> y, double tv) const;

  /// Translational-rotational heat capacity d(e - ev)/dT [J/(kg K)].
  double trans_rot_cv(std::span<const double> y) const;

  /// Invert vibronic_energy for Tv (safeguarded Newton with a bisection
  /// fallback on the monotone curve). Energies outside the representable
  /// [20 K, 80000 K] bracket saturate at the bracket ends — stiff-solver
  /// trial states overshoot transiently and rely on that clamp.
  double tv_from_vibronic_energy(std::span<const double> y, double ev,
                                 double tv_guess = 1000.0) const;

  /// Invert total energy for T given the vibronic pool energy.
  double t_from_energy(std::span<const double> y, double e_total, double ev,
                       double t_guess = 1000.0) const;

  /// Mixture pressure [Pa]: heavy particles at T, electrons at Tv.
  double pressure(double rho, std::span<const double> y, double t,
                  double tv) const;

  /// Millikan-White vibrational relaxation time of species \p s against the
  /// mixture [s], including Park's collision-limited correction.
  /// \p x mole fractions, \p nd total number density [1/m^3].
  double relaxation_time(std::size_t s, std::span<const double> x, double t,
                         double p, double nd) const;

  /// Landau-Teller vibrational energy source [W/m^3]:
  ///   Q = sum_s rho_s (e_v,s(T) - e_v,s(Tv)) / tau_s
  /// \p x_scratch is caller-owned storage of at least n_species() for the
  /// mole fractions (hot-path workspace convention: no allocation).
  double landau_teller_source(double rho, std::span<const double> y, double t,
                              double tv, double p,
                              std::span<double> x_scratch) const;

 private:
  Mixture mix_;
  std::vector<bool> is_molecule_;
  std::ptrdiff_t electron_index_;  // -1 when no electrons in the set
  /// Millikan-White exponents per (species, partner) pair, precomputed:
  /// a = 1.16e-3 sqrt(mu_red) theta_v^{4/3}, b = 0.015 mu_red^{1/4}
  /// (mu_red in g/mol). Zero rows for non-molecules; zero columns for
  /// electrons (excluded partners).
  std::vector<double> mw_a_, mw_b_;

  double species_e_tr_rot(std::size_t s, double t) const;  // [J/mol]
};

}  // namespace cat::gas
