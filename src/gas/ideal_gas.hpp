#pragma once
/// \file ideal_gas.hpp
/// Calorically perfect (ideal) gas model. This is the "CFD baseline" of the
/// paper — the gas model that the real-gas machinery extends — and the
/// comparison gas for Figs. 4 and 6 (ideal gamma = 1.4 and the
/// "effective gamma = 1.2" approximation used for the Orbiter studies).

namespace cat::gas {

/// Calorically perfect gas with constant gamma and gas constant.
class IdealGas {
 public:
  /// \p gamma ratio of specific heats, \p r specific gas constant [J/kg K].
  explicit IdealGas(double gamma = 1.4, double r = 287.053);

  double gamma() const { return gamma_; }
  double gas_constant() const { return r_; }
  double cp() const { return gamma_ * r_ / (gamma_ - 1.0); }
  double cv() const { return r_ / (gamma_ - 1.0); }

  double pressure(double rho, double e) const;          ///< p(rho, e)
  double internal_energy(double rho, double p) const;   ///< e(rho, p)
  double temperature(double rho, double p) const;       ///< T = p/(rho R)
  double sound_speed(double rho, double p) const;       ///< sqrt(gamma p/rho)

 private:
  double gamma_, r_;
};

}  // namespace cat::gas
