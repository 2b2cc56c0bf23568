#include "transport/transport.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo.hpp"

namespace cat::transport {

using gas::constants::kAvogadro;
using gas::constants::kBoltzmann;
using gas::constants::kRu;

double sutherland_viscosity(double t) {
  CAT_REQUIRE(t > 0.0, "temperature must be positive");
  constexpr double mu_ref = 1.716e-5, t_ref = 273.15, s = 110.4;
  return mu_ref * std::pow(t / t_ref, 1.5) * (t_ref + s) / (t + s);
}

double species_viscosity(const gas::Species& s, double t) {
  CAT_REQUIRE(t > 0.0, "temperature must be positive");
  if (s.is_electron()) {
    // Electrons carry negligible momentum; tiny finite value keeps Wilke
    // denominators benign.
    return 1e-12;
  }
  if (s.blottner) {
    const double lt = std::log(t);
    return 0.1 * std::exp((s.blottner->a * lt + s.blottner->b) * lt +
                          s.blottner->c);
  }
  // Hard-sphere Chapman-Enskog first approximation:
  //   mu = 5/16 sqrt(pi m kB T) / (pi d^2)
  const double m = s.molar_mass / kAvogadro;
  return 5.0 / 16.0 * std::sqrt(M_PI * m * kBoltzmann * t) /
         (M_PI * s.hs_diameter * s.hs_diameter);
}

namespace {
/// Modified Eucken conductivity from the species viscosity and cp_mole:
/// translational part with factor 5/2, internal modes (rotation +
/// vibration + electronic) with factor 1.2 (diffusive).
double eucken_conductivity(const gas::Species& s, double mu, double cp) {
  const double r_s = kRu / s.molar_mass;
  const double cv_trans = 1.5 * r_s;
  const double cv_total = (cp - kRu) / s.molar_mass;
  const double cv_int = std::max(cv_total - cv_trans, 0.0);
  return mu * (2.5 * cv_trans + 1.2 * cv_int);
}

using SpeciesArray = std::array<double, gas::kNumDatabaseSpecies>;
}  // namespace

double species_conductivity(const gas::Species& s, double t) {
  return eucken_conductivity(s, species_viscosity(s, t), gas::cp_mole(s, t));
}

// cat-lint: allow-alloc(construction: per-species flags and per-pair mass
// factors)
MixtureTransport::MixtureTransport(const gas::Mixture& mix, double lewis)
    : mix_(mix), lewis_(lewis) {
  CAT_REQUIRE(lewis > 0.0, "Lewis number must be positive");
  const std::size_t ns = mix_.n_species();
  CAT_REQUIRE(ns <= gas::kNumDatabaseSpecies, "species set too large");
  heavy_.resize(ns);
  mass_pow_.resize(ns * ns);
  mass_den_.resize(ns * ns);
  for (std::size_t i = 0; i < ns; ++i) {
    heavy_[i] = !mix_.set().species(i).is_electron();
    const double mi = mix_.set().species(i).molar_mass;
    for (std::size_t j = 0; j < ns; ++j) {
      const double mj = mix_.set().species(j).molar_mass;
      mass_pow_[i * ns + j] = std::pow(mj / mi, 0.25);
      mass_den_[i * ns + j] = std::sqrt(8.0 * (1.0 + mi / mj));
    }
  }
}

MixtureTransport::Mixed MixtureTransport::mixed(std::span<const double> y,
                                                double t) const {
  const std::size_t ns = mix_.n_species();
  SpeciesArray x, mu, k;
  mix_.mole_fractions(y, std::span(x).first(ns));
  Mixed out{0.0, 0.0, 0.0};
  for (std::size_t s = 0; s < ns; ++s) {
    mu[s] = k[s] = 0.0;
    if (y[s] == 0.0) continue;  // x = 0: no part in Wilke's sums or in cp
    const gas::Species& sp = mix_.set().species(s);
    const double cp_s = gas::cp_mole(sp, t);
    mu[s] = species_viscosity(sp, t);
    k[s] = eucken_conductivity(sp, mu[s], cp_s);
    out.cp += y[s] * (cp_s / sp.molar_mass);
  }
  for (std::size_t i = 0; i < ns; ++i) {
    if (x[i] <= 0.0 || !heavy_[i]) continue;
    double denom = 0.0;
    for (std::size_t j = 0; j < ns; ++j) {
      if (x[j] <= 0.0 || !heavy_[j]) continue;
      const double num =
          1.0 + std::sqrt(mu[i] / mu[j]) * mass_pow_[i * ns + j];
      denom += x[j] * (num * num / mass_den_[i * ns + j]);
    }
    out.mu += x[i] * mu[i] / denom;
    out.k += x[i] * k[i] / denom;
  }
  return out;
}

double MixtureTransport::viscosity(std::span<const double> y,
                                   double t) const {
  return mixed(y, t).mu;
}

double MixtureTransport::conductivity(std::span<const double> y,
                                      double t) const {
  return mixed(y, t).k;
}

double MixtureTransport::diffusivity(std::span<const double> y, double t,
                                     double rho) const {
  CAT_REQUIRE(rho > 0.0, "density must be positive");
  const Mixed m = mixed(y, t);
  return lewis_ * m.k / (rho * m.cp);
}

ViscosityPrandtl MixtureTransport::viscosity_prandtl(
    std::span<const double> y, double t) const {
  const Mixed m = mixed(y, t);
  return {m.mu, m.mu * m.cp / m.k};
}

}  // namespace cat::transport
