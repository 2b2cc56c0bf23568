#include "gas/mixture.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo.hpp"

namespace cat::gas {

using constants::kRu;

Mixture::Mixture(SpeciesSet set) : set_(std::move(set)) {
  CAT_REQUIRE(set_.size() > 0, "empty species set");
}

double Mixture::gas_constant(std::span<const double> y) const {
  CAT_REQUIRE(y.size() == n_species(), "composition size mismatch");
  double r = 0.0;
  for (std::size_t s = 0; s < y.size(); ++s)
    r += y[s] / set_.species(s).molar_mass;
  return kRu * r;
}

double Mixture::molar_mass(std::span<const double> y) const {
  return kRu / gas_constant(y);
}

std::vector<double> Mixture::mole_fractions(std::span<const double> y) const {
  std::vector<double> x(n_species());
  mole_fractions(y, x);
  return x;
}

void Mixture::mole_fractions(std::span<const double> y,
                             std::span<double> x) const {
  CAT_REQUIRE(y.size() == n_species() && x.size() == n_species(),
              "composition size mismatch");
  double total = 0.0;
  for (std::size_t s = 0; s < y.size(); ++s) {
    x[s] = y[s] / set_.species(s).molar_mass;
    total += x[s];
  }
  CAT_REQUIRE(total > 0.0, "all-zero composition");
  for (double& v : x) v /= total;
}

void Mixture::mass_fractions_from_moles(std::span<const double> x,
                                        std::span<double> y) const {
  CAT_REQUIRE(x.size() == n_species() && y.size() == n_species(),
              "composition size mismatch");
  double total = 0.0;
  for (std::size_t s = 0; s < x.size(); ++s) {
    y[s] = x[s] * set_.species(s).molar_mass;
    total += y[s];
  }
  CAT_REQUIRE(total > 0.0, "all-zero composition");
  for (double& v : y) v /= total;
}

double Mixture::cp_mass(std::span<const double> y, double t) const {
  CAT_REQUIRE(y.size() == n_species(), "composition size mismatch");
  double cp = 0.0;
  for (std::size_t s = 0; s < y.size(); ++s) {
    if (y[s] == 0.0) continue;
    cp += y[s] * gas::cp_mass(set_.species(s), t);
  }
  return cp;
}

double Mixture::enthalpy_mass(std::span<const double> y, double t) const {
  CAT_REQUIRE(y.size() == n_species(), "composition size mismatch");
  double h = 0.0;
  for (std::size_t s = 0; s < y.size(); ++s) {
    if (y[s] == 0.0) continue;
    h += y[s] * gas::enthalpy_mass(set_.species(s), t);
  }
  return h;
}

double Mixture::internal_energy_mass(std::span<const double> y,
                                     double t) const {
  return enthalpy_mass(y, t) - gas_constant(y) * t;
}

double Mixture::temperature_from_energy(std::span<const double> y, double e,
                                        double t_guess, double t_min,
                                        double t_max) const {
  const double r = gas_constant(y);
  double t = std::clamp(t_guess, t_min, t_max);
  // Newton with cv = cp - R; the energy curve is monotone so safeguard by
  // bisection bracket expansion only when Newton leaves [t_min, t_max].
  // Exhaustion is benign: the bisection fallback below always answers.
  for (int it = 0; it < 100; ++it) {  // cat-lint: converges-by-construction
    const double f = internal_energy_mass(y, t) - e;
    const double cv = cp_mass(y, t) - r;
    double tn = t - f / std::max(cv, 1e-3);
    if (!(tn > t_min && tn < t_max)) tn = std::clamp(tn, t_min, t_max);
    if (std::fabs(tn - t) < 1e-10 * std::max(1.0, t)) return tn;
    t = tn;
  }
  // Newton cycling (can happen at vibrational turn-on): fall back to
  // bisection on the monotone residual. Each pass halves the bracket, so
  // 200 iterations overshoot the 1e-9 width target by construction;
  // energies beyond the bracket saturate at t_min/t_max (documented API:
  // "result clamped to [t_min, t_max]").
  double lo = t_min, hi = t_max;
  for (int it = 0; it < 200; ++it) {  // cat-lint: converges-by-construction
    const double mid = 0.5 * (lo + hi);
    if (internal_energy_mass(y, mid) > e) {
      hi = mid;
    } else {
      lo = mid;
    }
    if (hi - lo < 1e-9 * hi) break;
  }
  return 0.5 * (lo + hi);
}

double Mixture::temperature_from_enthalpy(std::span<const double> y, double h,
                                          double t_guess) const {
  constexpr double kTMin = 10.0, kTMax = 60000.0;
  // The enthalpy curve is monotone in T: a target outside the bracket has
  // no solution, and silently returning the last Newton iterate (the
  // pre-lint behavior) handed callers an arbitrary clamped temperature.
  if (h < enthalpy_mass(y, kTMin) || h > enthalpy_mass(y, kTMax)) {
    throw SolverError(
        "temperature_from_enthalpy: target enthalpy outside the "
        "representable range [h(10 K), h(60000 K)]");
  }
  double t = std::clamp(t_guess, kTMin, kTMax);
  // Exhaustion is benign: the bisection fallback below always answers.
  for (int it = 0; it < 100; ++it) {  // cat-lint: converges-by-construction
    const double f = enthalpy_mass(y, t) - h;
    const double cp = cp_mass(y, t);
    double tn = t - f / std::max(cp, 1e-3);
    tn = std::clamp(tn, kTMin, kTMax);
    if (std::fabs(tn - t) < 1e-10 * std::max(1.0, t)) return tn;
    t = tn;
  }
  // Newton cycling: bisect the (validated) bracket — halving 200 times
  // lands far below the relative width target by construction.
  double lo = kTMin, hi = kTMax;
  for (int it = 0; it < 200; ++it) {  // cat-lint: converges-by-construction
    const double mid = 0.5 * (lo + hi);
    if (enthalpy_mass(y, mid) > h) {
      hi = mid;
    } else {
      lo = mid;
    }
    if (hi - lo < 1e-9 * hi) break;
  }
  return 0.5 * (lo + hi);
}

void Mixture::clean_mass_fractions(std::span<double> y) {
  double total = 0.0;
  for (double& v : y) {
    if (v < 0.0) v = 0.0;
    total += v;
  }
  if (total <= 0.0) {
    throw SolverError("clean_mass_fractions: composition collapsed to zero");
  }
  for (double& v : y) v /= total;
}

}  // namespace cat::gas
