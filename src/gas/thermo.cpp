#include "gas/thermo.hpp"

#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo_detail.hpp"

namespace cat::gas {

namespace {
using constants::kAvogadro;
using constants::kBoltzmann;
using constants::kPlanck;
using constants::kRu;

// Per-mode helpers live in thermo_detail.hpp, shared with the SoA batch
// kernels (thermo_batch.cpp) so both paths stay bitwise identical.
using detail::ElectronicState;
using detail::electronic_state;
using detail::vib_cv_mode;
using detail::vib_energy_mode;
}  // namespace

namespace {

// The per-temperature pieces of internal_energy_thermal and entropy_mole,
// given the electronic sums at t: one definition for the separate calls
// and for enthalpy_entropy_mole, which shares one electronic pass.
double thermal_energy(const Species& s, double t, const ElectronicState& el) {
  double e = 1.5 * kRu * t;  // translation
  if (s.rotor == RotorType::kLinear) {
    e += kRu * t;
  } else if (s.rotor == RotorType::kNonlinear) {
    e += 1.5 * kRu * t;
  }
  for (const auto& mode : s.vib)
    e += mode.degeneracy * vib_energy_mode(mode.theta, t);
  e += el.e;
  return e;
}

double entropy_of(const Species& s, double t, double p,
                  const ElectronicState& el) {
  const double m = s.molar_mass / kAvogadro;  // particle mass [kg]
  // Translational (Sackur-Tetrode).
  const double lambda3 =
      std::pow(2.0 * M_PI * m * kBoltzmann * t / (kPlanck * kPlanck), 1.5);
  double entropy =
      kRu * (std::log(lambda3 * kBoltzmann * t / p) + 2.5);
  // Rotational.
  if (s.rotor == RotorType::kLinear) {
    entropy += kRu * (std::log(t / (s.symmetry * s.theta_rot[0])) + 1.0);
  } else if (s.rotor == RotorType::kNonlinear) {
    const double q_rot =
        std::sqrt(M_PI * t * t * t /
                  (s.theta_rot[0] * s.theta_rot[1] * s.theta_rot[2])) /
        s.symmetry;
    entropy += kRu * (std::log(q_rot) + 1.5);
  }
  // Vibrational.
  for (const auto& mode : s.vib) {
    const double x = mode.theta / t;
    if (x > 500.0) continue;
    const double em = std::exp(-x);
    entropy +=
        mode.degeneracy * kRu * (x * em / (1.0 - em) - std::log(1.0 - em));
  }
  // Electronic.
  entropy += kRu * std::log(el.q) + el.e / t;
  return entropy;
}

}  // namespace

double internal_energy_thermal(const Species& s, double t) {
  CAT_REQUIRE(t > 0.0, "temperature must be positive");
  return thermal_energy(s, t, electronic_state(s, t));
}

double cv_mole(const Species& s, double t) {
  CAT_REQUIRE(t > 0.0, "temperature must be positive");
  double cv = 1.5 * kRu;
  if (s.rotor == RotorType::kLinear) {
    cv += kRu;
  } else if (s.rotor == RotorType::kNonlinear) {
    cv += 1.5 * kRu;
  }
  for (const auto& mode : s.vib)
    cv += mode.degeneracy * vib_cv_mode(mode.theta, t);
  cv += electronic_state(s, t).cv;
  return cv;
}

double cp_mole(const Species& s, double t) { return cv_mole(s, t) + kRu; }

double enthalpy_mole(const Species& s, double t) {
  const double h_th = internal_energy_thermal(s, t) + kRu * t;
  return s.h_formation_298 + (h_th - s.h_thermal_298);
}

double entropy_mole(const Species& s, double t, double p) {
  CAT_REQUIRE(t > 0.0 && p > 0.0, "state must be positive");
  return entropy_of(s, t, p, electronic_state(s, t));
}

EnthalpyEntropy enthalpy_entropy_mole(const Species& s, double t, double p) {
  CAT_REQUIRE(t > 0.0 && p > 0.0, "state must be positive");
  const ElectronicState el = electronic_state(s, t);
  const double h_th = thermal_energy(s, t, el) + kRu * t;
  return {s.h_formation_298 + (h_th - s.h_thermal_298),
          entropy_of(s, t, p, el)};
}

ThermoEval evaluate(const Species& s, double t, double p) {
  ThermoEval out;
  out.cp = cp_mole(s, t);
  const EnthalpyEntropy hs = enthalpy_entropy_mole(s, t, p);
  out.h = hs.h;
  out.s = hs.s;
  out.g = out.h - t * out.s;
  return out;
}

GibbsConstants make_gibbs_constants(const Species& s, double p) {
  CAT_REQUIRE(p > 0.0, "pressure must be positive");
  GibbsConstants gc{};
  gc.h_const = s.h_formation_298 - s.h_thermal_298;
  const double m = s.molar_mass / kAvogadro;
  // Sackur-Tetrode split: s_trans = Ru (2.5 ln T + ln(C kB / p) + 2.5)
  // with C = (2 pi m kB / h^2)^1.5.
  const double log_c =
      1.5 * std::log(2.0 * M_PI * m * kBoltzmann / (kPlanck * kPlanck));
  double rot_coeff = 0.0;
  double s_rot_const = 0.0;
  if (s.rotor == RotorType::kLinear) {
    rot_coeff = 1.0;
    s_rot_const = kRu * (1.0 - std::log(s.symmetry * s.theta_rot[0]));
  } else if (s.rotor == RotorType::kNonlinear) {
    rot_coeff = 1.5;
    s_rot_const =
        kRu * (1.5 +
               0.5 * std::log(M_PI / (s.theta_rot[0] * s.theta_rot[1] *
                                      s.theta_rot[2])) -
               std::log(static_cast<double>(s.symmetry)));
  }
  gc.h_lin_coeff = (2.5 + rot_coeff) * kRu;
  gc.s_logt_coeff = (2.5 + rot_coeff) * kRu;
  gc.s_const = kRu * (log_c + std::log(kBoltzmann / p) + 2.5) + s_rot_const;
  return gc;
}

double gibbs_mole_fast(const Species& s, const GibbsConstants& gc, double t) {
  CAT_REQUIRE(t > 0.0, "temperature must be positive");
  const double log_t = std::log(t);
  double e_vib = 0.0, s_vib = 0.0;
  for (const auto& mode : s.vib) {
    const double x = mode.theta / t;
    if (x > 500.0) continue;
    const double em = std::exp(-x);
    const double r = em / (1.0 - em);  // 1/(e^x - 1)
    e_vib += mode.degeneracy * kRu * mode.theta * r;
    s_vib += mode.degeneracy * kRu * (x * r - std::log(1.0 - em));
  }
  const ElectronicState el = electronic_state(s, t);
  const double e_el = el.e;
  const double s_el = kRu * std::log(el.q) + el.e / t;
  const double h = gc.h_const + gc.h_lin_coeff * t + e_vib + e_el;
  const double entropy = gc.s_logt_coeff * log_t + gc.s_const + s_vib + s_el;
  return h - t * entropy;
}

ThermalEnergyCv thermal_energy_cv(const Species& s, double t) {
  CAT_REQUIRE(t > 0.0, "temperature must be positive");
  double e = 1.5 * kRu * t, cv = 1.5 * kRu;
  if (s.rotor == RotorType::kLinear) {
    e += kRu * t;
    cv += kRu;
  } else if (s.rotor == RotorType::kNonlinear) {
    e += 1.5 * kRu * t;
    cv += 1.5 * kRu;
  }
  for (const auto& mode : s.vib) {
    const double x = mode.theta / t;
    if (x > 500.0) continue;
    const double em = std::exp(-x);
    const double r = em / (1.0 - em);
    e += mode.degeneracy * kRu * mode.theta * r;
    cv += mode.degeneracy * kRu * x * x * r / (1.0 - em);
  }
  const ElectronicState el = electronic_state(s, t);
  e += el.e;
  cv += el.cv;
  return {e, cv};
}

double vibronic_energy_mole(const Species& s, double tv) {
  CAT_REQUIRE(tv > 0.0, "temperature must be positive");
  double e = 0.0;
  for (const auto& mode : s.vib)
    e += mode.degeneracy * vib_energy_mode(mode.theta, tv);
  e += electronic_state(s, tv).e;
  return e;
}

double vibronic_cv_mole(const Species& s, double tv) {
  CAT_REQUIRE(tv > 0.0, "temperature must be positive");
  double cv = 0.0;
  for (const auto& mode : s.vib)
    cv += mode.degeneracy * vib_cv_mode(mode.theta, tv);
  cv += electronic_state(s, tv).cv;
  return cv;
}

double enthalpy_mass(const Species& s, double t) {
  return enthalpy_mole(s, t) / s.molar_mass;
}

double cp_mass(const Species& s, double t) {
  return cp_mole(s, t) / s.molar_mass;
}

}  // namespace cat::gas
