#include "gas/thermo_batch.hpp"

#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo_detail.hpp"

namespace cat::gas {

namespace {
using constants::kRu;
using detail::ElectronicState;
using detail::electronic_state;
using detail::vib_cv_mode;
using detail::vib_energy_mode;
}  // namespace

void gibbs_mole_fast_batch(const Species& s, const GibbsConstants& gc,
                           std::span<const double> t,
                           std::span<const double> log_t,
                           std::span<double> out) {
  const std::size_t n = t.size();
  CAT_REQUIRE(log_t.size() == n && out.size() == n,
              "batch spans must have equal length");
  for (std::size_t i = 0; i < n; ++i) {
    const double ti = t[i];
    // Same per-cell operation order as gibbs_mole_fast, with log(t) hoisted
    // to the caller (shared across species).
    double e_vib = 0.0, s_vib = 0.0;
    for (const auto& mode : s.vib) {
      const double x = mode.theta / ti;
      if (x > 500.0) continue;
      const double em = std::exp(-x);
      const double r = em / (1.0 - em);  // 1/(e^x - 1)
      e_vib += mode.degeneracy * kRu * mode.theta * r;
      s_vib += mode.degeneracy * kRu * (x * r - std::log(1.0 - em));
    }
    const ElectronicState el = electronic_state(s, ti);
    const double e_el = el.e;
    const double s_el = kRu * std::log(el.q) + el.e / ti;
    const double h = gc.h_const + gc.h_lin_coeff * ti + e_vib + e_el;
    const double entropy =
        gc.s_logt_coeff * log_t[i] + gc.s_const + s_vib + s_el;
    out[i] = h - ti * entropy;
  }
}

void cp_mole_batch(const Species& s, std::span<const double> t,
                   std::span<double> out) {
  const std::size_t n = t.size();
  CAT_REQUIRE(out.size() == n, "batch spans must have equal length");
  double cv_base = 1.5 * kRu;
  if (s.rotor == RotorType::kLinear) {
    cv_base += kRu;
  } else if (s.rotor == RotorType::kNonlinear) {
    cv_base += 1.5 * kRu;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double ti = t[i];
    double cv = cv_base;
    for (const auto& mode : s.vib)
      cv += mode.degeneracy * vib_cv_mode(mode.theta, ti);
    cv += electronic_state(s, ti).cv;
    out[i] = cv + kRu;
  }
}

void enthalpy_mole_batch(const Species& s, std::span<const double> t,
                         std::span<double> out) {
  const std::size_t n = t.size();
  CAT_REQUIRE(out.size() == n, "batch spans must have equal length");
  // The reference thermal enthalpy is the species' stored constant, the
  // same one the scalar enthalpy_mole reads.
  const double h_th_ref = s.h_thermal_298;
  for (std::size_t i = 0; i < n; ++i) {
    const double ti = t[i];
    // internal_energy_thermal(s, t) replicated term for term (the two-term
    // rotor sum must stay a two-term sum for bitwise identity).
    double e = 1.5 * kRu * ti;
    if (s.rotor == RotorType::kLinear) {
      e += kRu * ti;
    } else if (s.rotor == RotorType::kNonlinear) {
      e += 1.5 * kRu * ti;
    }
    for (const auto& mode : s.vib)
      e += mode.degeneracy * vib_energy_mode(mode.theta, ti);
    e += electronic_state(s, ti).e;
    const double h_th = e + kRu * ti;
    out[i] = s.h_formation_298 + (h_th - h_th_ref);
  }
}

}  // namespace cat::gas
