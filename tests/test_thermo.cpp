// Tests for the RRHO statistical-thermodynamic model (gas/thermo.hpp).
// Reference values are textbook limits: cp of diatomics between 7/2 R
// (vibration frozen) and 9/2 R (vibration fully excited), Sackur-Tetrode
// entropy of monatomic gases, and JANAF-anchored spot checks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "gas/constants.hpp"
#include "gas/species.hpp"
#include "gas/thermo.hpp"

namespace {

using namespace cat::gas;
using constants::kRu;

const Species& sp(const char* name) {
  return SpeciesDatabase::instance().find(name);
}

TEST(Thermo, ColdDiatomicCpIsSevenHalvesR) {
  // At 300 K the vibrational mode of N2 (theta_v = 3395 K) is frozen.
  EXPECT_NEAR(cp_mole(sp("N2"), 300.0), 3.5 * kRu, 0.02 * kRu);
  EXPECT_NEAR(cp_mole(sp("O2"), 300.0), 3.5 * kRu, 0.11 * kRu);  // low-T el.
}

TEST(Thermo, HotDiatomicCpApproachesNineHalvesR) {
  // Vibration fully excited but electronic still mostly frozen around
  // 3000-4000 K for N2.
  const double cp = cp_mole(sp("N2"), 4000.0);
  EXPECT_GT(cp, 4.3 * kRu);
  EXPECT_LT(cp, 4.8 * kRu);
}

TEST(Thermo, MonatomicCpIsFiveHalvesR) {
  EXPECT_NEAR(cp_mole(sp("Ar"), 1000.0), 2.5 * kRu, 1e-10);
  // N has low-lying electronic states only above 27000 K; at 1000 K pure 5/2.
  EXPECT_NEAR(cp_mole(sp("N"), 1000.0), 2.5 * kRu, 1e-6);
}

TEST(Thermo, EnthalpyAtReferenceEqualsFormation) {
  for (const char* name : {"N2", "O2", "NO", "N", "O", "CN", "CH4"}) {
    const Species& s = sp(name);
    EXPECT_NEAR(enthalpy_mole(s, 298.15), s.h_formation_298,
                std::abs(s.h_formation_298) * 1e-12 + 1e-9)
        << name;
  }
}

TEST(Thermo, JanafSpotCheckN2Enthalpy) {
  // JANAF: H(2000K) - H(298K) for N2 = 56.14 kJ/mol. RRHO should be within
  // ~1%.
  const double dh = enthalpy_mole(sp("N2"), 2000.0);
  EXPECT_NEAR(dh, 56.14e3, 0.02 * 56.14e3);
}

TEST(Thermo, JanafSpotCheckOAtomEntropy) {
  // JANAF: S(O, 298.15 K, 1 bar) = 161.06 J/mol/K.
  EXPECT_NEAR(entropy_mole(sp("O"), 298.15, 1.0e5), 161.06, 1.0);
}

TEST(Thermo, JanafSpotCheckN2Entropy) {
  // JANAF: S(N2, 298.15 K, 1 bar) = 191.61 J/mol/K.
  EXPECT_NEAR(entropy_mole(sp("N2"), 298.15, 1.0e5), 191.61, 1.2);
}

TEST(Thermo, EntropyDecreasesWithPressure) {
  const double s1 = entropy_mole(sp("N2"), 1000.0, 1e4);
  const double s2 = entropy_mole(sp("N2"), 1000.0, 1e6);
  EXPECT_NEAR(s1 - s2, kRu * std::log(1e6 / 1e4), 1e-9);
}

TEST(Thermo, GibbsIdentity) {
  const ThermoEval ev = evaluate(sp("NO"), 3500.0, 2.0e4);
  EXPECT_NEAR(ev.g, ev.h - 3500.0 * ev.s, std::abs(ev.g) * 1e-12);
}

TEST(Thermo, CpIsDerivativeOfEnthalpy) {
  // Central-difference check of cp = dh/dT for several species/temps.
  for (const char* name : {"N2", "O", "NO", "CN", "C2H2", "CH4"}) {
    for (double t : {400.0, 1500.0, 6000.0}) {
      const double dt = 1e-3 * t;
      const double cp_fd = (enthalpy_mole(sp(name), t + dt) -
                            enthalpy_mole(sp(name), t - dt)) /
                           (2.0 * dt);
      EXPECT_NEAR(cp_mole(sp(name), t), cp_fd, 1e-5 * cp_fd + 1e-8)
          << name << " @ " << t;
    }
  }
}

TEST(Thermo, VibronicEnergyMonotone) {
  double prev = -1.0;
  for (double tv = 300.0; tv <= 20000.0; tv += 500.0) {
    const double ev = vibronic_energy_mole(sp("N2"), tv);
    EXPECT_GT(ev, prev);
    prev = ev;
  }
}

TEST(Thermo, VibronicCvMatchesDerivative) {
  for (double tv : {800.0, 3000.0, 9000.0}) {
    const double dt = 1e-3 * tv;
    const double fd = (vibronic_energy_mole(sp("O2"), tv + dt) -
                       vibronic_energy_mole(sp("O2"), tv - dt)) /
                      (2.0 * dt);
    EXPECT_NEAR(vibronic_cv_mole(sp("O2"), tv), fd, 1e-5 * fd + 1e-10);
  }
}

TEST(Thermo, ElectronHasTranslationalOnly) {
  const Species& e = sp("e-");
  EXPECT_NEAR(cp_mole(e, 5000.0), 2.5 * kRu, 1e-9);
  EXPECT_NEAR(internal_energy_thermal(e, 5000.0), 1.5 * kRu * 5000.0, 1e-6);
}

TEST(Thermo, ThrowsOnNonPositiveTemperature) {
  EXPECT_THROW(cp_mole(sp("N2"), 0.0), std::invalid_argument);
  EXPECT_THROW(enthalpy_mole(sp("N2"), -5.0), std::invalid_argument);
}

// Property sweep: h, s, cp finite and positive cp over the full CAT range
// for every species in the database.
class ThermoAllSpecies : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThermoAllSpecies, FiniteAndPhysicalOverRange) {
  const Species& s = SpeciesDatabase::instance()[GetParam()];
  for (double t = 200.0; t <= 30000.0; t *= 1.8) {
    const ThermoEval ev = evaluate(s, t, 1.0e4);
    EXPECT_TRUE(std::isfinite(ev.h)) << s.name;
    EXPECT_TRUE(std::isfinite(ev.s)) << s.name;
    EXPECT_GT(ev.cp, 2.4 * kRu) << s.name << " @ " << t;
    EXPECT_GT(ev.s, 0.0) << s.name << " @ " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecies, ThermoAllSpecies,
    ::testing::Range<std::size_t>(0, SpeciesDatabase::instance().size()));

// ---- fused kernels against the separate calls they replace -------------
//
// The oracles below are the separate-call code as it stood before the
// fused kernels (h_th(298.15) re-evaluated per call, entropy with its own
// electronic pass), kept verbatim so the fused paths are pinned bit for
// bit, not merely to round-off.

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

double oracle_enthalpy_mole(const Species& s, double t) {
  const double t_ref = constants::kTemperatureRef;
  const double h_th = internal_energy_thermal(s, t) + kRu * t;
  const double h_th_ref = internal_energy_thermal(s, t_ref) + kRu * t_ref;
  return s.h_formation_298 + (h_th - h_th_ref);
}

double oracle_entropy_mole(const Species& s, double t, double p) {
  using constants::kAvogadro;
  using constants::kBoltzmann;
  using constants::kPlanck;
  const double m = s.molar_mass / kAvogadro;
  const double lambda3 =
      std::pow(2.0 * M_PI * m * kBoltzmann * t / (kPlanck * kPlanck), 1.5);
  double entropy = kRu * (std::log(lambda3 * kBoltzmann * t / p) + 2.5);
  if (s.rotor == RotorType::kLinear) {
    entropy += kRu * (std::log(t / (s.symmetry * s.theta_rot[0])) + 1.0);
  } else if (s.rotor == RotorType::kNonlinear) {
    const double q_rot =
        std::sqrt(M_PI * t * t * t /
                  (s.theta_rot[0] * s.theta_rot[1] * s.theta_rot[2])) /
        s.symmetry;
    entropy += kRu * (std::log(q_rot) + 1.5);
  }
  for (const auto& mode : s.vib) {
    const double x = mode.theta / t;
    if (x > 500.0) continue;
    const double em = std::exp(-x);
    entropy +=
        mode.degeneracy * kRu * (x * em / (1.0 - em) - std::log(1.0 - em));
  }
  double q = 0.0, e1 = 0.0;
  for (const auto& lvl : s.electronic) {
    const double x = lvl.theta / t;
    if (x > 500.0) continue;
    const double w = lvl.g * std::exp(-x);
    q += w;
    e1 += w * x;
  }
  if (q <= 0.0) {
    q = static_cast<double>(s.electronic.front().g);
    e1 = 0.0;
  }
  const double el_e = kRu * t * (e1 / q);
  entropy += kRu * std::log(q) + el_e / t;
  return entropy;
}

// 150-40000 K on a log grid plus the 298.15 K reference point itself.
std::vector<double> fused_test_temperatures() {
  std::vector<double> t{constants::kTemperatureRef};
  for (int k = 0; k <= 120; ++k)
    t.push_back(150.0 * std::pow(40000.0 / 150.0, k / 120.0));
  return t;
}

TEST(ThermoFused, EnthalpyEntropyMatchesSeparateCallsBitwise) {
  const auto& db = SpeciesDatabase::instance();
  ASSERT_EQ(db.size(), kNumDatabaseSpecies);
  for (std::size_t i = 0; i < db.size(); ++i) {
    const Species& s = db[i];
    for (const double t : fused_test_temperatures()) {
      for (const double p : {constants::kPressureRef, 37.5}) {
        const EnthalpyEntropy hs = enthalpy_entropy_mole(s, t, p);
        const double h_ref = oracle_enthalpy_mole(s, t);
        const double s_ref = oracle_entropy_mole(s, t, p);
        EXPECT_TRUE(same_bits(hs.h, h_ref)) << s.name << " T=" << t;
        EXPECT_TRUE(same_bits(hs.s, s_ref)) << s.name << " T=" << t;
        EXPECT_TRUE(same_bits(enthalpy_mole(s, t), h_ref)) << s.name;
        EXPECT_TRUE(same_bits(entropy_mole(s, t, p), s_ref)) << s.name;
        // The Gibbs energy the equilibrium Newton forms from the pair.
        EXPECT_TRUE(same_bits(hs.h - t * hs.s, h_ref - t * s_ref)) << s.name;
      }
    }
  }
}

TEST(ThermoFused, CachedReferenceEnthalpyMatchesDirectEvaluation) {
  const double t_ref = constants::kTemperatureRef;
  for (const Species& s : SpeciesDatabase::instance().all()) {
    EXPECT_TRUE(same_bits(s.h_thermal_298,
                          internal_energy_thermal(s, t_ref) + kRu * t_ref))
        << s.name;
    // The reference cancels at 298.15 K: h = h_f exactly.
    EXPECT_TRUE(same_bits(enthalpy_mole(s, t_ref), s.h_formation_298))
        << s.name;
  }
}

}  // namespace
