// Transport-property tests: Blottner/Sutherland anchors, Wilke mixing
// sanity, Eucken conductivity, Prandtl and Lewis behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gas/constants.hpp"
#include "gas/equilibrium.hpp"
#include "gas/thermo.hpp"
#include "transport/transport.hpp"

namespace {

using namespace cat;
using namespace cat::transport;

TEST(Transport, SutherlandAnchors) {
  // Air at 273.15 K: mu = 1.716e-5; at 300 K about 1.846e-5.
  EXPECT_NEAR(sutherland_viscosity(273.15), 1.716e-5, 1e-8);
  EXPECT_NEAR(sutherland_viscosity(300.0), 1.846e-5, 2e-7);
}

TEST(Transport, BlottnerMatchesSutherlandNearAmbient) {
  // Blottner N2 fit should sit near Sutherland air at low temperature.
  const auto& n2 = gas::SpeciesDatabase::instance().find("N2");
  EXPECT_NEAR(species_viscosity(n2, 300.0), sutherland_viscosity(300.0),
              0.15 * sutherland_viscosity(300.0));
}

TEST(Transport, ViscosityIncreasesWithTemperature) {
  for (const char* name : {"N2", "O2", "N", "O", "CN", "H2"}) {
    const auto& s = gas::SpeciesDatabase::instance().find(name);
    double prev = 0.0;
    for (double t = 300.0; t < 12000.0; t *= 1.7) {
      const double mu = species_viscosity(s, t);
      EXPECT_GT(mu, prev) << name << " @ " << t;
      prev = mu;
    }
  }
}

TEST(Transport, WilkeReducesToPureSpecies) {
  gas::Mixture mix(gas::make_air5());
  MixtureTransport trans(mix);
  std::vector<double> y(5, 0.0);
  y[0] = 1.0;  // pure N2
  const auto& n2 = gas::SpeciesDatabase::instance().find("N2");
  EXPECT_NEAR(trans.viscosity(y, 2000.0), species_viscosity(n2, 2000.0),
              1e-12);
}

TEST(Transport, MixtureViscosityBetweenPureValues) {
  gas::Mixture mix(gas::make_air5());
  MixtureTransport trans(mix);
  std::vector<double> y(5, 0.0);
  y[3] = 0.5;  // N
  y[4] = 0.5;  // O
  const double mu = trans.viscosity(y, 6000.0);
  const double mu_n =
      species_viscosity(gas::SpeciesDatabase::instance().find("N"), 6000.0);
  const double mu_o =
      species_viscosity(gas::SpeciesDatabase::instance().find("O"), 6000.0);
  EXPECT_GT(mu, 0.8 * std::min(mu_n, mu_o));
  EXPECT_LT(mu, 1.2 * std::max(mu_n, mu_o));
}

TEST(Transport, ElectronsDoNotPoisonMixing) {
  // Adding a trace of electrons must not change mu materially (the bug
  // class this guards: phi_ij ~ 1e3 amplification by the tiny electron
  // mass/viscosity).
  gas::Mixture mix(gas::make_air9());
  MixtureTransport trans(mix);
  std::vector<double> y(9, 0.0);
  y[0] = 0.7;
  y[3] = 0.2;
  y[4] = 0.1;
  const double mu0 = trans.viscosity(y, 7000.0);
  y[8] = 1e-6;  // electrons
  y[0] -= 1e-6;
  const double mu1 = trans.viscosity(y, 7000.0);
  EXPECT_NEAR(mu1, mu0, 1e-3 * mu0);
}

TEST(Transport, PrandtlNearSevenTenths) {
  gas::Mixture mix(gas::make_air5());
  MixtureTransport trans(mix);
  std::vector<double> y{0.767, 0.233, 0.0, 0.0, 0.0};
  for (double t : {300.0, 1000.0, 3000.0}) {
    const double pr = trans.viscosity_prandtl(y, t).pr;
    EXPECT_GT(pr, 0.55) << t;
    EXPECT_LT(pr, 0.95) << t;
  }
}

TEST(Transport, DiffusivityFollowsLewisNumber) {
  gas::Mixture mix(gas::make_air5());
  MixtureTransport trans(mix, 1.4);
  std::vector<double> y{0.767, 0.233, 0.0, 0.0, 0.0};
  const double t = 2000.0, rho = 0.1;
  const double d = trans.diffusivity(y, t, rho);
  const double expected =
      1.4 * trans.conductivity(y, t) / (rho * mix.cp_mass(y, t));
  EXPECT_NEAR(d, expected, 1e-12);
}

TEST(Transport, ConductivityExceedsMonatomicEucken) {
  // Molecules carry internal energy -> conductivity above the pure
  // translational 15/4 R mu / M value.
  const auto& n2 = gas::SpeciesDatabase::instance().find("N2");
  const double t = 3000.0;
  const double k = species_conductivity(n2, t);
  const double k_mono = species_viscosity(n2, t) * 2.5 * 1.5 *
                        gas::constants::kRu / n2.molar_mass;
  EXPECT_GT(k, k_mono);
}

// ---- fused viscosity + Prandtl against the separate calls -------------
//
// The oracle is the pre-fusion code kept verbatim: Wilke's rule with the
// molar-mass factors evaluated per pair and call, viscosity and
// conductivity as two separate passes, and Pr = mu cp / k from a third.

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

double oracle_wilke(const gas::Mixture& mix, const std::vector<double>& x,
                    const std::vector<double>& phi,
                    const std::vector<double>& mu) {
  const std::size_t ns = mix.n_species();
  double total = 0.0;
  for (std::size_t i = 0; i < ns; ++i) {
    if (x[i] <= 0.0 || mix.set().species(i).is_electron()) continue;
    double denom = 0.0;
    const double mi = mix.set().species(i).molar_mass;
    for (std::size_t j = 0; j < ns; ++j) {
      if (x[j] <= 0.0 || mix.set().species(j).is_electron()) continue;
      const double mj = mix.set().species(j).molar_mass;
      const double ratio_mu = mu[i] / mu[j];
      const double ratio_m = mj / mi;
      const double num = 1.0 + std::sqrt(ratio_mu) * std::pow(ratio_m, 0.25);
      const double phi_ij = num * num / std::sqrt(8.0 * (1.0 + mi / mj));
      denom += x[j] * phi_ij;
    }
    total += x[i] * phi[i] / denom;
  }
  return total;
}

double oracle_conductivity_species(const gas::Species& s, double t) {
  using gas::constants::kRu;
  const double mu = species_viscosity(s, t);
  const double r_s = kRu / s.molar_mass;
  const double cv_trans = 1.5 * r_s;
  const double cv_total = (gas::cp_mole(s, t) - kRu) / s.molar_mass;
  const double cv_int = std::max(cv_total - cv_trans, 0.0);
  return mu * (2.5 * cv_trans + 1.2 * cv_int);
}

struct OracleMuK {
  double mu, k;
};

OracleMuK oracle_mu_k(const gas::Mixture& mix, const std::vector<double>& y,
                      double t) {
  const std::vector<double> x = mix.mole_fractions(y);
  std::vector<double> mu(mix.n_species()), k(mix.n_species());
  for (std::size_t s = 0; s < mix.n_species(); ++s) {
    mu[s] = species_viscosity(mix.set().species(s), t);
    k[s] = oracle_conductivity_species(mix.set().species(s), t);
  }
  return {oracle_wilke(mix, x, mu, mu), oracle_wilke(mix, x, k, mu)};
}

void expect_fused_matches_oracle(const gas::Mixture& mix,
                                 const std::vector<double>& y, double t) {
  const MixtureTransport trans(mix);
  const OracleMuK ref = oracle_mu_k(mix, y, t);
  const double pr_ref = ref.mu * mix.cp_mass(y, t) / ref.k;
  const ViscosityPrandtl mp = trans.viscosity_prandtl(y, t);
  EXPECT_TRUE(same_bits(mp.mu, ref.mu)) << "T=" << t;
  EXPECT_TRUE(same_bits(mp.pr, pr_ref)) << "T=" << t;
  EXPECT_TRUE(same_bits(trans.viscosity(y, t), ref.mu)) << "T=" << t;
  EXPECT_TRUE(same_bits(trans.conductivity(y, t), ref.k)) << "T=" << t;
  EXPECT_TRUE(same_bits(species_conductivity(mix.set().species(0), t),
                        oracle_conductivity_species(mix.set().species(0), t)));
}

const std::vector<double> kFusedTemperatures{200.0,  300.0,  1000.0, 2500.0,
                                             5000.0, 9000.0, 15000.0, 30000.0};

TEST(TransportFused, Air5MatchesSeparateCallsBitwise) {
  gas::Mixture mix(gas::make_air5());
  // Cold air with two species absent (x = 0 drops them from Wilke's sums).
  const std::vector<double> cold{0.767, 0.233, 0.0, 0.0, 0.0};
  const std::vector<double> hot{0.35, 0.05, 0.04, 0.31, 0.25};
  for (const double t : kFusedTemperatures) {
    expect_fused_matches_oracle(mix, cold, t);
    expect_fused_matches_oracle(mix, hot, t);
  }
}

TEST(TransportFused, Air11WithElectronsMatchesSeparateCallsBitwise) {
  const gas::SpeciesSet set = gas::make_air11();
  const gas::EquilibriumSolver eq(set, {{"N2", 0.79}, {"O2", 0.21}});
  for (const double t : kFusedTemperatures) {
    const auto st = eq.solve_tp(t, 2000.0);  // ions and e- at the hot end
    expect_fused_matches_oracle(eq.mixture(), st.y, t);
  }
}

TEST(TransportFused, TitanMatchesSeparateCallsBitwise) {
  const gas::EquilibriumSolver eq(gas::make_titan(),
                                  {{"N2", 0.95}, {"CH4", 0.05}});
  for (const double t : kFusedTemperatures) {
    const auto st = eq.solve_tp(t, 5000.0);
    expect_fused_matches_oracle(eq.mixture(), st.y, t);
  }
}

}  // namespace
