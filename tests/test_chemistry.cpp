// Tests for the finite-rate chemistry: rate evaluation, detailed balance
// against the Gibbs equilibrium solver (the consistency requirement between
// kinetics and thermodynamics), element conservation, and reactor
// equilibration in one- and two-temperature form.

#include <gtest/gtest.h>

#include <cmath>

#include "chemistry/reaction.hpp"
#include "chemistry/source.hpp"
#include "gas/equilibrium.hpp"

namespace {

using namespace cat;
using chemistry::Mechanism;

TEST(Chemistry, MechanismsConstructAndConserve) {
  // Element balance is asserted in the Mechanism constructor; constructing
  // all three mechanisms exercises it.
  EXPECT_EQ(chemistry::park_air5().n_reactions(), 5u);
  EXPECT_EQ(chemistry::park_air9().n_reactions(), 9u);
  EXPECT_EQ(chemistry::park_air11().n_reactions(), 12u);
}

TEST(Chemistry, ForwardRatesIncreaseWithTemperature) {
  const auto mech = chemistry::park_air5();
  for (std::size_t r = 0; r < mech.n_reactions(); ++r) {
    const double k4 = mech.forward_rate(r, 4000.0, 4000.0);
    const double k8 = mech.forward_rate(r, 8000.0, 8000.0);
    EXPECT_GT(k8, k4) << mech.reactions()[r].label;
  }
}

TEST(Chemistry, ParkControllingTemperatureSlowsColdVibration) {
  // Dissociation driven by sqrt(T*Tv): cold vibration -> slower rate.
  const auto mech = chemistry::park_air5();
  const double hot = mech.forward_rate(0, 10000.0, 10000.0);
  const double lag = mech.forward_rate(0, 10000.0, 1000.0);
  EXPECT_LT(lag, hot * 0.05);
}

TEST(Chemistry, NetRatesVanishAtGibbsEquilibrium) {
  // Detailed balance: production rates at the equilibrium composition must
  // vanish (relative to the gross forward rate).
  const auto mech = chemistry::park_air5();
  gas::EquilibriumSolver eq(mech.species_set(),
                            {{"N2", 0.79}, {"O2", 0.21}});
  for (double t : {4000.0, 6000.0, 8000.0}) {
    const auto st = eq.solve_tp(t, 2.0e4);
    std::vector<double> wdot(mech.n_species());
    chemistry::Workspace ws;
    mech.mass_production_rates(st.rho, st.y, t, t, wdot, ws);
    // Scale: gross dissociation throughput.
    std::vector<double> c(mech.n_species());
    for (std::size_t s = 0; s < mech.n_species(); ++s)
      c[s] = st.rho * st.y[s] / mech.species_set().species(s).molar_mass;
    const double kf = mech.forward_rate(0, t, t);
    const double scale =
        kf * c[0] * (c[0] + c[1] + c[2] + c[3] + c[4]) *
        mech.species_set().species(0).molar_mass;
    for (std::size_t s = 0; s < mech.n_species(); ++s)
      EXPECT_NEAR(wdot[s] / std::max(scale, 1e-30), 0.0, 2e-2)
          << "T=" << t << " s=" << s;
  }
}

TEST(Chemistry, ProductionConservesMass) {
  const auto mech = chemistry::park_air9();
  std::vector<double> y(mech.n_species(), 0.0);
  y[0] = 0.5; y[1] = 0.2; y[3] = 0.2; y[4] = 0.1;
  std::vector<double> wdot(mech.n_species());
  chemistry::Workspace ws;
  mech.mass_production_rates(0.01, y, 9000.0, 7000.0, wdot, ws);
  double total = 0.0;
  for (double w : wdot) total += w;
  double scale = 0.0;
  for (double w : wdot) scale = std::max(scale, std::fabs(w));
  EXPECT_NEAR(total / std::max(scale, 1e-30), 0.0, 1e-10);
}

TEST(Chemistry, EquilibriumConstantMatchesGibbs) {
  // K_c of N2+O <=> NO+N must equal exp(-dG/RuT) at zero delta-nu.
  const auto mech = chemistry::park_air5();
  const double t = 5000.0;
  const double kc = mech.equilibrium_constant(3, t);  // N2+O<=>NO+N
  EXPECT_GT(kc, 0.0);
  // kf/kb must reproduce K_c.
  const double kf = mech.forward_rate(3, t, t);
  const double kb = mech.backward_rate(3, t, t);
  EXPECT_NEAR(kf / kb, kc, 1e-8 * kc);
}

TEST(Reactor, IsochoricRelaxesToGibbsEquilibrium) {
  const auto mech = chemistry::park_air5();
  const chemistry::IsochoricReactor reactor(mech);
  chemistry::IsochoricReactor::State s;
  s.y.assign(mech.n_species(), 0.0);
  s.y[mech.species_set().local_index("N2")] = 0.767;
  s.y[mech.species_set().local_index("O2")] = 0.233;
  s.t = 6500.0;
  const double rho = 0.05;
  const double e0 = reactor.energy(s);
  reactor.advance_coupled(s, rho, 0.05);
  // Energy conserved.
  EXPECT_NEAR(reactor.energy(s), e0, 1e-3 * std::fabs(e0) + 1e3);
  // End state matches Gibbs at (rho, e).
  gas::EquilibriumSolver eq(mech.species_set(),
                            {{"N2", 0.79}, {"O2", 0.21}});
  const auto ref = eq.solve_rho_e(rho, e0);
  EXPECT_NEAR(s.t, ref.t, 0.02 * ref.t);
  for (std::size_t k = 0; k < mech.n_species(); ++k)
    EXPECT_NEAR(s.y[k], ref.y[k], 0.02) << k;
}

TEST(Reactor, SplitAndCoupledAgreeWithManySteps) {
  const auto mech = chemistry::park_air5();
  const chemistry::IsochoricReactor reactor(mech);
  auto init = [&] {
    chemistry::IsochoricReactor::State s;
    s.y.assign(mech.n_species(), 0.0);
    s.y[0] = 0.767;
    s.y[1] = 0.233;
    s.t = 6000.0;
    return s;
  };
  auto tight = init();
  reactor.advance_coupled(tight, 0.05, 4e-5);
  auto split = init();
  for (int k = 0; k < 40; ++k) reactor.advance_split(split, 0.05, 1e-6);
  EXPECT_NEAR(split.t, tight.t, 0.02 * tight.t);
}

TEST(Reactor, TwoTemperatureEquilibratesTemperatures) {
  const auto mech = chemistry::park_air5();
  const chemistry::TwoTemperatureReactor reactor(mech);
  chemistry::TwoTemperatureReactor::State s;
  s.y.assign(mech.n_species(), 0.0);
  s.y[0] = 0.767;
  s.y[1] = 0.233;
  s.t = 10000.0;
  s.tv = 1000.0;
  reactor.advance(s, 0.01, 5e-3);
  EXPECT_NEAR(s.t, s.tv, 0.05 * s.t);  // pools equilibrated
  EXPECT_LT(s.t, 10000.0);             // dissociation absorbed energy
  EXPECT_GT(s.y[mech.species_set().local_index("O")], 1e-3);
}

// Rate sweep: backward rates positive and finite over the CAT range.
struct RateCase {
  double t, tv;
};
class RateSweep : public ::testing::TestWithParam<RateCase> {};

TEST_P(RateSweep, RatesFiniteAndPositive) {
  const auto mech = chemistry::park_air11();
  const auto [t, tv] = GetParam();
  for (std::size_t r = 0; r < mech.n_reactions(); ++r) {
    const double kf = mech.forward_rate(r, t, tv);
    const double kb = mech.backward_rate(r, t, tv);
    EXPECT_TRUE(std::isfinite(kf) && kf >= 0.0);
    EXPECT_TRUE(std::isfinite(kb) && kb >= 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RateSweep,
    ::testing::Values(RateCase{300.0, 300.0}, RateCase{2000.0, 500.0},
                      RateCase{6000.0, 6000.0}, RateCase{15000.0, 8000.0},
                      RateCase{30000.0, 30000.0},
                      RateCase{50000.0, 1000.0}));

}  // namespace
