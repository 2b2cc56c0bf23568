// Tests for the Gibbs-minimization equilibrium solver. Anchors:
//  - cold air stays molecular; hot air dissociates then ionizes
//  - element and charge conservation at every solution
//  - detailed-balance consistency with the kinetics (tested in
//    test_chemistry.cpp)
//  - classic equilibrium-air landmarks (50% O2 dissociation near 3500 K at
//    1 atm; N2 dissociation onset near 6000-7000 K)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/error.hpp"
#include "gas/equilibrium.hpp"
#include "gas/species.hpp"

namespace {

using namespace cat::gas;

EquilibriumSolver air_solver(SpeciesSet set) {
  return EquilibriumSolver(std::move(set),
                           {{"N2", 0.79}, {"O2", 0.21}});
}

double element_total(const EquilibriumResult& r, const SpeciesSet& set,
                     Element el) {
  const std::size_t e = static_cast<std::size_t>(el);
  double total = 0.0;
  for (std::size_t s = 0; s < set.size(); ++s)
    total += r.x[s] * set.species(s).composition[e];
  return total;
}

TEST(Equilibrium, ColdAirStaysMolecular) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto r = solver.solve_tp(300.0, 101325.0);
  EXPECT_NEAR(r.x[set.local_index("N2")], 0.79, 1e-6);
  EXPECT_NEAR(r.x[set.local_index("O2")], 0.21, 1e-6);
  EXPECT_LT(r.x[set.local_index("NO")], 1e-10);
  EXPECT_NEAR(r.molar_mass, 0.79 * 28.0134e-3 + 0.21 * 31.9988e-3, 1e-7);
}

TEST(Equilibrium, OxygenHalfDissociatedNear3500KAtOneAtm) {
  // Classic equilibrium-air landmark: O2 is ~50% dissociated at about
  // 3300-3700 K at 1 atm.
  auto set = make_air5();
  const auto solver = air_solver(set);
  double t_half = 0.0;
  for (double t = 2500.0; t < 4500.0; t += 25.0) {
    const auto r = solver.solve_tp(t, 101325.0);
    // Fraction of O atoms bound in O2 relative to total O element.
    const double o_in_o2 = 2.0 * r.x[set.local_index("O2")];
    const double o_total = element_total(r, set, Element::kO);
    if (o_in_o2 / o_total < 0.5) {
      t_half = t;
      break;
    }
  }
  EXPECT_GT(t_half, 3000.0);
  EXPECT_LT(t_half, 4200.0);
}

TEST(Equilibrium, NitrogenDissociatesAboveSixThousandK) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto r5000 = solver.solve_tp(5000.0, 101325.0);
  const auto r9000 = solver.solve_tp(9000.0, 101325.0);
  const std::size_t iN2 = set.local_index("N2");
  const std::size_t iN = set.local_index("N");
  EXPECT_GT(r5000.x[iN2], 0.5);          // still mostly molecular
  EXPECT_GT(r9000.x[iN], r9000.x[iN2]);  // mostly dissociated
}

TEST(Equilibrium, IonizationAboveTenThousandK) {
  auto set = make_air9();
  const auto solver = air_solver(set);
  const auto r = solver.solve_tp(15000.0, 101325.0);
  const double xe = r.x[set.local_index("e-")];
  EXPECT_GT(xe, 0.01);  // noticeably ionized
  // Charge neutrality.
  EXPECT_NEAR(element_total(r, set, Element::kCharge), 0.0, 1e-12);
}

TEST(Equilibrium, ElementRatioConservedAcrossTemperatures) {
  auto set = make_air9();
  const auto solver = air_solver(set);
  for (double t : {500.0, 2000.0, 4000.0, 8000.0, 12000.0, 20000.0}) {
    const auto r = solver.solve_tp(t, 5000.0);
    const double n_el = element_total(r, set, Element::kN);
    const double o_el = element_total(r, set, Element::kO);
    EXPECT_NEAR(n_el / o_el, 2.0 * 0.79 / (2.0 * 0.21), 1e-8) << t;
    double xsum = 0.0;
    for (double x : r.x) xsum += x;
    EXPECT_NEAR(xsum, 1.0, 1e-12);
  }
}

TEST(Equilibrium, MolarMassDropsWithDissociation) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  double prev = 1.0;
  for (double t : {300.0, 3000.0, 5000.0, 8000.0, 12000.0}) {
    const auto r = solver.solve_tp(t, 101325.0);
    EXPECT_LT(r.molar_mass, prev + 1e-12) << t;
    prev = r.molar_mass;
  }
}

TEST(Equilibrium, RhoESolveRoundTrip) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto ref = solver.solve_tp(6500.0, 2.0e4);
  const auto back = solver.solve_rho_e(ref.rho, ref.e);
  EXPECT_NEAR(back.t, ref.t, 1.0);
  EXPECT_NEAR(back.p, ref.p, 1e-3 * ref.p);
}

TEST(Equilibrium, PhSolveRoundTrip) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto ref = solver.solve_tp(4800.0, 5.0e4);
  const auto back = solver.solve_ph(ref.p, ref.h);
  EXPECT_NEAR(back.t, ref.t, 1.0);
  EXPECT_NEAR(back.rho, ref.rho, 1e-3 * ref.rho);
}

TEST(Equilibrium, SoundSpeedReasonableForHotAir) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto cold = solver.solve_rho_e(1.2, solver.solve_tp(300.0, 101325.0).e);
  const double a_cold = solver.sound_speed(cold);
  EXPECT_NEAR(a_cold, 347.0, 12.0);  // equilibrium = frozen for cold air
}

TEST(Equilibrium, PressureLowersDissociation) {
  // Le Chatelier: higher pressure pushes 2N -> N2.
  auto set = make_air5();
  const auto solver = air_solver(set);
  const auto lo = solver.solve_tp(7000.0, 1.0e3);
  const auto hi = solver.solve_tp(7000.0, 1.0e6);
  EXPECT_GT(lo.x[set.local_index("N")], hi.x[set.local_index("N")]);
}

TEST(Equilibrium, TitanMixtureProducesCNAtHighTemperature) {
  // Ref. 15 scenario: N2/CH4 Titan atmosphere chemistry produces CN, C2,
  // H2, HCN in the shock layer — the radiating species of Titan entry.
  auto set = make_titan();
  EquilibriumSolver solver(set, {{"N2", 0.95}, {"CH4", 0.05}});
  const auto r = solver.solve_tp(7000.0, 5.0e4);
  EXPECT_GT(r.x[set.local_index("CN")], 1e-5);
  EXPECT_GT(r.x[set.local_index("H")], 1e-3);
  // Methane fully destroyed at 7000 K.
  EXPECT_LT(r.x[set.local_index("CH4")], 1e-8);
}

TEST(Equilibrium, TitanColdMixtureIntact) {
  auto set = make_titan();
  EquilibriumSolver solver(set, {{"N2", 0.95}, {"CH4", 0.05}});
  const auto r = solver.solve_tp(200.0, 1.0e4);
  EXPECT_NEAR(r.x[set.local_index("N2")], 0.95, 1e-4);
  EXPECT_NEAR(r.x[set.local_index("CH4")], 0.05, 1e-4);
}

TEST(Equilibrium, GammaEffBetweenOneAndTwo) {
  auto set = make_air5();
  const auto solver = air_solver(set);
  for (double t : {1000.0, 4000.0, 9000.0}) {
    const auto r = solver.solve_tp(t, 1.0e4);
    EXPECT_GT(r.gamma_eff, 1.0) << t;
    EXPECT_LT(r.gamma_eff, 2.1) << t;
  }
}

TEST(Equilibrium, RejectsElementAbsentFromSet) {
  auto set = make_air5();
  std::array<double, kNumElements> b{};
  b[static_cast<std::size_t>(Element::kN)] = 50.0;
  b[static_cast<std::size_t>(Element::kC)] = 1.0;  // no carbon in air5
  EXPECT_THROW(EquilibriumSolver(set, b), std::invalid_argument);
}

TEST(Equilibrium, RhoEBelowColdEndIsASolverError) {
  // An energy below e(50 K) has no state in the temperature bracket. That
  // is a solver failure pipeline layers absorb (cat::Error), not API
  // misuse (std::invalid_argument from a root finder's precondition).
  auto set = make_air5();
  const auto solver = air_solver(set);
  EXPECT_THROW(solver.solve_rho_e(1.0, -4.0e5), cat::SolverError);
}

// solve_ph warm-starts each Brent trial from the states it already
// converged; its answer must still be the cold Gibbs minimum at the
// temperature it returns, and hit the target enthalpy. Mole fractions are
// fractions of the mixture and Newton stops at 1e-12 on the element
// balances, so they agree to 1e-12 of the mixture: a trace ion at 300 K
// (x ~ 1e-13, a numerically free charge direction) has no relative
// precision to compare.
void expect_ph_matches_cold_tp(const EquilibriumSolver& solver) {
  for (double p : {1.0e2, 1.0e4, 1.0e6}) {
    for (double t : {150.0, 300.0, 1200.0, 3000.0, 5500.0, 9000.0, 14000.0,
                     22000.0, 32000.0, 40000.0}) {
      const double h = solver.solve_tp(t, p).h;
      const auto r = solver.solve_ph(p, h);
      const auto cold = solver.solve_tp(r.t, p);
      for (std::size_t s = 0; s < r.x.size(); ++s)
        EXPECT_NEAR(r.x[s], cold.x[s], 1e-12)
            << "species " << s << " at T=" << t << " p=" << p;
      EXPECT_LE(std::fabs(r.h - h), 1e-10 * std::fabs(h))
          << "T=" << t << " p=" << p;
    }
  }
}

TEST(Equilibrium, PhSolveMatchesColdTpAir5) {
  expect_ph_matches_cold_tp(air_solver(make_air5()));
}

TEST(Equilibrium, PhSolveMatchesColdTpAir11) {
  expect_ph_matches_cold_tp(air_solver(make_air11()));
}

TEST(Equilibrium, PhSolveMatchesColdTpTitan) {
  expect_ph_matches_cold_tp(
      EquilibriumSolver(make_titan(), {{"N2", 0.95}, {"CH4", 0.05}}));
}

// A hint changes only where solve_ph starts (the first trial's potentials
// and the temperature its bracket grows from); Brent still closes the
// bracket to 1e-10 K, so hinted and unhinted answers agree to round-off
// whatever the hint: near, far (a 300 K hint for a 20000 K answer and the
// reverse), at another pressure, without potentials, or at either clamp
// end. Mole fractions compare absolutely (see above). The two answers may
// sit up to Brent's tolerance apart in T, so h compares against the
// enthalpy scale of the state (|h| + cp T, cp ~ 1 kJ/(kg K)) rather than
// |h| alone, which vanishes near 298 K.
void expect_hinted_ph_matches_unhinted(const EquilibriumSolver& solver) {
  for (double p : {1.0e2, 1.0e4, 1.0e6}) {
    const auto lo_end = solver.solve_tp(150.0, p);
    const auto hi_end = solver.solve_tp(40000.0, p);
    for (double t : {150.0, 300.0, 1200.0, 3000.0, 5500.0, 9000.0, 14000.0,
                     20000.0, 32000.0, 40000.0}) {
      const double h = solver.solve_tp(t, p).h;
      const auto plain = solver.solve_ph(p, h);
      const auto near = solver.solve_tp(std::min(t * 1.03, 40000.0), p);
      auto bare = near;
      bare.potentials.clear();
      const EquilibriumResult hints[] = {
          near,
          solver.solve_tp(t * 0.97, p),                      // near, below
          solver.solve_tp(t < 5000.0 ? 20000.0 : 300.0, p),  // far
          solver.solve_tp(t, p < 1e5 ? p * 100.0 : p / 100.0),  // other p
          bare,
          lo_end,
          hi_end};
      for (const auto& hint : hints) {
        const auto r = solver.solve_ph(p, h, &hint);
        const std::string where = "T=" + std::to_string(t) +
                                  " p=" + std::to_string(p) +
                                  " hint T=" + std::to_string(hint.t);
        ASSERT_EQ(r.x.size(), plain.x.size());
        for (std::size_t s = 0; s < r.x.size(); ++s)
          EXPECT_NEAR(r.x[s], plain.x[s], 1e-12) << "species " << s << " "
                                                 << where;
        const double dt = std::fabs(r.t - plain.t) / plain.t;
        const double dh = std::fabs(r.h - plain.h) /
                          (std::fabs(plain.h) + 1.0e3 * plain.t);
        EXPECT_LE(dt, 1e-12) << where;
        EXPECT_LE(dh, 1e-12) << where;
        EXPECT_EQ(r.p, p) << where;
      }
    }
  }
}

TEST(Equilibrium, HintedPhMatchesUnhintedAir5) {
  expect_hinted_ph_matches_unhinted(air_solver(make_air5()));
}

TEST(Equilibrium, HintedPhMatchesUnhintedAir11) {
  expect_hinted_ph_matches_unhinted(air_solver(make_air11()));
}

TEST(Equilibrium, HintedPhMatchesUnhintedTitan) {
  expect_hinted_ph_matches_unhinted(
      EquilibriumSolver(make_titan(), {{"N2", 0.95}, {"CH4", 0.05}}));
}

// Parameterized sweep: solver converges and conserves across a (T, p) grid.
struct TpCase {
  double t, p;
};

class EquilibriumSweep : public ::testing::TestWithParam<TpCase> {};

TEST_P(EquilibriumSweep, ConvergesAndConserves) {
  auto set = make_air9();
  const auto solver = air_solver(set);
  const auto [t, p] = GetParam();
  const auto r = solver.solve_tp(t, p);
  double xsum = 0.0;
  for (double x : r.x) {
    EXPECT_GE(x, 0.0);
    xsum += x;
  }
  EXPECT_NEAR(xsum, 1.0, 1e-10);
  EXPECT_NEAR(element_total(r, set, Element::kCharge), 0.0, 1e-10);
  EXPECT_GT(r.rho, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EquilibriumSweep,
    ::testing::Values(TpCase{300.0, 10.0}, TpCase{300.0, 1e6},
                      TpCase{1500.0, 1e2}, TpCase{3000.0, 1e4},
                      TpCase{6000.0, 1e3}, TpCase{6000.0, 1e6},
                      TpCase{10000.0, 1e2}, TpCase{12000.0, 1e5},
                      TpCase{18000.0, 1e3}, TpCase{25000.0, 1e4},
                      TpCase{30000.0, 1e5}));

}  // namespace
