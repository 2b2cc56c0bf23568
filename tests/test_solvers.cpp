// Integration tests across the solver stack: relax1d physics anchors,
// stagnation-line solver vs engineering correlations, Euler solver
// freestream preservation + textbook anchors, marching solvers (VSL/BL/
// PNS) laminar behavior, two-temperature utilities, EOS table consistency.

#include <gtest/gtest.h>

#include <cmath>

#include "atmosphere/atmosphere.hpp"
#include "chemistry/reaction.hpp"
#include "core/error.hpp"
#include "gas/eos_table.hpp"
#include "geometry/body.hpp"
#include "solvers/bl/boundary_layer.hpp"
#include "solvers/correlations/correlations.hpp"
#include "solvers/euler/euler.hpp"
#include "solvers/pns/pns.hpp"
#include "solvers/relax1d/relax1d.hpp"
#include "solvers/stagnation/stagnation.hpp"
#include "solvers/vsl/vsl.hpp"

namespace {

using namespace cat;

// ---------- two-temperature gas ----------

TEST(TwoTemperature, EnergyRoundTrip) {
  gas::TwoTemperatureGas ttg(gas::make_air5());
  std::vector<double> y{0.6, 0.1, 0.05, 0.15, 0.1};
  const double t = 9000.0, tv = 5000.0;
  const double ev = ttg.vibronic_energy(y, tv);
  const double e = ttg.energy(y, t, tv);
  EXPECT_NEAR(ttg.tv_from_vibronic_energy(y, ev, 2000.0), tv, 0.5);
  EXPECT_NEAR(ttg.t_from_energy(y, e, ev, 2000.0), t, 0.5);
}

TEST(TwoTemperature, RelaxationTimeDecreasesWithTAndP) {
  gas::TwoTemperatureGas ttg(gas::make_air5());
  std::vector<double> y{0.767, 0.233, 0.0, 0.0, 0.0};
  const auto x = gas::Mixture(gas::make_air5()).mole_fractions(y);
  const double nd = 1e24;
  const std::size_t s_n2 = 0;
  const double tau_cold = ttg.relaxation_time(s_n2, x, 2000.0, 1e4, nd);
  const double tau_hot = ttg.relaxation_time(s_n2, x, 8000.0, 1e4, nd);
  EXPECT_LT(tau_hot, tau_cold);
  const double tau_lo_p = ttg.relaxation_time(s_n2, x, 4000.0, 1e3, nd);
  const double tau_hi_p = ttg.relaxation_time(s_n2, x, 4000.0, 1e5, nd);
  EXPECT_LT(tau_hi_p, tau_lo_p);
}

TEST(TwoTemperature, LandauTellerSignDrivesTvTowardT) {
  gas::TwoTemperatureGas ttg(gas::make_air5());
  std::vector<double> y{0.767, 0.233, 0.0, 0.0, 0.0};
  std::vector<double> x(y.size());
  const double q_up =
      ttg.landau_teller_source(0.01, y, 8000.0, 2000.0, 1e4, x);
  const double q_dn =
      ttg.landau_teller_source(0.01, y, 2000.0, 8000.0, 1e4, x);
  EXPECT_GT(q_up, 0.0);  // vibration absorbs energy when Tv < T
  EXPECT_LT(q_dn, 0.0);
}

// ---------- EOS table ----------

TEST(EosTable, MatchesDirectSolveInside) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  gas::EquilibriumEosTable table(eq, {.rho_min = 1e-4,
                                      .rho_max = 1.0,
                                      .e_min = -3e5,
                                      .e_max = 2e7,
                                      .n_rho = 40,
                                      .n_e = 40});
  for (const auto& [rho, e] : std::vector<std::pair<double, double>>{
           {1e-2, 2e6}, {1e-3, 8e6}, {0.5, 1e6}}) {
    const auto ref = eq.solve_rho_e(rho, e);
    EXPECT_NEAR(table.pressure(rho, e), ref.p, 0.03 * ref.p);
    EXPECT_NEAR(table.temperature(rho, e), ref.t, 0.03 * ref.t);
  }
}

TEST(EosTable, EnergyPressureInverse) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  gas::EquilibriumEosTable table(eq, {.rho_min = 1e-4,
                                      .rho_max = 1.0,
                                      .e_min = -3e5,
                                      .e_max = 2e7,
                                      .n_rho = 32,
                                      .n_e = 32});
  const double rho = 0.01, e = 5e6;
  const double p = table.pressure(rho, e);
  EXPECT_NEAR(table.energy_from_pressure(rho, p), e, 1e-3 * std::fabs(e));
}

TEST(EosTable, UpperEdgeAndCornerQueriesMatchDirectSolve) {
  // Regression for the BilinearTable upper-edge clamp: queries exactly on
  // the table's rho_max / e_max boundaries (and the far corner) used to
  // be perturbed into the last cell by a -1e-12 fudge. They must be as
  // accurate as interior queries, not extrapolations.
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  const double rho_max = 1.0, e_max = 2e7;
  gas::EquilibriumEosTable table(eq, {.rho_min = 1e-4,
                                      .rho_max = rho_max,
                                      .e_min = -3e5,
                                      .e_max = e_max,
                                      .n_rho = 40,
                                      .n_e = 40});
  for (const auto& [rho, e] : std::vector<std::pair<double, double>>{
           {rho_max, 5e6},           // rho_max edge, interior e
           {1e-2, e_max},            // e_max edge, interior rho
           {rho_max, e_max}}) {      // far corner
    const auto ref = eq.solve_rho_e(rho, e);
    EXPECT_NEAR(table.pressure(rho, e), ref.p, 0.03 * ref.p);
    EXPECT_NEAR(table.temperature(rho, e), ref.t, 0.03 * ref.t);
  }
}

TEST(EosTable, MassFractionsNormalized) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  gas::EquilibriumEosTable table(eq, {.rho_min = 1e-4,
                                      .rho_max = 1.0,
                                      .e_min = -3e5,
                                      .e_max = 2e7,
                                      .n_rho = 24,
                                      .n_e = 24});
  std::vector<double> y(5);
  table.mass_fractions(0.02, 7e6, y);
  double sum = 0.0;
  for (double v : y) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// ---------- relax1d ----------

TEST(Relax1d, FrozenJumpStrongShockAnchors) {
  const auto mech = chemistry::park_air5();
  solvers::PostShockRelaxation solver(mech);
  std::vector<double> y1(5, 0.0);
  y1[0] = 0.767;
  y1[1] = 0.233;
  const auto j = solver.frozen_jump({13.0, 300.0, 10000.0}, y1);
  // Frozen (vibration cold) strong shock: density ratio near 6, frozen
  // temperature ~ 45-50 kK for 10 km/s.
  EXPECT_NEAR(j.density_ratio, 6.0, 0.3);
  EXPECT_GT(j.t, 40000.0);
  EXPECT_LT(j.t, 55000.0);
}

TEST(Relax1d, RelaxationConservesFluxes) {
  const auto mech = chemistry::park_air5();
  solvers::Relax1dOptions opt;
  opt.x_max_m = 0.02;
  opt.n_samples = 24;
  solvers::PostShockRelaxation solver(mech, opt);
  std::vector<double> y1(5, 0.0);
  y1[0] = 0.767;
  y1[1] = 0.233;
  const solvers::ShockTubeFreestream fs{13.0, 300.0, 9000.0};
  const auto prof = solver.solve(fs, y1);
  const double rho1 = 13.0 / (287.0 * 300.0);
  const double m = rho1 * fs.velocity;
  const double pmom = 13.0 + rho1 * fs.velocity * fs.velocity;
  for (std::size_t k = 0; k < prof.size(); k += 6) {
    EXPECT_NEAR(prof.rho[k] * prof.u[k], m, 0.02 * m) << k;
    EXPECT_NEAR(prof.p[k] + prof.rho[k] * prof.u[k] * prof.u[k], pmom,
                0.02 * pmom)
        << k;
  }
}

TEST(Relax1d, TvRisesTFallsTowardCommonValue) {
  const auto mech = chemistry::park_air11();
  solvers::Relax1dOptions opt;
  opt.x_max_m = 1.0;
  opt.n_samples = 48;
  solvers::PostShockRelaxation solver(mech, opt);
  std::vector<double> y1(mech.n_species(), 0.0);
  y1[mech.species_set().local_index("N2")] = 0.767;
  y1[mech.species_set().local_index("O2")] = 0.233;
  const auto prof = solver.solve({13.0, 300.0, 10000.0}, y1);
  const std::size_t last = prof.size() - 1;
  EXPECT_GT(prof.t[0], 40000.0);
  EXPECT_LT(prof.t[last], 12000.0);
  EXPECT_NEAR(prof.t[last], prof.tv[last], 0.1 * prof.t[last]);
  // Oxygen fully dissociated at the end state.
  EXPECT_LT(prof.y[mech.species_set().local_index("O2")][last], 0.01);
}

TEST(Relax1d, ParkSqrtControlSlowsOnset) {
  const auto mech = chemistry::park_air5();
  auto run = [&](bool sqrt_ttv) {
    solvers::Relax1dOptions opt;
    opt.x_max_m = 0.01;
    opt.n_samples = 32;
    opt.park_sqrt_ttv = sqrt_ttv;
    solvers::PostShockRelaxation solver(mech, opt);
    std::vector<double> y1(5, 0.0);
    y1[0] = 0.767;
    y1[1] = 0.233;
    const auto prof = solver.solve({13.0, 300.0, 9000.0}, y1);
    // Dissociated N2 fraction at 2 mm.
    std::size_t k = 0;
    while (k + 1 < prof.size() && prof.x[k] < 2e-3) ++k;
    return 0.767 - prof.y[0][k];
  };
  // With the sqrt(T*Tv) control the early (vibrationally cold) zone
  // dissociates much more slowly.
  EXPECT_LT(run(true), 0.6 * run(false));
}

// ---------- stagnation line ----------

TEST(Stagnation, MatchesFayRiddellWithinThirtyPercent) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::StagnationLineSolver solver(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(65500.0);
  solvers::StagnationConditions c{6700.0, a.density, a.pressure,
                                  a.temperature, 1.3, 1400.0};
  const auto sol = solver.solve(c);
  const double q_sg = solvers::correlations::sutton_graves(
      c.rho_inf, c.velocity, c.nose_radius);
  EXPECT_NEAR(sol.q_conv, q_sg, 0.3 * q_sg);
  EXPECT_GT(sol.edge.t2, 5000.0);
  EXPECT_LT(sol.edge.t2, 7000.0);
}

TEST(Stagnation, HeatingScalesInverseSqrtRadius) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::StagnationLineSolver solver(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(60000.0);
  solvers::StagnationConditions c1{6000.0, a.density, a.pressure,
                                   a.temperature, 0.5, 1200.0};
  auto c2 = c1;
  c2.nose_radius = 2.0;
  const double q1 = solver.solve(c1).q_conv;
  const double q2 = solver.solve(c2).q_conv;
  EXPECT_NEAR(q1 / q2, 2.0, 0.25);  // sqrt(2.0/0.5) = 2
}

TEST(Stagnation, StandoffScalesWithDensityRatio) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::StagnationLineSolver solver(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(60000.0);
  solvers::StagnationConditions c{6000.0, a.density, a.pressure,
                                  a.temperature, 1.0, 1200.0};
  const auto edge = solver.shock_layer_edge(c);
  EXPECT_NEAR(edge.standoff, 0.78 * edge.density_ratio * c.nose_radius,
              1e-12);
  EXPECT_LT(edge.density_ratio, 0.12);  // real-gas: much higher than 6:1
}

TEST(Stagnation, RadiativeHeatingTurnsOnWithVelocity) {
  gas::EquilibriumSolver eq(gas::make_air9(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::StagnationLineSolver solver(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(70000.0);
  solvers::StagnationConditions slow{6500.0, a.density, a.pressure,
                                     a.temperature, 2.0, 1500.0};
  auto fast = slow;
  fast.velocity = 11000.0;
  const double qr_slow = solver.solve(slow).q_rad;
  const double qr_fast = solver.solve(fast).q_rad;
  EXPECT_GT(qr_fast, 20.0 * std::max(qr_slow, 1.0));
}

// ---------- Euler FV ----------

TEST(Euler, PreservesUniformFreestream) {
  geometry::Sphere body(0.1);
  // Planar-like check: axisymmetric uniform flow aligned with +x over the
  // outer region; use the grid but march only a few steps and require the
  // far-field cells (outer j rows ahead of the shock formation) to remain
  // at freestream.
  auto g = grid::make_normal_grid(
      body, body.total_arc_length(), 12, 12,
      [](double) { return 0.08; }, 1.3);
  auto gas_model =
      std::make_shared<core::IdealGasModel>(gas::IdealGas(1.4, 287.0));
  solvers::FvOptions opt;
  opt.startup_iters = 0;
  solvers::EulerSolver solver(g, gas_model, opt);
  solvers::FreeStream fs{0.05, 3000.0, 0.0, 2000.0};
  solver.initialize(fs);
  solver.advance(3);
  // Outermost row is still upstream of any disturbance after 3 steps.
  for (std::size_t i = 0; i < g.ni(); ++i) {
    const auto& w = solver.primitive(i, g.nj() - 1);
    EXPECT_NEAR(w[0], fs.rho, 1e-6 * fs.rho) << i;
    EXPECT_NEAR(w[1], fs.u, 1e-4) << i;
  }
}

TEST(Euler, SolveReportsTheIterationsItAdvanced) {
  // A budget that is not a multiple of solve()'s 50-iteration chunk: the
  // last chunk is cut short, and the count must say so.
  geometry::Sphere body(0.1);
  auto g = grid::make_normal_grid(
      body, body.total_arc_length(), 12, 12,
      [](double) { return 0.08; }, 1.3);
  auto gas_model =
      std::make_shared<core::IdealGasModel>(gas::IdealGas(1.4, 287.0));
  solvers::FvOptions opt;
  opt.max_iter = 120;
  opt.residual_tol = 0.0;  // unreachable: the solve runs its whole budget
  const solvers::FreeStream fs{0.05, 3000.0, 0.0, 2000.0};
  solvers::EulerSolver solver(g, gas_model, opt);
  solver.initialize(fs);
  EXPECT_EQ(solver.solve(), 120u);
  // Same state as advancing exactly 120 iterations.
  solvers::EulerSolver twin(g, gas_model, opt);
  twin.initialize(fs);
  twin.advance(120);
  EXPECT_EQ(solver.residual(), twin.residual());
  EXPECT_EQ(solver.primitive(0, 0), twin.primitive(0, 0));
}

TEST(Euler, Mach20HemisphereAnchors) {
  // Coarse-grid ideal-gas anchors: pitot pressure and stagnation
  // temperature (total temperature) at M = 20.
  geometry::Sphere body(0.1524);
  auto g = grid::make_normal_grid(
      body, body.total_arc_length(), 24, 24,
      [](double s) { return 0.1524 * (0.3 + 0.4 * s * s); }, 1.3);
  auto gas_model =
      std::make_shared<core::IdealGasModel>(gas::IdealGas(1.4, 287.053));
  solvers::FvOptions opt;
  opt.max_iter = 4000;
  opt.residual_tol = 1e-4;
  solvers::EulerSolver solver(g, gas_model, opt);
  const double t_inf = 216.65, p_inf = 5474.9;
  const double rho = p_inf / (287.053 * t_inf);
  const double v = 20.0 * std::sqrt(1.4 * 287.053 * t_inf);
  solver.initialize({rho, v, 0.0, p_inf});
  solver.solve();
  const double t0 = t_inf * (1.0 + 0.2 * 400.0);
  EXPECT_NEAR(solver.temperature(0, 0), t0, 0.05 * t0);
  EXPECT_NEAR(solver.pressure(0, 0), 0.92 * rho * v * v,
              0.08 * 0.92 * rho * v * v);
}

// ---------- marching solvers ----------

TEST(Marching, VslHeatingDecaysDownstream) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::VslSolver vsl(eq);
  geometry::SphereCone body(0.3, 45.0 * M_PI / 180.0, 1.2);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(65000.0);
  const solvers::MarchFreestream fs{6500.0, a.density, a.pressure,
                                    a.temperature};
  const auto res =
      vsl.solve(body, fs, 0.02, 0.9 * body.total_arc_length(), 16);
  ASSERT_EQ(res.size(), 16u);
  // Heating decays monotonically on the cone (laminar 1/sqrt(s)).
  for (std::size_t k = 6; k < res.size(); ++k)
    EXPECT_LT(res[k].q_w, res[k - 1].q_w) << k;
  EXPECT_GT(res.front().q_w, 1e5);  // W/m^2 scale sanity
}

TEST(Marching, BoundaryLayerMatchesVslOnCone) {
  // Same body + edge physics, two formulations: local similarity (BL) and
  // nonsimilar marching (VSL) should agree within tens of percent.
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(65000.0);
  geometry::SphereCone body(0.3, 45.0 * M_PI / 180.0, 1.2);
  const solvers::MarchFreestream fs{6500.0, a.density, a.pressure,
                                    a.temperature};
  solvers::VslSolver vsl(eq);
  const auto vres =
      vsl.solve(body, fs, 0.05, 0.9 * body.total_arc_length(), 10);

  solvers::StagnationLineSolver stag(eq);
  solvers::StagnationConditions sc{fs.velocity, fs.rho, fs.p, fs.t, 0.3,
                                   1200.0};
  const auto edge = stag.shock_layer_edge(sc);
  const auto stag_state = eq.solve_ph(edge.p_stag, edge.h_stag);
  std::vector<solvers::BlStation> stations;
  for (const auto& r : vres)
    stations.push_back({r.s, body.at(r.s).r, r.p_e});
  solvers::BoundaryLayerSolver bl(eq);
  const auto bres = bl.solve(stations, stag_state, edge.h_stag);
  for (std::size_t k = 2; k < vres.size(); ++k) {
    EXPECT_NEAR(bres.q_w[k], vres[k].q_w, 0.45 * vres[k].q_w) << k;
  }
}

TEST(Marching, PnsEquilibriumExceedsIdealModestly) {
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::PnsSolver pns(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(71300.0);
  const solvers::MarchFreestream fs{6740.0, a.density, a.pressure,
                                    a.temperature};
  geometry::OrbiterGeometry orb;
  const auto eqr = pns.solve_equilibrium(orb, fs, 40.0 * M_PI / 180.0, 12);
  const auto idr = pns.solve_ideal(orb, fs, 40.0 * M_PI / 180.0, 1.2, 12);
  ASSERT_EQ(eqr.size(), idr.size());
  for (std::size_t k = 2; k < eqr.size(); ++k) {
    const double ratio = eqr[k].q_w / idr[k].q_w;
    EXPECT_GT(ratio, 0.8) << k;   // same family
    EXPECT_LT(ratio, 1.6) << k;   // no runaway divergence
    EXPECT_GT(eqr[k].q_w, 0.0);
  }
  // Heating decays along the windward ray.
  EXPECT_LT(eqr.back().q_w, eqr.front().q_w);
}

// ---------- marching front-end helpers ----------

TEST(MarchFrontEnd, EnthalpyAtTemperatureRoundTripsIdealGas) {
  const double gamma = 1.4, r_gas = 287.053;
  const double cp = gamma * r_gas / (gamma - 1.0);
  const auto props = solvers::make_ideal_props(gamma, r_gas);
  for (const double t : {220.0, 1200.0, 6500.0}) {
    const double h = solvers::enthalpy_at_temperature(props, 1.0e4, t);
    EXPECT_NEAR(h, cp * t, 1e-6 * cp * t) << t;
    EXPECT_NEAR(props(1.0e4, h).t, t, 1e-6 * t);
  }
}

TEST(MarchFrontEnd, EnthalpyBracketWidensBeyondLegacyLimits) {
  // The old hard-coded bisection bracket [-5e6, 5e7] J/kg silently clamped
  // any target outside it. Both out-of-bracket sides must now resolve.
  const double cp = 1004.6855;
  // Above: T = 60000 K needs h ~ 6.0e7 > 5e7.
  const auto hot = solvers::make_ideal_props(1.4, 287.053);
  const double t_hot = 60000.0;
  EXPECT_NEAR(solvers::enthalpy_at_temperature(hot, 1.0e5, t_hot),
              cp * t_hot, 1e-5 * cp * t_hot);
  // Below: a provider with a shifted enthalpy datum puts cold targets
  // at h ~ -2e7 < -5e6.
  const double h0 = -2.0e7;
  const solvers::PropertyProvider shifted = [=](double /*p*/, double h) {
    solvers::PhState st;
    st.h = h;
    st.t = (h - h0) / cp;
    st.rho = 1.0;
    st.mu = 1.8e-5;
    st.pr = 0.72;
    return st;
  };
  const double t_cold = 150.0;
  EXPECT_NEAR(solvers::enthalpy_at_temperature(shifted, 1.0e5, t_cold),
              h0 + cp * t_cold, 1e-5 * std::fabs(h0 + cp * t_cold));
}

TEST(MarchFrontEnd, EnthalpyThrowsWhenTargetUnreachable) {
  // A provider whose temperature saturates can never reach the target;
  // the old bisection silently returned the bracket endpoint instead.
  const solvers::PropertyProvider saturating = [](double /*p*/, double h) {
    solvers::PhState st;
    st.h = h;
    st.t = std::min(h / 1004.0, 1000.0);
    st.rho = 1.0;
    st.mu = 1.8e-5;
    st.pr = 0.72;
    return st;
  };
  EXPECT_THROW(solvers::enthalpy_at_temperature(saturating, 1.0e5, 2000.0),
               SolverError);
}

TEST(MarchFrontEnd, RayleighPitotConvergesForIdealGas) {
  // Calorically perfect strong shock: the density-ratio fixed point must
  // converge to eps ~ (gamma-1)/(gamma+1) = 1/6 and the pitot pressure to
  // the Rayleigh value ~0.9 rho V^2.
  const double gamma = 1.4, r_gas = 287.053, cp = gamma * r_gas / (gamma - 1.0);
  const solvers::DensityProvider rho_of_ph = [=](double p, double h) {
    return p / (r_gas * (h / cp));
  };
  const double t_inf = 220.0, p_inf = 100.0;
  const solvers::MarchFreestream fs{6000.0, p_inf / (r_gas * t_inf), p_inf,
                                    t_inf};
  const auto pitot = solvers::solve_rayleigh_pitot(rho_of_ph, fs, cp * t_inf);
  EXPECT_NEAR(pitot.eps, 1.0 / 6.0, 0.02);
  const double q2 = fs.rho * fs.velocity * fs.velocity;
  EXPECT_NEAR(pitot.p_stag, 0.90 * q2, 0.03 * q2);
}

TEST(MarchFrontEnd, RayleighPitotThrowsWhenUnconverged) {
  // The legacy copies in the VSL and PNS front ends exited their fixed
  // 40-iteration loops silently; the shared helper must report a stall.
  const double gamma = 1.4, r_gas = 287.053, cp = gamma * r_gas / (gamma - 1.0);
  const solvers::DensityProvider rho_of_ph = [=](double p, double h) {
    return p / (r_gas * (h / cp));
  };
  const double t_inf = 220.0, p_inf = 100.0;
  const solvers::MarchFreestream fs{6000.0, p_inf / (r_gas * t_inf), p_inf,
                                    t_inf};
  EXPECT_THROW(solvers::solve_rayleigh_pitot(rho_of_ph, fs, cp * t_inf,
                                             /*eps0=*/0.5, /*max_iters=*/1),
               SolverError);
  EXPECT_THROW(
      solvers::solve_rayleigh_pitot(
          [](double, double) { return -1.0; }, fs, cp * t_inf),
      SolverError);
}

/// Degenerate axisymmetric body whose generator reports r = 0 on an early
/// arc span — the failure mode the old absolute nose-radius clamps
/// (max(r, 1e-6) in VSL, max(r, 1e-5) in PNS) papered over.
class DegenerateNose final : public geometry::Body {
 public:
  explicit DegenerateNose(double rn) : rn_(rn) {}
  geometry::SurfacePoint at(double s) const override {
    geometry::SurfacePoint pt;
    pt.s = s;
    pt.theta = std::max(0.05, 0.5 * M_PI - s / rn_);
    pt.x = s * std::cos(pt.theta);
    pt.r = s < 0.05 * rn_ ? 0.0 : rn_ * std::sin(std::min(s / rn_, 1.4));
    pt.curvature = 1.0 / rn_;
    return pt;
  }
  double nose_radius() const override { return rn_; }
  double total_arc_length() const override { return 0.5 * M_PI * rn_; }
  std::string name() const override { return "degenerate-nose"; }

 private:
  double rn_;
};

TEST(MarchFrontEnd, NoseRadiusMetricUsesStagnationLimit) {
  // Where the generator degenerates (r = 0 at s > 0) the edge metric must
  // fall back to the analytic stagnation limit r -> s, not an absolute
  // clamp: for any smooth blunt nose r(s) = s + O(s^3/Rn^2), so r/s -> 1.
  // The shared helper itself: every positive geometry radius passes
  // through (including genuinely small aft radii on closing bodies, which
  // the old absolute clamps inflated); a degenerate generator (r <= 0)
  // falls back to the stagnation limit r -> s near the nose and fails
  // loudly aft of it, where no analytic limit exists.
  EXPECT_EQ(solvers::metric_radius(0.2, 0.1, 0.3), 0.2);
  EXPECT_EQ(solvers::metric_radius(1e-7, 1.2, 0.3), 1e-7);
  EXPECT_EQ(solvers::metric_radius(0.0, 0.1, 0.3), 0.1);
  EXPECT_THROW((void)solvers::metric_radius(0.0, 2.0, 0.3), SolverError);

  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  solvers::VslSolver vsl(eq);
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(65000.0);
  const solvers::MarchFreestream fs{6500.0, a.density, a.pressure,
                                    a.temperature};
  const DegenerateNose body(0.3);
  const auto edges = vsl.build_edges(body, fs, 0.002, 0.12, 8);
  for (const auto& e : edges) {
    if (body.at(e.s).r == 0.0) {
      EXPECT_NEAR(e.r, e.s, 1e-12) << "stagnation-limit fallback at s=" << e.s;
    } else {
      EXPECT_EQ(e.r, body.at(e.s).r) << "geometry radius must pass through";
    }
  }
  // The sphere's own r(s) = Rn sin(s/Rn) stays within the analytic-limit
  // band near the nose, so the fallback is consistent with the geometry it
  // replaces: r/s in [2/pi, 1] over the whole quarter arc.
  const geometry::Sphere sphere(0.3);
  for (const double s : {1e-4, 1e-3, 1e-2, 0.1}) {
    const double ratio = sphere.at(s).r / s;
    EXPECT_GT(ratio, 2.0 / M_PI);
    EXPECT_LE(ratio, 1.0 + 1e-12);
  }
  // And the march over the degenerate body still produces finite positive
  // heating (the old 1e-6 m clamp collapsed xi near the axis).
  const auto res = vsl.solve(body, fs, 0.002, 0.12, 8);
  for (const auto& st : res) {
    EXPECT_TRUE(std::isfinite(st.q_w)) << st.s;
    EXPECT_GT(st.q_w, 0.0) << st.s;
  }
}

TEST(MarchFrontEnd, StreamwiseOrderUpgradeShiftsHeatingSlightly) {
  // BDF2 vs the legacy BDF1 history terms on a real sphere-cone: the two
  // marches must stay in the same physical band (the upgrade is a
  // discretization-order change, not a model change) while differing
  // measurably enough that the ladder studies can observe the order.
  gas::EquilibriumSolver eq(gas::make_air5(), {{"N2", 0.79}, {"O2", 0.21}});
  atmosphere::EarthAtmosphere atmo;
  const auto a = atmo.at(65000.0);
  const solvers::MarchFreestream fs{6500.0, a.density, a.pressure,
                                    a.temperature};
  geometry::SphereCone body(0.3, 45.0 * M_PI / 180.0, 1.2);
  solvers::MarchOptions o2;
  solvers::MarchOptions o1;
  o1.streamwise_order = 1;
  const auto r2 = solvers::VslSolver(eq, o2).solve(
      body, fs, 0.02, 0.9 * body.total_arc_length(), 16);
  const auto r1 = solvers::VslSolver(eq, o1).solve(
      body, fs, 0.02, 0.9 * body.total_arc_length(), 16);
  ASSERT_EQ(r1.size(), r2.size());
  double max_rel = 0.0;
  for (std::size_t k = 0; k < r1.size(); ++k) {
    const double rel = std::fabs(r2[k].q_w - r1[k].q_w) / r1[k].q_w;
    max_rel = std::max(max_rel, rel);
    EXPECT_LT(rel, 0.08) << "k=" << k << ": order change moved q_w by "
                         << rel;
  }
  EXPECT_GT(max_rel, 1e-8) << "streamwise_order=1 is not reaching the core";
}

}  // namespace
