// Tier-0 correlation tests: the five engineering stagnation-heating
// formulas must agree with each other (they fit the same physics), with
// the closed-form Fay-Riddell edge chain, and with the high-fidelity
// stagnation hierarchy on the registry's serving anchor — plus the
// scenario-runner plumbing (Fidelity::kCorrelation end to end) and the
// closed-form building blocks (Fay-Riddell, Sutton-Graves, Tauber-Sutton,
// Newtonian velocity gradient).

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "solvers/correlations/correlations.hpp"

namespace {

using namespace cat;
namespace corr = cat::solvers::correlations;

// The sphere_cone_vsl flight state: 6.5 km/s at 65 km, a regime every
// member of the family was fit for.
corr::CorrelationConditions reference_conditions() {
  corr::CorrelationConditions c;
  c.velocity_mps = 6500.0;
  c.rho_inf_kg_m3 = 1.632e-4;
  c.p_inf_Pa = 10.93;
  c.t_inf_K = 233.3;
  c.nose_radius_m = 0.3;
  c.wall_temperature_K = 1200.0;
  return c;
}

// ---------- cross-family agreement ----------

TEST(Correlations, FamilyMembersAgreeOnCommonRegime) {
  const auto c = reference_conditions();
  double q[corr::kAllCorrelations.size()];
  for (std::size_t k = 0; k < corr::kAllCorrelations.size(); ++k) {
    q[k] = corr::stagnation_heating(corr::kAllCorrelations[k], c);
    EXPECT_GT(q[k], 0.0) << corr::to_string(corr::kAllCorrelations[k]);
  }
  // Pairwise spread: independent fits of the same physics must land
  // within ~35% of each other in the regime they were all fit for.
  for (std::size_t a = 0; a < corr::kAllCorrelations.size(); ++a)
    for (std::size_t b = a + 1; b < corr::kAllCorrelations.size(); ++b)
      EXPECT_NEAR(q[a], q[b], 0.35 * std::max(q[a], q[b]))
          << corr::to_string(corr::kAllCorrelations[a]) << " vs "
          << corr::to_string(corr::kAllCorrelations[b]);
}

TEST(Correlations, SuttonGravesMagnitudeCheck) {
  // Independent yardstick: Sutton-Graves k*sqrt(rho/R)*V^3 with
  // k = 1.7415e-4 gives 1.12 MW/m^2 at the reference state. Every family
  // member must land within a factor ~1.35 (cold-wall vs hot-wall and
  // fit-form differences explain the residual spread).
  const auto c = reference_conditions();
  const double q_sg = 1.7415e-4 *
                      std::sqrt(c.rho_inf_kg_m3 / c.nose_radius_m) *
                      c.velocity_mps * c.velocity_mps * c.velocity_mps;
  for (const auto kind : corr::kAllCorrelations) {
    const double q = corr::stagnation_heating(kind, c);
    EXPECT_GT(q, q_sg / 1.35) << corr::to_string(kind);
    EXPECT_LT(q, q_sg * 1.35) << corr::to_string(kind);
  }
}

TEST(Correlations, DispatchMatchesIndividualFunctions) {
  const auto c = reference_conditions();
  EXPECT_EQ(corr::stagnation_heating(corr::CorrelationKind::kFayRiddell, c),
            corr::fay_riddell_heating(c));
  EXPECT_EQ(corr::stagnation_heating(corr::CorrelationKind::kKempRiddell, c),
            corr::kemp_riddell_heating(c));
  EXPECT_EQ(corr::stagnation_heating(corr::CorrelationKind::kLees, c),
            corr::lees_heating(c));
  EXPECT_EQ(corr::stagnation_heating(corr::CorrelationKind::kTauber, c),
            corr::tauber_heating(c));
  EXPECT_EQ(
      corr::stagnation_heating(corr::CorrelationKind::kDetraKempRiddell, c),
      corr::detra_kemp_riddell_heating(c));
}

// ---------- physical trends ----------

TEST(Correlations, HeatingGrowsWithVelocityAndDensity) {
  auto c = reference_conditions();
  for (const auto kind : corr::kAllCorrelations) {
    const double q0 = corr::stagnation_heating(kind, c);
    auto faster = c;
    faster.velocity_mps *= 1.2;
    EXPECT_GT(corr::stagnation_heating(kind, faster), q0)
        << corr::to_string(kind);
    auto denser = c;
    denser.rho_inf_kg_m3 *= 2.0;
    denser.p_inf_Pa *= 2.0;
    EXPECT_GT(corr::stagnation_heating(kind, denser), q0)
        << corr::to_string(kind);
  }
}

TEST(Correlations, BluntNoseHeatsLessAndHotWallHeatsLess) {
  auto c = reference_conditions();
  for (const auto kind : corr::kAllCorrelations) {
    const double q0 = corr::stagnation_heating(kind, c);
    auto blunt = c;
    blunt.nose_radius_m *= 4.0;  // q ~ 1/sqrt(R)
    EXPECT_NEAR(corr::stagnation_heating(kind, blunt), q0 / 2.0, 0.05 * q0)
        << corr::to_string(kind);
    auto hot = c;
    hot.wall_temperature_K = 2500.0;
    if (kind == corr::CorrelationKind::kTauber) {
      // The Tauber leading-edge fit has no hot-wall correction: it must
      // at least not *grow* with wall temperature.
      EXPECT_EQ(corr::stagnation_heating(kind, hot), q0);
    } else {
      EXPECT_LT(corr::stagnation_heating(kind, hot), q0)
          << corr::to_string(kind);
    }
  }
}

// ---------- edge-state chain ----------

TEST(Correlations, EdgeEstimateIsPhysical) {
  const auto c = reference_conditions();
  const auto e = corr::estimate_edge(c);
  // Stagnation pressure: hypersonic pitot ~ 0.92 * rho * V^2.
  EXPECT_NEAR(e.p_stag_Pa,
              0.92 * c.rho_inf_kg_m3 * c.velocity_mps * c.velocity_mps,
              0.05 * e.p_stag_Pa);
  // Total enthalpy is kinetic-dominated at 6.5 km/s.
  EXPECT_NEAR(e.h0_J_per_kg, 0.5 * c.velocity_mps * c.velocity_mps,
              0.05 * e.h0_J_per_kg);
  // The equilibrium-air fit must sit far below the frozen-cp temperature
  // (dissociation absorbs enthalpy) but above the wall.
  EXPECT_LT(e.t_stag_K, e.h0_J_per_kg / (3.5 * 287.053));
  EXPECT_GT(e.t_stag_K, c.wall_temperature_K);
  EXPECT_GT(e.rho_stag_kg_m3, c.rho_inf_kg_m3);
  EXPECT_GT(e.du_dx_Hz, 0.0);
  EXPECT_LT(e.h_wall_J_per_kg, e.h0_J_per_kg);
}

// ---------- input validation ----------

TEST(Correlations, RejectsUnphysicalInputs) {
  for (const auto kind : corr::kAllCorrelations) {
    auto c = reference_conditions();
    c.velocity_mps = -1.0;
    EXPECT_THROW(corr::stagnation_heating(kind, c), std::invalid_argument);
    c = reference_conditions();
    c.rho_inf_kg_m3 = 0.0;
    EXPECT_THROW(corr::stagnation_heating(kind, c), std::invalid_argument);
    c = reference_conditions();
    c.nose_radius_m = 0.0;
    EXPECT_THROW(corr::stagnation_heating(kind, c), std::invalid_argument);
    c = reference_conditions();
    c.wall_temperature_K = -300.0;
    EXPECT_THROW(corr::stagnation_heating(kind, c), std::invalid_argument);
  }
}

// ---------- against the high-fidelity hierarchy ----------

TEST(Correlations, TracksHighFidelityHierarchyOnServingAnchor) {
  const scenario::Case* base = scenario::find_scenario("shuttle_stag_point");
  ASSERT_NE(base, nullptr);

  scenario::Case hi = *base;
  hi.fidelity = scenario::Fidelity::kSmoke;
  const double q_hi = scenario::run_case(hi).metric("q_conv");

  scenario::Case fast = *base;
  fast.fidelity = scenario::Fidelity::kCorrelation;
  const auto r = scenario::run_case(fast);
  EXPECT_EQ(r.solver, "correlation");

  // Every member of the family within a factor of 2 of the hierarchy;
  // the Fay-Riddell chain (the headline q_conv) within 25%.
  for (const char* name :
       {"q_fay_riddell", "q_kemp_riddell", "q_lees", "q_tauber",
        "q_detra_kemp_riddell"}) {
    const double q = r.metric(name);
    EXPECT_GT(q, q_hi / 2.0) << name;
    EXPECT_LT(q, q_hi * 2.0) << name;
  }
  EXPECT_NEAR(r.metric("q_conv"), q_hi, 0.25 * q_hi);
  EXPECT_GT(r.metric("correlation_spread"), 0.0);
  EXPECT_LT(r.metric("correlation_spread"), 0.5);
}

// ---------- closed-form building blocks ----------

TEST(Heating, FayRiddellMagnitude) {
  // Representative shuttle-entry inputs reproduce the tens-of-W/cm^2
  // stagnation heating scale.
  corr::FayRiddellInputs in;
  in.rho_e = 2.3e-3;
  in.mu_e = 1.6e-4;
  in.rho_w = 1.5e-2;
  in.mu_w = 5.0e-5;
  in.du_dx = 1800.0;
  in.h0_e = 2.2e7;
  in.h_w = 1.2e6;
  in.h_dissociation = 1.4e7;
  const double q = corr::fay_riddell(in);
  EXPECT_GT(q, 2e5);
  EXPECT_LT(q, 1.5e6);
}

TEST(Heating, SuttonGravesScaling) {
  const double q1 = corr::sutton_graves(1e-4, 7000.0, 1.0);
  EXPECT_NEAR(corr::sutton_graves(4e-4, 7000.0, 1.0), 2.0 * q1, 1e-9 * q1);
  EXPECT_NEAR(corr::sutton_graves(1e-4, 14000.0, 1.0), 8.0 * q1, 1e-6 * q1);
  EXPECT_NEAR(corr::sutton_graves(1e-4, 7000.0, 4.0), 0.5 * q1, 1e-9 * q1);
}

TEST(Heating, TauberSuttonSteepVelocityDependence) {
  const double q10 = corr::tauber_sutton_radiative(1e-4, 10000.0, 1.0);
  const double q12 = corr::tauber_sutton_radiative(1e-4, 12000.0, 1.0);
  EXPECT_GT(q12 / q10, 3.0);  // ~V^8.5
}

TEST(Heating, NewtonianGradient) {
  const double dudx = corr::newtonian_velocity_gradient(1.0, 1e4, 10.0, 0.01);
  EXPECT_NEAR(dudx, std::sqrt(2.0 * (1e4 - 10.0) / 0.01), 1e-9);
}

// ---------- scenario plumbing ----------

TEST(Correlations, RunCaseRequiresPointCondition) {
  const scenario::Case* base = scenario::find_scenario("shuttle_orbiter_pulse");
  ASSERT_NE(base, nullptr);
  scenario::Case c = *base;  // trajectory case: no point condition
  c.fidelity = scenario::Fidelity::kCorrelation;
  EXPECT_THROW(scenario::run_case(c), std::invalid_argument);
}

TEST(Correlations, FidelityNamesRoundTrip) {
  EXPECT_STREQ(scenario::to_string(scenario::Fidelity::kSmoke), "smoke");
  EXPECT_STREQ(scenario::to_string(scenario::Fidelity::kNominal), "nominal");
  EXPECT_STREQ(scenario::to_string(scenario::Fidelity::kCorrelation),
               "correlation");
  EXPECT_STREQ(scenario::to_string(scenario::Fidelity::kSurrogate),
               "surrogate");
  for (const auto kind : corr::kAllCorrelations)
    EXPECT_NE(corr::to_string(kind), nullptr);
}

}  // namespace
