#pragma once
/// \file runner_detail.hpp
/// Internal helpers shared by the runner translation units (runner*.cpp).
/// Not part of the public scenario API.

#include <chrono>
#include <stdexcept>
#include <vector>

#include "chemistry/reaction.hpp"
#include "scenario/runner.hpp"
#include "solvers/stagnation/stagnation.hpp"
#include "trajectory/trajectory.hpp"

namespace cat::scenario::detail {

/// Family bodies, one per SolverFamily plus the two tier-0 presets.
/// run_case() stamps the result's identity (case_name, solver, titled
/// table) before the call and its elapsed time after; a body only sets
/// the table's columns and rows, the metrics, the rendering and the skip
/// count.
// runner.cpp
void run_trajectory_domain(const Case&, const RunOptions&, CaseResult&);
void run_stagnation_pulse(const Case&, const RunOptions&, CaseResult&);
void run_stagnation_point(const Case&, const RunOptions&, CaseResult&);
// runner_march.cpp
void run_euler_bl(const Case&, const RunOptions&, CaseResult&);
void run_vsl(const Case&, const RunOptions&, CaseResult&);
void run_pns(const Case&, const RunOptions&, CaseResult&);
// runner_field.cpp
void run_finite_volume_field(const Case&, const RunOptions&, CaseResult&);
// runner_relax.cpp
void run_shock_tube(const Case&, const RunOptions&, CaseResult&);
// runner_fast.cpp
void run_correlation(const Case&, const RunOptions&, CaseResult&);
void run_surrogate(const Case&, const RunOptions&, CaseResult&);

/// The Park air mechanism matching an air gas model. Any other gas throws
/// std::invalid_argument: finite-rate cases carry air chemistry only.
inline chemistry::Mechanism make_mechanism(GasModelKind kind) {
  switch (kind) {
    case GasModelKind::kAir5: return chemistry::park_air5();
    case GasModelKind::kAir9: return chemistry::park_air9();
    case GasModelKind::kAir11: return chemistry::park_air11();
    case GasModelKind::kTitan:
    case GasModelKind::kIdealGamma:
      break;
  }
  throw std::invalid_argument(
      "finite-rate cases (shock-tube relaxation, finite-rate FV fields) "
      "need an air mechanism (air5/air9/air11)");
}

/// Integrate the case's entry trajectory on its planet.
std::vector<trajectory::TrajectoryPoint> integrate_case_trajectory(
    const Case& c, const PlanetModel& planet);

/// Freestream + body inputs for a stagnation solve at the case's flight
/// condition (atmosphere query or explicit p/T override).
solvers::StagnationConditions stagnation_conditions(
    const Case& c, const PlanetModel& planet);

/// Stagnation-line solver resolution for the case's fidelity preset.
solvers::StagnationOptions stagnation_options(const Case& c);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Result skeleton with the case identity filled in (title left to the
/// caller: run_case titles it from the case, run_batch's failed-case row
/// marks it failed).
inline CaseResult make_result(const Case& c) {
  CaseResult r;
  r.case_name = c.name;
  r.solver = to_string(c.family);
  return r;
}

}  // namespace cat::scenario::detail
