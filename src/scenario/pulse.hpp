#pragma once
/// \file pulse.hpp
/// Heating-pulse driver: the trajectory x stagnation-line workflow
/// (paper Fig. 2) decimated to a bounded number of stagnation solves and
/// executed across a thread pool. Every trajectory point is independent,
/// so results are bitwise identical for any thread count.
///
/// This is the engine under the StagnationPulse scenario runner; direct
/// callers that want a serial pulse set PulseOptions::threads = 1.

#include <cstddef>
#include <vector>

#include "solvers/stagnation/stagnation.hpp"
#include "trajectory/trajectory.hpp"

namespace cat::scenario {

/// One point of a heating pulse.
struct HeatingPoint {
  double time;       ///< [s]
  double velocity;   ///< [m/s]
  double altitude;   ///< [m]
  double q_conv;     ///< [W/m^2]
  double q_rad;      ///< [W/m^2]
};

/// Options for the pulse driver.
struct PulseOptions {
  std::size_t max_points = 80;            ///< stagnation solves along the pulse
  double wall_temperature_K = 1500.0;
  std::size_t threads = 1;                ///< 0 = hardware concurrency
};

/// Outcome of one pulse point.
enum class PulsePointStatus : unsigned char {
  kSolved,         ///< full stagnation solve succeeded
  kFreeMolecular,  ///< freestream density below 1e-9 kg/m^3 (continuum
                   ///< floor); reported as zero without a solve
  kSkipped,        ///< the solver raised cat::Error; reported as zero
};

/// Batch pulse result: the heating points plus an explicit account of
/// every point the solver could not handle (instead of silently recording
/// zeros, the pre-refactor behavior).
struct PulseResult {
  std::vector<HeatingPoint> points;
  std::vector<PulsePointStatus> status;  ///< parallel to points
  std::size_t n_solved = 0;
  std::size_t n_free_molecular = 0;
  std::size_t n_skipped = 0;             ///< solver failures (cat::Error)

  /// Integrated heat load [J/m^2] (trapezoid over time).
  double heat_load() const;
};

/// Decimation of a trajectory for the pulse driver: indices of the points
/// to solve. The retained span is the leading run with
/// V >= 0.15 V_entry; the stride is chosen from that
/// span (not the full trajectory length) so the heating peak keeps its
/// sample density, and the final retained point is always included so the
/// pulse cannot end early. Exposed for direct unit testing.
std::vector<std::size_t> decimate_pulse_indices(
    const std::vector<trajectory::TrajectoryPoint>& traj,
    const PulseOptions& opt);

/// Compute the heating pulse over \p traj with opt.threads workers.
/// Bitwise deterministic in the thread count.
PulseResult heating_pulse(
    const std::vector<trajectory::TrajectoryPoint>& traj,
    const trajectory::Vehicle& vehicle,
    const solvers::StagnationLineSolver& solver, const PulseOptions& opt = {});

}  // namespace cat::scenario
