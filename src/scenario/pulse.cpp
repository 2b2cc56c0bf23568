#include "scenario/pulse.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/thread_pool.hpp"

namespace cat::scenario {
namespace {

/// The pulse ends at the first point slower than this fraction of the
/// entry velocity.
constexpr double kStartVelocityFraction = 0.15;
/// Continuum floor [kg/m^3]: below this freestream density the point is
/// reported as free-molecular (zero continuum heating) without a solve.
constexpr double kContinuumDensityFloor = 1e-9;

}  // namespace

double PulseResult::heat_load() const {
  double acc = 0.0;
  for (std::size_t k = 1; k < points.size(); ++k) {
    acc += 0.5 *
           (points[k].q_conv + points[k].q_rad + points[k - 1].q_conv +
            points[k - 1].q_rad) *
           (points[k].time - points[k - 1].time);
  }
  return acc;
}

std::vector<std::size_t> decimate_pulse_indices(
    const std::vector<trajectory::TrajectoryPoint>& traj,
    const PulseOptions& opt) {
  CAT_REQUIRE(!traj.empty(), "empty trajectory");
  CAT_REQUIRE(opt.max_points > 0, "max_points must be positive");
  const double v_entry = traj.front().velocity;
  const double v_cut = kStartVelocityFraction * v_entry;

  // Retained span: the leading run of hypersonic points. (The cut is a
  // prefix, matching the legacy loop's break: once the vehicle slows below
  // the cut the pulse is over, even if it later re-accelerates diving.)
  std::size_t span = 0;
  while (span < traj.size() && traj[span].velocity >= v_cut) ++span;
  if (span == 0) return {};

  // Ceil-stride over the retained span keeps at most max_points solves
  // while sampling the heating peak at the density the caller asked for;
  // the legacy floor-stride over the *full* trajectory length undersampled
  // the peak and could drop the end of the pulse entirely.
  const std::size_t stride = (span + opt.max_points - 1) / opt.max_points;
  std::vector<std::size_t> idx;
  idx.reserve(std::min(opt.max_points + 1, span));
  for (std::size_t k = 0; k < span; k += stride) idx.push_back(k);
  if (idx.back() != span - 1) idx.push_back(span - 1);
  return idx;
}

PulseResult heating_pulse(
    const std::vector<trajectory::TrajectoryPoint>& traj,
    const trajectory::Vehicle& vehicle,
    const solvers::StagnationLineSolver& solver, const PulseOptions& opt) {
  const auto idx = decimate_pulse_indices(traj, opt);

  PulseResult out;
  out.points.resize(idx.size());
  out.status.resize(idx.size());

  core::ThreadPool pool(opt.threads);
  pool.parallel_for(idx.size(), [&](std::size_t i) {
    const auto& p = traj[idx[i]];
    HeatingPoint hp{p.time, p.velocity, p.altitude, 0.0, 0.0};
    PulsePointStatus st;
    if (p.density < kContinuumDensityFloor) {
      // Free-molecular fringe: no continuum shock layer yet.
      st = PulsePointStatus::kFreeMolecular;
    } else {
      solvers::StagnationConditions c;
      c.velocity = p.velocity;
      c.rho_inf = p.density;
      c.p_inf = p.pressure;
      c.t_inf = p.temperature;
      c.nose_radius = vehicle.nose_radius;
      c.wall_temperature_K = opt.wall_temperature_K;
      try {
        const auto sol = solver.solve(c);
        hp.q_conv = sol.q_conv;
        hp.q_rad = sol.q_rad;
        st = PulsePointStatus::kSolved;
      } catch (const cat::Error&) {
        // Extremely rarefied or slow points defeat the shock-layer closure
        // (non-hypersonic enthalpy, equilibrium Newton failure); record
        // zero heating and count the skip. Anything that is not a
        // cat::Error is a genuine bug and propagates.
        st = PulsePointStatus::kSkipped;
      }
    }
    out.points[i] = hp;
    out.status[i] = st;
  });

  for (const auto st : out.status) {
    switch (st) {
      case PulsePointStatus::kSolved: ++out.n_solved; break;
      case PulsePointStatus::kFreeMolecular: ++out.n_free_molecular; break;
      case PulsePointStatus::kSkipped: ++out.n_skipped; break;
    }
  }
  return out;
}

}  // namespace cat::scenario
