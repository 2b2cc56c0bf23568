// Surrogate lookup hot path, split into its own translation unit so the
// whole TU sits on cat_lint's hot-path-alloc list and the operator-new
// counting tests (tests/test_workspace_alloc.cpp): serving a query is a
// bounds check, one cell-index computation and four bilinear reads — no
// allocation anywhere but the off-table throw path.

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "scenario/surrogate.hpp"

namespace cat::scenario {

const char* SurrogateTable::channel_name(std::size_t channel) {
  switch (channel) {
    case 0: return "q_conv";
    case 1: return "q_rad";
    case 2: return "t_stag";
    case 3: return "p_stag";
    default: break;
  }
  throw std::invalid_argument("SurrogateTable: bad channel index");
}

bool SurrogateTable::covers(double velocity_mps, double altitude_m) const {
  // Inclusive edges; NaN fails every comparison and is not covered.
  return velocity_mps >= domain_.velocity_min_mps &&
         velocity_mps <= domain_.velocity_max_mps &&
         altitude_m >= domain_.altitude_min_m &&
         altitude_m <= domain_.altitude_max_m;
}

SurrogateAnswer SurrogateTable::query(double velocity_mps,
                                      double altitude_m) const {
  if (!covers(velocity_mps, altitude_m))
    throw SolverError(
        "surrogate query off-table: the requested flight state lies "
        "outside the tabulated domain of '" + meta_.base_case +
        "' (no clamping — fall back to a correlation or a full solve)");
  // All four channel tables share the grid, so the cell location and
  // blend weights are computed once and reused — this is what keeps the
  // serving path at ~4 fused blends instead of 4 independent lookups.
  // Same index arithmetic as BilinearTable::operator(): clamp the cell
  // index, not the coordinate, so upper-edge queries reproduce nodes.
  const std::size_t nv = domain_.n_velocity, na = domain_.n_altitude;
  const double dv = (domain_.velocity_max_mps - domain_.velocity_min_mps) /
                    static_cast<double>(nv - 1);
  const double da = (domain_.altitude_max_m - domain_.altitude_min_m) /
                    static_cast<double>(na - 1);
  const double fv =
      std::clamp((velocity_mps - domain_.velocity_min_mps) / dv, 0.0,
                 static_cast<double>(nv - 1));
  const double fa =
      std::clamp((altitude_m - domain_.altitude_min_m) / da, 0.0,
                 static_cast<double>(na - 1));
  const std::size_t i = std::min(static_cast<std::size_t>(fv), nv - 2);
  const std::size_t j = std::min(static_cast<std::size_t>(fa), na - 2);
  const double tx = fv - static_cast<double>(i);
  const double ty = fa - static_cast<double>(j);
  const double w00 = (1.0 - tx) * (1.0 - ty), w10 = tx * (1.0 - ty);
  const double w01 = (1.0 - tx) * ty, w11 = tx * ty;
  const std::size_t cell = i * (na - 1) + j;

  const auto blend = [&](const numerics::BilinearTable& t) {
    return w00 * t.at(i, j) + w10 * t.at(i + 1, j) + w01 * t.at(i, j + 1) +
           w11 * t.at(i + 1, j + 1);
  };
  SurrogateAnswer a;
  a.q_conv_W_m2 = blend(values_[0]);
  a.q_conv_err_W_m2 = bounds_[0][cell];
  a.q_rad_W_m2 = blend(values_[1]);
  a.q_rad_err_W_m2 = bounds_[1][cell];
  a.t_stag_K = blend(values_[2]);
  a.t_stag_err_K = bounds_[2][cell];
  a.p_stag_Pa = blend(values_[3]);
  a.p_stag_err_Pa = bounds_[3][cell];
  return a;
}

}  // namespace cat::scenario
