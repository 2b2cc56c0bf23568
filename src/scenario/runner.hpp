#pragma once
/// \file runner.hpp
/// run_case(): the single entry point that executes a Case through its
/// solver family (stagnation line, VSL/PNS marching, E+BL, finite-volume
/// Euler/NS, relax1d, trajectory analysis) or a tier-0 fidelity preset.
/// The CLI, the batch driver, the examples and the benches all drive it.

#include "scenario/scenario.hpp"

namespace cat::scenario {

/// Execution knobs that are not part of the case description.
struct RunOptions {
  std::size_t threads = 1;  ///< worker threads (0 = hardware concurrency)
};

/// Run one case. Reentrant: the batch driver calls it concurrently from
/// pool workers.
CaseResult run_case(const Case& c, const RunOptions& opt = {});

}  // namespace cat::scenario
