#pragma once
/// \file batch.hpp
/// Batch execution of scenario cases across a thread pool: parameter
/// sweeps and multi-mission studies run one case per worker, while the
/// heating-pulse runner additionally parallelizes inside a single case
/// (over trajectory points). Results keep the input order regardless of
/// scheduling, so batch output is deterministic in the thread count.

#include <vector>

#include "scenario/runner.hpp"

namespace cat::scenario {

/// Result of a batch run.
struct BatchResult {
  std::vector<CaseResult> results;  ///< one per input case, input order
  double elapsed_seconds = 0.0;     ///< wall clock for the whole batch
};

/// Execution options for run_batch.
struct BatchOptions {
  std::size_t threads = 1;  ///< pool width across cases (0 = hardware)
};

/// Run every case, fanning out across opt.threads workers. A case whose
/// runner throws cat::Error yields a CaseResult whose "failed" metric is
/// set (value 1) instead of aborting the batch; any other exception
/// propagates.
BatchResult run_batch(const std::vector<Case>& cases,
                      const BatchOptions& opt = {});

}  // namespace cat::scenario
