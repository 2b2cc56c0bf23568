#include "scenario/batch.hpp"

#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "scenario/runner_detail.hpp"

namespace cat::scenario {

BatchResult run_batch(const std::vector<Case>& cases,
                      const BatchOptions& opt) {
  const auto t0 = detail::Clock::now();
  BatchResult out;
  out.results.resize(cases.size());

  // Each case runs single-threaded: the batch is the one level of
  // parallelism (nested pools would oversubscribe the cores).
  const RunOptions ropt{.threads = 1};

  core::ThreadPool pool(opt.threads);
  pool.parallel_for(cases.size(), [&](std::size_t i) {
    try {
      out.results[i] = run_case(cases[i], ropt);
    } catch (const cat::Error& err) {
      // A diverged case is a data point of the sweep, not a batch abort.
      CaseResult r = detail::make_result(cases[i]);
      r.table = io::Table(cases[i].name + " (failed)");
      r.metrics = {{"failed", 1.0, "-"}};
      r.rendering = err.what();
      out.results[i] = std::move(r);
    }
  });

  out.elapsed_seconds = detail::seconds_since(t0);
  return out;
}

}  // namespace cat::scenario
