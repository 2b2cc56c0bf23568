#pragma once
/// \file bench.hpp
/// Shared pieces of the perfbench program: the run context (outcome
/// counters, the metric record, the span recorder) and the three passes:
/// serving and stagnation batch in every run, the field suite in the
/// traced run. The passes drive the library only through its
/// public entry points; every timing here is taken from the benchmark's
/// own code around those calls.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "trace.hpp"

namespace cat::scenario {
class Server;
class SurrogateTable;
struct CaseResult;
}  // namespace cat::scenario

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One reported figure: value, unit and the number of samples behind it.
struct Figure {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Attempted/failed operation counts plus the reasons for each failure.
/// A wrong answer is a failed operation and also clears `correct`.
class Outcome {
 public:
  void attempt(std::size_t n = 1);
  /// An operation that ran but did not succeed (a thrown case, a failed
  /// sweep point).
  void fail(const std::string& why);
  /// A documented shortfall of the library that the reference pins (a
  /// pulse point the solver skips, an FV case that ends at its iteration
  /// budget). It is reported with every record but is not a failed
  /// operation: reference.json holds its count and residual, so a change
  /// either way fails the reference check instead.
  void known_defect(const std::string& why);
  /// An output that disagrees with its reference: failed and incorrect.
  void wrong(const std::string& why);

  std::size_t attempted() const;
  std::size_t failed() const;
  bool correct() const;
  std::vector<std::string> reasons() const;
  std::vector<std::string> known_defects() const;

 private:
  mutable std::mutex mu_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> reasons_;  ///< capped; counts stay exact
  std::vector<std::string> known_defects_;
};

/// Everything one process run shares across its passes.
struct Context {
  std::uint64_t seed = 0;
  std::size_t threads = 1;  ///< width for the threaded stag fan-outs
  std::string data_dir;     ///< the committed surrogate tables
  Tracer tracer;            ///< enabled only for --trace 1
  Outcome outcome;
  std::map<std::string, Figure> metrics;     ///< end-to-end figures
  std::map<std::string, Figure> per_layer;   ///< traced-run figures
  /// Headline outputs of every registry case run, for the reference check.
  std::map<std::string, std::vector<std::pair<std::string, double>>> outputs;
  std::vector<std::string> stream_hashes;    ///< one per generated input set

  void put(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  void put_layer(const std::string& name, double value,
                 const std::string& unit, std::size_t samples);
};

/// Inputs and long-lived objects built by the timed set-up step.
struct Setup {
  std::unique_ptr<cat::scenario::Server> server;
  std::shared_ptr<const cat::scenario::SurrogateTable> table;
  ServeStream stream;
  StagInputs stag;
  Setup();
  ~Setup();
  Setup(Setup&&) noexcept;
  Setup& operator=(Setup&&) noexcept;
};

/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

/// A named metric of a case result, or \p fallback when absent.
double metric_or(const cat::scenario::CaseResult& r, const char* name,
                 double fallback);

/// Build the server (tables preloaded), the seeded request stream and the
/// sweep grid. Run several times; the median is `setup_s`.
Setup make_setup(const Context& ctx);

/// A run is kSlices slices. In each slice the serving and stagnation
/// passes both do their share, so the samples behind each figure are
/// spread over the whole run and one slow stretch of a shared host cannot
/// set a figure alone. slice() runs a minimum amount of work and then
/// repeats until \p budget_s has passed (0 = the minimum only); finish()
/// checks the outputs not yet checked and reports the pass's figures.
inline constexpr std::size_t kSlices = 6;

class ServePass {
 public:
  ServePass(Context& ctx, Setup& setup);
  ~ServePass();
  ServePass(const ServePass&) = delete;
  ServePass& operator=(const ServePass&) = delete;
  /// At least \p min_blocks blocks of the request stream.
  void slice(std::size_t min_blocks, double budget_s);
  void finish();

 private:
  struct State;
  Context& ctx_;
  Setup& setup_;
  std::unique_ptr<State> st_;
  /// Check the slice's replies, fold their latencies in, drop them.
  void check_slice();
};

class StagPass {
 public:
  StagPass(Context& ctx, Setup& setup);
  ~StagPass();
  StagPass(const StagPass&) = delete;
  StagPass& operator=(const StagPass&) = delete;
  /// At least \p min_rounds rounds of sweep + pulses.
  void slice(std::size_t min_rounds, double budget_s);
  void finish();

 private:
  struct State;
  Context& ctx_;
  Setup& setup_;
  std::unique_ptr<State> st_;
};

class FieldPass {
 public:
  explicit FieldPass(Context& ctx);
  ~FieldPass();
  FieldPass(const FieldPass&) = delete;
  FieldPass& operator=(const FieldPass&) = delete;
  /// The three finite-volume fields, the shock tube, then kMarchGroups
  /// groups of the marches and flight-domain cases.
  void run();
  void finish();

 private:
  struct State;
  Context& ctx_;
  std::unique_ptr<State> st_;
};

}  // namespace perfbench
