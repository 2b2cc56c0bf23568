/// The field-suite pass of the traced run: every registry case outside the
/// stagnation path at smoke fidelity, serially on one thread — the marches
/// and flight domains, the three finite-volume fields and the shock tube.

#include <functional>
#include <iterator>

#include "bench.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "stats.hpp"

namespace perfbench {

namespace sc = cat::scenario;

namespace {

constexpr const char* kMarchCases[] = {
    "orbiter_windward_ebl", "orbiter_windward_pns",
    "orbiter_windward_pns_ideal", "sphere_cone_vsl",
    "shuttle_flight_domain", "tav_flight_domain"};
constexpr const char* kFvCases[] = {"sphere_euler_shock_shape",
                                    "hemisphere_mach20_ns",
                                    "hemisphere_fv_neq_air5"};
constexpr const char* kRelaxCase = "shock_tube_10kms_neq";

/// field.march_s is the median of this many groups (~1 s each).
constexpr std::size_t kMarchGroups = 3;

/// Smoke-fidelity residual a finite-volume field must reach to count as
/// converged; a case that stops above it ran out of its iteration budget.
constexpr double kFvResidualTolerance = 1e-4;

class FieldRunner {
 public:
  explicit FieldRunner(Context& ctx) : ctx_(ctx) {}

  /// Run one registry case serially; returns its wall time. The first run
  /// of a case records its headline outputs for the reference check;
  /// later runs must reproduce them bit for bit.
  double run(const char* name, const char* span, sc::CaseResult* out) {
    sc::Case c = *sc::find_scenario(name);
    c.fidelity = sc::Fidelity::kSmoke;
    ctx_.outcome.attempt();
    const auto t0 = Clock::now();
    sc::CaseResult r;
    try {
      r = sc::run_case(c, {1});
    } catch (const std::exception& e) {
      ctx_.outcome.fail(std::string(name) + " threw: " + e.what());
    }
    const auto t1 = Clock::now();
    Tracer::Group g(ctx_.tracer, std::hash<std::string>{}(name));
    g.add(span, t0, t1);
    g.commit();
    std::vector<std::pair<std::string, double>> outputs;
    for (const auto& m : r.metrics) outputs.emplace_back(m.name, m.value);
    const auto [it, first] = ctx_.outputs.emplace(name, outputs);
    if (!first && it->second != outputs)
      ctx_.outcome.wrong(std::string(name) + " changed between runs");
    const double s = seconds_between(t0, t1);
    case_s_[name].push_back(s);
    if (out != nullptr) *out = std::move(r);
    return s;
  }

  void put_case_times() {
    for (const auto& [name, v] : case_s_)
      ctx_.put_layer("case." + name + "_s", median(v), "s", v.size());
  }

 private:
  Context& ctx_;
  std::map<std::string, std::vector<double>> case_s_;
};

}  // namespace

struct FieldPass::State {
  explicit State(Context& ctx) : runner(ctx) {}
  FieldRunner runner;
  double fv_s = 0.0;
  std::size_t fv_done = 0;
  std::size_t unconverged = 0;
  double relax_s = 0.0;
  std::vector<double> march_s;
};

FieldPass::FieldPass(Context& ctx)
    : ctx_(ctx), st_(std::make_unique<State>(ctx)) {}

FieldPass::~FieldPass() = default;

void FieldPass::run() {
  Context& ctx = ctx_;
  State& st = *st_;
  for (const char* name : kFvCases) {
    sc::CaseResult r;
    const double s = st.runner.run(name, "fv.case", &r);
    st.fv_s += s;
    ++st.fv_done;
    const double iterations = metric_or(r, "iterations", 0.0);
    const double residual = metric_or(r, "residual", 1.0);
    if (!(residual <= kFvResidualTolerance)) {
      ++st.unconverged;
      ctx.outcome.known_defect(std::string(name) + ": residual " +
                               std::to_string(residual) + " above the smoke "
                               "tolerance 1e-4 after " +
                               std::to_string(static_cast<long>(iterations)) +
                               " iterations");
    }
    const std::string prefix = std::string("fv.") + name;
    ctx.put_layer(prefix + ".iterations", iterations, "count", 1);
    ctx.put_layer(prefix + ".residual", residual, "1", 1);
    ctx.put_layer(prefix + ".iter_ms",
                  iterations > 0.0 ? s * 1e3 / iterations : 0.0, "ms", 1);
  }
  st.relax_s = st.runner.run(kRelaxCase, "relax1d.case", nullptr);
  for (std::size_t g = 0; g < kMarchGroups; ++g) {
    double group = 0.0;
    for (const char* name : kMarchCases)
      group += st.runner.run(name, "march.case", nullptr);
    st.march_s.push_back(group);
  }
}

void FieldPass::finish() {
  Context& ctx = ctx_;
  State& st = *st_;
  if (st.fv_done != std::size(kFvCases) || st.relax_s <= 0.0 ||
      st.march_s.empty()) {
    ctx.outcome.wrong("field suite: not every case ran");
    return;
  }
  ctx.put_layer("field.fv_s", st.fv_s, "s", st.fv_done);
  ctx.put_layer("field.relax_s", st.relax_s, "s", 1);
  ctx.put_layer("field.march_s", median(st.march_s), "s", st.march_s.size());
  ctx.put_layer("fv.unconverged", static_cast<double>(st.unconverged), "count",
                1);
  st.runner.put_case_times();
}

}  // namespace perfbench
