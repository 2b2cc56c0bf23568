// Performance: the cat_serve façade. The serving layer's contract is
// that the hot path — a cached (or coalesced-and-cached) repeat of the
// common query — costs a key build, one shard lookup and a reply copy:
// well under a microsecond, versus tens of milliseconds for the smoke
// solve a cold miss ladders down to. bench_compare.py --intra pins the
// committed record:
//
//   serve_full_solve / serve_cache_hit >= 1000x
//
// (serve_cache_hit itself lands at a few hundred ns on the capture
// machine — the <= 1 us façade criterion — and serve_surrogate_miss
// shows the uncached surrogate-tier pipeline between the two.)

#include <benchmark/benchmark.h>

#include <array>
#include <cstddef>
#include <memory>
#include <stdexcept>

#include "scenario/registry.hpp"
#include "scenario/server.hpp"
#include "scenario/surrogate.hpp"

using namespace cat;

namespace {

// The common serving query: the registry's tier-0 anchor case.
scenario::Case anchor() {
  const scenario::Case* base = scenario::find_scenario("shuttle_stag_point");
  if (base == nullptr) throw std::runtime_error("anchor scenario missing");
  scenario::Case c = *base;
  c.fidelity = scenario::Fidelity::kSurrogate;
  return c;
}

/// Register a synthetic table covering the anchor neighborhood (analytic
/// truth — the bench times serving, not table building).
void register_anchor_table() {
  const scenario::Case c = anchor();
  scenario::SurrogateMeta meta;
  meta.planet = c.planet;
  meta.gas = c.gas;
  meta.family = c.family;
  meta.nose_radius_m = c.vehicle.nose_radius;
  meta.wall_temperature_K = c.wall_temperature_K;
  meta.angle_of_attack_rad = c.angle_of_attack_rad;
  meta.base_case = c.name;
  scenario::SurrogateDomain domain;
  domain.velocity_min_mps = 3000.0;
  domain.velocity_max_mps = 7500.0;
  domain.n_velocity = 7;
  domain.altitude_min_m = 45000.0;
  domain.altitude_max_m = 75000.0;
  domain.n_altitude = 7;
  scenario::register_surrogate(
      std::make_shared<const scenario::SurrogateTable>(
          scenario::build_surrogate(
              meta, domain,
              [](double v, double alt) {
                return std::array<double, 4>{1e-2 * v * v, 0.5 * v, 3000.0,
                                             0.1 * alt};
              },
              {})));
}

void serve_cache_hit(benchmark::State& state) {
  // The hot path: the same on-table query repeated. One warm-up serve
  // populates the cache; every timed iteration is key + shard + copy.
  scenario::clear_surrogates();
  register_anchor_table();
  scenario::Server server;
  const scenario::Case c = anchor();
  const auto warm = server.serve(c);
  if (!warm.ok) throw std::runtime_error("warm-up serve failed: " + warm.error);
  for (auto _ : state) {
    const auto r = server.serve(c);
    benchmark::DoNotOptimize(r.metrics.data());
  }
  scenario::clear_surrogates();
  state.SetLabel("repeated on-table query: sharded-cache hit");
}

void serve_surrogate_miss(benchmark::State& state) {
  // Every iteration is a fresh key, so each serve runs the full pipeline
  // of a miss: in-flight slot, surrogate-tier lookup on the calling
  // thread, cache insert.
  scenario::clear_surrogates();
  register_anchor_table();
  scenario::ServerOptions opt;
  opt.threads = 2;
  scenario::Server server(opt);
  scenario::Case c = anchor();
  double bump = 0.0;
  for (auto _ : state) {
    c.condition.velocity_mps = 3000.0 + bump;
    bump = bump < 4400.0 ? bump + 1e-3 : 0.0;
    const auto r = server.serve(c);
    benchmark::DoNotOptimize(r.metrics.data());
  }
  scenario::clear_surrogates();
  state.SetLabel("fresh on-table query: surrogate tier");
}

void serve_full_solve(benchmark::State& state) {
  // The cold floor: an explicit smoke-fidelity request (never
  // downgraded), fresh key each iteration — queue + full stagnation-line
  // solve.
  scenario::clear_surrogates();
  scenario::ServerOptions opt;
  opt.threads = 2;
  scenario::Server server(opt);
  scenario::Case c = anchor();
  c.fidelity = scenario::Fidelity::kSmoke;
  double bump = 0.0;
  for (auto _ : state) {
    c.condition.velocity_mps = 6740.0 + bump;
    bump = bump < 100.0 ? bump + 1e-3 : 0.0;
    const auto r = server.serve(c);
    benchmark::DoNotOptimize(r.metrics.data());
  }
  state.SetLabel("fresh full-fidelity query: queue + smoke solve");
}

}  // namespace

BENCHMARK(serve_cache_hit)->Unit(benchmark::kNanosecond);
BENCHMARK(serve_surrogate_miss)->Unit(benchmark::kMicrosecond);
BENCHMARK(serve_full_solve)->Unit(benchmark::kMillisecond);
