// Performance: direct Gibbs minimization vs tabulated equilibrium EOS.
// This is the quantitative version of the paper's argument that
// "approximate, but usefully accurate, real-gas models ... are
// computationally more efficient, thus better suited to be coupled with
// multidimensional flow codes."

#include <benchmark/benchmark.h>

#include <vector>

#include "gas/eos_table.hpp"
#include "gas/equilibrium.hpp"

using namespace cat;

namespace {

const gas::EquilibriumSolver& solver() {
  static const gas::EquilibriumSolver s(gas::make_air5(),
                                        {{"N2", 0.79}, {"O2", 0.21}});
  return s;
}

const gas::EquilibriumSolver& titan_solver() {
  static const gas::EquilibriumSolver s(gas::make_titan(),
                                        {{"N2", 0.95}, {"CH4", 0.05}});
  return s;
}

const gas::EquilibriumEosTable& table() {
  static const gas::EquilibriumEosTable t(solver(),
                                          {.rho_min = 1e-4,
                                           .rho_max = 10.0,
                                           .e_min = -3e5,
                                           .e_max = 3e7,
                                           .n_rho = 48,
                                           .n_e = 48});
  return t;
}

void direct_gibbs_tp(benchmark::State& state) {
  const auto& eq = solver();
  double t = 5000.0;
  for (auto _ : state) {
    const auto r = eq.solve_tp(t, 1.0e4);
    benchmark::DoNotOptimize(r.rho);
    // Walk the state so the loop averages over compositions rather than
    // timing one (every call is an independent cold solve).
    t = t < 9000.0 ? t + 13.0 : 5000.0;
  }
}

// The stagnation-line query: one (p, h) inversion is a Brent search over
// temperature, each trial a Gibbs minimization. Enthalpies span the shock
// layer of a 5-8 km/s entry.
void run_gibbs_ph(benchmark::State& state, const gas::EquilibriumSolver& eq,
                  double p) {
  double h = 2e6;
  for (auto _ : state) {
    const auto r = eq.solve_ph(p, h);
    benchmark::DoNotOptimize(r.t);
    h = h < 3e7 ? h + 7e5 : 2e6;
  }
}

void direct_gibbs_ph(benchmark::State& state) {
  run_gibbs_ph(state, solver(), 5.0e3);
}

void direct_gibbs_ph_titan(benchmark::State& state) {
  run_gibbs_ph(state, titan_solver(), 5.0e3);
}

// The same targets as run_gibbs_ph, each hinted by the state at the
// neighbouring table enthalpy: the stagnation line's property-table walk,
// where every node seeds the next.
void run_gibbs_ph_hinted(benchmark::State& state,
                         const gas::EquilibriumSolver& eq, double p) {
  std::vector<double> hs;
  for (double h = 2e6; h < 3e7; h += 7e5) hs.push_back(h);
  hs.push_back(hs.back() + 7e5);  // the sweep's last target, >= 3e7
  std::vector<gas::EquilibriumResult> neighbours;
  for (double h : hs) neighbours.push_back(eq.solve_ph(p, h));
  std::size_t k = 0;
  for (auto _ : state) {
    const auto& hint = neighbours[k == 0 ? 1 : k - 1];
    const auto r = eq.solve_ph(p, hs[k], &hint);
    benchmark::DoNotOptimize(r.t);
    k = k + 1 < hs.size() ? k + 1 : 0;
  }
}

void direct_gibbs_ph_hinted(benchmark::State& state) {
  run_gibbs_ph_hinted(state, solver(), 5.0e3);
}

void direct_gibbs_ph_hinted_titan(benchmark::State& state) {
  run_gibbs_ph_hinted(state, titan_solver(), 5.0e3);
}

void direct_gibbs_rho_e(benchmark::State& state) {
  const auto& eq = solver();
  double e = 5e6;
  for (auto _ : state) {
    const auto r = eq.solve_rho_e(0.01, e);
    benchmark::DoNotOptimize(r.p);
    e = e < 2e7 ? e + 1e5 : 5e6;
  }
}

void table_lookup(benchmark::State& state) {
  const auto& tab = table();
  double e = 5e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tab.pressure(0.01, e));
    benchmark::DoNotOptimize(tab.sound_speed(0.01, e));
    benchmark::DoNotOptimize(tab.temperature(0.01, e));
    e = e < 2e7 ? e + 1e5 : 5e6;
  }
}

}  // namespace

BENCHMARK(direct_gibbs_tp);
BENCHMARK(direct_gibbs_rho_e);
BENCHMARK(direct_gibbs_ph);
BENCHMARK(direct_gibbs_ph_titan);
BENCHMARK(direct_gibbs_ph_hinted);
BENCHMARK(direct_gibbs_ph_hinted_titan);
BENCHMARK(table_lookup);
