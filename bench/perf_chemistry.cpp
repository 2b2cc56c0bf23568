// Performance: finite-rate source-term evaluation throughput — the kernel
// that dominates "fully coupled" nonequilibrium CFD (paper: the stiff
// species equations nearly triple the system size).

#include <benchmark/benchmark.h>

#include "chemistry/reaction.hpp"

using namespace cat;

namespace {

void bench_production_rates(benchmark::State& state,
                            chemistry::Mechanism (*factory)()) {
  const auto mech = factory();
  const std::size_t ns = mech.n_species();
  std::vector<double> y(ns, 0.0);
  y[mech.species_set().local_index("N2")] = 0.60;
  y[mech.species_set().local_index("O2")] = 0.10;
  y[mech.species_set().local_index("N")] = 0.15;
  y[mech.species_set().local_index("O")] = 0.14;
  y[mech.species_set().local_index("NO")] = 0.01;
  std::vector<double> wdot(ns);
  chemistry::Workspace ws;
  const double rho = 0.02, t = 8000.0, tv = 6000.0;
  for (auto _ : state) {
    mech.mass_production_rates(rho, y, t, tv, wdot, ws);
    benchmark::DoNotOptimize(wdot.data());
  }
  state.SetItemsProcessed(state.iterations());
}

// Temperature-sweep variant: T/Tv change every call, so the workspace's
// temperature-keyed rate/Gibbs caches miss and the full transcendental
// kernel runs each iteration (the worst case of a nonequilibrium CFD sweep
// where every cell is at a different temperature).
void bench_production_rates_tsweep(benchmark::State& state,
                                   chemistry::Mechanism (*factory)()) {
  const auto mech = factory();
  const std::size_t ns = mech.n_species();
  std::vector<double> y(ns, 0.0);
  y[mech.species_set().local_index("N2")] = 0.60;
  y[mech.species_set().local_index("O2")] = 0.10;
  y[mech.species_set().local_index("N")] = 0.15;
  y[mech.species_set().local_index("O")] = 0.14;
  y[mech.species_set().local_index("NO")] = 0.01;
  std::vector<double> wdot(ns);
  chemistry::Workspace ws;
  const double rho = 0.02;
  double t = 8000.0;
  for (auto _ : state) {
    t = t < 12000.0 ? t + 1.0 : 8000.0;  // new temperature every call
    mech.mass_production_rates(rho, y, t, 0.75 * t, wdot, ws);
    benchmark::DoNotOptimize(wdot.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void air5(benchmark::State& s) { bench_production_rates(s, chemistry::park_air5); }
void air9(benchmark::State& s) { bench_production_rates(s, chemistry::park_air9); }
void air11(benchmark::State& s) { bench_production_rates(s, chemistry::park_air11); }
void air5_tsweep(benchmark::State& s) {
  bench_production_rates_tsweep(s, chemistry::park_air5);
}
void air11_tsweep(benchmark::State& s) {
  bench_production_rates_tsweep(s, chemistry::park_air11);
}

}  // namespace

BENCHMARK(air5);
BENCHMARK(air9);
BENCHMARK(air11);
BENCHMARK(air5_tsweep);
BENCHMARK(air11_tsweep);
