// Performance: the SoA batched chemistry/thermo kernels against the scalar
// per-cell loop they restructure, the fused tridiagonal sweep, and
// whole-FV-step throughput with finite-rate species coupling. The
// committed-baseline gate (scripts/bench_compare.py --intra) requires
// rates_batch_block64_mt to beat rates_scalar_loop by >= 3x on a
// multicore runner; single-threaded, the batch layout alone buys the
// smaller transcendental-bound margin the README table records.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "chemistry/batch.hpp"
#include "chemistry/reaction.hpp"
#include "core/gas_model.hpp"
#include "core/thread_pool.hpp"
#include "gas/species.hpp"
#include "grid/grid.hpp"
#include "numerics/tridiag.hpp"
#include "numerics/tridiag_batch.hpp"
#include "solvers/euler/euler.hpp"

using namespace cat;

namespace {

constexpr std::size_t kCells = 4096;

/// A nonequilibrium field sweep: every cell at a different temperature so
/// the scalar path's temperature-keyed caches miss (the honest CFD case).
struct RateField {
  std::vector<double> rho, t, tv, y;
  std::size_t n;

  explicit RateField(const chemistry::Mechanism& mech, std::size_t n_cells)
      : n(n_cells) {
    const std::size_t ns = mech.n_species();
    rho.assign(n, 0.02);
    t.resize(n);
    tv.resize(n);
    y.assign(ns * n, 0.0);
    const std::size_t i_n2 = mech.species_set().local_index("N2");
    const std::size_t i_o2 = mech.species_set().local_index("O2");
    const std::size_t i_n = mech.species_set().local_index("N");
    const std::size_t i_o = mech.species_set().local_index("O");
    for (std::size_t i = 0; i < n; ++i) {
      t[i] = 6000.0 + 1.5 * static_cast<double>(i % 4096);
      tv[i] = 0.75 * t[i];
      y[i_n2 * n + i] = 0.60;
      y[i_o2 * n + i] = 0.10;
      y[i_n * n + i] = 0.16;
      y[i_o * n + i] = 0.14;
    }
  }
};

void rates_scalar_loop(benchmark::State& state) {
  const auto mech = chemistry::park_air5();
  const std::size_t ns = mech.n_species();
  const RateField f(mech, kCells);
  std::vector<double> yc(ns), wc(ns), wdot(ns * kCells);
  chemistry::Workspace ws;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kCells; ++i) {
      for (std::size_t s = 0; s < ns; ++s) yc[s] = f.y[s * kCells + i];
      mech.mass_production_rates(f.rho[i], yc, f.t[i], f.tv[i], wc, ws);
      for (std::size_t s = 0; s < ns; ++s) wdot[s * kCells + i] = wc[s];
    }
    benchmark::DoNotOptimize(wdot.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCells));
}

void rates_batch(benchmark::State& state, std::size_t block,
                 std::size_t threads) {
  const auto mech = chemistry::park_air5();
  const RateField f(mech, kCells);
  std::vector<double> wdot(mech.n_species() * kCells);
  std::unique_ptr<core::ThreadPool> pool;
  if (threads != 1) pool = std::make_unique<core::ThreadPool>(threads);
  chemistry::BatchEvaluator eval(mech, block, pool.get());
  eval.mass_production_rates(f.rho, f.y, f.t, f.tv, wdot, kCells);  // bind
  for (auto _ : state) {
    eval.mass_production_rates(f.rho, f.y, f.t, f.tv, wdot, kCells);
    benchmark::DoNotOptimize(wdot.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCells));
}

void rates_batch_block16(benchmark::State& s) { rates_batch(s, 16, 1); }
void rates_batch_block64(benchmark::State& s) { rates_batch(s, 64, 1); }
void rates_batch_block256(benchmark::State& s) { rates_batch(s, 256, 1); }
/// Thread fan-out through the BatchEvaluator (0 = hardware concurrency):
/// the multicore gate candidate.
void rates_batch_block64_mt(benchmark::State& s) { rates_batch(s, 64, 0); }

void tridiag_scalar_pair(benchmark::State& state) {
  const std::size_t n = 128;
  std::vector<double> a(n, -1.0), b(n, 4.0), c(n, -1.0), d1(n, 1.0),
      d2(n, 2.0);
  for (auto _ : state) {
    auto x1 = numerics::solve_tridiagonal(a, b, c, d1);
    auto x2 = numerics::solve_tridiagonal(a, b, c, d2);
    benchmark::DoNotOptimize(x1.data());
    benchmark::DoNotOptimize(x2.data());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}

void tridiag_fused_k2(benchmark::State& state) {
  const std::size_t n = 128;
  numerics::TridiagBatch batch(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      batch.a(i, j) = -1.0;
      batch.b(i, j) = 4.0;
      batch.c(i, j) = -1.0;
      batch.d(i, j) = static_cast<double>(j + 1);
    }
  }
  for (auto _ : state) {
    batch.solve();
    benchmark::DoNotOptimize(batch.solution().data());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}

/// Whole-FV-step throughput: one RK2 iteration of the hemisphere field
/// solve, frozen (advection-only species: the air5 species set with no
/// reactions) vs finite-rate (batched chemistry sources every iteration).
void fv_step(benchmark::State& state, bool finite_rate) {
  auto mech = std::make_shared<chemistry::Mechanism>(chemistry::park_air5());
  if (!finite_rate)
    mech = std::make_shared<chemistry::Mechanism>(
        mech->species_set(), std::vector<chemistry::Reaction>{});
  grid::StructuredGrid g(32, 32);
  for (std::size_t i = 0; i <= 32; ++i) {
    for (std::size_t j = 0; j <= 32; ++j) {
      g.xn(i, j) = static_cast<double>(i) / 32.0;
      g.rn(i, j) = static_cast<double>(j) / 32.0;
    }
  }
  g.compute_metrics(false);
  auto gas = std::make_shared<core::IdealGasModel>(gas::IdealGas(1.4, 287.053));

  solvers::FvOptions opt;
  opt.max_iter = 1;
  opt.startup_iters = 0;
  opt.mechanism = mech;
  opt.species_y0.assign(mech->n_species(), 0.0);
  opt.species_y0[mech->species_set().local_index("N2")] = 0.767;
  opt.species_y0[mech->species_set().local_index("O2")] = 0.233;
  solvers::EulerSolver solver(g, gas, opt);
  // Supersonic inflow at a temperature hot enough that the finite-rate
  // variant pays the full Arrhenius bill (T ~ 6000 K).
  solver.initialize({0.02, 2500.0, 0.0, 0.02 * 287.053 * 6000.0});
  solver.advance(1);  // warm the workspaces

  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.advance(1));
  }
  state.SetItemsProcessed(state.iterations() * 32 * 32);
}

void fv_step_frozen(benchmark::State& s) { fv_step(s, false); }
void fv_step_finite_rate(benchmark::State& s) { fv_step(s, true); }

}  // namespace

BENCHMARK(rates_scalar_loop);
BENCHMARK(rates_batch_block16);
BENCHMARK(rates_batch_block64);
BENCHMARK(rates_batch_block256);
BENCHMARK(rates_batch_block64_mt);
BENCHMARK(tridiag_scalar_pair);
BENCHMARK(tridiag_fused_k2);
BENCHMARK(fv_step_frozen);
BENCHMARK(fv_step_finite_rate);
