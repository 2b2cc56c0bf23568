// Zero-allocation guarantees for the chemistry/ODE hot path, enforced by a
// counting global operator new. The counter is toggled around the
// instrumented regions so gtest's own bookkeeping doesn't pollute the
// counts. This suite must stay a separate binary: the replaced global
// operators apply to the whole program.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "chemistry/batch.hpp"
#include "chemistry/reaction.hpp"
#include "chemistry/source.hpp"
#include "core/gas_model.hpp"
#include "gas/equilibrium.hpp"
#include "grid/grid.hpp"
#include "numerics/tridiag_batch.hpp"
#include "scenario/surrogate.hpp"
#include "solvers/correlations/correlations.hpp"
#include "solvers/euler/euler.hpp"
#include "solvers/relax1d/relax1d.hpp"
#include "transport/transport.hpp"

namespace {
std::atomic<bool> g_count{false};
std::atomic<std::size_t> g_allocs{0};

struct AllocCounterScope {
  AllocCounterScope() {
    g_allocs = 0;
    g_count = true;
  }
  ~AllocCounterScope() { g_count = false; }
  std::size_t count() const { return g_allocs.load(); }
};
}  // namespace

void* operator new(std::size_t sz) {
  if (g_count.load(std::memory_order_relaxed)) ++g_allocs;
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// Over-aligned variants too, so aligned allocations can't slip past the
// counter unnoticed.
void* operator new(std::size_t sz, std::align_val_t al) {
  if (g_count.load(std::memory_order_relaxed)) ++g_allocs;
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = ((sz ? sz : 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace cat;

std::vector<double> test_composition(const chemistry::Mechanism& mech) {
  std::vector<double> y(mech.n_species(), 0.0);
  y[mech.species_set().local_index("N2")] = 0.60;
  y[mech.species_set().local_index("O2")] = 0.10;
  y[mech.species_set().local_index("N")] = 0.15;
  y[mech.species_set().local_index("O")] = 0.14;
  y[mech.species_set().local_index("NO")] = 0.01;
  return y;
}

TEST(WorkspaceAlloc, MassProductionRatesIsAllocationFree) {
  const auto mech = chemistry::park_air11();
  const auto y = test_composition(mech);
  std::vector<double> wdot(mech.n_species());
  chemistry::Workspace ws;
  // Warm-up binds and sizes the workspace.
  mech.mass_production_rates(0.02, y, 8000.0, 6000.0, wdot, ws);

  AllocCounterScope scope;
  for (int k = 0; k < 100; ++k) {
    // Vary the temperature so the rate-coefficient caches miss: even the
    // full transcendental path must not allocate.
    const double t = 8000.0 + k;
    mech.mass_production_rates(0.02, y, t, 0.75 * t, wdot, ws);
  }
  EXPECT_EQ(scope.count(), 0u);
}

TEST(WorkspaceAlloc, BatchProductionRatesIsAllocationFreeAfterBind) {
  // The SoA batch kernel: after the first bind sizes the workspace, every
  // evaluation — including block remainders smaller than the bound
  // capacity — must be allocation-free.
  const auto mech = chemistry::park_air11();
  const std::size_t ns = mech.n_species(), n = 96;
  std::vector<double> rho(n, 0.02), t(n), tv(n), y(ns * n), wdot(ns * n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = 7000.0 + 40.0 * static_cast<double>(i);
    tv[i] = 0.75 * t[i];
    for (std::size_t s = 0; s < ns; ++s)
      y[s * n + i] = 1.0 / static_cast<double>(ns);
  }
  chemistry::BatchWorkspace ws;
  mech.mass_production_rates_batch(rho, y, t, tv, wdot, n, ws);  // warm-up

  AllocCounterScope scope;
  for (int k = 0; k < 20; ++k) {
    mech.mass_production_rates_batch(rho, y, t, tv, wdot, n, ws);
    // Short remainder block through the same bound workspace.
    mech.mass_production_rates_batch(
        std::span<const double>(rho.data(), 7),
        std::span<const double>(y.data(), y.size()),
        std::span<const double>(t.data(), 7),
        std::span<const double>(tv.data(), 7),
        std::span<double>(wdot.data(), wdot.size()), n, ws);
  }
  EXPECT_EQ(scope.count(), 0u);
}

TEST(WorkspaceAlloc, BatchEvaluatorSerialIsAllocationFreeAfterWarmup) {
  const auto mech = chemistry::park_air5();
  const std::size_t ns = mech.n_species(), n = 200;
  std::vector<double> rho(n, 0.02), t(n), tv(n), y(ns * n), wdot(ns * n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = 6000.0 + 10.0 * static_cast<double>(i);
    tv[i] = t[i];
    for (std::size_t s = 0; s < ns; ++s)
      y[s * n + i] = 1.0 / static_cast<double>(ns);
  }
  chemistry::BatchEvaluator eval(mech, 64);
  eval.mass_production_rates(rho, y, t, tv, wdot, n);  // warm-up bind

  AllocCounterScope scope;
  for (int k = 0; k < 20; ++k)
    eval.mass_production_rates(rho, y, t, tv, wdot, n);
  EXPECT_EQ(scope.count(), 0u);
}

TEST(WorkspaceAlloc, TridiagBatchSolveIsAllocationFreeAfterResize) {
  numerics::TridiagBatch batch(64, 4);
  auto fill = [&] {
    for (std::size_t i = 0; i < 64; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        batch.a(i, j) = -1.0;
        batch.b(i, j) = 4.0;
        batch.c(i, j) = -1.0;
        batch.d(i, j) = 1.0 + static_cast<double>(i + j);
      }
    }
  };
  fill();
  batch.solve();  // warm-up

  AllocCounterScope scope;
  for (int k = 0; k < 50; ++k) {
    batch.resize(64, 4);  // no-op at capacity
    fill();
    batch.solve();
  }
  EXPECT_EQ(scope.count(), 0u);
}

// Reactor advances: allocations may happen in per-advance setup (the
// std::function RHS closure), but the stiff integrator's stepping loop —
// every RHS evaluation, Jacobian, and Newton solve — must be
// allocation-free. A longer integration takes many more steps; if the
// per-advance allocation count is independent of the step count, the
// inner loop is clean.
TEST(WorkspaceAlloc, IsochoricAdvanceAllocsIndependentOfStepCount) {
  const auto mech = chemistry::park_air5();
  const chemistry::IsochoricReactor reactor(mech);
  auto init = [&] {
    chemistry::IsochoricReactor::State s;
    s.y.assign(mech.n_species(), 0.0);
    s.y[mech.species_set().local_index("N2")] = 0.767;
    s.y[mech.species_set().local_index("O2")] = 0.233;
    s.t = 6500.0;
    return s;
  };
  {  // warm up persistent scratch
    auto s = init();
    reactor.advance_coupled(s, 0.05, 1e-7);
  }
  std::size_t allocs_short, allocs_long;
  {
    auto s = init();
    AllocCounterScope scope;
    reactor.advance_coupled(s, 0.05, 1e-7);
    allocs_short = scope.count();
  }
  {
    auto s = init();
    AllocCounterScope scope;
    reactor.advance_coupled(s, 0.05, 1e-5);  // 100x longer: many more steps
    allocs_long = scope.count();
  }
  EXPECT_EQ(allocs_long, allocs_short)
      << "stiff inner loop allocated (short=" << allocs_short
      << ", long=" << allocs_long << ")";
}

// Shock-tube relaxation: a solve allocates its per-call scratch, the
// right-hand-side and frozen-jump closures, and the stored profile (one
// station per sample), and nothing per right-hand-side evaluation. The same
// n_samples over a 100x longer march takes many more integrator steps; if
// the allocation counts agree, the RHS, its state recovery and the sample
// store are allocation-free.
TEST(WorkspaceAlloc, RelaxationSolveAllocsIndependentOfStepCount) {
  const auto mech = chemistry::park_air5();
  std::vector<double> y1(mech.n_species(), 0.0);
  y1[mech.species_set().local_index("N2")] = 0.767;
  y1[mech.species_set().local_index("O2")] = 0.233;
  const solvers::ShockTubeFreestream fs{13.0, 300.0, 9000.0};
  struct Run {
    std::size_t allocs = 0, rhs_calls = 0;
  };
  auto run = [&](double x_max_m) {
    Run r;
    solvers::Relax1dOptions opt;
    opt.x_max_m = x_max_m;
    opt.n_samples = 8;
    // A zero manufactured source that counts right-hand-side evaluations.
    opt.source = [&r](double, std::span<const double>, std::span<double>) {
      ++r.rhs_calls;
    };
    const solvers::PostShockRelaxation solver(mech, opt);
    AllocCounterScope scope;
    const auto prof = solver.solve(fs, y1);
    r.allocs = scope.count();
    EXPECT_EQ(prof.size(), opt.n_samples + 1);
    return r;
  };
  const Run short_run = run(1e-5);
  const Run long_run = run(1e-3);
  EXPECT_GT(long_run.rhs_calls, short_run.rhs_calls);
  EXPECT_EQ(long_run.allocs, short_run.allocs)
      << "relaxation right-hand side allocated (short=" << short_run.allocs
      << " allocations over " << short_run.rhs_calls << " RHS calls, long="
      << long_run.allocs << " over " << long_run.rhs_calls << ")";
}

// Finite-volume iteration: the flux sweeps, the species face stencils, the
// species source hook and the batched finite-rate chemistry all run on
// scratch held by the solver. After a warm-up, advancing 2 or 20
// iterations must allocate the same amount, with and without the species
// verification hooks (which route the stencil through the exact-state
// ghosts and the source through the hook buffer).
TEST(WorkspaceAlloc, EulerAdvanceAllocsIndependentOfIterationCount) {
  const auto mech =
      std::make_shared<chemistry::Mechanism>(chemistry::park_air5());
  grid::StructuredGrid g(32, 32);
  for (std::size_t i = 0; i <= 32; ++i) {
    for (std::size_t j = 0; j <= 32; ++j) {
      g.xn(i, j) = static_cast<double>(i) / 32.0;
      g.rn(i, j) = static_cast<double>(j) / 32.0;
    }
  }
  g.compute_metrics(false);
  const auto gas =
      std::make_shared<core::IdealGasModel>(gas::IdealGas(1.4, 287.053));
  std::vector<double> y0(mech->n_species(), 0.0);
  y0[mech->species_set().local_index("N2")] = 0.767;
  y0[mech->species_set().local_index("O2")] = 0.233;

  auto allocs = [&](bool hooks, std::size_t iterations) {
    solvers::FvOptions opt;
    opt.startup_iters = 0;
    opt.mechanism = mech;
    opt.species_y0 = y0;
    if (hooks) {
      opt.species_dirichlet = [&y0](double, double, std::span<double> y) {
        for (std::size_t s = 0; s < y.size(); ++s) y[s] = y0[s];
      };
      opt.species_source = [](double, double, std::span<double> s_out) {
        for (double& s : s_out) s = 0.0;
      };
    }
    solvers::EulerSolver solver(g, gas, opt);
    // Supersonic inflow hot enough (T ~ 6000 K) that every reaction runs.
    solver.initialize({0.02, 2500.0, 0.0, 0.02 * 287.053 * 6000.0});
    solver.advance(1);  // warm up
    AllocCounterScope scope;
    solver.advance(iterations);
    return scope.count();
  };
  for (const bool hooks : {false, true}) {
    const std::size_t short_run = allocs(hooks, 2);
    const std::size_t long_run = allocs(hooks, 20);
    EXPECT_EQ(long_run, short_run)
        << "FV iteration allocated (hooks=" << hooks << ": 2 iterations "
        << short_run << ", 20 iterations " << long_run << ")";
  }
}

// Equilibrium inversions: a solve_ph allocates its per-call scratch, the
// residual closure and the returned result, and nothing per Brent trial or
// Newton iteration. A cold 600 K state and a dissociated, ionizing
// 15000 K state take different numbers of trials and iterations; if their
// allocation counts agree, the Gibbs loop is allocation-free.
TEST(WorkspaceAlloc, EquilibriumPhSolveAllocsIndependentOfIterationCount) {
  const gas::EquilibriumSolver eq(gas::make_air11(),
                                  {{"N2", 0.79}, {"O2", 0.21}});
  const double p = 1.0e4;
  const double h_cold = eq.solve_tp(600.0, p).h;
  const double h_hot = eq.solve_tp(15000.0, p).h;
  std::size_t allocs_cold, allocs_hot;
  {
    AllocCounterScope scope;
    const auto r = eq.solve_ph(p, h_cold);
    allocs_cold = scope.count();
    EXPECT_NEAR(r.t, 600.0, 1e-6);
  }
  {
    AllocCounterScope scope;
    const auto r = eq.solve_ph(p, h_hot);
    allocs_hot = scope.count();
    EXPECT_NEAR(r.t, 15000.0, 1e-6);
  }
  EXPECT_EQ(allocs_hot, allocs_cold)
      << "Gibbs loop allocated (600 K: " << allocs_cold
      << ", 15000 K: " << allocs_hot << ")";
}

// A hinted solve_ph adds only the hint's seed view to the same per-call
// scratch: a hint 3% away and one at the far end of the range take very
// different numbers of bracket steps, trials and Newton iterations, yet
// must allocate the same.
TEST(WorkspaceAlloc, HintedPhSolveAllocsIndependentOfIterationCount) {
  const gas::EquilibriumSolver eq(gas::make_air11(),
                                  {{"N2", 0.79}, {"O2", 0.21}});
  const double p = 1.0e4;
  const double h = eq.solve_tp(15000.0, p).h;
  const auto near_hint = eq.solve_tp(14600.0, p);
  const auto far_hint = eq.solve_tp(300.0, p);
  std::size_t allocs_near, allocs_far;
  {
    AllocCounterScope scope;
    const auto r = eq.solve_ph(p, h, &near_hint);
    allocs_near = scope.count();
    EXPECT_NEAR(r.t, 15000.0, 1e-6);
  }
  {
    AllocCounterScope scope;
    const auto r = eq.solve_ph(p, h, &far_hint);
    allocs_far = scope.count();
    EXPECT_NEAR(r.t, 15000.0, 1e-6);
  }
  EXPECT_EQ(allocs_far, allocs_near)
      << "hinted Gibbs loop allocated (near hint: " << allocs_near
      << ", far hint: " << allocs_far << ")";
}

// ---- transport: the boundary-layer property-table query ----

TEST(WorkspaceAlloc, TransportQueriesAreAllocationFreeAfterConstruction) {
  // Construction binds the Wilke mass factors; every query after it runs
  // on stack arrays sized by the species database.
  const gas::EquilibriumSolver eq(gas::make_air11(),
                                  {{"N2", 0.79}, {"O2", 0.21}});
  const transport::MixtureTransport trans(eq.mixture());
  const auto st = eq.solve_tp(9000.0, 3000.0);
  double sink = 0.0;
  AllocCounterScope scope;
  for (int k = 0; k < 50; ++k) {
    const double t = 1000.0 + 200.0 * static_cast<double>(k);
    const transport::ViscosityPrandtl mp = trans.viscosity_prandtl(st.y, t);
    sink += mp.mu + mp.pr + trans.viscosity(st.y, t) +
            trans.conductivity(st.y, t);
  }
  EXPECT_EQ(scope.count(), 0u);
  EXPECT_GT(sink, 0.0);
}

// ---- tier-0 serving path: correlations + surrogate lookup ----

TEST(WorkspaceAlloc, CorrelationEvaluatorsAreAllocationFree) {
  // The ~us tier: all five correlations plus the edge chain, evaluated at
  // varying velocity so nothing folds to a constant. Zero allocations —
  // not merely "allocation-free after warm-up"; there is no warm-up.
  namespace corr = solvers::correlations;
  corr::CorrelationConditions c;
  c.velocity_mps = 6500.0;
  c.rho_inf_kg_m3 = 1.632e-4;
  c.p_inf_Pa = 10.93;
  c.t_inf_K = 233.3;
  c.nose_radius_m = 0.3;
  c.wall_temperature_K = 1200.0;

  double sink = 0.0;
  AllocCounterScope scope;
  for (int k = 0; k < 100; ++k) {
    c.velocity_mps = 5000.0 + 10.0 * static_cast<double>(k);
    for (const auto kind : corr::kAllCorrelations)
      sink += corr::stagnation_heating(kind, c);
    sink += corr::estimate_edge(c).t_stag_K;
  }
  EXPECT_EQ(scope.count(), 0u);
  EXPECT_GT(sink, 0.0);
}

TEST(WorkspaceAlloc, SurrogateLookupIsAllocationFree) {
  // The ~ns tier: serving a covered query is a bounds check, one cell
  // index and four bilinear reads. The off-table throw path may allocate
  // (it is the failure path); the serving path must not.
  scenario::SurrogateMeta meta;
  meta.nose_radius_m = 0.3;
  meta.wall_temperature_K = 1000.0;
  meta.base_case = "alloc_test";
  scenario::SurrogateDomain domain;
  domain.velocity_min_mps = 3000.0;
  domain.velocity_max_mps = 7500.0;
  domain.n_velocity = 5;
  domain.altitude_min_m = 45000.0;
  domain.altitude_max_m = 75000.0;
  domain.n_altitude = 5;
  const auto table = scenario::build_surrogate(
      meta, domain,
      [](double v, double alt) {
        return std::array<double, 4>{v * alt, v, alt, v + alt};
      },
      {});

  double sink = 0.0;
  AllocCounterScope scope;
  for (int k = 0; k < 1000; ++k) {
    const double v = 3000.0 + 4.0 * static_cast<double>(k);
    const double alt = 45000.0 + 29.0 * static_cast<double>(k);
    sink += table.query(v, alt).q_conv_W_m2;
  }
  EXPECT_EQ(scope.count(), 0u);
  EXPECT_GT(sink, 0.0);
}

TEST(WorkspaceAlloc, TwoTemperatureAdvanceAllocsIndependentOfStepCount) {
  const auto mech = chemistry::park_air5();
  const chemistry::TwoTemperatureReactor reactor(mech);
  auto init = [&] {
    chemistry::TwoTemperatureReactor::State s;
    s.y.assign(mech.n_species(), 0.0);
    s.y[mech.species_set().local_index("N2")] = 0.767;
    s.y[mech.species_set().local_index("O2")] = 0.233;
    s.t = 9000.0;
    s.tv = 3000.0;
    return s;
  };
  {
    auto s = init();
    reactor.advance(s, 0.02, 1e-8);
  }
  std::size_t allocs_short, allocs_long;
  {
    auto s = init();
    AllocCounterScope scope;
    reactor.advance(s, 0.02, 1e-8);
    allocs_short = scope.count();
  }
  {
    auto s = init();
    AllocCounterScope scope;
    reactor.advance(s, 0.02, 1e-6);
    allocs_long = scope.count();
  }
  EXPECT_EQ(allocs_long, allocs_short)
      << "stiff inner loop allocated (short=" << allocs_short
      << ", long=" << allocs_long << ")";
}

}  // namespace
