#include "verify/studies.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "chemistry/source.hpp"
#include "core/error.hpp"
#include "core/gas_model.hpp"
#include "gas/species.hpp"
#include "grid/grid.hpp"
#include "numerics/ode.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/surrogate.hpp"
#include "solvers/correlations/correlations.hpp"
#include "solvers/euler/euler.hpp"
#include "solvers/relax1d/relax1d.hpp"
#include "verify/mms.hpp"

namespace cat::verify {
namespace {

// ---------------------------------------------------------------------------
// Finite-volume MMS ladders (Euler / thin-layer NS).
// ---------------------------------------------------------------------------

/// Grid families for the FV ladders. All are smooth mappings of the unit
/// square scaled to the domain extent, so second-order convergence is the
/// correct expectation on every one of them:
///  - kCartesian: the uniform grid of the original PR 4 studies;
///  - kSkewed: sinusoidal interior distortion of BOTH coordinates (cell
///    faces tilt against the flow — the full curvilinear metric path);
///  - kStretched: smooth non-uniform tensor-product stretching that keeps
///    j-faces y-aligned, matching the thin-layer viscous model whose
///    fluxes are wall-normal by construction (a skewed grid would change
///    the continuum operator the NS discretization approximates, not just
///    its order).
enum class FvGrid { kCartesian, kSkewed, kStretched };

grid::StructuredGrid make_fv_grid(FvGrid shape, std::size_t n,
                                  double extent) {
  grid::StructuredGrid g(n, n);
  for (std::size_t i = 0; i <= n; ++i) {
    for (std::size_t j = 0; j <= n; ++j) {
      const double u = static_cast<double>(i) / static_cast<double>(n);
      const double v = static_cast<double>(j) / static_cast<double>(n);
      double x = u, y = v;
      switch (shape) {
        case FvGrid::kCartesian:
          break;
        case FvGrid::kSkewed: {
          // Interior sinusoidal skew (vanishes on the boundary); the
          // amplitudes keep the Jacobian within ~30% of unity while
          // tilting faces against both sweep directions.
          const double bump =
              std::sin(2.0 * M_PI * u) * std::sin(2.0 * M_PI * v);
          x = u + 0.045 * bump;
          y = v + 0.032 * bump;
          break;
        }
        case FvGrid::kStretched:
          // Monotone 1-D stretchings (|c| < 1), different per direction.
          x = u + 0.30 / (2.0 * M_PI) * std::sin(2.0 * M_PI * u);
          y = v - 0.25 / (2.0 * M_PI) * std::sin(2.0 * M_PI * v);
          break;
      }
      g.xn(i, j) = extent * x;
      g.rn(i, j) = extent * y;
    }
  }
  g.compute_metrics(/*axisymmetric=*/false);
  return g;
}

LevelResult run_fv_level(const FvManufactured& field, bool viscous,
                         numerics::Limiter limiter, std::size_t n,
                         FvGrid shape = FvGrid::kCartesian) {
  const double extent = fv_domain_extent(field);
  const grid::StructuredGrid g = make_fv_grid(shape, n, extent);
  auto gas = std::make_shared<core::IdealGasModel>(
      gas::IdealGas(field.gamma, field.r_gas));

  solvers::FvOptions opt;
  opt.cfl = 0.4;
  opt.max_iter = 60000;
  opt.residual_tol = 1e-11;
  opt.limiter = limiter;
  opt.muscl = limiter != numerics::Limiter::kNone;
  opt.startup_iters = 300;
  opt.viscous = viscous;
  opt.prandtl = field.prandtl;
  opt.dirichlet = [&field](double x, double r) {
    return field.primitive(x, r);
  };
  opt.source = [&field, viscous](double x, double r) {
    return viscous ? field.ns_source(x, r) : field.euler_source(x, r);
  };

  solvers::EulerSolver solver(g, gas, opt);
  const double mid = 0.5 * extent;
  solver.initialize({field.rho.v(mid, mid), field.u.v(mid, mid),
                     field.v.v(mid, mid), field.p.v(mid, mid)});
  solver.solve();

  NormAccumulator acc;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double exact =
          field.primitive(g.xc(i, j), g.rc(i, j))[0];
      acc.add((solver.primitive(i, j)[0] - exact) / field.rho.c0,
              g.volume(i, j));
    }
  }
  LevelResult lr;
  lr.h = extent / static_cast<double>(n);
  lr.n = n;
  lr.error = acc.finalize();
  lr.functional = solver.residual();
  return lr;
}

// ---------------------------------------------------------------------------
// Parabolic-march (BL tridiagonal) MMS ladder.
// ---------------------------------------------------------------------------

struct MarchSetup {
  MarchManufactured m{};
  double cp = 1000.0;
  double h_total = 1.2e6;
  double rho_c = 0.05;
  double mu_c = 2.0e-4;
  double ue = 200.0;
  double r_body = 0.5;
  double s0 = 1.0;
  std::size_t n_stations = 4;

  double t_wall() const { return m.g_w * h_total / cp; }
  std::vector<solvers::MarchEdge> edges() const {
    std::vector<solvers::MarchEdge> e(n_stations);
    for (std::size_t i = 0; i < n_stations; ++i) {
      e[i].s = s0 + static_cast<double>(i);
      e[i].r = r_body;
      e[i].p_e = 1000.0;
      e[i].ue = ue;
      e[i].h_e = h_total - 0.5 * ue * ue;
      e[i].rho_e = rho_c;
      e[i].mu_e = mu_c;
      e[i].t_e = e[i].h_e / cp;
      e[i].vigneron_omega = 1.0;
    }
    return e;
  }
  /// The marcher's own xi quadrature is exact here (constant integrand):
  /// xi(s_last) for the q_w reference value.
  double xi_last() const {
    const double f0 = rho_c * mu_c * ue * r_body * r_body;
    return 0.25 * f0 * s0 +
           f0 * static_cast<double>(n_stations - 1);
  }
  double q_wall_exact() const {
    const double metric =
        ue * r_body / std::sqrt(2.0 * xi_last());
    return m.gp(0.0) * h_total * metric * rho_c * mu_c;
  }
};

LevelResult run_march_level(std::size_t n_eta) {
  MarchSetup su;
  const double d_eta = su.m.eta_max / static_cast<double>(n_eta - 1);

  solvers::MarchOptions opt;
  opt.wall_temperature_K = su.t_wall();
  opt.n_eta = n_eta;
  opt.eta_max = su.m.eta_max;
  opt.n_table = 12;
  opt.picard_iters = 400;
  const double s0 = su.s0;
  opt.momentum_source = [m = su.m, s0](double s, double eta) {
    // The marching core pins beta = 0.5 at its first station (axisymmetric
    // stagnation value); downstream beta = 0 for the constant edge state.
    return m.momentum_source(eta, s == s0 ? 0.5 : 0.0);
  };
  opt.energy_source = [m = su.m](double /*s*/, double eta) {
    return m.energy_source(eta);
  };
  std::vector<double> f_last, g_last;
  opt.profile_observer = [&](std::size_t /*station*/, double /*s*/,
                             std::span<const double> f,
                             std::span<const double> g) {
    f_last.assign(f.begin(), f.end());
    g_last.assign(g.begin(), g.end());
  };

  solvers::ParabolicMarcher marcher(
      make_constant_props(su.rho_c, su.mu_c, su.cp), opt);
  const auto out = marcher.march(su.edges(), su.h_total);
  CAT_REQUIRE(f_last.size() == n_eta, "profile observer missed the march");

  NormAccumulator acc;
  for (std::size_t j = 0; j < n_eta; ++j) {
    const double eta = static_cast<double>(j) * d_eta;
    acc.add(f_last[j] - su.m.f_profile(eta), d_eta);
    acc.add(g_last[j] - su.m.g_profile(eta), d_eta);
  }
  LevelResult lr;
  lr.h = d_eta;
  lr.n = n_eta;
  lr.error = acc.finalize();
  // Wall-heating error rides along: q_w uses the one-sided wall gradient,
  // which must keep up with the interior order (it did not, before the
  // second-order gradient fix in the marching core).
  lr.functional = std::fabs(out.back().q_w - su.q_wall_exact());
  return lr;
}

// ---------------------------------------------------------------------------
// Streamwise (dxi) MMS ladders for the parabolic marching core.
// ---------------------------------------------------------------------------

/// One Δξ-ladder level: march the MarchStreamwiseManufactured field over a
/// station ladder that refines the streamwise spacing AND the eta grid
/// together (fixed dη/Δs ratio), so the combined error is
/// C1 Δξ^p_stream + C2 dη² and the streamwise order is what the finest
/// pairs observe — p≈2 for the BDF2 history terms, p≈1 for the forced
/// legacy BDF1 march. omega0/omega1 prescribe the Vigneron fraction
/// omega(s) carried by the edges (1/0 = the pure-VSL path, <1 exercises
/// the PNS splitting beta *= omega).
LevelResult run_march_dxi_level(std::size_t level, std::size_t order,
                                double omega0, double omega1) {
  MarchStreamwiseManufactured m;
  m.u1 = 4.0;  // ue(s) linear: due/dxi and the beta path are live
  m.omega0 = omega0;
  m.omega1 = omega1;

  const std::size_t n_st = 8u << level;
  const std::size_t n_eta = (40u << level) + 1u;
  const double span = m.s_end - m.s0;
  const double ds = span / static_cast<double>(n_st - 1);
  const double d_eta = m.eta_max / static_cast<double>(n_eta - 1);

  // Uniform Δs ladder plus one graded startup station at s0 + Δs²/span:
  // the marcher's first downstream station is necessarily BDF1, and
  // shrinking that single interval ~ Δs² keeps its larger one-point
  // truncation error at the ladder's design order (the variable-step BDF2
  // coefficients absorb the nonuniform spacing exactly).
  std::vector<solvers::MarchEdge> edges;
  edges.reserve(n_st + 1);
  edges.push_back(m.edge(m.s0));
  edges.push_back(m.edge(m.s0 + ds * ds / span));
  for (std::size_t i = 1; i < n_st; ++i)
    edges.push_back(m.edge(m.s0 + ds * static_cast<double>(i)));
  // The study's premise: the manufactured beta never reaches the marcher's
  // clamp window [-0.15, 1], so the clamp is the identity on this ladder.
  for (const auto& e : edges) {
    const double b = m.beta_eff(e.s);
    CAT_REQUIRE(b > -0.1 && b < 0.9, "manufactured beta hits the clamp");
  }

  solvers::MarchOptions opt;
  opt.wall_temperature_K = m.t_wall();
  opt.n_eta = n_eta;
  opt.eta_max = m.eta_max;
  opt.n_table = 12;
  opt.picard_iters = 600;
  opt.streamwise_order = order;
  const double s0 = m.s0;
  opt.momentum_source = [m, s0](double s, double eta) {
    return m.momentum_source(eta, s, /*station0=*/s == s0);
  };
  opt.energy_source = [m, s0](double s, double eta) {
    return m.energy_source(eta, s, /*station0=*/s == s0);
  };
  std::vector<double> f_last, g_last;
  opt.profile_observer = [&](std::size_t /*station*/, double /*s*/,
                             std::span<const double> f,
                             std::span<const double> g) {
    f_last.assign(f.begin(), f.end());
    g_last.assign(g.begin(), g.end());
  };

  solvers::ParabolicMarcher marcher(
      make_constant_props(m.rho_c, m.mu_c, m.cp), opt);
  const auto out = marcher.march(edges, m.h_total);
  CAT_REQUIRE(f_last.size() == n_eta, "profile observer missed the march");

  const double s_last = edges.back().s;
  NormAccumulator acc;
  for (std::size_t j = 0; j < n_eta; ++j) {
    const double eta = static_cast<double>(j) * d_eta;
    acc.add(f_last[j] - m.F(eta, s_last), d_eta);
    acc.add(g_last[j] - m.g(eta, s_last), d_eta);
  }
  LevelResult lr;
  lr.h = ds;
  lr.n = n_st;
  lr.error = acc.finalize();
  lr.functional = std::fabs(out.back().q_w - m.q_wall_exact(s_last));
  return lr;
}

// ---------------------------------------------------------------------------
// E+BL streamwise ladder (scenario layer, gated functional order).
// ---------------------------------------------------------------------------

/// aft_q_w of the orbiter E+BL scenario vs marching-station count. The BL
/// solver is local-similarity, so its only streamwise discretizations are
/// the trapezoidal xi quadrature and the backward difference feeding beta
/// — both second order now, and both evaluated at the FIXED aft station
/// x/L = 0.95, so the functional self-converges at the streamwise design
/// order (no exact solution exists for the equilibrium-gas pipeline;
/// kFunctionalOrder gates the Richardson-triplet order instead).
LevelResult run_ebl_dxi_level(std::size_t n_stations) {
  const scenario::Case* base = scenario::find_scenario("orbiter_windward_ebl");
  CAT_REQUIRE(base != nullptr, "registry lost orbiter_windward_ebl");
  scenario::Case c = *base;
  c.fidelity = scenario::Fidelity::kSmoke;
  c.n_stations = n_stations;
  const auto result = scenario::run_case(c);

  LevelResult lr;
  lr.h = 1.0 / static_cast<double>(n_stations);
  lr.n = n_stations;
  lr.functional = result.metric("aft_q_w");
  return lr;
}

// ---------------------------------------------------------------------------
// Surrogate-tier refinement ladder (analytic truth, multilinear p = 2).
// ---------------------------------------------------------------------------

/// Analytic stand-in for the high-fidelity hierarchy: an exponential
/// atmosphere feeding the Detra-Kemp-Riddell correlation. Smooth in both
/// flight variables, so the table's multilinear interpolant must converge
/// at its design order 2 as the grid refines — this isolates the
/// surrogate machinery (doubled-grid sampling, node layout, query path)
/// from solver noise.
std::array<double, 4> surrogate_truth(double velocity_mps,
                                      double altitude_m) {
  namespace corr = solvers::correlations;
  corr::CorrelationConditions cc;
  cc.velocity_mps = velocity_mps;
  cc.rho_inf_kg_m3 = 1.225 * std::exp(-altitude_m / 7200.0);
  cc.t_inf_K = 240.0;
  cc.p_inf_Pa = cc.rho_inf_kg_m3 * 287.053 * cc.t_inf_K;
  cc.nose_radius_m = 0.3;
  cc.wall_temperature_K = 1000.0;
  const double q = corr::detra_kemp_riddell_heating(cc);
  return {q, 0.0, cc.t_inf_K, cc.p_inf_Pa};
}

LevelResult run_surrogate_level(std::size_t n) {
  scenario::SurrogateMeta meta;
  meta.base_case = "surrogate_refinement_analytic";
  meta.nose_radius_m = 0.3;
  meta.wall_temperature_K = 1000.0;
  scenario::SurrogateDomain domain;
  domain.velocity_min_mps = 3000.0;
  domain.velocity_max_mps = 7500.0;
  domain.n_velocity = n;
  domain.altitude_min_m = 45000.0;
  domain.altitude_max_m = 75000.0;
  domain.n_altitude = n;
  const auto table =
      scenario::build_surrogate(meta, domain, surrogate_truth, {});

  // Level-independent dense sampling: the same 41x41 probe states on
  // every ladder rung, relative error per state (q_conv spans ~3 decades
  // across the domain, an absolute norm would only see the hot corner).
  constexpr std::size_t kProbe = 41;
  NormAccumulator acc;
  for (std::size_t i = 0; i < kProbe; ++i) {
    for (std::size_t j = 0; j < kProbe; ++j) {
      const double v =
          domain.velocity_min_mps +
          (domain.velocity_max_mps - domain.velocity_min_mps) *
              static_cast<double>(i) / static_cast<double>(kProbe - 1);
      const double alt =
          domain.altitude_min_m +
          (domain.altitude_max_m - domain.altitude_min_m) *
              static_cast<double>(j) / static_cast<double>(kProbe - 1);
      const double exact = surrogate_truth(v, alt)[0];
      acc.add((table.query(v, alt).q_conv_W_m2 - exact) / exact);
    }
  }
  LevelResult lr;
  lr.h = 1.0 / static_cast<double>(n);
  lr.n = n * n;
  lr.error = acc.finalize();
  return lr;
}

// ---------------------------------------------------------------------------
// Reactor-path temporal MMS (frozen two-species mechanism).
// ---------------------------------------------------------------------------

chemistry::Mechanism frozen_n2_mechanism() {
  const auto& db = gas::SpeciesDatabase::instance();
  gas::SpeciesSet set;
  set.db_index = {db.index("N2"), db.index("N")};
  set.names = {"N2", "N"};
  return chemistry::Mechanism(std::move(set), {});
}

// ---------------------------------------------------------------------------
// FV species-transport MMS ladder (frozen mechanism, advective order).
// ---------------------------------------------------------------------------

LevelResult run_fv_species_level(std::size_t n) {
  const FvManufactured field = supersonic_euler_field();
  const SpeciesManufactured sp = species_transport_field();
  const double extent = fv_domain_extent(field);
  const grid::StructuredGrid g = make_fv_grid(FvGrid::kCartesian, n, extent);
  auto gas = std::make_shared<core::IdealGasModel>(
      gas::IdealGas(field.gamma, field.r_gas));

  solvers::FvOptions opt;
  opt.cfl = 0.4;
  opt.max_iter = 60000;
  opt.residual_tol = 1e-11;
  opt.limiter = numerics::Limiter::kVanLeer;
  opt.muscl = true;
  opt.startup_iters = 300;
  opt.dirichlet = [&field](double x, double r) {
    return field.primitive(x, r);
  };
  opt.source = [&field](double x, double r) {
    return field.euler_source(x, r);
  };
  // Frozen (reaction-free) mechanism: the species ride the flow as pure
  // advection, so the ladder isolates the MUSCL/upwind species
  // discretization (the finite-rate source path is gated bitwise against
  // the scalar kernels in test_batch instead).
  opt.mechanism = std::make_shared<chemistry::Mechanism>(frozen_n2_mechanism());
  const double mid = 0.5 * extent;
  opt.species_y0 = {sp.y(0, mid, mid), sp.y(1, mid, mid)};
  opt.species_dirichlet = [&sp](double x, double r, std::span<double> yv) {
    yv[0] = sp.y(0, x, r);
    yv[1] = sp.y(1, x, r);
  };
  opt.species_source = [&](double x, double r, std::span<double> s_out) {
    s_out[0] = sp.source(field, 0, x, r);
    s_out[1] = sp.source(field, 1, x, r);
  };

  solvers::EulerSolver solver(g, gas, opt);
  solver.initialize({field.rho.v(mid, mid), field.u.v(mid, mid),
                     field.v.v(mid, mid), field.p.v(mid, mid)});
  solver.solve();

  NormAccumulator acc;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      acc.add(solver.species_mass_fraction(0, i, j) -
                  sp.y(0, g.xc(i, j), g.rc(i, j)),
              g.volume(i, j));
    }
  }
  LevelResult lr;
  lr.h = extent / static_cast<double>(n);
  lr.n = n;
  lr.error = acc.finalize();
  lr.functional = solver.residual();
  return lr;
}

LevelResult run_reactor_level(std::size_t nsteps) {
  static const chemistry::Mechanism mech = frozen_n2_mechanism();
  chemistry::IsochoricReactor reactor(mech);

  const double t_final = 1.0e-3;
  const double omega = 3000.0;
  const double amp = 0.1;
  const double t0 = 3000.0;
  auto y0_exact = [&](double t) { return 0.75 - amp * std::sin(omega * t); };

  reactor.set_source_hook([&](double t, std::span<const double> /*u*/,
                              std::span<double> du) {
    const double rate = amp * omega * std::cos(omega * t);
    du[0] -= rate;
    du[1] += rate;
    // du[2] (temperature) untouched: the frozen mechanism contributes
    // nothing, so T stays at t0 exactly along the manufactured solution.
  });
  numerics::StiffOptions sopt;
  sopt.rel_tol = 1e-9;
  sopt.abs_tol = 1e-12;
  sopt.fixed_step = t_final / static_cast<double>(nsteps);
  sopt.max_newton = 20;
  sopt.use_bdf2 = true;
  reactor.set_stiff_options(sopt);

  chemistry::IsochoricReactor::State st{{y0_exact(0.0), 1.0 - y0_exact(0.0)},
                                        t0};
  reactor.advance_coupled(st, /*rho=*/0.01, t_final);

  NormAccumulator acc;
  acc.add(st.y[0] - y0_exact(t_final));
  acc.add(st.y[1] - (1.0 - y0_exact(t_final)));
  acc.add((st.t - t0) / t0);
  LevelResult lr;
  lr.h = sopt.fixed_step;
  lr.n = nsteps;
  lr.error = acc.finalize();
  return lr;
}

// ---------------------------------------------------------------------------
// Stiff integrator, forced backward Euler: design order 1.
// ---------------------------------------------------------------------------

LevelResult run_backward_euler_level(std::size_t nsteps) {
  auto g = [](double t) { return 1.0 + 0.3 * std::sin(3.0 * t); };
  auto gp = [](double t) { return 0.9 * std::cos(3.0 * t); };
  numerics::OdeRhs rhs = [&](double t, std::span<const double> y,
                             std::span<double> dy) {
    dy[0] = -4.0 * (y[0] - g(t)) + gp(t);
  };
  numerics::StiffOptions sopt;
  sopt.rel_tol = 1e-10;
  sopt.abs_tol = 1e-13;
  sopt.fixed_step = 1.0 / static_cast<double>(nsteps);
  sopt.use_bdf2 = false;
  numerics::StiffIntegrator integ(rhs, sopt);
  numerics::StiffWorkspace ws;
  std::vector<double> y{g(0.0)};
  integ.integrate(0.0, 1.0, y, ws);

  LevelResult lr;
  lr.h = sopt.fixed_step;
  lr.n = nsteps;
  NormAccumulator acc;
  acc.add(y[0] - g(1.0));
  lr.error = acc.finalize();
  return lr;
}

// ---------------------------------------------------------------------------
// relax1d marching pipeline exactness (frozen mechanism + injected source).
// ---------------------------------------------------------------------------

LevelResult run_relax1d_exactness() {
  static const chemistry::Mechanism mech = frozen_n2_mechanism();
  const double amp = 0.05, len = 2.0e-3;
  auto y_n2 = [&](double x) {
    return 1.0 - amp * (1.0 - std::exp(-x / len));
  };

  solvers::Relax1dOptions opt;
  opt.x_max_m = 0.01;
  opt.n_samples = 60;
  opt.x_first_m = 1e-5;
  opt.two_temperature = false;
  opt.source = [&](double x, std::span<const double> /*u*/,
                   std::span<double> du) {
    const double rate = (amp / len) * std::exp(-x / len);
    du[0] -= rate;  // N2 consumed ...
    du[1] += rate;  // ... into N, sum preserved
  };
  const solvers::PostShockRelaxation relax(mech, opt);
  const solvers::ShockTubeFreestream fs{50.0, 300.0, 4000.0};
  const std::vector<double> y1{1.0, 0.0};
  const auto prof = relax.solve(fs, y1);

  NormAccumulator acc;
  for (std::size_t k = 0; k < prof.size(); ++k) {
    acc.add(prof.y[0][k] - y_n2(prof.x[k]));
    acc.add(prof.y[1][k] - (1.0 - y_n2(prof.x[k])));
  }
  LevelResult lr;
  lr.h = opt.x_max_m / static_cast<double>(opt.n_samples);
  lr.n = opt.n_samples;
  lr.error = acc.finalize();
  return lr;
}

// ---------------------------------------------------------------------------
// Scenario-layer solution verification: VSL heating vs station count.
// ---------------------------------------------------------------------------

LevelResult run_vsl_station_level(std::size_t n_stations) {
  const scenario::Case* base = scenario::find_scenario("sphere_cone_vsl");
  CAT_REQUIRE(base != nullptr, "registry lost sphere_cone_vsl");
  scenario::Case c = *base;
  c.fidelity = scenario::Fidelity::kSmoke;
  c.n_stations = n_stations;
  const auto result = scenario::run_case(c);

  LevelResult lr;
  lr.h = 1.0 / static_cast<double>(n_stations);
  lr.n = n_stations;
  lr.functional = result.metric("aft_q_w");
  return lr;
}

// ---------------------------------------------------------------------------
// Catalog.
// ---------------------------------------------------------------------------

struct StudyEntry {
  StudyConfig cfg;
  std::size_t default_levels;
  std::size_t max_levels;
  LevelRunner runner;
};

std::vector<StudyEntry> make_entries() {
  std::vector<StudyEntry> entries;

  entries.push_back(
      {{"fv_euler_mms",
        "FV Euler interior: MUSCL/van Leer + HLLE on a manufactured "
        "supersonic field",
        "density error vs exact", StudyKind::kOrder, 2.0, 0.25, 2, 0.0},
       3,
       5,
       [](std::size_t level) {
         return run_fv_level(supersonic_euler_field(), false,
                             numerics::Limiter::kVanLeer, 8u << level);
       }});

  entries.push_back(
      {{"fv_euler_first_order",
        "FV Euler, first-order reconstruction (limiter kNone clips to "
        "piecewise-constant)",
        "density error vs exact", StudyKind::kOrder, 1.0, 0.25, 2, 0.0},
       3,
       5,
       [](std::size_t level) {
         return run_fv_level(supersonic_euler_field(), false,
                             numerics::Limiter::kNone, 8u << level);
       }});

  entries.push_back(
      {{"fv_ns_mms",
        "FV Navier-Stokes: thin-layer viscous fluxes at Reynolds ~20 on a "
        "manufactured field",
        "density error vs exact", StudyKind::kOrder, 2.0, 0.25, 2, 0.0},
       3,
       5,
       [](std::size_t level) {
         return run_fv_level(viscous_ns_field(), true,
                             numerics::Limiter::kVanLeer, 8u << level);
       }});

  entries.push_back(
      {{"fv_euler_curvilinear",
        "FV Euler on sinusoidally-skewed curvilinear grids: the full "
        "metric path (tilted faces) must keep design order",
        "density error vs exact", StudyKind::kOrder, 2.0, 0.35, 2, 0.0,
        /*upper_tolerance=*/1.1},
       3,
       5,
       [](std::size_t level) {
         return run_fv_level(supersonic_euler_field(), false,
                             numerics::Limiter::kMinmod, 8u << level,
                             FvGrid::kSkewed);
       }});

  entries.push_back(
      {{"fv_ns_stretched",
        "FV Navier-Stokes on smoothly-stretched non-uniform grids "
        "(y-aligned j-faces match the thin-layer viscous model)",
        "density error vs exact", StudyKind::kOrder, 2.0, 0.35, 2, 0.0,
        /*upper_tolerance=*/1.1},
       3,
       5,
       [](std::size_t level) {
         return run_fv_level(viscous_ns_field(), true,
                             numerics::Limiter::kMinmod, 8u << level,
                             FvGrid::kStretched);
       }});

  entries.push_back(
      {{"fv_species_mms",
        "FV species transport: MUSCL mass fractions upwinded on the HLLE "
        "mass flux (frozen mechanism isolates the advective order)",
        "mass-fraction error vs exact", StudyKind::kOrder, 2.0, 0.25, 2,
        0.0},
       3,
       5,
       [](std::size_t level) { return run_fv_species_level(8u << level); }});

  entries.push_back(
      {{"bl_march_mms",
        "Parabolic BL/VSL march: implicit tridiagonal eta sweeps on "
        "manufactured similarity profiles",
        "F/g profile error at the last station", StudyKind::kOrder, 2.0,
        0.25, 2, 0.0},
       3,
       5,
       [](std::size_t level) {
         return run_march_level((40u << level) + 1u);
       }});

  entries.push_back(
      {{"march_dxi_mms",
        "VSL/PNS marching core, streamwise Δξ ladder: variable-step BDF2 "
        "history terms on an s-modulated manufactured field",
        "F/g profile error at the last station", StudyKind::kOrder, 2.0,
        0.25, 2, 0.0},
       4,
       5,
       [](std::size_t level) {
         return run_march_dxi_level(level, /*order=*/2, /*omega0=*/1.0,
                                    /*omega1=*/0.0);
       }});

  entries.push_back(
      {{"march_dxi_bdf1",
        "VSL/PNS marching core, forced legacy BDF1 history terms: the "
        "ladder must detect the old first-order streamwise march",
        "F/g profile error at the last station", StudyKind::kOrder, 1.0,
        0.25, 2, 0.0},
       4,
       5,
       [](std::size_t level) {
         return run_march_dxi_level(level, /*order=*/1, /*omega0=*/1.0,
                                    /*omega1=*/0.0);
       }});

  entries.push_back(
      {{"pns_vigneron_mms",
        "PNS Vigneron splitting: streamwise Δξ ladder with a prescribed "
        "omega(s) < 1 scaling the admitted pressure gradient",
        "F/g profile error at the last station", StudyKind::kOrder, 2.0,
        0.25, 2, 0.0},
       4,
       5,
       [](std::size_t level) {
         return run_march_dxi_level(level, /*order=*/2, /*omega0=*/0.75,
                                    /*omega1=*/0.025);
       }});

  entries.push_back(
      {{"ebl_dxi_ladder",
        "E+BL pipeline: aft heating vs station count through the scenario "
        "layer (gated functional self-convergence, design order 2)",
        "aft_q_w [W/m^2]", StudyKind::kFunctionalOrder, 2.0, 0.35, 1, 0.0},
       4,
       5,
       [](std::size_t level) { return run_ebl_dxi_level(8u << level); }});

  entries.push_back(
      {{"reactor_time_order",
        "Reactor path (frozen 2-species N2/N): BDF2 temporal order through "
        "IsochoricReactor + SourceHook",
        "state error at t_final", StudyKind::kOrder, 2.0, 0.25, 2, 0.0},
       4,
       6,
       [](std::size_t level) { return run_reactor_level(64u << level); }});

  entries.push_back(
      {{"stiff_backward_euler",
        "StiffIntegrator, forced backward Euler steps: temporal design "
        "order 1",
        "state error at t = 1", StudyKind::kOrder, 1.0, 0.25, 2, 0.0},
       4,
       6,
       [](std::size_t level) {
         return run_backward_euler_level(20u << level);
       }});

  entries.push_back(
      {{"relax1d_mms",
        "relax1d marching/recovery pipeline: frozen mechanism + injected "
        "source reproduces the manufactured profile",
        "species profile deviation", StudyKind::kExactness, 0.0, 0.0, 0,
        1e-5},
       1,
       1,
       [](std::size_t) { return run_relax1d_exactness(); }});

  entries.push_back(
      {{"surrogate_refinement",
        "Surrogate tier: multilinear table refinement against an analytic "
        "exponential-atmosphere heating field (design order 2)",
        "relative q_conv error over the flight domain", StudyKind::kOrder,
        2.0, 0.25, 2, 0.0},
       3,
       5,
       [](std::size_t level) {
         return run_surrogate_level(8u << level);
       }});

  entries.push_back(
      {{"vsl_station_ladder",
        "Scenario layer: sphere_cone_vsl aft heating vs marching-station "
        "count (solution verification, Richardson)",
        "aft_q_w [W/m^2]", StudyKind::kReport, 1.0, 0.0, 0, 0.0},
       3,
       4,
       [](std::size_t level) {
         return run_vsl_station_level(8u << level);
       }});

  return entries;
}

const std::vector<StudyEntry>& entries() {
  static const std::vector<StudyEntry> e = make_entries();
  return e;
}

}  // namespace

std::vector<StudyConfig> study_catalog() {
  std::vector<StudyConfig> out;
  for (const auto& e : entries()) out.push_back(e.cfg);
  return out;
}

StudyResult run_study(std::string_view name, const StudyOptions& opt) {
  for (const auto& e : entries()) {
    if (e.cfg.name != name) continue;
    std::size_t levels = opt.levels > 0 ? opt.levels : e.default_levels;
    levels = std::min(levels, e.max_levels);
    if (e.cfg.kind == StudyKind::kOrder)
      levels = std::max(levels, e.cfg.gate_pairs + 1);
    if (e.cfg.kind == StudyKind::kFunctionalOrder)
      levels = std::max(levels, e.cfg.gate_pairs + 2);
    if (e.cfg.kind == StudyKind::kReport)
      levels = std::max<std::size_t>(levels, 3);
    return run_convergence_study(e.cfg, levels, e.runner);
  }
  throw std::invalid_argument("unknown verification study: " +
                              std::string(name));
}

std::vector<StudyResult> run_all_studies(const StudyOptions& opt) {
  std::vector<StudyResult> out;
  for (const auto& e : entries()) out.push_back(run_study(e.cfg.name, opt));
  return out;
}

}  // namespace cat::verify
