#include "solvers/stagnation/stagnation.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "numerics/interp.hpp"
#include "radiation/tangent_slab.hpp"
#include "solvers/correlations/correlations.hpp"
#include "solvers/vsl/vsl.hpp"
#include "transport/transport.hpp"

namespace cat::solvers {

using gas::constants::kAvogadro;

StagnationLineSolver::StagnationLineSolver(const gas::EquilibriumSolver& eq,
                                           StagnationOptions opt)
    : eq_(eq),
      opt_(opt),
      trans_(eq.mixture()),
      rad_(eq.mixture().set()),
      // Spectral window [m]: the UV-visible-near-IR band of the shock layer.
      grid_(0.2e-6, 1.2e-6, opt.n_spectral) {
  CAT_REQUIRE(opt_.n_eta >= 40 && opt_.eta_max > 3.0, "bad similarity grid");
}

ShockLayerEdge StagnationLineSolver::shock_layer_edge(
    const StagnationConditions& c) const {
  gas::EquilibriumResult stag;
  return shock_layer_edge(c, stag);
}

ShockLayerEdge StagnationLineSolver::shock_layer_edge(
    const StagnationConditions& c, gas::EquilibriumResult& stag) const {
  CAT_REQUIRE(c.velocity > 0.0 && c.rho_inf > 0.0 && c.p_inf > 0.0,
              "bad freestream");
  // Freestream enthalpy from the cold equilibrium state at (T_inf, p_inf).
  const auto fs = eq_.solve_tp(std::max(c.t_inf, 160.0), c.p_inf);
  const double h1 = fs.h;
  const double v = c.velocity;

  // Equilibrium Rankine-Hugoniot: the shared Rayleigh-pitot density-ratio
  // fixed point (solvers/vsl), which throws on a stalled iteration instead
  // of exiting silently. Successive iterates sit at nearly the same
  // (p2, h2), so each inversion is hinted by the previous one. The loop
  // stops on the iterate that met its tolerance without updating eps, so
  // its last state is the post-shock state at the converged ratio. This
  // solver keeps its own stagnation-pressure closure (p2 + recovered
  // post-shock kinetic head) below.
  gas::EquilibriumResult post;
  const PitotSolution pitot = solve_rayleigh_pitot(
      [this, &post](double p2, double h2) {
        post = eq_.solve_ph(p2, h2, post.x.empty() ? nullptr : &post);
        return post.rho;
      },
      {v, c.rho_inf, c.p_inf, c.t_inf}, h1, /*eps0=*/0.1,
      /*max_iters=*/120);
  const double eps = pitot.eps;

  ShockLayerEdge e;
  e.rho2 = post.rho;
  e.p2 = post.p;
  e.t2 = post.t;
  e.h2 = post.h;
  e.u2 = v * eps;
  e.density_ratio = eps;
  // Stagnation edge: recover the small post-shock kinetic head.
  e.p_stag = e.p2 + 0.5 * e.rho2 * e.u2 * e.u2;
  e.h_stag = h1 + 0.5 * v * v;
  stag = eq_.solve_ph(e.p_stag, e.h_stag, &post);
  e.t_stag = stag.t;
  e.rho_stag = stag.rho;
  // Shock standoff: classic blunt-body correlation delta = 0.78 eps R.
  e.standoff = 0.78 * eps * c.nose_radius;
  return e;
}

StagnationSolution StagnationLineSolver::solve(
    const StagnationConditions& c) const {
  gas::EquilibriumResult stag;  // equilibrium state at (p_stag, h_stag)
  const ShockLayerEdge edge = shock_layer_edge(c, stag);
  // Wall state at T_w: cold equilibrium composition at the wall.
  const auto wall_tp = eq_.solve_tp(c.wall_temperature_K, edge.p_stag);
  const double h_wall = wall_tp.h;
  // The similarity formulation normalizes by the edge total enthalpy; it
  // requires genuinely hypersonic conditions (h_e well above the wall
  // enthalpy). Below that the boundary-layer problem is not the one this
  // solver models.
  if (edge.h_stag < 2.0e5 || edge.h_stag < 2.0 * std::fabs(h_wall)) {
    throw SolverError(
        "StagnationLineSolver: edge enthalpy too low (non-hypersonic)");
  }
  const std::size_t ns = eq_.mixture().n_species();

  // ---- enthalpy-parameterized property tables across the layer --------
  // g = h/h_edge in [g_wall*0.8, 1.02]; all states at p = p_stag. The
  // wall state is hinted by the (T_w, p_stag) state whose enthalpy it
  // inverts, and each table node by its neighbour.
  const auto wall_state = eq_.solve_ph(edge.p_stag, h_wall, &wall_tp);
  const double h_e = edge.h_stag;
  const double g_w = wall_state.h / h_e;
  const double g_lo = std::min(g_w * 0.8, g_w - 1e-4);
  const double g_hi = 1.05;

  const std::size_t nt = opt_.n_table;
  std::vector<double> g_nodes(nt), c_chap(nt), c_over_pr(nt), rho_tab(nt),
      t_tab(nt), mu_tab(nt);
  std::vector<std::vector<double>> x_tab(nt);
  const double rho_e_mu_e = stag.rho * trans_.viscosity(stag.y, stag.t);
  gas::EquilibriumResult st = wall_state;
  for (std::size_t k = 0; k < nt; ++k) {
    const double g =
        g_lo + (g_hi - g_lo) * static_cast<double>(k) /
                   static_cast<double>(nt - 1);
    st = eq_.solve_ph(edge.p_stag, g * h_e, &st);
    const transport::ViscosityPrandtl mp =
        trans_.viscosity_prandtl(st.y, st.t);
    g_nodes[k] = g;
    rho_tab[k] = st.rho;
    t_tab[k] = st.t;
    mu_tab[k] = mp.mu;
    c_chap[k] = st.rho * mp.mu / rho_e_mu_e;
    c_over_pr[k] = c_chap[k] / mp.pr;
    x_tab[k] = st.x;
  }
  numerics::Pchip C_of_g(g_nodes, c_chap);
  numerics::Pchip CPr_of_g(g_nodes, c_over_pr);
  numerics::Pchip rho_of_g(g_nodes, rho_tab);
  numerics::Pchip T_of_g(g_nodes, t_tab);
  const double rho_e = rho_of_g(1.0);

  // ---- Lees-Dorodnitsyn similarity BVP by two-parameter shooting ------
  const double d_eta = opt_.eta_max / static_cast<double>(opt_.n_eta - 1);
  // The 5-variable first-order system: [f, f', f'', g, G] with G = C/Pr g'.
  //   f''' = -(f f'' + 0.5 (rho_e/rho - f'^2) + (dC/dg)(g') f'') / C
  //   g'   = G Pr / C
  //   G'   = -f g'
  // The three tables share g_nodes, so one interval search and one set of
  // Hermite weights at g serve C, C/Pr and rho.
  auto rhs5 = [&](const std::array<double, 5>& u, std::array<double, 5>& du) {
    const double g = std::clamp(u[3], g_lo, g_hi);
    const numerics::Pchip::Basis at_g = C_of_g.basis(g);
    const double C = std::max(C_of_g(at_g), 1e-4);
    const double CPr = std::max(CPr_of_g(at_g), 1e-4);
    const double rho_ratio = rho_e / std::max(rho_of_g(at_g), 1e-10);
    const double dgq = 1e-4;
    const double dC_dg = (C_of_g(std::min(g + dgq, g_hi)) -
                          C_of_g(std::max(g - dgq, g_lo))) /
                         (2.0 * dgq);
    const double gprime = u[4] / CPr;
    du[0] = u[1];
    du[1] = u[2];
    du[2] = -(u[0] * u[2] + 0.5 * (rho_ratio - u[1] * u[1]) +
              dC_dg * gprime * u[2]) /
            C;
    du[3] = gprime;
    du[4] = -u[0] * gprime;
  };

  auto shoot = [&](double fpp0, double bigG0, std::vector<double>* eta_out,
                   std::vector<std::array<double, 5>>* sol_out) {
    std::array<double, 5> u{0.0, 0.0, fpp0, g_w, bigG0};
    if (sol_out) {
      sol_out->clear();
      eta_out->clear();
      sol_out->push_back(u);
      eta_out->push_back(0.0);
    }
    for (std::size_t k = 1; k < opt_.n_eta; ++k) {
      // RK4 step.
      std::array<double, 5> k1, k2, k3, k4, tmp;
      rhs5(u, k1);
      for (int i = 0; i < 5; ++i) tmp[i] = u[i] + 0.5 * d_eta * k1[i];
      rhs5(tmp, k2);
      for (int i = 0; i < 5; ++i) tmp[i] = u[i] + 0.5 * d_eta * k2[i];
      rhs5(tmp, k3);
      for (int i = 0; i < 5; ++i) tmp[i] = u[i] + d_eta * k3[i];
      rhs5(tmp, k4);
      for (int i = 0; i < 5; ++i)
        u[i] += d_eta / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
      // Wide anti-overflow guards only: converged profiles never reach
      // these, so shooting residuals stay smooth for the Newton iteration
      // (hard clamps at physical bounds would zero the Jacobian).
      u[1] = std::clamp(u[1], -5.0, 5.0);
      u[3] = std::clamp(u[3], -1.0, 3.0);
      if (sol_out) {
        sol_out->push_back(u);
        eta_out->push_back(d_eta * static_cast<double>(k));
      }
    }
    return std::array<double, 2>{u[1] - 1.0, u[3] - 1.0};
  };

  // Newton on the two shooting parameters (constant-property classical
  // values scaled by the wall-edge property contrast make a good seed).
  double fpp0 = 0.7;
  double bigG0 = 0.7 * (1.0 - g_w);
  // cat-lint: converges-by-construction (damped, clamped 2-parameter
  // Newton shoot; the verification ladder pins the converged profile, so a
  // stalled shoot cannot pass the order tests unnoticed)
  for (int it = 0; it < 60; ++it) {
    const auto r0 = shoot(fpp0, bigG0, nullptr, nullptr);
    if (std::fabs(r0[0]) < 1e-9 && std::fabs(r0[1]) < 1e-9) break;
    const double da = 1e-6 + 1e-6 * std::fabs(fpp0);
    const double db = 1e-6 + 1e-6 * std::fabs(bigG0);
    const auto ra = shoot(fpp0 + da, bigG0, nullptr, nullptr);
    const auto rb = shoot(fpp0, bigG0 + db, nullptr, nullptr);
    const double j11 = (ra[0] - r0[0]) / da, j12 = (rb[0] - r0[0]) / db;
    const double j21 = (ra[1] - r0[1]) / da, j22 = (rb[1] - r0[1]) / db;
    const double det = j11 * j22 - j12 * j21;
    if (std::fabs(det) < 1e-14) break;
    double dfpp = (j22 * r0[0] - j12 * r0[1]) / det;
    double dG = (-j21 * r0[0] + j11 * r0[1]) / det;
    // Damping keeps the shoot from leaving the physical branch.
    const double cap = 0.5;
    dfpp = std::clamp(dfpp, -cap, cap);
    dG = std::clamp(dG, -cap, cap);
    fpp0 -= dfpp;
    bigG0 -= dG;
    fpp0 = std::clamp(fpp0, 0.05, 3.0);
  }

  std::vector<double> eta;
  std::vector<std::array<double, 5>> sol;
  shoot(fpp0, bigG0, &eta, &sol);

  // ---- dimensional reconstruction -------------------------------------
  const double du_dx = correlations::newtonian_velocity_gradient(
      c.nose_radius, edge.p_stag, c.p_inf, edge.rho_stag);
  // q_w = (rho mu)_w / Pr_w * sqrt(2 du_dx / (rho_e mu_e)) * h_e * g'(0)
  //     = G(0) * sqrt(2 du_dx rho_e mu_e) * h_e   (G = C/Pr g').
  const double q_conv =
      bigG0 * std::sqrt(2.0 * du_dx * rho_e_mu_e) * h_e;

  StagnationSolution out;
  out.edge = edge;
  out.du_dx = du_dx;
  out.q_conv = q_conv;
  out.q_rad = 0.0;
  out.n_species = ns;

  // Physical wall-normal coordinate: dy/deta = 1/(rho sqrt(2 du_dx/(rho_e
  // mu_e))) (axisymmetric Lees-Dorodnitsyn inverse transform at x -> 0).
  const double scale = std::sqrt(rho_e_mu_e / (2.0 * du_dx));
  out.y_phys.resize(eta.size());
  out.temperature.resize(eta.size());
  out.species_x.assign(ns, std::vector<double>(eta.size()));
  double y_acc = 0.0;
  for (std::size_t k = 0; k < eta.size(); ++k) {
    const double g = std::clamp(sol[k][3], g_lo, g_hi);
    const numerics::Pchip::Basis at_g = rho_of_g.basis(g);
    const double rho = std::max(rho_of_g(at_g), 1e-10);
    if (k > 0) y_acc += scale / rho * (eta[k] - eta[k - 1]);
    out.y_phys[k] = y_acc;
    out.temperature[k] = T_of_g(at_g);
    // Composition: interpolate mole fractions in g (linear between table
    // nodes keeps them in [0,1]).
    const double pos = (g - g_lo) / (g_hi - g_lo) *
                       static_cast<double>(nt - 1);
    const std::size_t k0 = std::min(static_cast<std::size_t>(pos), nt - 2);
    const double w = std::clamp(pos - static_cast<double>(k0), 0.0, 1.0);
    for (std::size_t s = 0; s < ns; ++s)
      out.species_x[s][k] =
          (1.0 - w) * x_tab[k0][s] + w * x_tab[k0 + 1][s];
  }

  // Extend to the shock with the uniform inviscid equilibrium layer.
  const double y_bl = out.y_phys.back();
  if (edge.standoff > y_bl) {
    const std::size_t n_ext = 12;
    for (std::size_t k = 1; k <= n_ext; ++k) {
      const double y = y_bl + (edge.standoff - y_bl) *
                                  static_cast<double>(k) /
                                  static_cast<double>(n_ext);
      out.y_phys.push_back(y);
      out.temperature.push_back(stag.t);
      for (std::size_t s = 0; s < ns; ++s)
        out.species_x[s].push_back(stag.x[s]);
    }
  }

  // ---- tangent-slab radiative flux -------------------------------------
  if (opt_.include_radiation) {
    std::vector<radiation::SlabLayer> layers;
    const std::size_t np = out.y_phys.size();
    const std::size_t stride = std::max<std::size_t>(1, np / opt_.n_slab);
    std::vector<double> nd(ns);
    for (std::size_t k = 1; k < np; k += stride) {
      const std::size_t k0 = k - 1;
      const double dz = out.y_phys[std::min(k + stride - 1, np - 1)] -
                        out.y_phys[k0];
      if (dz <= 0.0) continue;
      const double t_loc = out.temperature[k0];
      // Number densities from mole fractions at (p_stag, T_loc).
      const double n_total =
          edge.p_stag / (gas::constants::kBoltzmann * t_loc);
      for (std::size_t s = 0; s < ns; ++s)
        nd[s] = out.species_x[s][k0] * n_total;
      radiation::SlabLayer layer;
      layer.thickness = dz;
      layer.j.resize(grid_.size());
      layer.kappa.resize(grid_.size());
      rad_.emission(nd, t_loc, t_loc, grid_, layer.j);
      rad_.absorption(layer.j, t_loc, grid_, layer.kappa);
      layers.push_back(std::move(layer));
    }
    if (!layers.empty()) {
      const auto slab = radiation::solve_tangent_slab(grid_, layers);
      out.q_rad = slab.q_wall;
    }
  }
  return out;
}

}  // namespace cat::solvers
