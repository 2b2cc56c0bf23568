#include "solvers/vsl/vsl.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/error.hpp"
#include "numerics/interp.hpp"
#include "numerics/tridiag.hpp"
#include "numerics/tridiag_batch.hpp"
#include "transport/transport.hpp"

namespace cat::solvers {

PropertyProvider make_equilibrium_props(const gas::EquilibriumSolver& eq) {
  // The transport evaluator must outlive the returned closure.
  auto trans = std::make_shared<transport::MixtureTransport>(eq.mixture());
  return [&eq, trans](double p, double h) {
    const auto st = eq.solve_ph(p, h);
    PhState out;
    out.rho = st.rho;
    out.t = st.t;
    const transport::ViscosityPrandtl mp = trans->viscosity_prandtl(st.y, st.t);
    out.mu = mp.mu;
    out.pr = mp.pr;
    out.h = st.h;
    return out;
  };
}

PropertyProvider make_ideal_props(double gamma, double r_gas,
                                  double prandtl) {
  CAT_REQUIRE(gamma > 1.0 && r_gas > 0.0, "bad ideal gas");
  const double cp = gamma * r_gas / (gamma - 1.0);
  return [=](double p, double h) {
    PhState out;
    out.t = std::max(h / cp, 50.0);
    out.rho = p / (r_gas * out.t);
    out.mu = transport::sutherland_viscosity(std::min(out.t, 30000.0));
    out.pr = prandtl;
    out.h = h;
    return out;
  };
}

double metric_radius(double r, double s, double rn) {
  if (r > 0.0) return r;
  if (s < rn) return s;
  throw SolverError(
      "metric_radius: generator radius " + std::to_string(r) + " at s = " +
      std::to_string(s) + " m, aft of the nose (Rn = " + std::to_string(rn) +
      " m) — the axisymmetric marching metric is undefined there and no "
      "analytic limit applies");
}

StreamwiseCoeffs streamwise_coeffs(double d1, double d2, bool bdf2) {
  d1 = std::max(d1, 1e-30);
  if (!bdf2) return {1.0 / d1, -1.0 / d1, 0.0};
  d2 = std::max(d2, 1e-30);
  return {(2.0 * d1 + d2) / (d1 * (d1 + d2)), -(d1 + d2) / (d1 * d2),
          d1 / (d2 * (d1 + d2))};
}

double enthalpy_at_temperature(const PropertyProvider& props, double p,
                               double t) {
  CAT_REQUIRE(props != nullptr && p > 0.0 && t > 0.0,
              "enthalpy_at_temperature needs a provider, p > 0 and T > 0");
  auto t_of = [&](double h) { return props(p, h).t; };
  // Validate the default bracket and widen it geometrically when the
  // target temperature lies outside: providers differ wildly in their
  // h(T) scale (cold Titan freestreams vs 40 MJ/kg shock layers), and
  // the old fixed [-5e6, 5e7] J/kg bracket silently clamped any
  // out-of-range target to an endpoint.
  // Widening stops at |h| = 1e10 J/kg — an order of magnitude beyond any
  // shock-layer enthalpy this code can see (40 MJ/kg Galileo-class entries)
  // — so a saturating/clamped provider costs ~10 extra evaluations before
  // the throw instead of feeding table-backed props astronomically
  // unphysical inputs.
  constexpr double h_cap = 1e10;
  double hlo = -5e6, hhi = 5e7;
  while (t_of(hlo) > t) {
    hlo *= 2.0;
    if (std::fabs(hlo) > h_cap)  // checked before t_of sees the new value
      throw SolverError(
          "enthalpy_at_temperature: provider temperature never drops to " +
          std::to_string(t) + " K (no lower bracket)");
  }
  while (t_of(hhi) < t) {
    hhi *= 2.0;
    if (hhi > h_cap)
      throw SolverError(
          "enthalpy_at_temperature: provider temperature never reaches " +
          std::to_string(t) + " K (no upper bracket)");
  }
  for (int k = 0; k < 200; ++k) {
    const double mid = 0.5 * (hlo + hhi);
    if (t_of(mid) > t) {
      hhi = mid;
    } else {
      hlo = mid;
    }
    if (hhi - hlo < 1e-10 * (std::fabs(hlo) + std::fabs(hhi) + 1.0)) break;
  }
  return 0.5 * (hlo + hhi);
}

PitotSolution solve_rayleigh_pitot(const DensityProvider& rho_of_ph,
                                   const MarchFreestream& fs, double h_inf,
                                   double eps0, int max_iters, double tol) {
  CAT_REQUIRE(rho_of_ph != nullptr && fs.rho > 0.0 && fs.velocity > 0.0,
              "pitot iteration needs a density provider and a freestream");
  double eps = eps0;
  double step = 1.0;
  for (int it = 0; it < max_iters; ++it) {
    const double p2 = fs.p + fs.rho * fs.velocity * fs.velocity * (1.0 - eps);
    const double h2 =
        h_inf + 0.5 * fs.velocity * fs.velocity * (1.0 - eps * eps);
    const double rho2 = rho_of_ph(p2, h2);
    if (!(rho2 > 0.0) || !std::isfinite(rho2))
      throw SolverError("solve_rayleigh_pitot: provider density " +
                        std::to_string(rho2) + " at p2 = " +
                        std::to_string(p2) + " Pa");
    const double eps_new = fs.rho / rho2;
    step = std::fabs(eps_new - eps);
    if (step < tol) break;
    eps = 0.5 * (eps + eps_new);
  }
  if (!(step < tol))
    throw SolverError(
        "solve_rayleigh_pitot: density-ratio iteration stalled at step " +
        std::to_string(step) + " after " + std::to_string(max_iters) +
        " iterations");
  PitotSolution out;
  out.eps = eps;
  out.p_stag = fs.p + fs.rho * fs.velocity * fs.velocity * (1.0 - eps) *
                          (1.0 + 0.5 * eps);
  return out;
}

ParabolicMarcher::ParabolicMarcher(PropertyProvider props, MarchOptions opt)
    : props_(std::move(props)), opt_(opt) {
  CAT_REQUIRE(opt_.n_eta >= 30, "eta grid too small");
  CAT_REQUIRE(opt_.streamwise_order == 1 || opt_.streamwise_order == 2,
              "streamwise_order must be 1 (BDF1) or 2 (BDF2)");
  CAT_REQUIRE(props_ != nullptr, "property provider required");
}

std::vector<MarchStationResult> ParabolicMarcher::march(
    const std::vector<MarchEdge>& edges, double h_total) const {
  CAT_REQUIRE(edges.size() >= 2, "need at least two stations");
  CAT_REQUIRE(edges.front().s > 0.0, "first station must have s > 0");

  const std::size_t n = edges.size();
  const std::size_t ne = opt_.n_eta;
  const double d_eta = opt_.eta_max / static_cast<double>(ne - 1);

  // Streamwise similarity coordinate.
  std::vector<double> xi(n);
  {
    const double f0 = edges[0].rho_e * edges[0].mu_e * edges[0].ue *
                      edges[0].r * edges[0].r;
    xi[0] = 0.25 * f0 * edges[0].s;
    for (std::size_t i = 1; i < n; ++i) {
      const double fi = edges[i].rho_e * edges[i].mu_e * edges[i].ue *
                        edges[i].r * edges[i].r;
      const double fim = edges[i - 1].rho_e * edges[i - 1].mu_e *
                         edges[i - 1].ue * edges[i - 1].r * edges[i - 1].r;
      xi[i] = xi[i - 1] + 0.5 * (fi + fim) * (edges[i].s - edges[i - 1].s);
    }
  }

  // Profiles F = u/ue and g = H/He on the eta grid; initialized with a
  // smooth ramp and refined by the station-0 similarity solve. Two
  // upstream stations are retained for the BDF2 history terms.
  std::vector<double> F(ne), g(ne), F_prev(ne), g_prev(ne), F_prev2(ne),
      g_prev2(ne), f_prev_int(ne, 0.0), f_prev2_int(ne, 0.0);

  // Picard scratch, hoisted out of the station loop, and the fused line
  // solver: the momentum and energy tridiagonal systems of one Picard
  // iteration are both assembled from the lagged profiles (the energy
  // assembly never reads the fresh momentum solution), so they solve as a
  // single blocked Thomas sweep — bitwise identical to the two scalar
  // solve_tridiagonal calls it replaces, but one pass over the bands and
  // no per-iteration allocations.
  std::vector<double> f_int(ne), fx(ne, 0.0), Cn(ne), CPrn(ne), rrn(ne);
  numerics::TridiagBatch lines(ne, 2);
  constexpr std::size_t kMom = 0, kEn = 1;

  std::vector<MarchStationResult> out;
  out.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    const MarchEdge& ed = edges[i];

    // Property tables vs static enthalpy at this station's pressure.
    const double h_wall_state =
        enthalpy_at_temperature(props_, ed.p_e, opt_.wall_temperature_K);
    const double g_w = h_wall_state / h_total;
    const double h_lo =
        std::min(h_wall_state, ed.h_e) - 0.02 * std::fabs(h_total);
    const double h_hi = h_total * 1.02;
    const std::size_t nt = opt_.n_table;
    std::vector<double> h_nodes(nt), c_tab(nt), cpr_tab(nt), rho_tab(nt);
    const double reme = ed.rho_e * ed.mu_e;
    for (std::size_t k = 0; k < nt; ++k) {
      const double h = h_lo + (h_hi - h_lo) * static_cast<double>(k) /
                                  static_cast<double>(nt - 1);
      const PhState st = props_(ed.p_e, h);
      h_nodes[k] = h;
      rho_tab[k] = st.rho;
      c_tab[k] = st.rho * st.mu / reme;
      cpr_tab[k] = c_tab[k] / st.pr;
    }
    numerics::Pchip C_of_h(h_nodes, c_tab);
    numerics::Pchip CPr_of_h(h_nodes, cpr_tab);
    numerics::Pchip rho_of_h(h_nodes, rho_tab);
    const double rho_edge = rho_of_h(ed.h_e);
    const double d_kin = 0.5 * ed.ue * ed.ue / h_total;

    // Streamwise-difference coefficients for d()/dxi at xi[i]: one-point
    // backward (BDF1) at the startup station i = 1 — or everywhere when
    // streamwise_order = 1 — and variable-step three-point BDF2 from
    // i = 2 on, so the discrete history terms carry design order 2 in
    // dxi. d(phi)/dxi ~ cx0 phi_i + cx1 phi_{i-1} + cx2 phi_{i-2}.
    const bool bdf2 = i >= 2 && opt_.streamwise_order == 2;
    double cx0 = 0.0, cx1 = 0.0, cx2 = 0.0;
    if (i >= 1) {
      const StreamwiseCoeffs cs = streamwise_coeffs(
          xi[i] - xi[i - 1], bdf2 ? xi[i - 1] - xi[i - 2] : 0.0, bdf2);
      cx0 = cs.c0;
      cx1 = cs.c1;
      cx2 = cs.c2;
    }
    const double two_xi = 2.0 * xi[i];

    // Pressure-gradient parameter with the Vigneron fraction applied
    // (PNS splitting: only omega of the streamwise gradient is admitted).
    // due/dxi uses the same backward stencil as the history terms so the
    // whole station closes at the streamwise design order.
    double beta;
    if (i == 0) {
      beta = 0.5;
      for (std::size_t j = 0; j < ne; ++j) {
        const double z = static_cast<double>(j) / static_cast<double>(ne - 1);
        F[j] = std::min(1.0, 1.5 * z);
        g[j] = g_w + (1.0 - g_w) * std::min(1.0, 1.5 * z);
      }
    } else {
      const double due_dxi = bdf2 ? cx0 * edges[i].ue + cx1 * edges[i - 1].ue +
                                        cx2 * edges[i - 2].ue
                                  : cx0 * (edges[i].ue - edges[i - 1].ue);
      beta = std::clamp(2.0 * xi[i] / ed.ue * due_dxi, -0.15, 1.0);
      beta *= ed.vigneron_omega;
    }

    F_prev2 = F_prev;  // station i-2 profiles (BDF2 history)
    g_prev2 = g_prev;
    F_prev = F;  // station i-1 profiles (history terms)
    g_prev = g;

    // Stream functions of the history profiles (for the f_xi term);
    // fixed during the Picard iterations, so integrate them once per
    // station. The i-2 integral only feeds the cx2 term, so it is skipped
    // whenever that coefficient is zero (startup stations, BDF1 marches —
    // any stale values are multiplied by cx2 = 0).
    for (std::size_t j = 1; j < ne; ++j) {
      f_prev_int[j] =
          f_prev_int[j - 1] + 0.5 * (F_prev[j] + F_prev[j - 1]) * d_eta;
      if (bdf2)
        f_prev2_int[j] =
            f_prev2_int[j - 1] + 0.5 * (F_prev2[j] + F_prev2[j - 1]) * d_eta;
    }

    // Picard iterations at this station.
    if (i == 0) std::fill(fx.begin(), fx.end(), 0.0);
    for (std::size_t pic = 0; pic < opt_.picard_iters; ++pic) {
      // Stream function from F.
      f_int[0] = 0.0;
      for (std::size_t j = 1; j < ne; ++j)
        f_int[j] = f_int[j - 1] + 0.5 * (F[j] + F[j - 1]) * d_eta;
      // Streamwise derivative of f (history term): fx = xi * df/dxi,
      // carried as the advective addition to the f coefficient below
      // (fx stays all-zero at station 0, where there is no history).
      if (i > 0) {
        for (std::size_t j = 0; j < ne; ++j)
          fx[j] = xi[i] * (cx0 * f_int[j] + cx1 * f_prev_int[j] +
                           cx2 * f_prev2_int[j]);
      }

      // Properties per node.
      for (std::size_t j = 0; j < ne; ++j) {
        const double h = std::clamp(
            h_total * (g[j] - d_kin * F[j] * F[j]), h_lo, h_hi);
        Cn[j] = std::max(C_of_h(h), 1e-4);
        CPrn[j] = std::max(CPr_of_h(h), 1e-4);
        rrn[j] = rho_edge / std::max(rho_of_h(h), 1e-12);
      }

      // ---- momentum line (fused system kMom) ----
      for (std::size_t j = 0; j < ne; ++j) {
        if (j == 0) {
          lines.a(j, kMom) = 0.0;
          lines.b(j, kMom) = 1.0;
          lines.c(j, kMom) = 0.0;
          lines.d(j, kMom) = 0.0;  // no slip
          continue;
        }
        if (j == ne - 1) {
          lines.a(j, kMom) = 0.0;
          lines.b(j, kMom) = 1.0;
          lines.c(j, kMom) = 0.0;
          lines.d(j, kMom) = 1.0;  // edge
          continue;
        }
        const double Cm = 0.5 * (Cn[j] + Cn[j - 1]);
        const double Cp = 0.5 * (Cn[j] + Cn[j + 1]);
        const double conv = f_int[j] + (i > 0 ? fx[j] : 0.0);
        const double upwind = conv / (2.0 * d_eta);
        lines.a(j, kMom) = Cm / (d_eta * d_eta) - upwind;
        lines.c(j, kMom) = Cp / (d_eta * d_eta) + upwind;
        // History term -2 xi F dF/dxi, Picard-linearized: the implicit
        // part (cx0, on the new profile) lands in b, the known upstream
        // stations (cx1, cx2) on the right-hand side.
        lines.b(j, kMom) = -(Cm + Cp) / (d_eta * d_eta) - beta * F[j] -
                           two_xi * cx0 * F[j];
        lines.d(j, kMom) = -beta * rrn[j] +
                           two_xi * F[j] * (cx1 * F_prev[j] + cx2 * F_prev2[j]);
        if (opt_.momentum_source)
          lines.d(j, kMom) -= opt_.momentum_source(
              ed.s, static_cast<double>(j) * d_eta);
      }

      // ---- energy line (fused system kEn; lagged profiles only) ----
      for (std::size_t j = 0; j < ne; ++j) {
        if (j == 0) {
          lines.a(j, kEn) = 0.0;
          lines.b(j, kEn) = 1.0;
          lines.c(j, kEn) = 0.0;
          lines.d(j, kEn) = g_w;
          continue;
        }
        if (j == ne - 1) {
          lines.a(j, kEn) = 0.0;
          lines.b(j, kEn) = 1.0;
          lines.c(j, kEn) = 0.0;
          lines.d(j, kEn) = 1.0;
          continue;
        }
        const double Km = 0.5 * (CPrn[j] + CPrn[j - 1]);
        const double Kp = 0.5 * (CPrn[j] + CPrn[j + 1]);
        const double conv = f_int[j] + (i > 0 ? fx[j] : 0.0);
        const double upwind = conv / (2.0 * d_eta);
        lines.a(j, kEn) = Km / (d_eta * d_eta) - upwind;
        lines.c(j, kEn) = Kp / (d_eta * d_eta) + upwind;
        lines.b(j, kEn) = -(Km + Kp) / (d_eta * d_eta) - two_xi * cx0 * F[j];
        // Viscous dissipation transport (Pr != 1): d/deta[ C(1-1/Pr)
        // d_kin d(F^2)/deta ] with lagged profiles.
        const double pr_j = Cn[j] / CPrn[j];
        const double diss_p = Cn[j] * (1.0 - 1.0 / pr_j) * d_kin *
                              (F[j + 1] * F[j + 1] - F[j] * F[j]) / d_eta;
        const double pr_m = Cn[j - 1] / CPrn[j - 1];
        const double diss_m = Cn[j - 1] * (1.0 - 1.0 / pr_m) * d_kin *
                              (F[j] * F[j] - F[j - 1] * F[j - 1]) / d_eta;
        lines.d(j, kEn) = two_xi * F[j] * (cx1 * g_prev[j] + cx2 * g_prev2[j]) -
                          (diss_p - diss_m) / d_eta;
        if (opt_.energy_source)
          lines.d(j, kEn) -=
              opt_.energy_source(ed.s, static_cast<double>(j) * d_eta);
      }

      lines.solve();  // both systems, one blocked Thomas sweep

      double change = 0.0;
      for (std::size_t j = 0; j < ne; ++j) {
        const double F_new = lines.x(j, kMom);
        const double g_new = lines.x(j, kEn);
        change = std::max(change, std::fabs(F_new - F[j]));
        change = std::max(change, std::fabs(g_new - g[j]));
        // Under-relax for robustness at strongly nonsimilar stations.
        F[j] = 0.7 * F_new + 0.3 * F[j];
        g[j] = 0.7 * g_new + 0.3 * g[j];
      }
      if (change < 1e-10) break;
    }

    if (opt_.profile_observer) opt_.profile_observer(i, ed.s, F, g);

    // Wall outputs: q = (C/Pr)(h_w) g'(0) He (ue r / sqrt(2 xi)) rho_e mu_e.
    // One-sided second-order wall gradients: the plain two-point
    // difference capped the whole march's heating output at first order
    // (exposed by the verify BL-march manufactured-solution study).
    const double metric =
        ed.ue * ed.r / std::sqrt(2.0 * std::max(xi[i], 1e-30));
    const double gp0 = (-3.0 * g[0] + 4.0 * g[1] - g[2]) / (2.0 * d_eta);
    const double fp0 = (-3.0 * F[0] + 4.0 * F[1] - F[2]) / (2.0 * d_eta);
    const double h_wall = std::clamp(g_w * h_total, h_lo, h_hi);
    MarchStationResult r;
    r.s = ed.s;
    r.q_w = CPr_of_h(h_wall) * gp0 * h_total * metric * reme;
    r.cf = C_of_h(h_wall) * fp0 * ed.ue * metric * reme /
           (0.5 * ed.rho_e * ed.ue * ed.ue);
    r.p_e = ed.p_e;
    r.ue = ed.ue;
    r.t_e = ed.t_e;
    r.theta = std::sqrt(2.0 * std::max(xi[i], 1e-30)) /
              (ed.rho_e * ed.ue * ed.r);
    out.push_back(r);
  }
  return out;
}

VslSolver::VslSolver(const gas::EquilibriumSolver& eq, MarchOptions opt)
    : eq_(eq), opt_(opt) {}

std::vector<MarchEdge> VslSolver::build_edges(const geometry::Body& body,
                                              const MarchFreestream& fs,
                                              double s_min, double s_max,
                                              std::size_t n) const {
  CAT_REQUIRE(n >= 2 && s_max > s_min && s_min > 0.0, "bad station range");
  transport::MixtureTransport trans(eq_.mixture());
  const auto cold = eq_.solve_tp(std::max(fs.t, 160.0), fs.p);
  const double h_total = cold.h + 0.5 * fs.velocity * fs.velocity;
  const double q_dyn = 0.5 * fs.rho * fs.velocity * fs.velocity;

  // Stagnation pressure coefficient from the equilibrium normal shock
  // (Rayleigh-pitot density-ratio fixed point, shared with the PNS
  // front end).
  const PitotSolution pitot = solve_rayleigh_pitot(
      [this](double p2, double h2) { return eq_.solve_ph(p2, h2).rho; }, fs,
      cold.h);
  const double cp_max = (pitot.p_stag - fs.p) / q_dyn;

  std::vector<MarchEdge> edges;
  edges.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s = s_min + (s_max - s_min) * static_cast<double>(i) /
                                 static_cast<double>(n - 1);
    const geometry::SurfacePoint pt = body.at(s);
    // Modified-Newtonian surface pressure at local incidence theta.
    const double sth = std::sin(std::clamp(pt.theta, 0.02, 0.5 * M_PI));
    MarchEdge e;
    e.s = s;
    e.r = metric_radius(pt.r, s, body.nose_radius());
    e.p_e = fs.p + cp_max * q_dyn * sth * sth;
    // Thin shock layer: tangential velocity preserved across the shock.
    e.ue = std::max(fs.velocity * std::cos(pt.theta), 30.0);
    e.h_e = h_total - 0.5 * e.ue * e.ue;
    const auto st = eq_.solve_ph(e.p_e, e.h_e);
    e.rho_e = st.rho;
    e.t_e = st.t;
    e.mu_e = trans.viscosity(st.y, st.t);
    edges.push_back(e);
  }
  return edges;
}

std::vector<MarchStationResult> VslSolver::solve(
    const geometry::Body& body, const MarchFreestream& fs, double s_min,
    double s_max, std::size_t n_stations) const {
  const auto edges = build_edges(body, fs, s_min, s_max, n_stations);
  const auto cold = eq_.solve_tp(std::max(fs.t, 160.0), fs.p);
  const double h_total = cold.h + 0.5 * fs.velocity * fs.velocity;
  ParabolicMarcher marcher(make_equilibrium_props(eq_), opt_);
  return marcher.march(edges, h_total);
}

}  // namespace cat::solvers
