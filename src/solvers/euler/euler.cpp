#include "solvers/euler/euler.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "transport/transport.hpp"

namespace cat::solvers {

using numerics::limited_slope;

EulerSolver::EulerSolver(const grid::StructuredGrid& grid,
                         std::shared_ptr<const core::GasModel> gas,
                         FvOptions opt)
    : grid_(grid), gas_(std::move(gas)), opt_(opt) {
  CAT_REQUIRE(gas_ != nullptr, "gas model required");
  CAT_REQUIRE(!opt_.dirichlet || (grid_.ni() >= 2 && grid_.nj() >= 2),
              "Dirichlet verification ghosts extrapolate from two interior "
              "cells per direction");
  const std::size_t n = grid_.ni() * grid_.nj();
  u_.assign(n, Conservative{});
  w_.assign(n, Primitive{});
  p_.assign(n, 0.0);
  res_.assign(n, Conservative{});
  u0_scratch_.assign(n, Conservative{});
  dt_scratch_.assign(n, 0.0);

  if (opt_.mechanism) {
    ns_ = opt_.mechanism->n_species();
    CAT_REQUIRE(opt_.species_y0.size() == ns_,
                "species_y0 must provide one mass fraction per species");
    double ysum = 0.0;
    for (const double y : opt_.species_y0) {
      CAT_REQUIRE(y >= 0.0 && y <= 1.0, "species_y0 out of [0, 1]");
      ysum += y;
    }
    CAT_REQUIRE(std::fabs(ysum - 1.0) < 1e-8, "species_y0 must sum to 1");
    us_.assign(ns_ * n, 0.0);
    ys_.assign(ns_ * n, 0.0);
    res_s_.assign(ns_ * n, 0.0);
    us0_scratch_.assign(ns_ * n, 0.0);
    y_stencil_.assign(4 * ns_, 0.0);
    s_hook_.assign(ns_, 0.0);
    if (opt_.mechanism->n_reactions() > 0) {
      chem_.emplace(*opt_.mechanism);
      wdot_.assign(ns_ * n, 0.0);
      damp_.assign(ns_ * n, 1.0);
      chem_rho_.assign(n, 0.0);
      chem_t_.assign(n, 0.0);
    }
  }
}

void EulerSolver::initialize(const FreeStream& fs) {
  CAT_REQUIRE(fs.rho > 0.0 && fs.p > 0.0, "bad freestream");
  fs_ = fs;
  const double e_fs = gas_->energy(fs.rho, fs.p);
  const Primitive w0{fs.rho, fs.u, fs.v, e_fs};
  const Conservative c0 = encode(w0);
  std::fill(u_.begin(), u_.end(), c0);
  std::fill(w_.begin(), w_.end(), w0);
  std::fill(p_.begin(), p_.end(), fs.p);
  const std::size_t n = u_.size();
  for (std::size_t s = 0; s < ns_; ++s) {
    const double y0 = opt_.species_y0[s];
    std::fill(ys_.begin() + static_cast<std::ptrdiff_t>(s * n),
              ys_.begin() + static_cast<std::ptrdiff_t>((s + 1) * n), y0);
    std::fill(us_.begin() + static_cast<std::ptrdiff_t>(s * n),
              us_.begin() + static_cast<std::ptrdiff_t>((s + 1) * n),
              fs.rho * y0);
  }
  residual0_ = -1.0;
  residual_ = 1.0;
  iter_count_ = 0;
}

Primitive EulerSolver::decode(const Conservative& c) const {
  const double rho = std::max(c[0], 1e-12);
  const double u = c[1] / rho;
  const double v = c[2] / rho;
  const double e = c[3] / rho - 0.5 * (u * u + v * v);
  return {rho, u, v, e};
}

Conservative EulerSolver::encode(const Primitive& w) const {
  return {w[0], w[0] * w[1], w[0] * w[2],
          w[0] * (w[3] + 0.5 * (w[1] * w[1] + w[2] * w[2]))};
}

void EulerSolver::decode_all() {
  // Positivity repair: an impulsive hypersonic start can transiently drive
  // a cell's internal energy negative or evacuate it. Clip to floors and
  // rewrite the conservative state so U and w stay consistent (local
  // conservation error accepted during the transient; converged steady
  // states never trip the floors).
  const double e_fs = gas_->energy(fs_.rho, fs_.p);
  const double a_fs = gas_->sound_speed(fs_.rho, e_fs);
  const double v_cap = 4.0 * (std::fabs(fs_.u) + std::fabs(fs_.v) + a_fs);
  for (std::size_t k = 0; k < u_.size(); ++k) {
    Conservative& c = u_[k];
    c[0] = std::max(c[0], 1e-4 * fs_.rho);
    const double rho = c[0];
    double u = c[1] / rho, v = c[2] / rho;
    const double speed = std::sqrt(u * u + v * v);
    if (speed > v_cap) {
      const double scale = v_cap / speed;
      u *= scale;
      v *= scale;
      c[1] = rho * u;
      c[2] = rho * v;
      c[3] = std::min(c[3], rho * (std::fabs(e_fs) * 2.0 +
                                   0.5 * (u * u + v * v)));
    }
    const double e = c[3] / rho - 0.5 * (u * u + v * v);
    // Floor: just above the gas model's validity edge (ideal gas: e > 0;
    // tabulated EOS: the table's lower energy bound).
    const double e_min =
        gas_->min_energy() + 1e-3 * std::fabs(e_fs - gas_->min_energy());
    if (e < e_min) {
      c[3] = rho * (e_min + 0.5 * (u * u + v * v));
    }
    w_[k] = decode(c);
    p_[k] = gas_->pressure(w_[k][0], w_[k][3]);
  }
}

void EulerSolver::decode_species() {
  // Primitive mass fractions from the conservative species planes, with
  // the same positivity-repair philosophy as decode_all: clip y to [0, 1],
  // renormalize the sum, and rewrite rho y_s so U and y stay consistent.
  // For exactly advected fields (frozen MMS) the repair is a no-op to
  // roundoff: symmetric limiters reconstruct sum(y) = 1 exactly.
  const std::size_t n = u_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const double rho = w_[k][0];
    const double inv_rho = 1.0 / rho;
    double sum = 0.0;
    for (std::size_t s = 0; s < ns_; ++s) {
      const double y = std::clamp(us_[s * n + k] * inv_rho, 0.0, 1.0);
      ys_[s * n + k] = y;
      sum += y;
    }
    const double inv_sum = sum > 1e-12 ? 1.0 / sum : 0.0;
    for (std::size_t s = 0; s < ns_; ++s) {
      const double y = inv_sum > 0.0 ? ys_[s * n + k] * inv_sum
                                     : opt_.species_y0[s];
      ys_[s * n + k] = y;
      us_[s * n + k] = rho * y;
    }
  }
}

double EulerSolver::temperature(std::size_t i, std::size_t j) const {
  const Primitive& w = w_[cidx(i, j)];
  return gas_->temperature(w[0], w[3]);
}

double EulerSolver::mach(std::size_t i, std::size_t j) const {
  const Primitive& w = w_[cidx(i, j)];
  const double a = gas_->sound_speed(w[0], w[3]);
  return std::sqrt(w[1] * w[1] + w[2] * w[2]) / a;
}

Conservative EulerSolver::hlle_flux(const Primitive& wl, const Primitive& wr,
                                    double nx, double nr) const {
  const double area = std::sqrt(nx * nx + nr * nr);
  if (area < 1e-14) return {0.0, 0.0, 0.0, 0.0};
  const double nxh = nx / area, nrh = nr / area;

  auto pack = [&](const Primitive& w, Conservative& cons, Conservative& flux,
                  double& un, double& a) {
    const double rho = w[0], u = w[1], v = w[2], e = w[3];
    const double p = gas_->pressure(rho, e);
    const double et = e + 0.5 * (u * u + v * v);
    un = u * nxh + v * nrh;
    a = gas_->sound_speed(rho, e);
    cons = {rho, rho * u, rho * v, rho * et};
    flux = {rho * un, rho * u * un + p * nxh, rho * v * un + p * nrh,
            (rho * et + p) * un};
  };
  Conservative ul, fl, ur, fr;
  double unl, al, unr, ar;
  pack(wl, ul, fl, unl, al);
  pack(wr, ur, fr, unr, ar);

  const double sl = std::min(std::min(unl - al, unr - ar), 0.0);
  const double sr = std::max(std::max(unl + al, unr + ar), 0.0);
  Conservative f;
  const double inv = 1.0 / std::max(sr - sl, 1e-12);
  for (int k = 0; k < 4; ++k)
    f[k] = area *
           ((sr * fl[k] - sl * fr[k] + sl * sr * (ur[k] - ul[k])) * inv);
  return f;
}

Primitive EulerSolver::wall_ghost(const Primitive& w, double nx,
                                  double nr) const {
  const double area = std::sqrt(nx * nx + nr * nr);
  const double nxh = nx / area, nrh = nr / area;
  if (!opt_.viscous) {
    // Slip: reflect the normal velocity component.
    const double un = w[1] * nxh + w[2] * nrh;
    return {w[0], w[1] - 2.0 * un * nxh, w[2] - 2.0 * un * nrh, w[3]};
  }
  // No-slip isothermal: reflect velocity; caloric scaling of (rho, e) keeps
  // the ghost near the wall pressure at T -> 2 T_wall - T_in.
  const double t_in = gas_->temperature(w[0], w[3]);
  const double t_ghost = std::max(2.0 * opt_.wall_temperature_K - t_in,
                                  0.2 * opt_.wall_temperature_K);
  const double ratio = t_ghost / std::max(t_in, 1.0);
  return {w[0] / ratio, -w[1], -w[2], w[3] * ratio};
}

Primitive EulerSolver::axis_ghost(const Primitive& w) const {
  return {w[0], w[1], -w[2], w[3]};
}

std::array<double, 2> EulerSolver::face_normal(const Line& l,
                                               std::size_t q) const {
  if (l.dir == Dir::kI)
    return {grid_.iface_nx(q, l.index), grid_.iface_nr(q, l.index)};
  return {grid_.jface_nx(l.index, q), grid_.jface_nr(l.index, q)};
}

std::array<double, 2> EulerSolver::mms_center(const Line& l,
                                              std::ptrdiff_t q) const {
  auto center = [&](std::size_t k) -> std::array<double, 2> {
    if (l.dir == Dir::kI) return {grid_.xc(k, l.index), grid_.rc(k, l.index)};
    return {grid_.xc(l.index, k), grid_.rc(l.index, k)};
  };
  const auto n = static_cast<std::ptrdiff_t>(l.n);
  if (q >= 0 && q < n) return center(static_cast<std::size_t>(q));
  const auto a = center(q < 0 ? 0 : l.n - 1);  // nearest interior
  const auto b = center(q < 0 ? 1 : l.n - 2);  // next inward
  const double steps = q < 0 ? static_cast<double>(-q)
                             : static_cast<double>(q - (n - 1));
  return {a[0] + steps * (a[0] - b[0]), a[1] + steps * (a[1] - b[1])};
}

Primitive EulerSolver::mms_state(const Line& l, std::ptrdiff_t q) const {
  if (q >= 0 && q < static_cast<std::ptrdiff_t>(l.n))
    return w_[l.cell(static_cast<std::size_t>(q))];
  const auto c = mms_center(l, q);
  return opt_.dirichlet(c[0], c[1]);
}

void EulerSolver::species_face(const Line& l, std::size_t q, double f0) {
  const std::size_t n = u_.size();
  const auto lim = opt_.limiter;
  const bool mms_sp = static_cast<bool>(opt_.species_dirichlet);
  // res accumulates the net species outflux of the cells on either side.
  auto add_flux = [&](std::size_t s, double fs) {
    if (q > 0) res_s_[s * n + l.cell(q - 1)] += fs;
    if (q < l.n) res_s_[s * n + l.cell(q)] -= fs;
  };
  if (!mms_sp && (q == 0 || q == l.n)) {
    const std::size_t c = l.cell(q == 0 ? 0 : l.n - 1);
    if (l.dir == Dir::kI) {
      // Physical boundary faces mirror the bulk ghost policy: the axis
      // mirror and the outflow zero-gradient both leave y unchanged
      // across the face, so the species flux is f0 times the interior
      // fraction.
      for (std::size_t s = 0; s < ns_; ++s) add_flux(s, f0 * ys_[s * n + c]);
    } else {
      // Wall faces are non-catalytic (ghost carries the interior
      // fractions); the outer boundary sees freestream fractions on the
      // exterior side.
      for (std::size_t s = 0; s < ns_; ++s) {
        const double y_in = ys_[s * n + c];
        const double yl = y_in;
        const double yr = q == l.n ? opt_.species_y0[s] : y_in;
        add_flux(s, 0.5 * (f0 * (yl + yr) - std::fabs(f0) * (yr - yl)));
      }
    }
    return;
  }
  const std::span<double> ym2(y_stencil_.data(), ns_);
  const std::span<double> ym1(y_stencil_.data() + ns_, ns_);
  const std::span<double> yp1(y_stencil_.data() + 2 * ns_, ns_);
  const std::span<double> yp2(y_stencil_.data() + 3 * ns_, ns_);
  auto fetch = [&](std::ptrdiff_t k, std::span<double> out) {
    if (k < 0 || k >= static_cast<std::ptrdiff_t>(l.n)) {
      if (mms_sp) {
        const auto g = mms_center(l, k);
        opt_.species_dirichlet(g[0], g[1], out);
        return;
      }
      k = k < 0 ? 0 : static_cast<std::ptrdiff_t>(l.n) - 1;
    }
    const std::size_t c = l.cell(static_cast<std::size_t>(k));
    for (std::size_t s = 0; s < ns_; ++s) out[s] = ys_[s * n + c];
  };
  const auto qs = static_cast<std::ptrdiff_t>(q);
  fetch(qs - 2, ym2);
  fetch(qs - 1, ym1);
  fetch(qs, yp1);
  fetch(qs + 1, yp2);
  const bool have_m2 = mms_sp || q >= 2;
  const bool have_p2 = mms_sp || q + 1 < l.n;
  for (std::size_t s = 0; s < ns_; ++s) {
    double yl = ym1[s], yr = yp1[s];
    if (second_order_now_) {
      if (have_m2)
        yl += 0.5 * limited_slope(lim, ym1[s] - ym2[s], yp1[s] - ym1[s]);
      if (have_p2)
        yr -= 0.5 * limited_slope(lim, yp1[s] - ym1[s], yp2[s] - yp1[s]);
    }
    // Upwind on the sign of the bulk mass flux: f0 yl for outflow of the
    // left cell, f0 yr for inflow — consistent with the HLLE mass flux so
    // a uniform y field advects exactly.
    add_flux(s, 0.5 * (f0 * (yl + yr) - std::fabs(f0) * (yr - yl)));
  }
}

void EulerSolver::update_chemistry_source(const std::vector<double>& dts) {
  // Finite-rate sources for every cell through the SoA batch kernel, plus
  // the point-implicit damping factors. The source uses the field state of
  // the previous iteration (lagged), which is steady-state consistent: at
  // convergence the advective residual balances wdot of the converged
  // field exactly. Point-implicit form: splitting wdot = P - L (rho y)
  // with L = max(0, -wdot)/(rho y) >= 0, the update applies
  // 1/(1 + dt L) to the species residual — unconditionally stable for
  // stiff destruction, and the damping scales only the transient, never
  // the converged state.
  const std::size_t n = u_.size();
  for (std::size_t k = 0; k < n; ++k) {
    chem_rho_[k] = w_[k][0];
    chem_t_[k] = gas_->temperature(w_[k][0], w_[k][3]);
  }
  // One-temperature coupling: tv = t (the FV gas models are thermally
  // equilibrated; two-temperature coupling is a roadmap item).
  chem_->mass_production_rates(chem_rho_, ys_, chem_t_, chem_t_, wdot_, n);
  for (std::size_t s = 0; s < ns_; ++s) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = s * n + k;
      const double w = wdot_[idx];
      // Destruction: classic point-implicit 1/(1 + dt L), unconditionally
      // stable for stiff loss. Production is damped on the same relative
      // scale (floored near y ~ 1e-3 so trace species still ignite):
      // explicit production at shock-layer rates would otherwise outrun
      // the damped destruction of its reactants during the transient and
      // push the composition outside the elemental envelope that the
      // converged state satisfies exactly.
      const double scale = w < 0.0
                               ? std::max(us_[idx], 1e-12)
                               : std::max(us_[idx], 1e-3 * w_[k][0]);
      damp_[idx] = 1.0 / (1.0 + dts[k] * std::fabs(w) / scale);
    }
  }
}

void EulerSolver::accumulate_fluxes() {
  const std::size_t ni = grid_.ni(), nj = grid_.nj();
  const auto lim = opt_.limiter;
  const bool mms = static_cast<bool>(opt_.dirichlet);

  // Reconstruction helper: face states from cell values along a line.
  auto face_states = [&](const Primitive& wm2, const Primitive& wm1,
                         const Primitive& wp1, const Primitive& wp2,
                         bool have_m2, bool have_p2, Primitive& wl,
                         Primitive& wr) {
    wl = wm1;
    wr = wp1;
    if (!second_order_now_) return;
    for (int k = 0; k < 4; ++k) {
      if (have_m2) {
        const double s = limited_slope(lim, wm1[k] - wm2[k], wp1[k] - wm1[k]);
        wl[k] = wm1[k] + 0.5 * s;
      }
      if (have_p2) {
        const double s = limited_slope(lim, wp1[k] - wm1[k], wp2[k] - wp1[k]);
        wr[k] = wp1[k] - 0.5 * s;
      }
    }
    // Guard reconstructed states (density and energy positivity).
    wl[0] = std::max(wl[0], 1e-12);
    wr[0] = std::max(wr[0], 1e-12);
    const double e_guard = 1e-4 * std::fabs(wm1[3]) + 1e2;
    if (wl[3] < e_guard) wl[3] = wm1[3];
    if (wr[3] < e_guard) wr[3] = wp1[3];
  };

  // ---- face sweeps: the i-faces of every j-line, then the j-faces of
  // every i-line ----
  const double e_fs = gas_->energy(fs_.rho, fs_.p);
  for (const Dir d : {Dir::kI, Dir::kJ}) {
    const std::size_t lines = d == Dir::kI ? nj : ni;
    for (std::size_t index = 0; index < lines; ++index) {
      const Line l = line(d, index);
      auto w = [&](std::size_t q) -> const Primitive& {
        return w_[l.cell(q)];
      };
      for (std::size_t q = 0; q <= l.n; ++q) {
        const auto [nx, nr] = face_normal(l, q);
        Primitive wl, wr;
        if (mms) {
          // Dirichlet verification mode: every face sees a full MUSCL
          // stencil, with exact manufactured states beyond the boundary.
          const auto qs = static_cast<std::ptrdiff_t>(q);
          face_states(mms_state(l, qs - 2), mms_state(l, qs - 1),
                      mms_state(l, qs), mms_state(l, qs + 1), true, true,
                      wl, wr);
        } else if (q > 0 && q < l.n) {
          const bool have_m2 = q >= 2;
          const bool have_p2 = q + 1 < l.n;
          face_states(have_m2 ? w(q - 2) : w(q - 1), w(q - 1), w(q),
                      have_p2 ? w(q + 1) : w(q), have_m2, have_p2, wl, wr);
        } else if (d == Dir::kI) {
          if (q == 0) {
            // Axis/symmetry boundary: mirrored ghost.
            wl = axis_ghost(w(0));
            wr = w(0);
          } else {
            // Outflow: zero-gradient ghost.
            wl = w(l.n - 1);
            wr = wl;
          }
        } else if (q == 0) {
          // Wall: ghost below.
          wr = w(0);
          wl = wall_ghost(wr, nx, nr);
        } else {
          // Outer boundary: freestream (supersonic inflow).
          wl = w(l.n - 1);
          wr = {fs_.rho, fs_.u, fs_.v, e_fs};
        }
        const Conservative f = hlle_flux(wl, wr, nx, nr);
        // res accumulates net outflux; update is U -= dt/V res.
        if (q > 0)
          for (int k = 0; k < 4; ++k) res_[l.cell(q - 1)][k] += f[k];
        if (q < l.n)
          for (int k = 0; k < 4; ++k) res_[l.cell(q)][k] -= f[k];
        if (ns_ > 0) species_face(l, q, f[0]);
      }
    }
  }

  // ---- axisymmetric pressure source (update is U -= dt/V res) ----
  if (grid_.axisymmetric()) {
    for (std::size_t k = 0; k < u_.size(); ++k)
      res_[k][2] -= p_[k] * grid_.area(k / nj, k % nj);
  }

  if (opt_.viscous) accumulate_viscous();

  // ---- verification forcing (update is U -= dt/V res, so a positive
  // source density enters the residual negatively) ----
  if (opt_.source) {
    for (std::size_t i = 0; i < ni; ++i) {
      for (std::size_t j = 0; j < nj; ++j) {
        const std::array<double, 4> s = opt_.source(grid_.xc(i, j),
                                                    grid_.rc(i, j));
        const double vol = grid_.volume(i, j);
        for (int k = 0; k < 4; ++k) res_[cidx(i, j)][k] -= s[k] * vol;
      }
    }
  }

  // ---- species sources (same sign convention as opt_.source) ----
  if (chem_) {
    const std::size_t n = u_.size();
    for (std::size_t s = 0; s < ns_; ++s)
      for (std::size_t k = 0; k < n; ++k)
        res_s_[s * n + k] -= wdot_[s * n + k] * grid_.volume(k / nj, k % nj);
  }
  if (opt_.species_source) {
    const std::size_t n = u_.size();
    for (std::size_t i = 0; i < ni; ++i) {
      for (std::size_t j = 0; j < nj; ++j) {
        opt_.species_source(grid_.xc(i, j), grid_.rc(i, j), s_hook_);
        const double vol = grid_.volume(i, j);
        for (std::size_t s = 0; s < ns_; ++s)
          res_s_[s * n + cidx(i, j)] -= s_hook_[s] * vol;
      }
    }
  }
}

void EulerSolver::accumulate_viscous() {
  // Laminar constant-Prandtl viscous model with Sutherland viscosity.
  // Thin-layer: only wall-normal (j) gradients are retained; axisymmetric
  // curvature stresses neglected (adequate for the thin hypersonic
  // boundary layers of the target cases; documented in DESIGN.md).
  const std::size_t ni = grid_.ni(), nj = grid_.nj();
  const bool mms = static_cast<bool>(opt_.dirichlet);

  auto add_face = [&](std::size_t ia, std::size_t ja, std::size_t ib,
                      std::size_t jb, double nx, double nr, bool wall_face,
                      bool outer_face) {
    const double area = std::sqrt(nx * nx + nr * nr);
    if (area < 1e-14) return;
    const double nxh = nx / area, nrh = nr / area;

    Primitive wa, wb;
    double dn;
    if (mms && (wall_face || outer_face)) {
      // Dirichlet verification: the exterior state is the exact
      // manufactured value at the extrapolated ghost center.
      const std::ptrdiff_t qg =
          wall_face ? -1 : static_cast<std::ptrdiff_t>(nj);
      const auto cg = mms_center(line(Dir::kJ, ib), qg);
      const Primitive wg = opt_.dirichlet(cg[0], cg[1]);
      wa = wall_face ? wg : w_[cidx(ia, ja)];
      wb = wall_face ? w_[cidx(ib, jb)] : wg;
      const double xi2 = wall_face ? grid_.xc(ib, jb) : cg[0];
      const double ri2 = wall_face ? grid_.rc(ib, jb) : cg[1];
      const double xi1 = wall_face ? cg[0] : grid_.xc(ia, ja);
      const double ri1 = wall_face ? cg[1] : grid_.rc(ia, ja);
      dn = std::sqrt((xi2 - xi1) * (xi2 - xi1) + (ri2 - ri1) * (ri2 - ri1));
    } else {
      wa = wall_face ? wall_ghost(w_[cidx(ib, jb)], nx, nr)
                     : w_[cidx(ia, ja)];
      wb = outer_face ? Primitive{fs_.rho, fs_.u, fs_.v,
                                  gas_->energy(fs_.rho, fs_.p)}
                      : w_[cidx(ib, jb)];
      if (wall_face) {
        const double xw = 0.5 * (grid_.xn(ib, 0) + grid_.xn(ib + 1, 0));
        const double rw = 0.5 * (grid_.rn(ib, 0) + grid_.rn(ib + 1, 0));
        dn = 2.0 * std::sqrt(
                       (grid_.xc(ib, 0) - xw) * (grid_.xc(ib, 0) - xw) +
                       (grid_.rc(ib, 0) - rw) * (grid_.rc(ib, 0) - rw));
      } else {
        const double xa = grid_.xc(ia, ja), ra = grid_.rc(ia, ja);
        const double xb = grid_.xc(ib, jb), rb = grid_.rc(ib, jb);
        dn = std::sqrt((xb - xa) * (xb - xa) + (rb - ra) * (rb - ra));
      }
    }
    if (dn < 1e-14) return;
    const double ta = gas_->temperature(wa[0], wa[3]);
    const double tb = gas_->temperature(wb[0], wb[3]);

    const double t_face = std::clamp(0.5 * (ta + tb), 50.0, 30000.0);
    const double mu = transport::sutherland_viscosity(t_face);
    const Primitive& wn = wall_face || outer_face ? wb : wa;
    const double t_n = wall_face || outer_face ? tb : ta;
    const double p_loc = gas_->pressure(wn[0], wn[3]);
    const double gamma_eff =
        std::clamp(p_loc / (wn[0] * std::max(wn[3], 1e3)) + 1.0, 1.05, 1.67);
    // cp from the same cell state as p_loc/rho (p/(rho T) is that cell's
    // gas constant; for ideal gas this is exact). Mixing the
    // face-averaged temperature in here left an O(dn) inconsistency in
    // the conduction coefficient (found in the SourceHook audit).
    const double cp = gamma_eff / (gamma_eff - 1.0) * p_loc /
                      (wn[0] * std::max(t_n, 50.0));
    const double k_cond = mu * cp / opt_.prandtl;

    const double dudn = (wb[1] - wa[1]) / dn;
    const double dvdn = (wb[2] - wa[2]) / dn;
    const double dtdn = (tb - ta) / dn;
    const double u_face = 0.5 * (wa[1] + wb[1]);
    const double v_face = 0.5 * (wa[2] + wb[2]);

    const double tau_xx = mu * (4.0 / 3.0) * dudn * nxh;
    const double tau_xr = mu * (dudn * nrh + dvdn * nxh);
    const double tau_rr = mu * (4.0 / 3.0) * dvdn * nrh;
    const double fx = tau_xx * nxh + tau_xr * nrh;
    const double fr = tau_xr * nxh + tau_rr * nrh;
    const double fe = fx * u_face + fr * v_face + k_cond * dtdn;

    // res accumulates net outflux of (F_conv - F_visc): viscous enters with
    // the opposite sign to the convective accumulation. The physical outer
    // boundary drops its viscous flux (freestream); the Dirichlet
    // verification mode keeps it (nonzero for manufactured fields).
    if (!wall_face && (!outer_face || mms)) {
      res_[cidx(ia, ja)][1] -= fx * area;
      res_[cidx(ia, ja)][2] -= fr * area;
      res_[cidx(ia, ja)][3] -= fe * area;
    }
    if (!outer_face) {
      res_[cidx(ib, jb)][1] += fx * area;
      res_[cidx(ib, jb)][2] += fr * area;
      res_[cidx(ib, jb)][3] += fe * area;
    }
  };

  for (std::size_t i = 0; i < ni; ++i) {
    for (std::size_t j = 0; j <= nj; ++j) {
      const double nx = grid_.jface_nx(i, j);
      const double nr = grid_.jface_nr(i, j);
      if (j == 0) {
        add_face(i, 0, i, 0, nx, nr, /*wall=*/true, false);
      } else if (j == nj) {
        add_face(i, nj - 1, i, nj - 1, nx, nr, false, /*outer=*/true);
      } else {
        add_face(i, j - 1, i, j, nx, nr, false, false);
      }
    }
  }
}

double EulerSolver::local_dt(std::size_t i, std::size_t j) const {
  const Primitive& w = w_[cidx(i, j)];
  const double a = gas_->sound_speed(w[0], w[3]);
  double sum = 0.0;
  for (std::size_t f = 0; f < 2; ++f) {
    const double nx = grid_.iface_nx(i + f, j);
    const double nr = grid_.iface_nr(i + f, j);
    const double area = std::sqrt(nx * nx + nr * nr);
    if (area < 1e-14) continue;
    const double un = (w[1] * nx + w[2] * nr) / area;
    sum += 0.5 * (std::fabs(un) + a) * area;
  }
  double aj_mean = 0.0;
  for (std::size_t f = 0; f < 2; ++f) {
    const double nx = grid_.jface_nx(i, j + f);
    const double nr = grid_.jface_nr(i, j + f);
    const double area = std::sqrt(nx * nx + nr * nr);
    const double un = (w[1] * nx + w[2] * nr) / area;
    sum += 0.5 * (std::fabs(un) + a) * area;
    aj_mean += 0.5 * area;
  }
  if (opt_.viscous) {
    // Diffusive stability: the convective-only time step violates the
    // explicit limit dt <= dy^2/(2 nu_eff) once cells are fine enough
    // (exposed by the verify NS convergence ladder). Thin-layer model:
    // only the j-direction diffusion counts.
    const double t_c = std::clamp(gas_->temperature(w[0], w[3]), 50.0,
                                  30000.0);
    const double mu = transport::sutherland_viscosity(t_c);
    const double p_c = p_[cidx(i, j)];
    const double gamma_eff =
        std::clamp(p_c / (w[0] * std::max(w[3], 1e3)) + 1.0, 1.05, 1.67);
    const double nu_eff =
        mu / w[0] * std::max(4.0 / 3.0, gamma_eff / opt_.prandtl);
    const double dy = grid_.volume(i, j) / std::max(aj_mean, 1e-14);
    sum += 2.0 * nu_eff * aj_mean / std::max(dy, 1e-14);
  }
  return cfl_now_ * grid_.volume(i, j) / std::max(sum, 1e-12);
}

double EulerSolver::advance(std::size_t n) {
  const std::size_t cells = u_.size();
  // Preallocated per-iteration workspaces (no allocation in the loop).
  std::vector<Conservative>& u0 = u0_scratch_;
  std::vector<double>& dts = dt_scratch_;
  for (std::size_t it = 0; it < n; ++it) {
    // Startup phase: first-order, half CFL (impulsive-start robustness).
    const bool startup = iter_count_ < opt_.startup_iters;
    second_order_now_ = opt_.muscl && !startup;
    cfl_now_ = startup ? 0.5 * opt_.cfl : opt_.cfl;
    ++iter_count_;
    // Reference residual for the convergence test: the first iteration
    // after startup (the impulsive transient would make the relative drop
    // meaningless and trigger spurious early exits).
    if (iter_count_ == opt_.startup_iters + 2) residual0_ = -1.0;
    std::copy(u_.begin(), u_.end(), u0.begin());
    if (ns_ > 0) std::copy(us_.begin(), us_.end(), us0_scratch_.begin());
    for (std::size_t k = 0; k < cells; ++k)
      dts[k] = local_dt(k / grid_.nj(), k % grid_.nj());
    if (chem_) update_chemistry_source(dts);

    double rnorm = 0.0;
    for (int stage = 0; stage < 2; ++stage) {
      std::fill(res_.begin(), res_.end(), Conservative{});
      if (ns_ > 0) std::fill(res_s_.begin(), res_s_.end(), 0.0);
      accumulate_fluxes();
      if (stage == 0) {
        for (std::size_t k = 0; k < cells; ++k) {
          const double s =
              dts[k] / grid_.volume(k / grid_.nj(), k % grid_.nj());
          for (int q = 0; q < 4; ++q) u_[k][q] = u0[k][q] - s * res_[k][q];
        }
        for (std::size_t sp = 0; sp < ns_; ++sp) {
          for (std::size_t k = 0; k < cells; ++k) {
            const std::size_t idx = sp * cells + k;
            const double s =
                dts[k] / grid_.volume(k / grid_.nj(), k % grid_.nj());
            // Point-implicit: damp scales the update, not the converged
            // state (res_s = 0 at steady state regardless of damp).
            const double dmp = chem_ ? damp_[idx] : 1.0;
            us_[idx] = us0_scratch_[idx] - dmp * s * res_s_[idx];
          }
        }
      } else {
        rnorm = 0.0;
        for (std::size_t k = 0; k < cells; ++k) {
          const double s =
              dts[k] / grid_.volume(k / grid_.nj(), k % grid_.nj());
          for (int q = 0; q < 4; ++q)
            u_[k][q] = 0.5 * (u0[k][q] + u_[k][q] - s * res_[k][q]);
          const double dr = (u_[k][0] - u0[k][0]) / std::max(u0[k][0], 1e-12);
          rnorm += dr * dr;
        }
        rnorm = std::sqrt(rnorm / static_cast<double>(cells));
        for (std::size_t sp = 0; sp < ns_; ++sp) {
          for (std::size_t k = 0; k < cells; ++k) {
            const std::size_t idx = sp * cells + k;
            const double s =
                dts[k] / grid_.volume(k / grid_.nj(), k % grid_.nj());
            const double dmp = chem_ ? damp_[idx] : 1.0;
            us_[idx] = 0.5 * (us0_scratch_[idx] + us_[idx] -
                              dmp * s * res_s_[idx]);
          }
        }
      }
      decode_all();
      if (ns_ > 0) decode_species();
    }
    residual_ = rnorm;
    if (residual0_ < 0.0 && rnorm > 0.0) residual0_ = rnorm;
  }
  return residual0_ > 0.0 ? residual_ / residual0_ : residual_;
}

std::size_t EulerSolver::solve() {
  std::size_t done = 0;
  const std::size_t chunk = 50;
  while (done < opt_.max_iter) {
    const std::size_t n = std::min(chunk, opt_.max_iter - done);
    done += n;
    if (advance(n) < opt_.residual_tol) break;
    if (!std::isfinite(residual_))
      throw SolverError("EulerSolver: residual diverged");
  }
  return done;
}

std::vector<EulerSolver::ShockPoint> EulerSolver::shock_locations() const {
  std::vector<ShockPoint> pts;
  pts.reserve(grid_.ni());
  for (std::size_t i = 0; i < grid_.ni(); ++i) {
    double best = 0.0;
    std::size_t jbest = grid_.nj() - 1;
    for (std::size_t j = grid_.nj() - 1; j-- > 0;) {
      const double dp = p_[cidx(i, j)] - p_[cidx(i, j + 1)];
      if (dp > best) {
        best = dp;
        jbest = j;
      }
    }
    pts.push_back({grid_.xc(i, jbest), grid_.rc(i, jbest), jbest});
  }
  return pts;
}

std::vector<double> EulerSolver::wall_heat_flux() const {
  std::vector<double> q(grid_.ni(), 0.0);
  if (!opt_.viscous) return q;
  for (std::size_t i = 0; i < grid_.ni(); ++i) {
    const double t_in = temperature(i, 0);
    const double xw = 0.5 * (grid_.xn(i, 0) + grid_.xn(i + 1, 0));
    const double rw = 0.5 * (grid_.rn(i, 0) + grid_.rn(i + 1, 0));
    const double dn =
        std::sqrt((grid_.xc(i, 0) - xw) * (grid_.xc(i, 0) - xw) +
                  (grid_.rc(i, 0) - rw) * (grid_.rc(i, 0) - rw));
    const double t_face =
        std::clamp(0.5 * (t_in + opt_.wall_temperature_K), 50.0, 30000.0);
    const double mu = transport::sutherland_viscosity(t_face);
    const Primitive& w = w_[cidx(i, 0)];
    const double gamma_eff = std::clamp(
        p_[cidx(i, 0)] / (w[0] * std::max(w[3], 1e3)) + 1.0, 1.05, 1.67);
    // Same consistency rule as accumulate_viscous: cp pairs p/rho with the
    // temperature of the cell they came from, not the face average.
    const double cp = gamma_eff / (gamma_eff - 1.0) * p_[cidx(i, 0)] /
                      (w[0] * std::max(t_in, 50.0));
    q[i] = mu * cp / opt_.prandtl * (t_in - opt_.wall_temperature_K) / dn;
  }
  return q;
}

}  // namespace cat::solvers
