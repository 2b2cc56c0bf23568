#include "gas/eos_table.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"

namespace cat::gas {

using constants::kRu;

double EquilibriumEosTable::lr(double rho) const { return std::log(rho); }
double EquilibriumEosTable::le(double e) const {
  return std::log(e + e_shift_);
}

EquilibriumEosTable::EquilibriumEosTable(const EquilibriumSolver& solver,
                                         const Range& range)
    : range_(range), n_species_(solver.mixture().n_species()) {
  CAT_REQUIRE(range.rho_min > 0.0 && range.rho_max > range.rho_min,
              "invalid density range");
  CAT_REQUIRE(range.e_max > range.e_min, "invalid energy range");
  CAT_REQUIRE(range.n_rho >= 4 && range.n_e >= 4, "table too small");

  // Shift makes the energy axis strictly positive before the log map
  // (absolute internal energy of cold air is negative: e = h - RT < 0).
  e_shift_ = -range.e_min + 0.05 * (range.e_max - range.e_min);

  const double lr0 = std::log(range.rho_min);
  const double dlr = (std::log(range.rho_max) - lr0) /
                     static_cast<double>(range.n_rho - 1);
  const double le0 = std::log(range.e_min + e_shift_);
  const double dle = (std::log(range.e_max + e_shift_) - le0) /
                     static_cast<double>(range.n_e - 1);

  log_p_ = numerics::BilinearTable(lr0, dlr, range.n_rho, le0, dle, range.n_e);
  t_ = numerics::BilinearTable(lr0, dlr, range.n_rho, le0, dle, range.n_e);
  a_ = numerics::BilinearTable(lr0, dlr, range.n_rho, le0, dle, range.n_e);
  y_.assign(n_species_, numerics::BilinearTable(lr0, dlr, range.n_rho, le0,
                                                dle, range.n_e));

  // Each density row sweeps temperature upward with warm-started Newton
  // element potentials, then maps onto the energy nodes (serial; rows are
  // independent).
  const std::size_t nt = 192;
  const double t_lo = 160.0, t_hi = 42000.0;

  for (std::size_t ir = 0; ir < range.n_rho; ++ir) {
    const double rho = std::exp(lr0 + dlr * static_cast<double>(ir));
    std::vector<double> e_of_t(nt), p_of_t(nt), t_grid(nt);
    std::vector<std::vector<double>> y_of_t(nt);
    double mbar = 0.0288;
    // Fixed sweep over the temperature grid (not an iteration budget, so
    // the induction variable is deliberately not named `it`).
    for (std::size_t row = 0; row < nt; ++row) {
      const double t = t_lo * std::pow(t_hi / t_lo,
                                       static_cast<double>(row) /
                                           static_cast<double>(nt - 1));
      EquilibriumResult st;
      for (int k = 0; k < 30; ++k) {
        const double p = rho * kRu * t / mbar;
        st = solver.solve_tp(t, p);
        if (std::fabs(st.molar_mass - mbar) < 1e-13) break;
        mbar = st.molar_mass;
      }
      t_grid[row] = t;
      e_of_t[row] = st.e;
      p_of_t[row] = st.p;
      y_of_t[row] = st.y;
    }
    // e(T) is monotone increasing; interpolate each energy node onto it.
    for (std::size_t je = 0; je < range.n_e; ++je) {
      const double e_node =
          std::exp(le0 + dle * static_cast<double>(je)) - e_shift_;
      std::size_t k = 0;
      while (k + 2 < nt && e_of_t[k + 1] < e_node) ++k;
      const double w = std::clamp(
          (e_node - e_of_t[k]) / (e_of_t[k + 1] - e_of_t[k]), 0.0, 1.0);
      const double t_val = (1.0 - w) * t_grid[k] + w * t_grid[k + 1];
      const double p_val = std::exp((1.0 - w) * std::log(p_of_t[k]) +
                                    w * std::log(p_of_t[k + 1]));
      log_p_.at(ir, je) = std::log(p_val);
      t_.at(ir, je) = t_val;
      for (std::size_t s = 0; s < n_species_; ++s)
        y_[s].at(ir, je) = (1.0 - w) * y_of_t[k][s] + w * y_of_t[k + 1][s];
    }
  }

  // Equilibrium sound speed from the tabulated pressure surface:
  // a^2 = dp/drho|_e + (p/rho^2) dp/de|_rho (centered differences inside,
  // one-sided at edges).
  for (std::size_t ir = 0; ir < range.n_rho; ++ir) {
    for (std::size_t je = 0; je < range.n_e; ++je) {
      const double rho = std::exp(lr0 + dlr * static_cast<double>(ir));
      const double p = std::exp(log_p_.at(ir, je));

      const std::size_t irm = ir > 0 ? ir - 1 : ir;
      const std::size_t irp = ir + 1 < range.n_rho ? ir + 1 : ir;
      const double rho_m = std::exp(lr0 + dlr * static_cast<double>(irm));
      const double rho_p = std::exp(lr0 + dlr * static_cast<double>(irp));
      const double dp_drho = (std::exp(log_p_.at(irp, je)) -
                              std::exp(log_p_.at(irm, je))) /
                             (rho_p - rho_m);

      const std::size_t jem = je > 0 ? je - 1 : je;
      const std::size_t jep = je + 1 < range.n_e ? je + 1 : je;
      const double e_m = std::exp(le0 + dle * static_cast<double>(jem)) - e_shift_;
      const double e_p = std::exp(le0 + dle * static_cast<double>(jep)) - e_shift_;
      const double dp_de = (std::exp(log_p_.at(ir, jep)) -
                            std::exp(log_p_.at(ir, jem))) /
                           (e_p - e_m);

      const double a2 = dp_drho + p / (rho * rho) * dp_de;
      a_.at(ir, je) = std::sqrt(std::max(a2, 1.0));
    }
  }
}

double EquilibriumEosTable::pressure(double rho, double e) const {
  return std::exp(log_p_(lr(rho), le(e)));
}

double EquilibriumEosTable::temperature(double rho, double e) const {
  return t_(lr(rho), le(e));
}

double EquilibriumEosTable::sound_speed(double rho, double e) const {
  return a_(lr(rho), le(e));
}

void EquilibriumEosTable::mass_fractions(double rho, double e,
                                         std::span<double> y) const {
  CAT_REQUIRE(y.size() == n_species_, "output size mismatch");
  const double xr = lr(rho), xe = le(e);
  double sum = 0.0;
  for (std::size_t s = 0; s < n_species_; ++s) {
    y[s] = std::clamp(y_[s](xr, xe), 0.0, 1.0);
    sum += y[s];
  }
  if (sum > 0.0)
    for (std::size_t s = 0; s < n_species_; ++s) y[s] /= sum;
}

double EquilibriumEosTable::energy_from_pressure(double rho, double p) const {
  // p is monotone increasing in e at fixed rho, so a target outside the
  // tabulated pressure range has no inverse: the pre-lint bisection
  // silently collapsed to the nearest table edge instead. A 0.1% relative
  // margin absorbs interpolation wiggle at the very edge of the table.
  const double p_lo = pressure(rho, range_.e_min);
  const double p_hi = pressure(rho, range_.e_max);
  if (p < p_lo * (1.0 - 1e-3) || p > p_hi * (1.0 + 1e-3)) {
    throw SolverError(
        "EquilibriumEosTable::energy_from_pressure: pressure outside the "
        "tabulated range at this density");
  }
  // Bisection on the table: 80 halvings of [e_min, e_max] shrink the
  // bracket below double precision by construction.
  double lo = range_.e_min, hi = range_.e_max;
  for (int it = 0; it < 80; ++it) {  // cat-lint: converges-by-construction
    const double mid = 0.5 * (lo + hi);
    if (pressure(rho, mid) > p) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace cat::gas
