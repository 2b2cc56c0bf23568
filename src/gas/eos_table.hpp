#pragma once
/// \file eos_table.hpp
/// Tabulated equilibrium equation of state.
///
/// Direct Gibbs minimization inside a finite-volume flux loop is far too
/// expensive (the paper: approximate-but-accurate real-gas models are
/// needed because they are "computationally more efficient, thus better
/// suited to be coupled with multidimensional flow codes"). This module
/// pre-tabulates the equilibrium solution on a log(rho) x log(e) grid and
/// answers EOS queries by bilinear interpolation:
///   p(rho,e), T(rho,e), a(rho,e), and species mass fractions y_s(rho,e).
/// `perf_equilibrium` measures the speedup vs the direct solve.

#include <memory>
#include <span>
#include <vector>

#include "gas/equilibrium.hpp"
#include "numerics/interp.hpp"

namespace cat::gas {

/// Interpolating equilibrium EOS over a (rho, e) window.
class EquilibriumEosTable {
 public:
  struct Range {
    double rho_min, rho_max;  ///< [kg/m^3]
    double e_min, e_max;      ///< [J/kg] absolute internal energy
    std::size_t n_rho = 48;
    std::size_t n_e = 48;
  };

  /// Build by sampling \p solver over \p range. Sampling cost is
  /// O(n_rho * n_e) equilibrium solves (done once, serially).
  EquilibriumEosTable(const EquilibriumSolver& solver, const Range& range);

  std::size_t n_species() const { return n_species_; }

  double pressure(double rho, double e) const;
  double temperature(double rho, double e) const;
  /// Equilibrium sound speed (from tabulated dp/drho, dp/de identity).
  double sound_speed(double rho, double e) const;
  /// All mass fractions at once into \p y (size n_species).
  void mass_fractions(double rho, double e, std::span<double> y) const;

  /// Inverse query: internal energy from (rho, p) — Newton on the table;
  /// needed to initialize states from pressure boundary conditions.
  /// Invert p(rho, e) for e by bisection on the tabulated range; throws
  /// cat::SolverError when \p p falls outside the tabulated pressure range
  /// at this density (the inverse does not exist on the table).
  double energy_from_pressure(double rho, double p) const;

  const Range& range() const { return range_; }

 private:
  Range range_;
  std::size_t n_species_;
  numerics::BilinearTable log_p_;   // ln p over (ln rho, ln e~)
  numerics::BilinearTable t_;       // T
  numerics::BilinearTable a_;       // sound speed
  std::vector<numerics::BilinearTable> y_;  // mass fractions
  double e_shift_;  // shift making e strictly positive before the log map

  double lr(double rho) const;
  double le(double e) const;
};

}  // namespace cat::gas
