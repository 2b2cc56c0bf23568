#pragma once
/// \file bands.hpp
/// Smeared-band spectral emission/absorption model (NEQAIR-class physics
/// at band-model resolution).
///
/// Radiating systems are modeled as electronic band systems with an upper
/// state (g_u, theta_u) populated by a Boltzmann distribution at the
/// excitation temperature (Tv in the two-temperature model — electronic
/// excitation rides the vibronic pool), an effective Einstein coefficient,
/// and a triangular spectral envelope (atomic lines use narrow Gaussians,
/// which at instrument resolution is what shock-tube spectra such as the
/// paper's Fig. 8 show). Absorption follows from Kirchhoff's law at the
/// excitation temperature, which the tangent-slab solver needs for
/// self-absorbed layers.

#include <span>
#include <string>
#include <vector>

#include "gas/species.hpp"

namespace cat::radiation {

/// Uniform wavelength grid [m]. Construction also evaluates everything
/// per bin that does not depend on the gas state: the Planck prefactors
/// and the spectral envelope of every standard band system. A grid built
/// once serves any number of emission/absorption evaluations.
class SpectralGrid {
 public:
  SpectralGrid(double lambda_min, double lambda_max, std::size_t n_bins);

  std::size_t size() const { return lambda_.size(); }
  double lambda(std::size_t k) const { return lambda_[k]; }
  double d_lambda() const { return dl_; }
  std::span<const double> wavelengths() const { return lambda_; }

  /// planck(lambda(k), t) from the bin's prefactors, bit for bit.
  double planck(std::size_t k, double t) const;

 private:
  friend class RadiationModel;
  std::vector<double> lambda_;
  double dl_;
  // Per bin: 2 h c^2 / lambda^5 and lambda kB.
  std::vector<double> planck_c1_, lambda_kb_;
  // [system * size() + k]: unit-area envelope of standard band system
  // `system` (inventory order) at bin k.
  std::vector<double> shape_;
};

/// One radiating band system or atomic multiplet.
struct BandSystem {
  std::string name;
  std::string species;      ///< emitting species (database name)
  double g_u;               ///< upper-state degeneracy
  double theta_u;           ///< upper-state excitation temperature [K]
  double einstein_a;        ///< effective transition probability [1/s]
  double lambda_peak;       ///< [m]
  double lambda_min, lambda_max;  ///< envelope support [m]
  bool atomic_line = false; ///< Gaussian line instead of triangular band
  double line_width = 2.0e-9;     ///< Gaussian sigma for lines [m]
};

/// Planck function B_lambda(T) [W/(m^2 sr m)].
double planck(double lambda, double t);

/// Band-model radiation evaluator bound to a species set.
class RadiationModel {
 public:
  /// Build with the standard CAT radiator inventory restricted to species
  /// present in \p set (air radiators, CN/C2 for Titan, continuum).
  explicit RadiationModel(const gas::SpeciesSet& set);

  std::span<const BandSystem> systems() const { return systems_; }

  /// Spectral emission coefficient j_lambda [W/(m^3 sr m)] for the state
  /// given by species number densities nd [1/m^3], heavy temperature t and
  /// excitation (vibronic/electron) temperature tv. Adds free-free /
  /// free-bound continuum when electrons are present.
  void emission(std::span<const double> nd, double t, double tv,
                const SpectralGrid& grid, std::span<double> j) const;

  /// Spectral absorption coefficient kappa_lambda [1/m] by Kirchhoff at the
  /// excitation temperature: kappa = j / B(tv).
  void absorption(std::span<const double> j, double tv,
                  const SpectralGrid& grid, std::span<double> kappa) const;

  /// Total volumetric emission [W/m^3] = 4 pi integral of j over lambda.
  double total_emission(std::span<const double> nd, double t, double tv,
                        const SpectralGrid& grid) const;

 private:
  std::vector<BandSystem> systems_;
  std::vector<std::size_t> system_species_;  ///< local index per system
  std::vector<std::size_t> system_shape_;    ///< inventory index per system
  std::ptrdiff_t electron_index_;
  const gas::SpeciesSet* set_;

  /// Electronic partition function of a species at tv.
  static double q_electronic(const gas::Species& s, double tv);
};

}  // namespace cat::radiation
