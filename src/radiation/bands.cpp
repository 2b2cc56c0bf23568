#include "radiation/bands.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"

namespace cat::radiation {

using gas::constants::kBoltzmann;
using gas::constants::kPlanck;
using gas::constants::kSpeedOfLight;

namespace {

/// The standard radiator inventory. Effective Einstein coefficients and
/// upper-state data follow the usual air/Titan radiation literature
/// (NEQAIR-class band systems); envelopes are smeared to instrument
/// resolution, which is the comparison level of the paper's Fig. 8.
std::vector<BandSystem> standard_systems() {
  std::vector<BandSystem> v;
  // --- molecular band systems, air ---
  v.push_back({"N2+(1-)", "N2+", 2.0, 36786.0, 1.6e7, 391.4e-9, 300.0e-9,
               590.0e-9, false, 0.0});
  v.push_back({"N2(2+)", "N2", 6.0, 127700.0, 2.7e7, 337.1e-9, 280.0e-9,
               500.0e-9, false, 0.0});
  v.push_back({"N2(1+)", "N2", 6.0, 85779.0, 1.5e5, 700.0e-9, 500.0e-9,
               1100.0e-9, false, 0.0});
  v.push_back({"NO-beta", "NO", 4.0, 66000.0, 4.0e6, 280.0e-9, 200.0e-9,
               380.0e-9, false, 0.0});
  v.push_back({"NO-gamma", "NO", 2.0, 63270.0, 5.0e6, 250.0e-9, 210.0e-9,
               300.0e-9, false, 0.0});
  // --- molecular band systems, Titan (CN dominates Titan entry heating) ---
  v.push_back({"CN-violet", "CN", 2.0, 37060.0, 1.5e7, 388.3e-9, 340.0e-9,
               440.0e-9, false, 0.0});
  v.push_back({"CN-red", "CN", 4.0, 13296.0, 7.0e5, 780.0e-9, 500.0e-9,
               1100.0e-9, false, 0.0});
  v.push_back({"C2-swan", "C2", 6.0, 28807.0, 7.0e6, 516.5e-9, 430.0e-9,
               670.0e-9, false, 0.0});
  // --- atomic multiplets ---
  v.push_back({"N-lines-820", "N", 12.0, 139000.0, 2.6e7, 821.6e-9,
               810.0e-9, 832.0e-9, true, 3.0e-9});
  v.push_back({"N-lines-746", "N", 12.0, 139000.0, 1.9e7, 746.8e-9,
               738.0e-9, 756.0e-9, true, 3.0e-9});
  v.push_back({"O-777", "O", 15.0, 124600.0, 3.7e7, 777.3e-9, 770.0e-9,
               785.0e-9, true, 3.0e-9});
  v.push_back({"O-845", "O", 9.0, 126200.0, 3.2e7, 844.6e-9, 838.0e-9,
               852.0e-9, true, 3.0e-9});
  // --- H alpha/beta for Titan mixtures ---
  v.push_back({"H-alpha", "H", 18.0, 140270.0, 4.4e7, 656.3e-9, 650.0e-9,
               663.0e-9, true, 3.0e-9});
  return v;
}

/// Normalized triangular envelope on [lmin, lmax] peaking at lpeak.
double triangle_shape(double lambda, double lmin, double lpeak, double lmax) {
  if (lambda <= lmin || lambda >= lmax) return 0.0;
  const double h = 2.0 / (lmax - lmin);  // unit area
  if (lambda < lpeak) return h * (lambda - lmin) / (lpeak - lmin);
  return h * (lmax - lambda) / (lmax - lpeak);
}

/// Normalized Gaussian.
double gaussian_shape(double lambda, double center, double sigma) {
  const double z = (lambda - center) / sigma;
  return std::exp(-0.5 * z * z) / (sigma * std::sqrt(2.0 * M_PI));
}

constexpr double kHc = kPlanck * kSpeedOfLight;

/// Planck's law from the per-wavelength prefactors c1 = 2 h c^2 / lambda^5
/// and lk = lambda kB: the one definition planck() and SpectralGrid share.
double planck_scaled(double c1, double lk, double t) {
  const double x = kHc / (lk * t);
  if (x > 700.0) return 0.0;
  return c1 / (std::exp(x) - 1.0);
}

double planck_c1(double lambda) {
  return 2.0 * kPlanck * kSpeedOfLight * kSpeedOfLight / std::pow(lambda, 5);
}

}  // namespace

double planck(double lambda, double t) {
  CAT_REQUIRE(lambda > 0.0 && t > 0.0, "bad Planck arguments");
  return planck_scaled(planck_c1(lambda), lambda * kBoltzmann, t);
}

SpectralGrid::SpectralGrid(double lambda_min, double lambda_max,
                           std::size_t n_bins) {
  CAT_REQUIRE(lambda_min > 0.0 && lambda_max > lambda_min, "bad lambda range");
  CAT_REQUIRE(n_bins >= 2, "need at least two bins");
  lambda_.resize(n_bins);
  planck_c1_.resize(n_bins);
  lambda_kb_.resize(n_bins);
  dl_ = (lambda_max - lambda_min) / static_cast<double>(n_bins - 1);
  for (std::size_t k = 0; k < n_bins; ++k) {
    lambda_[k] = lambda_min + dl_ * static_cast<double>(k);
    planck_c1_[k] = planck_c1(lambda_[k]);
    lambda_kb_[k] = lambda_[k] * kBoltzmann;
  }
  const std::vector<BandSystem> systems = standard_systems();
  shape_.resize(systems.size() * n_bins);
  for (std::size_t b = 0; b < systems.size(); ++b) {
    const BandSystem& sys = systems[b];
    for (std::size_t k = 0; k < n_bins; ++k)
      shape_[b * n_bins + k] =
          sys.atomic_line
              ? gaussian_shape(lambda_[k], sys.lambda_peak, sys.line_width)
              : triangle_shape(lambda_[k], sys.lambda_min, sys.lambda_peak,
                               sys.lambda_max);
  }
}

double SpectralGrid::planck(std::size_t k, double t) const {
  return planck_scaled(planck_c1_[k], lambda_kb_[k], t);
}

double RadiationModel::q_electronic(const gas::Species& s, double tv) {
  double q = 0.0;
  for (const auto& lvl : s.electronic) {
    const double x = lvl.theta / tv;
    if (x < 500.0) q += lvl.g * std::exp(-x);
  }
  return std::max(q, static_cast<double>(s.electronic.front().g));
}

RadiationModel::RadiationModel(const gas::SpeciesSet& set)
    : electron_index_(-1), set_(&set) {
  const std::vector<BandSystem> inventory = standard_systems();
  for (std::size_t b = 0; b < inventory.size(); ++b) {
    if (set.contains(inventory[b].species)) {
      systems_.push_back(inventory[b]);
      system_species_.push_back(set.local_index(inventory[b].species));
      system_shape_.push_back(b);
    }
  }
  for (std::size_t s = 0; s < set.size(); ++s)
    if (set.species(s).is_electron())
      electron_index_ = static_cast<std::ptrdiff_t>(s);
}

void RadiationModel::emission(std::span<const double> nd, double t, double tv,
                              const SpectralGrid& grid,
                              std::span<double> j) const {
  CAT_REQUIRE(nd.size() == set_->size(), "density vector size mismatch");
  CAT_REQUIRE(j.size() == grid.size(), "spectrum size mismatch");
  CAT_REQUIRE(t > 0.0 && tv > 0.0, "temperatures must be positive");
  std::fill(j.begin(), j.end(), 0.0);
  const std::size_t nb = grid.size();

  for (std::size_t b = 0; b < systems_.size(); ++b) {
    const BandSystem& sys = systems_[b];
    const double n_s = nd[system_species_[b]];
    if (n_s <= 0.0) continue;
    const gas::Species& sp = set_->species(system_species_[b]);
    const double x = sys.theta_u / tv;
    if (x > 300.0) continue;
    // Boltzmann upper-state population at the excitation temperature.
    const double n_u = n_s * sys.g_u * std::exp(-x) / q_electronic(sp, tv);
    const double power = n_u * sys.einstein_a * kHc / sys.lambda_peak /
                         (4.0 * M_PI);  // [W/(m^3 sr)]
    const double* shape = &grid.shape_[system_shape_[b] * nb];
    for (std::size_t k = 0; k < nb; ++k) j[k] += power * shape[k];
  }

  // Hydrogenic free-free + free-bound continuum when ionized: Kramers form
  //   j_lambda = C n_e n_ion / (lambda^2 sqrt(T)) exp(-hc/(lambda k Te))
  if (electron_index_ >= 0 && nd[electron_index_] > 0.0) {
    const double n_e = nd[electron_index_];
    double n_ion = 0.0;
    for (std::size_t s = 0; s < set_->size(); ++s)
      if (set_->species(s).charge > 0) n_ion += nd[s];
    constexpr double kKramers = 5.44e-52;  // [W m^4 sr^-1 K^0.5]
    const double pref = kKramers * n_e * n_ion / std::sqrt(tv);
    for (std::size_t k = 0; k < nb; ++k) {
      const double lam = grid.lambda(k);
      const double xx = kHc / (grid.lambda_kb_[k] * tv);
      if (xx > 300.0) continue;
      j[k] += pref / (lam * lam) * std::exp(-xx);
    }
  }
}

void RadiationModel::absorption(std::span<const double> j, double tv,
                                const SpectralGrid& grid,
                                std::span<double> kappa) const {
  CAT_REQUIRE(j.size() == grid.size() && kappa.size() == grid.size(),
              "spectrum size mismatch");
  CAT_REQUIRE(tv > 0.0, "bad Planck arguments");
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const double b = grid.planck(k, tv);
    kappa[k] = b > 1e-30 ? j[k] / b : 0.0;
  }
}

double RadiationModel::total_emission(std::span<const double> nd, double t,
                                      double tv,
                                      const SpectralGrid& grid) const {
  std::vector<double> j(grid.size());
  emission(nd, t, tv, grid, j);
  double acc = 0.0;
  for (std::size_t k = 0; k < grid.size(); ++k) acc += j[k];
  return 4.0 * M_PI * acc * grid.d_lambda();
}

}  // namespace cat::radiation
