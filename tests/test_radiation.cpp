// Radiation tests: Planck function anchors, band-model behavior,
// tangent-slab limits (optically thin and thick), spectra utilities.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gas/constants.hpp"
#include "radiation/spectra.hpp"
#include "radiation/tangent_slab.hpp"

namespace {

using namespace cat;
using namespace cat::radiation;

TEST(Radiation, PlanckPeakWienDisplacement) {
  const double t = 6000.0;
  double best_l = 0.0, best = -1.0;
  for (double l = 0.1e-6; l < 2e-6; l += 1e-9) {
    const double b = planck(l, t);
    if (b > best) {
      best = b;
      best_l = l;
    }
  }
  EXPECT_NEAR(best_l, 2.897771955e-3 / t, 2e-9);
}

TEST(Radiation, PlanckIntegralStefanBoltzmann) {
  const double t = 8000.0;
  double acc = 0.0;
  const double dl = 1e-9;
  for (double l = 0.05e-6; l < 30e-6; l += dl) acc += planck(l, t) * dl;
  EXPECT_NEAR(M_PI * acc, gas::constants::kStefanBoltzmann * t * t * t * t,
              0.02 * gas::constants::kStefanBoltzmann * t * t * t * t);
}

TEST(Radiation, EmissionScalesLinearlyWithDensity) {
  const auto set = gas::make_air11();
  RadiationModel model(set);
  SpectralGrid grid(0.3e-6, 0.9e-6, 64);
  std::vector<double> nd(set.size(), 1e20), nd2(set.size(), 2e20);
  // Kill the continuum (quadratic in density) for this linearity check.
  nd[set.local_index("e-")] = 0.0;
  nd2[set.local_index("e-")] = 0.0;
  const double e1 = model.total_emission(nd, 9000.0, 9000.0, grid);
  const double e2 = model.total_emission(nd2, 9000.0, 9000.0, grid);
  EXPECT_NEAR(e2 / e1, 2.0, 1e-10);
}

TEST(Radiation, EmissionGrowsSteeplyWithExcitationTemperature) {
  const auto set = gas::make_air11();
  RadiationModel model(set);
  SpectralGrid grid(0.3e-6, 0.9e-6, 64);
  std::vector<double> nd(set.size(), 1e20);
  const double cold = model.total_emission(nd, 8000.0, 4000.0, grid);
  const double hot = model.total_emission(nd, 8000.0, 12000.0, grid);
  EXPECT_GT(hot, 30.0 * cold);
}

TEST(Radiation, TitanModelPicksUpCN) {
  // The Titan set must register the CN radiators that dominate Titan entry.
  RadiationModel model(gas::make_titan());
  bool has_cn = false;
  for (const auto& sys : model.systems())
    has_cn |= (sys.species == "CN");
  EXPECT_TRUE(has_cn);
}

TEST(TangentSlab, ThinLimitMatchesAnalytic) {
  // kappa -> 0: q = 2 pi j L per unit wavelength.
  SpectralGrid grid(0.4e-6, 0.6e-6, 16);
  SlabLayer layer;
  layer.thickness = 0.02;
  layer.j.assign(grid.size(), 1.0e3);
  layer.kappa.assign(grid.size(), 0.0);
  const auto r = solve_tangent_slab(grid, {&layer, 1});
  const double expected_ql = 2.0 * M_PI * 1.0e3 * 0.02;
  EXPECT_NEAR(r.q_lambda[5], expected_ql, 1e-9 * expected_ql);
  EXPECT_NEAR(r.q_wall, expected_ql * (grid.size()) * grid.d_lambda(),
              0.05 * r.q_wall);
  EXPECT_NEAR(optically_thin_wall_flux(grid, {&layer, 1}), r.q_wall,
              1e-9 * r.q_wall);
}

TEST(TangentSlab, ThickLimitSaturatesBelowBlackbody) {
  // Strong self-absorption: wall flux approaches pi*B (one-sided blackbody)
  // and cannot exceed it.
  SpectralGrid grid(0.5e-6, 0.7e-6, 8);
  const double t = 9000.0;
  SlabLayer layer;
  layer.thickness = 10.0;
  layer.j.resize(grid.size());
  layer.kappa.resize(grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    layer.kappa[k] = 50.0;  // tau = 500
    layer.j[k] = layer.kappa[k] * planck(grid.lambda(k), t);  // LTE source
  }
  const auto r = solve_tangent_slab(grid, {&layer, 1});
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const double bb = M_PI * planck(grid.lambda(k), t);
    EXPECT_LT(r.q_lambda[k], 1.05 * bb);
    EXPECT_GT(r.q_lambda[k], 0.80 * bb);
  }
}

TEST(TangentSlab, MoreLayersMoreFlux) {
  SpectralGrid grid(0.4e-6, 0.8e-6, 16);
  auto make_layer = [&](double thick) {
    SlabLayer l;
    l.thickness = thick;
    l.j.assign(grid.size(), 500.0);
    l.kappa.assign(grid.size(), 1e-4);
    return l;
  };
  std::vector<SlabLayer> one{make_layer(0.01)};
  std::vector<SlabLayer> two{make_layer(0.01), make_layer(0.01)};
  EXPECT_GT(solve_tangent_slab(grid, two).q_wall,
            solve_tangent_slab(grid, one).q_wall);
}

TEST(Spectra, CorrelationOfIdenticalSpectraIsOne) {
  Spectrum a;
  a.lambda = {1, 2, 3, 4, 5};
  a.intensity = {1.0, 5.0, 2.0, 8.0, 3.0};
  EXPECT_NEAR(spectral_correlation(a, a, 1e-6), 1.0, 1e-12);
}

TEST(Spectra, SyntheticMeasuredTracksModel) {
  const auto set = gas::make_air11();
  RadiationModel model(set);
  SpectralGrid grid(0.3e-6, 0.9e-6, 128);
  std::vector<double> nd(set.size(), 1e21);
  const auto clean = slab_radiance(model, set, grid, nd, 9000.0, 9000.0, 0.05);
  const auto noisy =
      synthetic_measured_spectrum(model, set, grid, nd, 9000.0, 0.05, 0.15);
  EXPECT_GT(spectral_correlation(clean, noisy), 0.95);
}

// ---- per-grid band envelopes and Planck prefactors ---------------------
//
// The oracle is the pre-table emission/absorption kept verbatim: band
// envelopes and Planck's law evaluated per bin on every call. The grid's
// precomputed tables must reproduce it bit for bit.

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

double oracle_planck(double lambda, double t) {
  using gas::constants::kBoltzmann;
  using gas::constants::kPlanck;
  using gas::constants::kSpeedOfLight;
  const double hc = kPlanck * kSpeedOfLight;
  const double x = hc / (lambda * kBoltzmann * t);
  if (x > 700.0) return 0.0;
  return 2.0 * kPlanck * kSpeedOfLight * kSpeedOfLight /
         std::pow(lambda, 5) / (std::exp(x) - 1.0);
}

std::vector<double> oracle_emission(const gas::SpeciesSet& set,
                                    const RadiationModel& model,
                                    const std::vector<double>& nd, double tv,
                                    const SpectralGrid& grid) {
  using gas::constants::kBoltzmann;
  using gas::constants::kPlanck;
  using gas::constants::kSpeedOfLight;
  const double hc = kPlanck * kSpeedOfLight;
  std::vector<double> j(grid.size(), 0.0);
  for (const BandSystem& sys : model.systems()) {
    const double n_s = nd[set.local_index(sys.species)];
    if (n_s <= 0.0) continue;
    const gas::Species& sp = set.species(set.local_index(sys.species));
    const double x = sys.theta_u / tv;
    if (x > 300.0) continue;
    double q = 0.0;
    for (const auto& lvl : sp.electronic) {
      const double xl = lvl.theta / tv;
      if (xl < 500.0) q += lvl.g * std::exp(-xl);
    }
    q = std::max(q, static_cast<double>(sp.electronic.front().g));
    const double n_u = n_s * sys.g_u * std::exp(-x) / q;
    const double power =
        n_u * sys.einstein_a * hc / sys.lambda_peak / (4.0 * M_PI);
    for (std::size_t k = 0; k < grid.size(); ++k) {
      const double l = grid.lambda(k);
      double shape = 0.0;
      if (sys.atomic_line) {
        const double z = (l - sys.lambda_peak) / sys.line_width;
        shape = std::exp(-0.5 * z * z) /
                (sys.line_width * std::sqrt(2.0 * M_PI));
      } else if (l > sys.lambda_min && l < sys.lambda_max) {
        const double h = 2.0 / (sys.lambda_max - sys.lambda_min);
        shape = l < sys.lambda_peak ? h * (l - sys.lambda_min) /
                                          (sys.lambda_peak - sys.lambda_min)
                                    : h * (sys.lambda_max - l) /
                                          (sys.lambda_max - sys.lambda_peak);
      }
      j[k] += power * shape;
    }
  }
  if (set.contains("e-") && nd[set.local_index("e-")] > 0.0) {
    const double n_e = nd[set.local_index("e-")];
    double n_ion = 0.0;
    for (std::size_t s = 0; s < set.size(); ++s)
      if (set.species(s).charge > 0) n_ion += nd[s];
    const double pref = 5.44e-52 * n_e * n_ion / std::sqrt(tv);
    for (std::size_t k = 0; k < grid.size(); ++k) {
      const double lam = grid.lambda(k);
      const double xx = hc / (lam * kBoltzmann * tv);
      if (xx > 300.0) continue;
      j[k] += pref / (lam * lam) * std::exp(-xx);
    }
  }
  return j;
}

TEST(RadiationTables, GridPlanckMatchesPlanckBitwise) {
  const SpectralGrid grid(0.2e-6, 1.2e-6, 160);
  for (const double t : {300.0, 2000.0, 6000.0, 12000.0, 40000.0}) {
    for (std::size_t k = 0; k < grid.size(); ++k) {
      EXPECT_TRUE(
          same_bits(grid.planck(k, t), oracle_planck(grid.lambda(k), t)))
          << "k=" << k << " T=" << t;
      EXPECT_TRUE(same_bits(planck(grid.lambda(k), t),
                            oracle_planck(grid.lambda(k), t)));
    }
  }
}

TEST(RadiationTables, EmissionAndAbsorptionMatchPerBinEvaluationBitwise) {
  for (const auto& set : {gas::make_air11(), gas::make_titan()}) {
    const RadiationModel model(set);
    const SpectralGrid grid(0.2e-6, 1.2e-6, 160);
    std::vector<double> nd(set.size());
    for (std::size_t s = 0; s < set.size(); ++s)
      nd[s] = 1e20 * static_cast<double>(s + 1);
    for (const double tv : {3000.0, 7000.0, 11000.0}) {
      std::vector<double> j(grid.size()), kappa(grid.size());
      model.emission(nd, tv, tv, grid, j);
      model.absorption(j, tv, grid, kappa);
      const std::vector<double> j_ref =
          oracle_emission(set, model, nd, tv, grid);
      for (std::size_t k = 0; k < grid.size(); ++k) {
        EXPECT_TRUE(same_bits(j[k], j_ref[k])) << "k=" << k << " Tv=" << tv;
        const double b = oracle_planck(grid.lambda(k), tv);
        EXPECT_TRUE(same_bits(kappa[k], b > 1e-30 ? j_ref[k] / b : 0.0))
            << "k=" << k << " Tv=" << tv;
      }
    }
  }
}

}  // namespace
