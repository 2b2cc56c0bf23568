// Atmosphere + trajectory tests: USSA-1976 anchors, Titan model sanity,
// entry dynamics invariants (deceleration, peak dynamic pressure, skip
// protection), flight-domain extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "atmosphere/atmosphere.hpp"
#include "gas/constants.hpp"
#include "trajectory/trajectory.hpp"

namespace {

using namespace cat;
using atmosphere::EarthAtmosphere;
using atmosphere::TitanAtmosphere;

TEST(Atmosphere, SeaLevelAnchors) {
  EarthAtmosphere atmo;
  const auto s = atmo.at(0.0);
  EXPECT_NEAR(s.temperature, 288.15, 1e-6);
  EXPECT_NEAR(s.pressure, 101325.0, 1e-3);
  EXPECT_NEAR(s.density, 1.225, 0.001);
  EXPECT_NEAR(s.sound_speed, 340.3, 0.3);
}

TEST(Atmosphere, TropopauseAnchor) {
  EarthAtmosphere atmo;
  const auto s = atmo.at(11000.0);
  EXPECT_NEAR(s.temperature, 216.65, 0.01);
  EXPECT_NEAR(s.pressure, 22632.0, 60.0);  // USSA value
}

TEST(Atmosphere, StratopauseAnchor) {
  EarthAtmosphere atmo;
  const auto s = atmo.at(47000.0);
  EXPECT_NEAR(s.temperature, 270.65, 0.01);
  EXPECT_NEAR(s.pressure, 110.9, 3.0);
}

TEST(Atmosphere, MonotonePressureDecay) {
  EarthAtmosphere atmo;
  double prev = 2e5;
  for (double z = 0.0; z <= 120000.0; z += 2000.0) {
    const auto s = atmo.at(z);
    EXPECT_LT(s.pressure, prev) << z;
    EXPECT_GT(s.density, 0.0) << z;
    prev = s.pressure;
  }
}

TEST(Atmosphere, TitanSurfaceAnchors) {
  TitanAtmosphere atmo;
  const auto s = atmo.at(0.0);
  EXPECT_NEAR(s.temperature, 94.0, 0.5);
  EXPECT_NEAR(s.pressure, 1.5e5, 1e3);
  // Titan surface density ~ 5.3 kg/m^3 (denser than Earth!).
  EXPECT_NEAR(s.density, 5.3, 0.5);
}

TEST(Atmosphere, TitanColderAndDeeperThanEarth) {
  TitanAtmosphere titan;
  EarthAtmosphere earth;
  // Titan's atmosphere has a much larger scale height/extent: pressure at
  // 200 km on Titan far exceeds Earth's.
  EXPECT_GT(titan.at(200000.0).pressure, 100.0 * earth.at(200000.0).pressure);
}

// ---- tabulated atmospheres vs the walk from the surface ----
// Both models read precomputed layer/slab-boundary states and apply only
// the final partial layer. The oracles below are the walks they replaced,
// copied verbatim: the tables must reproduce them bit for bit, including
// at exact boundaries, one ulp either side, and the top of each model.

atmosphere::AtmoState earth_layer_walk(double z) {
  constexpr double kAirR = 287.053, kAirGamma = 1.4, kEarthG = 9.80665;
  struct Layer {
    double z_base, lapse;
  };
  constexpr Layer kLayers[] = {{0.0, -6.5e-3},     {11000.0, 0.0},
                               {20000.0, 1.0e-3},  {32000.0, 2.8e-3},
                               {47000.0, 0.0},     {51000.0, -2.8e-3},
                               {71000.0, -2.0e-3}};
  constexpr std::size_t kN = 7;
  constexpr double kZTop = 86000.0;
  double t = 288.15, p = 101325.0, zb = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double z_next = (i + 1 < kN) ? kLayers[i + 1].z_base : kZTop;
    const double dz = std::min(z, z_next) - zb;
    const double lapse = kLayers[i].lapse;
    if (dz > 0.0) {
      if (std::fabs(lapse) < 1e-12) {
        p *= std::exp(-kEarthG * dz / (kAirR * t));
      } else {
        const double t_new = t + lapse * dz;
        p *= std::pow(t_new / t, -kEarthG / (kAirR * lapse));
        t = t_new;
      }
      zb += dz;
    }
    if (z <= z_next) break;
  }
  if (z > kZTop) {
    const double h = kAirR * t / kEarthG;
    p *= std::exp(-(z - kZTop) / h);
    t = t + 2.0e-3 * (z - kZTop);
  }
  return {t, p, p / (kAirR * t), std::sqrt(kAirGamma * kAirR * t)};
}

atmosphere::AtmoState titan_slab_walk(double z) {
  const double t = z < 40000.0
                       ? 94.0 + (130.0 - 94.0) * z / 40000.0
                       : (z < 200000.0
                              ? 130.0 + (170.0 - 130.0) * (z - 40000.0) /
                                    160000.0
                              : 170.0);
  const double mbar = TitanAtmosphere::kMoleFractionN2 * 28.0134e-3 +
                      TitanAtmosphere::kMoleFractionCH4 * 16.0425e-3;
  const double r_gas = gas::constants::kRu / mbar;
  double p = 1.5e5, z_cur = 0.0;
  const double g = gas::constants::kTitanG0;
  while (z_cur < z) {
    const double dz = std::min(1000.0, z - z_cur);
    const double z_mid = z_cur + 0.5 * dz;
    const double t_mid =
        z_mid < 40000.0
            ? 94.0 + 36.0 * z_mid / 40000.0
            : (z_mid < 200000.0 ? 130.0 + 40.0 * (z_mid - 40000.0) / 160000.0
                                : 170.0);
    p *= std::exp(-g * dz / (r_gas * t_mid));
    z_cur += dz;
  }
  return {t, p, p / (r_gas * t), std::sqrt(1.4 * r_gas * t)};
}

// Each boundary, one ulp either side of it (inside [lo, hi]), and a
// seeded uniform sample of the range.
std::vector<double> boundary_and_sample_altitudes(
    const std::vector<double>& boundaries, double lo, double hi,
    std::size_t n_sample) {
  std::vector<double> zs;
  for (double b : boundaries) {
    for (double z : {std::nextafter(b, -1e9), b, std::nextafter(b, 1e9)})
      if (z >= lo && z <= hi) zs.push_back(z);
  }
  std::mt19937_64 rng(20261018);
  std::uniform_real_distribution<double> u(lo, hi);
  for (std::size_t k = 0; k < n_sample; ++k) zs.push_back(u(rng));
  return zs;
}

void expect_bit_identical(const atmosphere::AtmoState& got,
                          const atmosphere::AtmoState& want, double z) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.temperature),
            std::bit_cast<std::uint64_t>(want.temperature)) << "z=" << z;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.pressure),
            std::bit_cast<std::uint64_t>(want.pressure)) << "z=" << z;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.density),
            std::bit_cast<std::uint64_t>(want.density)) << "z=" << z;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sound_speed),
            std::bit_cast<std::uint64_t>(want.sound_speed)) << "z=" << z;
}

TEST(Atmosphere, EarthTableMatchesLayerWalk) {
  const EarthAtmosphere atmo;
  const std::vector<double> boundaries = {-500.0,  0.0,     11000.0,
                                          20000.0, 32000.0, 47000.0,
                                          51000.0, 71000.0, 86000.0,
                                          200000.0};
  for (double z : boundary_and_sample_altitudes(boundaries, -500.0, 200000.0,
                                                50000))
    expect_bit_identical(atmo.at(z), earth_layer_walk(z), z);
}

TEST(Atmosphere, TitanTableMatchesLayerWalk) {
  const TitanAtmosphere atmo;
  std::vector<double> boundaries;
  for (int k = 0; k <= 1200; ++k) boundaries.push_back(1000.0 * k);
  for (double z :
       boundary_and_sample_altitudes(boundaries, 0.0, 1.2e6, 20000))
    expect_bit_identical(atmo.at(z), titan_slab_walk(z), z);
}

TEST(Trajectory, BallisticProbeDecelerates) {
  EarthAtmosphere atmo;
  const auto probe = trajectory::galileo_class_probe();
  const trajectory::EntryState entry{12000.0, -8.0 * M_PI / 180.0, 120000.0};
  const auto traj = trajectory::integrate_entry(
      probe, entry, atmo, gas::constants::kEarthRadius,
      gas::constants::kEarthG0);
  ASSERT_GT(traj.size(), 10u);
  EXPECT_LT(traj.back().velocity, 0.2 * entry.velocity);
  // Altitude monotonically decreasing for a steep ballistic entry.
  for (std::size_t k = 1; k < traj.size(); ++k)
    EXPECT_LE(traj[k].altitude, traj[k - 1].altitude + 1.0);
}

TEST(Trajectory, PeakDynamicPressureInteriorPoint) {
  EarthAtmosphere atmo;
  const auto probe = trajectory::galileo_class_probe();
  const trajectory::EntryState entry{11000.0, -10.0 * M_PI / 180.0,
                                     120000.0};
  const auto traj = trajectory::integrate_entry(
      probe, entry, atmo, gas::constants::kEarthRadius,
      gas::constants::kEarthG0);
  std::size_t k_peak = 0;
  for (std::size_t k = 0; k < traj.size(); ++k)
    if (traj[k].q_dyn > traj[k_peak].q_dyn) k_peak = k;
  EXPECT_GT(k_peak, 0u);
  EXPECT_LT(k_peak, traj.size() - 1);
  EXPECT_GT(traj[k_peak].q_dyn, 1e5);  // serious entry loads
}

TEST(Trajectory, LiftingVehicleFliesLonger) {
  EarthAtmosphere atmo;
  const trajectory::EntryState entry{7500.0, -1.2 * M_PI / 180.0, 120000.0};
  auto shuttle = trajectory::shuttle_orbiter();
  auto ballistic = shuttle;
  ballistic.lift_to_drag = 0.0;
  ballistic.name = "ballistic-shuttle";
  const auto lift = trajectory::integrate_entry(
      shuttle, entry, atmo, gas::constants::kEarthRadius,
      gas::constants::kEarthG0);
  const auto ball = trajectory::integrate_entry(
      ballistic, entry, atmo, gas::constants::kEarthRadius,
      gas::constants::kEarthG0);
  EXPECT_GT(lift.back().time, ball.back().time);
}

TEST(Trajectory, FlightDomainCoversHypersonicRegime) {
  EarthAtmosphere atmo;
  const auto traj = trajectory::integrate_entry(
      trajectory::shuttle_orbiter(), {7500.0, -1.2 * M_PI / 180.0, 120000.0},
      atmo, gas::constants::kEarthRadius, gas::constants::kEarthG0);
  const auto dom = trajectory::flight_domain(traj);
  double m_max = 0.0, re_max = 0.0;
  for (const auto& d : dom) {
    m_max = std::max(m_max, d.mach);
    re_max = std::max(re_max, d.reynolds);
  }
  EXPECT_GT(m_max, 20.0);   // hypervelocity portion
  EXPECT_GT(re_max, 1e6);   // continuum portion near entry end
}

TEST(Trajectory, TitanEntrySlowsInUpperAtmosphere) {
  TitanAtmosphere atmo;
  const auto probe = trajectory::titan_probe();
  const trajectory::EntryState entry{12000.0, -24.0 * M_PI / 180.0,
                                     600000.0};
  trajectory::TrajectoryOptions opt;
  opt.end_velocity_mps = 1000.0;
  const auto traj = trajectory::integrate_entry(
      probe, entry, atmo, gas::constants::kTitanRadius,
      gas::constants::kTitanG0, opt);
  // Hypersonic deceleration is finished (descent to terminal velocity in
  // the thick lower atmosphere continues for much longer).
  EXPECT_LT(traj.back().velocity, 0.35 * entry.velocity);
  // And it happened high: peak dynamic pressure well above 100 km.
  std::size_t k_peak = 0;
  for (std::size_t k = 0; k < traj.size(); ++k)
    if (traj[k].q_dyn > traj[k_peak].q_dyn) k_peak = k;
  EXPECT_GT(traj[k_peak].altitude, 100000.0);
}

TEST(Vehicle, BallisticCoefficient) {
  const auto v = trajectory::titan_probe();
  EXPECT_NEAR(v.ballistic_coefficient(), v.mass / (v.cd * v.reference_area),
              1e-12);
}

}  // namespace
