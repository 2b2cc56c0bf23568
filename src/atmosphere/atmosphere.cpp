#include "atmosphere/atmosphere.hpp"

#include <array>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"

namespace cat::atmosphere {

namespace {
constexpr double kAirR = 287.053;     // [J/(kg K)]
constexpr double kAirGamma = 1.4;
constexpr double kEarthG = 9.80665;

/// USSA-1976 layer bases: altitude [m], lapse rate [K/m].
struct Layer {
  double z_base, lapse;
};
constexpr std::array<Layer, 7> kLayers{{{0.0, -6.5e-3},
                                        {11000.0, 0.0},
                                        {20000.0, 1.0e-3},
                                        {32000.0, 2.8e-3},
                                        {47000.0, 0.0},
                                        {51000.0, -2.8e-3},
                                        {71000.0, -2.0e-3}}};
constexpr double kZTop = 86000.0;

double layer_top(std::size_t i) {
  return i + 1 < kLayers.size() ? kLayers[i + 1].z_base : kZTop;
}

/// Advance (t, p) by dz > 0 through layer i.
void climb_layer(std::size_t i, double dz, double& t, double& p) {
  const double lapse = kLayers[i].lapse;
  if (std::fabs(lapse) < 1e-12) {
    p *= std::exp(-kEarthG * dz / (kAirR * t));
  } else {
    const double t_new = t + lapse * dz;
    p *= std::pow(t_new / t, -kEarthG / (kAirR * lapse));
    t = t_new;
  }
}

struct LayerBase {
  double t, p;  // [K], [Pa]
};

/// (T, p) at each layer base, then at kZTop: the sea-level state climbed
/// through whole layers in order, so a query adds only its own layer's
/// partial climb and matches a walk from the surface bit for bit.
const std::array<LayerBase, kLayers.size() + 1>& layer_bases() {
  static const std::array<LayerBase, kLayers.size() + 1> bases = [] {
    std::array<LayerBase, kLayers.size() + 1> out{};
    double t = 288.15, p = 101325.0;
    out[0] = {t, p};
    for (std::size_t i = 0; i < kLayers.size(); ++i) {
      climb_layer(i, layer_top(i) - kLayers[i].z_base, t, p);
      out[i + 1] = {t, p};
    }
    return out;
  }();
  return bases;
}

// Titan: mean molar mass of the N2/CH4 mixture, and 1 km hydrostatic
// slabs up to the model top.
constexpr double kTitanMbar =
    TitanAtmosphere::kMoleFractionN2 * 28.0134e-3 +
    TitanAtmosphere::kMoleFractionCH4 * 16.0425e-3;
constexpr double kTitanSlab = 1000.0;    // [m]
constexpr double kTitanTop = 1200000.0;  // [m]
constexpr auto kTitanSlabs = static_cast<std::size_t>(kTitanTop / kTitanSlab);

/// Pressure ratio across the slab [z0, z0 + dz], isothermal at the
/// mid-slab temperature (temperature varies slowly; slab-wise isothermal
/// is accurate).
double titan_slab_factor(double z0, double dz) {
  const double r_gas = gas::constants::kRu / kTitanMbar;
  const double z_mid = z0 + 0.5 * dz;
  const double t_mid =
      z_mid < 40000.0
          ? 94.0 + 36.0 * z_mid / 40000.0
          : (z_mid < 200000.0 ? 130.0 + 40.0 * (z_mid - 40000.0) / 160000.0
                              : 170.0);
  return std::exp(-gas::constants::kTitanG0 * dz / (r_gas * t_mid));
}

/// Pressure at every slab boundary: the 1.5 bar surface multiplied by each
/// whole slab's factor in order from the ground.
const std::array<double, kTitanSlabs + 1>& titan_slab_pressures() {
  static const std::array<double, kTitanSlabs + 1> table = [] {
    std::array<double, kTitanSlabs + 1> out{};
    out[0] = 1.5e5;
    for (std::size_t k = 0; k < kTitanSlabs; ++k) {
      const double z0 = kTitanSlab * static_cast<double>(k);
      out[k + 1] = out[k] * titan_slab_factor(z0, kTitanSlab);
    }
    return out;
  }();
  return table;
}
}  // namespace

AtmoState EarthAtmosphere::at(double z) const {
  CAT_REQUIRE(z >= -500.0 && z <= 200000.0, "altitude outside model range");
  // The layer holding z (its top included), or kLayers.size() above kZTop.
  std::size_t i = 0;
  while (i < kLayers.size() && z > layer_top(i)) ++i;
  double t = layer_bases()[i].t, p = layer_bases()[i].p;
  if (i < kLayers.size()) {
    const double dz = z - kLayers[i].z_base;
    if (dz > 0.0) climb_layer(i, dz, t, p);  // below sea level: the base
  } else {
    // Exponential tail with slowly growing temperature (thermosphere floor).
    const double h = kAirR * t / kEarthG;
    p *= std::exp(-(z - kZTop) / h);
    t = t + 2.0e-3 * (z - kZTop);  // mild thermospheric warming
  }
  AtmoState s;
  s.temperature = t;
  s.pressure = p;
  s.density = p / (kAirR * t);
  s.sound_speed = std::sqrt(kAirGamma * kAirR * t);
  return s;
}

double EarthAtmosphere::scale_height(double z) const {
  const AtmoState s = at(z);
  return kAirR * s.temperature / kEarthG;
}

AtmoState TitanAtmosphere::at(double z) const {
  CAT_REQUIRE(z >= 0.0 && z <= kTitanTop, "altitude outside Titan model");
  // Engineering fit: surface 94 K / 1.5 bar; temperature rises through the
  // stratosphere to ~170 K near 200 km, then isothermal.
  const double t = z < 40000.0
                       ? 94.0 + (130.0 - 94.0) * z / 40000.0
                       : (z < 200000.0
                              ? 130.0 + (170.0 - 130.0) * (z - 40000.0) /
                                    160000.0
                              : 170.0);
  const double r_gas = gas::constants::kRu / kTitanMbar;
  // Hydrostatic equilibrium in closed form over 1 km slabs: the tabulated
  // pressure at the last whole slab boundary at or below z, times the
  // final partial slab. The truncated quotient is that boundary's index:
  // a double just below 1000 k lies at least 0.512 ulp(k) below k after
  // the division (1000 < 1024), so it never rounds up onto k.
  const auto n = static_cast<std::size_t>(z / kTitanSlab);
  const double z0 = kTitanSlab * static_cast<double>(n);
  double p = titan_slab_pressures()[n];
  if (z0 < z) p *= titan_slab_factor(z0, z - z0);
  AtmoState s;
  s.temperature = t;
  s.pressure = p;
  s.density = p / (r_gas * t);
  s.sound_speed = std::sqrt(1.4 * r_gas * t);
  return s;
}

double TitanAtmosphere::scale_height(double z) const {
  const AtmoState s = at(z);
  return gas::constants::kRu / kTitanMbar * s.temperature /
         gas::constants::kTitanG0;
}

}  // namespace cat::atmosphere
