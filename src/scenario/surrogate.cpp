#include "scenario/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "core/error.hpp"
#include "io/binary.hpp"
#include "scenario/batch.hpp"
#include "scenario/registry.hpp"

namespace cat::scenario {

namespace {

// The identity block records the base case's solver family + angle of
// attack, so a sphere-cone or trajectory case with the same nose radius
// can never be served a hemisphere stagnation-point table's answer.
constexpr const char* kMagic = "CATSURR2";
/// Relative floor of every stored error bound (see SurrogateBuildOptions).
constexpr double kRelativeFloor = 0.005;

void validate_domain(const SurrogateDomain& d) {
  CAT_REQUIRE(d.n_velocity >= 2 && d.n_altitude >= 2,
              "surrogate domain needs at least 2 nodes per axis");
  CAT_REQUIRE(d.velocity_max_mps > d.velocity_min_mps,
              "surrogate velocity range must be increasing");
  CAT_REQUIRE(d.altitude_max_m > d.altitude_min_m,
              "surrogate altitude range must be increasing");
  CAT_REQUIRE(d.velocity_min_mps > 0.0,
              "surrogate velocities must be positive");
}

std::vector<double> refined_axis(double lo, double hi, std::size_t n_nodes) {
  // The doubled grid: nodes at even indices, deviation probes at odd ones.
  const std::size_t n = 2 * n_nodes - 1;
  std::vector<double> x(n);
  const double dx = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = lo + dx * static_cast<double>(i);
  x.back() = hi;  // exact upper edge regardless of rounding
  return x;
}

/// Assemble node tables + per-cell deviation bounds from channel samples
/// on the doubled grid (velocity-major: sample index iv * n_alt_ref + ia).
SurrogateTable assemble(SurrogateMeta meta, const SurrogateDomain& dom,
                        const std::array<std::vector<double>,
                                         SurrogateTable::kNChannels>& refined,
                        const SurrogateBuildOptions& opt) {
  CAT_REQUIRE(opt.safety_factor >= 1.0, "safety factor must be >= 1");
  const std::size_t nv = dom.n_velocity, na = dom.n_altitude;
  const std::size_t nar = 2 * na - 1;
  const double dv = (dom.velocity_max_mps - dom.velocity_min_mps) /
                    static_cast<double>(nv - 1);
  const double da = (dom.altitude_max_m - dom.altitude_min_m) /
                    static_cast<double>(na - 1);

  std::array<numerics::BilinearTable, SurrogateTable::kNChannels> values;
  std::array<std::vector<double>, SurrogateTable::kNChannels> bounds;
  for (std::size_t ch = 0; ch < SurrogateTable::kNChannels; ++ch) {
    numerics::BilinearTable t(dom.velocity_min_mps, dv, nv,
                              dom.altitude_min_m, da, na);
    for (std::size_t i = 0; i < nv; ++i)
      for (std::size_t j = 0; j < na; ++j)
        t.at(i, j) = refined[ch][(2 * i) * nar + 2 * j];

    // Per-cell bound: the doubled grid provides five probes per cell
    // (four mid-edges + the center); the stored bound is the worst
    // measured |truth - interpolant| there, inflated by the safety
    // factor, plus a small relative floor.
    std::vector<double> b((nv - 1) * (na - 1), 0.0);
    constexpr std::pair<std::size_t, std::size_t> kProbes[] = {
        {1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 2}};
    for (std::size_t i = 0; i + 1 < nv; ++i) {
      for (std::size_t j = 0; j + 1 < na; ++j) {
        const double c00 = t.at(i, j), c10 = t.at(i + 1, j);
        const double c01 = t.at(i, j + 1), c11 = t.at(i + 1, j + 1);
        double max_dev = 0.0;
        for (const auto& [ox, oy] : kProbes) {
          const double tx = 0.5 * static_cast<double>(ox);
          const double ty = 0.5 * static_cast<double>(oy);
          const double interp = (1.0 - tx) * (1.0 - ty) * c00 +
                                tx * (1.0 - ty) * c10 +
                                (1.0 - tx) * ty * c01 + tx * ty * c11;
          const double truth = refined[ch][(2 * i + ox) * nar + 2 * j + oy];
          max_dev = std::max(max_dev, std::fabs(truth - interp));
        }
        const double scale = std::max(
            {std::fabs(c00), std::fabs(c10), std::fabs(c01),
             std::fabs(c11)});
        b[i * (na - 1) + j] =
            opt.safety_factor * max_dev + kRelativeFloor * scale;
      }
    }
    values[ch] = std::move(t);
    bounds[ch] = std::move(b);
  }
  return SurrogateTable(std::move(meta), dom, std::move(values),
                        std::move(bounds));
}

}  // namespace

SurrogateTable::SurrogateTable(
    SurrogateMeta meta, SurrogateDomain domain,
    std::array<numerics::BilinearTable, kNChannels> values,
    std::array<std::vector<double>, kNChannels> bounds)
    : meta_(std::move(meta)),
      domain_(domain),
      values_(std::move(values)),
      bounds_(std::move(bounds)) {
  validate_domain(domain_);
  for (std::size_t ch = 0; ch < kNChannels; ++ch) {
    CAT_REQUIRE(values_[ch].nx() == domain_.n_velocity &&
                    values_[ch].ny() == domain_.n_altitude,
                "surrogate channel table does not match the domain");
    CAT_REQUIRE(bounds_[ch].size() == n_cells(),
                "surrogate bound vector does not match the cell count");
    for (const double b : bounds_[ch])
      CAT_REQUIRE(std::isfinite(b) && b >= 0.0,
                  "surrogate bounds must be finite and non-negative");
  }
}

std::size_t SurrogateTable::n_cells() const {
  return (domain_.n_velocity - 1) * (domain_.n_altitude - 1);
}

double SurrogateTable::max_bound(std::size_t channel) const {
  CAT_REQUIRE(channel < kNChannels, "bad surrogate channel");
  return *std::max_element(bounds_[channel].begin(),
                           bounds_[channel].end());
}

double SurrogateTable::mean_bound(std::size_t channel) const {
  CAT_REQUIRE(channel < kNChannels, "bad surrogate channel");
  double sum = 0.0;
  for (const double b : bounds_[channel]) sum += b;
  return sum / static_cast<double>(bounds_[channel].size());
}

void SurrogateTable::save(const std::string& path) const {
  io::BinaryWriter w(path);
  w.write_magic(kMagic);
  w.write_u64(static_cast<std::uint64_t>(meta_.planet));
  w.write_u64(static_cast<std::uint64_t>(meta_.gas));
  w.write_u64(static_cast<std::uint64_t>(meta_.family));
  w.write_f64(meta_.nose_radius_m);
  w.write_f64(meta_.wall_temperature_K);
  w.write_f64(meta_.angle_of_attack_rad);
  w.write_string(meta_.base_case);
  w.write_u64(domain_.n_velocity);
  w.write_u64(domain_.n_altitude);
  w.write_f64(domain_.velocity_min_mps);
  w.write_f64(domain_.velocity_max_mps);
  w.write_f64(domain_.altitude_min_m);
  w.write_f64(domain_.altitude_max_m);
  for (std::size_t ch = 0; ch < kNChannels; ++ch) {
    for (std::size_t i = 0; i < domain_.n_velocity; ++i)
      for (std::size_t j = 0; j < domain_.n_altitude; ++j)
        w.write_f64(values_[ch].at(i, j));
    w.write_f64s(bounds_[ch]);
  }
  w.close();
}

namespace {

/// Shared parse core for load()/load_memory(). The reader feeds untrusted
/// bytes: every count is validated against r.remaining() before any
/// allocation, every float field must be finite and self-consistent, and
/// all failures throw cat::Error (including CAT_REQUIRE failures inside
/// the SurrogateTable constructor, which are rethrown as Error so no
/// byte sequence can surface std::invalid_argument to a caller that is
/// only contracted to see cat::Error).
SurrogateTable load_from(io::BinaryReader& r) {
  const std::string& path = r.name();
  const std::string magic = r.read_magic();
  if (magic != kMagic)
    throw Error("SurrogateTable::load: '" + path +
                "' is not a CATSURR2 record (bad magic)");
  SurrogateMeta meta;
  const std::uint64_t planet = r.read_u64();
  const std::uint64_t gas = r.read_u64();
  if (planet > static_cast<std::uint64_t>(Planet::kTitan) ||
      gas > static_cast<std::uint64_t>(GasModelKind::kIdealGamma))
    throw Error("SurrogateTable::load: '" + path +
                "' names an unknown planet/gas (corrupt or newer record)");
  meta.planet = static_cast<Planet>(planet);
  meta.gas = static_cast<GasModelKind>(gas);
  const std::uint64_t family = r.read_u64();
  if (family > static_cast<std::uint64_t>(SolverFamily::kShockTubeRelaxation))
    throw Error("SurrogateTable::load: '" + path +
                "' names an unknown solver family (corrupt or newer "
                "record)");
  meta.family = static_cast<SolverFamily>(family);
  meta.nose_radius_m = r.read_f64();
  meta.wall_temperature_K = r.read_f64();
  meta.angle_of_attack_rad = r.read_f64();
  if (!std::isfinite(meta.nose_radius_m) ||
      !std::isfinite(meta.wall_temperature_K) ||
      !std::isfinite(meta.angle_of_attack_rad))
    throw Error("SurrogateTable::load: '" + path +
                "' has a non-finite identity field (corrupt record)");
  meta.base_case = r.read_string();
  SurrogateDomain dom;
  dom.n_velocity = static_cast<std::size_t>(r.read_u64());
  dom.n_altitude = static_cast<std::size_t>(r.read_u64());
  if (dom.n_velocity < 2 || dom.n_altitude < 2 ||
      dom.n_velocity > (1u << 16) || dom.n_altitude > (1u << 16))
    throw Error("SurrogateTable::load: '" + path +
                "' has an implausible grid size (corrupt record)");
  dom.velocity_min_mps = r.read_f64();
  dom.velocity_max_mps = r.read_f64();
  dom.altitude_min_m = r.read_f64();
  dom.altitude_max_m = r.read_f64();
  if (!std::isfinite(dom.velocity_min_mps) ||
      !std::isfinite(dom.velocity_max_mps) ||
      !std::isfinite(dom.altitude_min_m) ||
      !std::isfinite(dom.altitude_max_m) ||
      dom.velocity_max_mps <= dom.velocity_min_mps ||
      dom.altitude_max_m <= dom.altitude_min_m ||
      dom.velocity_min_mps <= 0.0)
    throw Error("SurrogateTable::load: '" + path +
                "' has a malformed flight domain (corrupt record)");
  // All counts below derive from the validated dims, so the total payload
  // is known exactly here. Reject a record whose header promises more
  // data than its body holds BEFORE allocating the (up to dims-capped
  // ~GB-scale) channel tables — a 16-byte tail must not drive a 65536^2
  // allocation just to discover the truncation element by element.
  const std::size_t nv = dom.n_velocity, na = dom.n_altitude;
  const std::size_t channel_doubles = nv * na + (nv - 1) * (na - 1);
  if (SurrogateTable::kNChannels * channel_doubles * sizeof(double) >
      r.remaining())
    throw Error("SurrogateTable::load: '" + path +
                "' claims a grid larger than the bytes remaining "
                "(truncated or corrupt record)");
  const double dv = (dom.velocity_max_mps - dom.velocity_min_mps) /
                    static_cast<double>(nv - 1);
  const double da = (dom.altitude_max_m - dom.altitude_min_m) /
                    static_cast<double>(na - 1);
  std::array<numerics::BilinearTable, SurrogateTable::kNChannels> values;
  std::array<std::vector<double>, SurrogateTable::kNChannels> bounds;
  for (std::size_t ch = 0; ch < SurrogateTable::kNChannels; ++ch) {
    numerics::BilinearTable t(dom.velocity_min_mps, dv, nv,
                              dom.altitude_min_m, da, na);
    for (std::size_t i = 0; i < nv; ++i) {
      for (std::size_t j = 0; j < na; ++j) {
        const double v = r.read_f64();
        if (!std::isfinite(v))
          throw Error("SurrogateTable::load: '" + path +
                      "' has a non-finite node value (corrupt record)");
        t.at(i, j) = v;
      }
    }
    values[ch] = std::move(t);
    bounds[ch] = r.read_f64s((nv - 1) * (na - 1));
    for (const double b : bounds[ch])
      if (!std::isfinite(b) || b < 0.0)
        throw Error("SurrogateTable::load: '" + path +
                    "' has a malformed deviation bound (corrupt record)");
  }
  try {
    return SurrogateTable(std::move(meta), dom, std::move(values),
                          std::move(bounds));
  } catch (const std::invalid_argument& e) {
    // Belt and braces: the checks above should leave nothing for the
    // constructor's CAT_REQUIREs to catch, but a record must never turn
    // an internal precondition into an API-misuse exception.
    throw Error("SurrogateTable::load: '" + path + "' is malformed: " +
                e.what());
  }
}

}  // namespace

SurrogateTable SurrogateTable::load(const std::string& path) {
  io::BinaryReader r(path);
  return load_from(r);
}

SurrogateTable SurrogateTable::load_memory(
    std::span<const unsigned char> bytes, const std::string& name) {
  io::MemoryReader r(bytes, name);
  return load_from(r);
}

SurrogateTable build_surrogate(const Case& base,
                               const SurrogateDomain& domain,
                               const SurrogateBuildOptions& opt) {
  validate_domain(domain);
  CAT_REQUIRE(base.family == SolverFamily::kStagnationPoint,
              "surrogate builder needs a kStagnationPoint base case");
  CAT_REQUIRE(base.condition.pressure_Pa < 0.0 &&
                  base.condition.temperature_K < 0.0,
              "surrogate tables tabulate the planet atmosphere; explicit "
              "p/T overrides cannot be gridded over altitude");
  CAT_REQUIRE(base.vehicle.nose_radius > 0.0,
              "surrogate base case needs a positive nose radius");
  CAT_REQUIRE(opt.truth_fidelity == Fidelity::kSmoke ||
                  opt.truth_fidelity == Fidelity::kNominal,
              "surrogate truth must be a high-fidelity preset");

  Case proto = base;
  proto.fidelity = opt.truth_fidelity;
  const auto v_ref = refined_axis(domain.velocity_min_mps,
                                  domain.velocity_max_mps,
                                  domain.n_velocity);
  const auto a_ref = refined_axis(domain.altitude_min_m,
                                  domain.altitude_max_m, domain.n_altitude);
  const auto cases = flight_grid_sweep(proto, v_ref, a_ref);

  BatchOptions bopt;
  bopt.threads = opt.threads;
  const auto batch = run_batch(cases, bopt);

  std::array<std::vector<double>, SurrogateTable::kNChannels> refined;
  for (auto& ch : refined) ch.resize(cases.size());
  for (std::size_t k = 0; k < batch.results.size(); ++k) {
    const auto& r = batch.results[k];
    for (const auto& m : r.metrics)
      if (m.name == "failed" && m.value != 0.0)
        throw SolverError("surrogate build: high-fidelity solve failed at "
                          "grid point '" + cases[k].name + "'");
    refined[0][k] = r.metric("q_conv");
    refined[1][k] = r.metric("q_rad");
    refined[2][k] = r.metric("t_stag");
    refined[3][k] = r.metric("p_stag");
  }

  SurrogateMeta meta;
  meta.planet = base.planet;
  meta.gas = base.gas;
  meta.family = base.family;
  meta.nose_radius_m = base.vehicle.nose_radius;
  meta.wall_temperature_K = base.wall_temperature_K;
  meta.angle_of_attack_rad = base.angle_of_attack_rad;
  meta.base_case = base.name;
  return assemble(std::move(meta), domain, refined, opt);
}

SurrogateTable build_surrogate(const SurrogateMeta& meta,
                               const SurrogateDomain& domain,
                               const SurrogateTruthFn& truth,
                               const SurrogateBuildOptions& opt) {
  validate_domain(domain);
  CAT_REQUIRE(static_cast<bool>(truth), "surrogate truth fn must be set");
  const auto v_ref = refined_axis(domain.velocity_min_mps,
                                  domain.velocity_max_mps,
                                  domain.n_velocity);
  const auto a_ref = refined_axis(domain.altitude_min_m,
                                  domain.altitude_max_m, domain.n_altitude);
  std::array<std::vector<double>, SurrogateTable::kNChannels> refined;
  for (auto& ch : refined) ch.resize(v_ref.size() * a_ref.size());
  for (std::size_t i = 0; i < v_ref.size(); ++i) {
    for (std::size_t j = 0; j < a_ref.size(); ++j) {
      const auto q = truth(v_ref[i], a_ref[j]);
      for (std::size_t ch = 0; ch < SurrogateTable::kNChannels; ++ch)
        refined[ch][i * a_ref.size() + j] = q[ch];
    }
  }
  return assemble(meta, domain, refined, opt);
}

// ---------------------------------------------------------------------------
// Process-global registry serving Fidelity::kSurrogate.
// ---------------------------------------------------------------------------

namespace {

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::vector<std::shared_ptr<const SurrogateTable>>& registry_tables() {
  static std::vector<std::shared_ptr<const SurrogateTable>> tables;
  return tables;
}

bool close_rel(double a, double b) {
  return std::fabs(a - b) <= 1e-9 + 1e-6 * std::max(std::fabs(a),
                                                    std::fabs(b));
}

}  // namespace

void register_surrogate(std::shared_ptr<const SurrogateTable> table) {
  CAT_REQUIRE(table != nullptr, "cannot register a null surrogate table");
  const std::lock_guard<std::mutex> lock(registry_mutex());
  registry_tables().push_back(std::move(table));
}

std::size_t n_registered_surrogates() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  return registry_tables().size();
}

void clear_surrogates() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  registry_tables().clear();
}

std::shared_ptr<const SurrogateTable> find_surrogate(const Case& c) {
  if (c.condition.pressure_Pa >= 0.0 || c.condition.temperature_K >= 0.0)
    return nullptr;  // tables tabulate the atmosphere, not overrides
  const std::lock_guard<std::mutex> lock(registry_mutex());
  const auto& tables = registry_tables();
  for (std::size_t k = tables.size(); k-- > 0;) {  // newest first
    const auto& table = tables[k];
    const auto& m = table->meta();
    if (m.planet != c.planet || m.gas != c.gas) continue;
    // Same nose radius is not same body: the table answers for the base
    // case's solver family and attitude only (a VSL sphere-cone march or
    // a trajectory-driven case must fall through to its own solver).
    if (m.family != c.family) continue;
    if (!close_rel(m.angle_of_attack_rad, c.angle_of_attack_rad)) continue;
    if (!close_rel(m.nose_radius_m, c.vehicle.nose_radius)) continue;
    if (!close_rel(m.wall_temperature_K, c.wall_temperature_K)) continue;
    if (!table->covers(c.condition.velocity_mps, c.condition.altitude_m))
      continue;
    return table;
  }
  return nullptr;
}

}  // namespace cat::scenario
