#pragma once
/// \file surrogate.hpp
/// Tier-0 precomputed surrogate tables: batch-run the high-fidelity
/// stagnation hierarchy over a flight-domain (velocity x altitude) grid
/// once, then answer the common heating query by bounds-checked
/// multilinear lookup in ~ns (Fidelity::kSurrogate). Every answer carries
/// a stored per-cell deviation-vs-truth error bar so the fast tier is
/// honest about where the table is coarse: the builder samples the truth
/// on the doubled (2n-1)^2 grid, keeps the even nodes as table values,
/// and turns the odd mid-edge/center samples into measured interpolation
/// deviations (x safety factor) for each cell.
///
/// Off-table queries throw (PR 5/6 discipline: fail loudly instead of
/// silently clamping); binary save/load via src/io lets cat_run serve
/// from a committed table without re-solving (cat_tabulate builds them).

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "numerics/interp.hpp"
#include "scenario/scenario.hpp"

namespace cat::scenario {

/// Uniform flight-domain grid a surrogate tabulates (node counts per
/// axis; cells are (n-1)x(n-1)).
struct SurrogateDomain {
  double velocity_min_mps = 0.0;   ///< [m/s]
  double velocity_max_mps = 0.0;   ///< [m/s]
  std::size_t n_velocity = 0;      ///< nodes along velocity (>= 2)
  double altitude_min_m = 0.0;     ///< [m]
  double altitude_max_m = 0.0;     ///< [m]
  std::size_t n_altitude = 0;      ///< nodes along altitude (>= 2)
};

/// Identity block: which physical question the table answers. The
/// surrogate registry matches these fields (plus domain coverage) when
/// serving Fidelity::kSurrogate cases. family/angle_of_attack_rad record
/// the base case's solver family and windward-plane attitude so a
/// sphere-cone march or trajectory case with the same nose radius can
/// never silently receive a hemisphere stagnation-point table's answer.
struct SurrogateMeta {
  Planet planet = Planet::kEarth;
  GasModelKind gas = GasModelKind::kAir5;
  SolverFamily family = SolverFamily::kStagnationPoint;  ///< base solver family
  double nose_radius_m = 0.0;        ///< [m]
  double wall_temperature_K = 0.0;   ///< [K]
  double angle_of_attack_rad = 0.0;  ///< [rad] base case's attitude
  std::string base_case;             ///< registry scenario it was built from
};

/// One surrogate answer: four channels, each value + stored error bar
/// (the cell's measured deviation-vs-truth bound).
struct SurrogateAnswer {
  double q_conv_W_m2 = 0.0;      ///< [W/m^2]
  double q_conv_err_W_m2 = 0.0;  ///< [W/m^2]
  double q_rad_W_m2 = 0.0;       ///< [W/m^2]
  double q_rad_err_W_m2 = 0.0;   ///< [W/m^2]
  double t_stag_K = 0.0;         ///< [K]
  double t_stag_err_K = 0.0;     ///< [K]
  double p_stag_Pa = 0.0;        ///< [Pa]
  double p_stag_err_Pa = 0.0;    ///< [Pa]
};

/// Truth source for a surrogate build: channel values (q_conv, q_rad,
/// t_stag, p_stag in SI) at one flight state.
using SurrogateTruthFn =
    std::function<std::array<double, 4>(double velocity_mps,
                                        double altitude_m)>;

/// Build options shared by the case-driven and truth-fn builders.
struct SurrogateBuildOptions {
  std::size_t threads = 0;        ///< batch pool width (0 = hardware)
  /// Stored bound = safety_factor x max measured mid-cell deviation +
  /// 0.005 x |cell value| (the relative floor keeps bounds honest where
  /// the measured deviation is accidentally tiny).
  double safety_factor = 2.0;     // cat-lint: dimensionless
  Fidelity truth_fidelity = Fidelity::kSmoke;  ///< hierarchy preset
};

/// An immutable tier-0 lookup table over one flight domain.
class SurrogateTable {
 public:
  static constexpr std::size_t kNChannels = 4;
  static const char* channel_name(std::size_t channel);

  /// Assemble from prebuilt per-channel node tables + per-cell bounds
  /// (builders and load() use this; bounds are row-major cells,
  /// (n_velocity-1) x (n_altitude-1) per channel).
  SurrogateTable(SurrogateMeta meta, SurrogateDomain domain,
                 std::array<numerics::BilinearTable, kNChannels> values,
                 std::array<std::vector<double>, kNChannels> bounds);

  /// Bounds-checked multilinear lookup. Throws cat::SolverError when the
  /// query lies outside the tabulated domain (no clamping) — callers fall
  /// back to a real solve instead of trusting an extrapolation.
  SurrogateAnswer query(double velocity_mps, double altitude_m) const;

  /// True when (velocity, altitude) lies inside the tabulated domain
  /// (inclusive of the edges; false for NaN).
  bool covers(double velocity_mps, double altitude_m) const;

  const SurrogateMeta& meta() const { return meta_; }
  const SurrogateDomain& domain() const { return domain_; }
  std::size_t n_cells() const;
  /// Largest / mean stored deviation bound of one channel across cells.
  double max_bound(std::size_t channel) const;
  double mean_bound(std::size_t channel) const;

  /// Binary round trip (io::BinaryWriter/Reader) in the "CATSURR2"
  /// format, which records the base case's solver family and angle of
  /// attack; any other magic is rejected.
  ///
  /// Both loaders treat the record as UNTRUSTED bytes: every count is
  /// validated against the bytes remaining in the source before any
  /// allocation, every float field must be finite and self-consistent,
  /// and any malformed record throws cat::Error — never another
  /// exception type, never a crash (fuzz_surrogate_load enforces this).
  void save(const std::string& path) const;
  static SurrogateTable load(const std::string& path);
  /// Parse a record from an in-memory buffer (fuzz harnesses,
  /// corrupt-record tests, future network payloads). Identical semantics
  /// to load(); \p name labels error messages.
  static SurrogateTable load_memory(std::span<const unsigned char> bytes,
                                    const std::string& name = "<memory>");

 private:
  SurrogateMeta meta_;
  SurrogateDomain domain_;
  std::array<numerics::BilinearTable, kNChannels> values_;
  std::array<std::vector<double>, kNChannels> bounds_;
};

/// Build a surrogate by batch-running the high-fidelity hierarchy (the
/// base case's stagnation solver at opt.truth_fidelity) over the doubled
/// flight grid. \p base must be a kStagnationPoint case whose freestream
/// comes from the planet atmosphere (no explicit p/T override). Throws
/// cat::SolverError when any grid-point solve fails.
SurrogateTable build_surrogate(const Case& base,
                               const SurrogateDomain& domain,
                               const SurrogateBuildOptions& opt = {});

/// Build from an arbitrary truth function (verification studies, benches,
/// property tests) — same sampling and bound bookkeeping, no solver runs.
SurrogateTable build_surrogate(const SurrogateMeta& meta,
                               const SurrogateDomain& domain,
                               const SurrogateTruthFn& truth,
                               const SurrogateBuildOptions& opt = {});

/// Process-global surrogate registry serving Fidelity::kSurrogate.
/// Thread-safe; tables are matched by meta (planet, gas, solver family,
/// nose radius, wall temperature, angle of attack) and domain coverage,
/// newest registration first.
void register_surrogate(std::shared_ptr<const SurrogateTable> table);
std::size_t n_registered_surrogates();
void clear_surrogates();
/// The newest registered table matching \p c, or nullptr. Cases with an
/// explicit p/T override never match (tables tabulate the atmosphere),
/// and neither does a case of a different solver family or attitude than
/// the table was built from — same nose radius is not same body.
std::shared_ptr<const SurrogateTable> find_surrogate(const Case& c);

}  // namespace cat::scenario
