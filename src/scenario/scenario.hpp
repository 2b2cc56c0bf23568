#pragma once
/// \file scenario.hpp
/// The scenario engine's case-description layer: a Case names everything
/// the paper's CAT pipeline combines — vehicle, entry state or flight
/// condition, planet/atmosphere, gas model, solver family and fidelity —
/// without binding to any one solver. run_case() (runner.hpp) executes a
/// Case through its solver family and returns a CaseResult, the named
/// registry (registry.hpp) holds the curated scenario catalog, and the
/// batch driver (batch.hpp) executes case sets across a thread pool.

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "atmosphere/atmosphere.hpp"
#include "gas/equilibrium.hpp"
#include "io/table.hpp"
#include "trajectory/trajectory.hpp"

namespace cat::scenario {

/// Destination planet: selects atmosphere model, gravity, radius, and the
/// default cold-gas composition.
enum class Planet { kEarth, kTitan };

/// Thermochemical model used by the case's solver.
enum class GasModelKind {
  kAir5,        ///< N2 O2 NO N O equilibrium air
  kAir9,        ///< + NO+ N+ O+ e- (the paper's 9-species air)
  kAir11,       ///< + N2+ O2+ (ionizing air, shock tubes)
  kTitan,       ///< N2/CH4 Titan gas with CN/C2/HCN chemistry
  kIdealGamma,  ///< calorically perfect comparison gas
};

/// Solver family executing the case — the hierarchy of flowfield methods
/// the paper builds CAT from.
enum class SolverFamily {
  kTrajectoryDomain,     ///< entry dynamics + Mach/Reynolds flight domain
  kStagnationPulse,      ///< trajectory x stagnation-line heating pulse
  kStagnationPoint,      ///< one stagnation-line solve at a flight condition
  kEulerBoundaryLayer,   ///< inviscid pressures + similarity boundary layer
  kVslMarch,             ///< viscous shock-layer marching
  kPnsMarch,             ///< parabolized Navier-Stokes marching
  kFiniteVolumeField,    ///< shock-capturing Euler/NS finite-volume field
  kShockTubeRelaxation,  ///< 1-D two-temperature post-shock relaxation
};

/// Resolution/cost preset; family bodies map it to grid sizes, table
/// resolutions and iteration budgets. The two tier-0 presets below bypass
/// the solver-family dispatch entirely: kCorrelation answers from the
/// engineering correlation family (~us) and kSurrogate from a registered
/// precomputed table (~ns), each carrying its own accuracy bookkeeping
/// (correlation spread / stored deviation bounds).
enum class Fidelity {
  kSmoke,        ///< seconds-scale: CI smoke tests and examples
  kNominal,      ///< paper-figure resolution
  kCorrelation,  ///< tier-0 engineering correlations (no solve)
  kSurrogate,    ///< tier-0 precomputed table lookup (value + error bar)
};

/// Point flight condition for cases that are not trajectory-driven.
/// When pressure/temperature are negative the freestream state comes from
/// the planet atmosphere at \p altitude; setting them explicitly bypasses
/// the atmosphere (shock-tube cases).
struct FlightCondition {
  double velocity_mps = 0.0;   ///< [m/s]
  double altitude_m = 0.0;     ///< [m]
  double pressure_Pa = -1.0;   ///< [Pa] override when >= 0
  double temperature_K = -1.0; ///< [K] override when >= 0
};

/// A complete, solver-independent description of one CAT computation.
struct Case {
  std::string name;         ///< registry key (identifier-style)
  std::string title;        ///< human-readable description
  SolverFamily family = SolverFamily::kStagnationPoint;
  Planet planet = Planet::kEarth;
  GasModelKind gas = GasModelKind::kAir5;
  Fidelity fidelity = Fidelity::kSmoke;

  trajectory::Vehicle vehicle{};        ///< geometry/mass description
  trajectory::EntryState entry{};       ///< trajectory-driven families
  trajectory::TrajectoryOptions traj_opt{};
  FlightCondition condition{};          ///< point/march/field families

  double wall_temperature_K = 1500.0;     ///< [K]
  double angle_of_attack_rad = 0.0;         ///< [rad] windward-plane marches
  double ideal_gamma = 1.2;  ///< for GasModelKind::kIdealGamma  // cat-lint: dimensionless
  double cone_half_angle_rad = 0.7853981633974483;  ///< [rad] VSL sphere-cone
  double body_length_m = 0.0;             ///< [m] VSL body (0 = 4 nose radii)
  std::size_t n_stations = 16;          ///< marching families
  /// Streamwise difference order of the marching families (VSL/PNS/E+BL):
  /// 2 = variable-step BDF2 history terms (design order 2 in dxi),
  /// 1 = the legacy backward-Euler march (kept for the forced-first-order
  /// verification ladder and for A/B comparisons).
  std::size_t streamwise_order = 2;
  std::size_t max_pulse_points = 36;    ///< StagnationPulse decimation
  bool viscous = true;                  ///< FiniteVolumeField: NS vs Euler
  /// FiniteVolumeField: carry finite-rate species continuity equations
  /// (the Park air mechanism matching \c gas) through the field solve via
  /// the batched chemistry kernels. One-way coupling: the flow drives the
  /// chemistry; the bulk EOS stays the case's equilibrium/ideal model.
  bool finite_rate = false;
};

/// One named scalar output of a case run.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Result of running a Case: the primary series the paper would plot
/// (as an io::Table), headline scalars, and the run's bookkeeping.
struct CaseResult {
  std::string case_name;
  std::string solver;            ///< solver family label
  io::Table table{""};           ///< primary output series
  std::vector<Metric> metrics;
  std::string rendering;         ///< optional ASCII field rendering
  std::size_t n_points_skipped = 0;  ///< solver gave up (pulse fringes)
  double elapsed_seconds = 0.0;

  /// Look up a metric by name; throws std::invalid_argument when absent.
  double metric(const std::string& name) const;
};

/// Planet bundle: atmosphere model + gravitational constants.
struct PlanetModel {
  std::unique_ptr<atmosphere::Atmosphere> atmosphere;
  double radius;  ///< [m]
  double g0;      ///< [m/s^2]
};
PlanetModel make_planet(Planet planet);

/// Cold-composition equilibrium solver for a gas model on a planet.
/// kIdealGamma is not an equilibrium gas; requesting it here throws.
gas::EquilibriumSolver make_equilibrium(GasModelKind kind, Planet planet);

const char* to_string(SolverFamily family);
const char* to_string(Planet planet);
const char* to_string(GasModelKind kind);
const char* to_string(Fidelity fidelity);
/// Exact inverse of to_string(Fidelity): sets *out and returns true for
/// one of its four names; returns false and leaves *out alone otherwise.
bool parse_fidelity(std::string_view name, Fidelity* out);

}  // namespace cat::scenario
