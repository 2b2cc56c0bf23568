#pragma once
/// \file species.hpp
/// Species database for high-temperature air and Titan (N2/CH4) entry gas.
///
/// Each species carries the spectroscopic data needed by the
/// rigid-rotor/harmonic-oscillator (RRHO) statistical-thermodynamic model
/// (gas/thermo.hpp): rotational constants, vibrational characteristic
/// temperatures, low-lying electronic levels, and the 298.15 K formation
/// enthalpy (stationary-electron convention for ions). Transport data
/// (Blottner curve fits where published, hard-sphere diameters otherwise)
/// live here too so that every physics module draws from one source. The
/// database also stores each species' 298.15 K reference thermal enthalpy,
/// evaluated once from that data when the database is built.

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cat::gas {

/// Chemical elements tracked by the equilibrium and kinetics machinery.
/// kCharge is the pseudo-element enforcing charge neutrality (electrons
/// count -1, singly charged ions +1).
enum class Element : std::uint8_t { kN = 0, kO, kC, kH, kAr, kCharge, kCount };

constexpr std::size_t kNumElements = static_cast<std::size_t>(Element::kCount);

/// Number of species in SpeciesDatabase: the bound on any SpeciesSet's
/// size, so per-species scratch can live in fixed-size stack arrays.
constexpr std::size_t kNumDatabaseSpecies = 25;

/// One harmonic vibrational mode: characteristic temperature and degeneracy.
struct VibMode {
  double theta;  ///< [K]
  int degeneracy;
};

/// One electronic level: degeneracy and excitation temperature.
struct ElectronicLevel {
  int g;
  double theta;  ///< [K]
};

/// Blottner viscosity curve-fit coefficients:
///   mu = 0.1 * exp((A ln T + B) ln T + C)   [Pa s]
struct BlottnerFit {
  double a, b, c;
};

/// Geometry class for the rotational partition function.
enum class RotorType : std::uint8_t { kAtom, kLinear, kNonlinear };

/// Immutable description of one chemical species.
struct Species {
  std::string name;
  double molar_mass;   ///< [kg/mol]
  int charge;          ///< elementary charges
  RotorType rotor;
  /// Element composition: count of each Element (kCharge slot holds charge).
  std::array<int, kNumElements> composition{};

  /// Rotational data. Linear: theta_rot[0] used. Nonlinear: all three.
  std::array<double, 3> theta_rot{};  ///< [K]
  int symmetry = 1;                   ///< rotational symmetry number sigma

  std::vector<VibMode> vib;           ///< harmonic modes
  std::vector<ElectronicLevel> electronic;  ///< at least the ground level

  double h_formation_298;  ///< [J/mol], 298.15 K, 1 bar
  /// Thermal enthalpy h_th(298.15) = e_th(298.15) + Ru*298.15 [J/mol], the
  /// reference every absolute enthalpy subtracts (gas/thermo.hpp). Set once
  /// by SpeciesDatabase from the spectroscopic data above.
  double h_thermal_298 = 0.0;

  std::optional<BlottnerFit> blottner;  ///< air species have published fits
  double hs_diameter = 3.5e-10;         ///< hard-sphere fallback [m]

  bool is_electron() const { return name == "e-"; }
  bool is_molecule() const { return rotor != RotorType::kAtom; }
};

/// Global registry of every species known to the library. Indices into this
/// registry are stable for the lifetime of the process.
class SpeciesDatabase {
 public:
  /// The singleton registry, populated with the full air + Titan set.
  static const SpeciesDatabase& instance();

  std::size_t size() const { return species_.size(); }
  const Species& operator[](std::size_t i) const { return species_[i]; }

  /// Index lookup by name; throws std::invalid_argument when unknown.
  std::size_t index(std::string_view name) const;
  const Species& find(std::string_view name) const {
    return species_[index(name)];
  }

  std::span<const Species> all() const { return species_; }

 private:
  SpeciesDatabase();
  std::vector<Species> species_;
};

/// A named subset of the database defining a reacting mixture
/// (e.g. 5-species air, 11-species air, Titan gas).
struct SpeciesSet {
  std::vector<std::size_t> db_index;  ///< index into SpeciesDatabase
  std::vector<std::string> names;

  std::size_t size() const { return db_index.size(); }
  const Species& species(std::size_t i) const {
    return SpeciesDatabase::instance()[db_index[i]];
  }
  /// Local index of a species name; throws when absent.
  std::size_t local_index(std::string_view name) const;
  bool contains(std::string_view name) const;
};

/// Standard mixtures used by the paper's experiments.
SpeciesSet make_air5();    ///< N2 O2 NO N O
SpeciesSet make_air9();    ///< + NO+ N+ O+ e-   (paper's 9-species air)
SpeciesSet make_air11();   ///< + N2+ O2+
SpeciesSet make_titan();   ///< N2 CH4 ... CN C2 C3 HCN C2H2 H2 H C N NH CH Ar

/// Freestream elemental composition helpers: mole-fraction based elemental
/// abundance vector b_e [mol-element / kg-mixture] for a cold mixture given
/// as (species name, mole fraction) pairs.
std::array<double, kNumElements> element_moles_per_kg(
    const std::vector<std::pair<std::string, double>>& mole_fractions);

}  // namespace cat::gas
