#pragma once
/// \file reaction.hpp
/// Elementary reactions and the finite-rate mechanism evaluator.
///
/// Forward rates are modified-Arrhenius k_f = A T_c^n exp(-theta/T_c) where
/// the controlling temperature T_c depends on the reaction class (Park's
/// two-temperature prescription: dissociation is driven by sqrt(T*Tv),
/// electron-impact processes by the electron temperature Tv, everything
/// else by T). Backward rates come from detailed balance through the RRHO
/// Gibbs energies, guaranteeing that the kinetics relax to exactly the
/// composition the equilibrium solver would produce — the consistency the
/// paper demands between chemistry modeling and flowfield coupling.
///
/// Hot-path convention: every rate kernel takes a caller-owned
/// chemistry::Workspace (see workspace.hpp) and evaluates with zero heap
/// allocations, per-species Gibbs energies computed once per temperature
/// (not per stoichiometric entry), and log-space Arrhenius rates (one exp
/// per reaction).

#include <cstdint>
#include <string>
#include <vector>

#include "chemistry/workspace.hpp"
#include "gas/mixture.hpp"
#include "gas/species.hpp"
#include "gas/thermo.hpp"

namespace cat::chemistry {

struct BatchWorkspace;  // chemistry/batch.hpp

/// Reaction classes determining the controlling temperature.
enum class ReactionType {
  kDissociation,          ///< AB + M -> A + B + M      (T_c = sqrt(T Tv))
  kExchange,              ///< AB + C -> AC + B         (T_c = T)
  kAssociativeIonization, ///< A + B -> AB+ + e-        (T_c = T)
  kElectronImpact,        ///< A + e- -> A+ + 2e-       (T_c = Tv)
};

/// Stoichiometric participant: local species index and integer coefficient.
struct Stoich {
  std::size_t species;
  int nu;
};

/// One elementary reaction (optionally with a generic third body M).
struct Reaction {
  std::string label;
  ReactionType type = ReactionType::kExchange;
  std::vector<Stoich> reactants;  ///< nu > 0
  std::vector<Stoich> products;   ///< nu > 0
  bool has_third_body = false;
  /// Third-body efficiency per local species (size = n_species when
  /// has_third_body; empty otherwise). Dissociation by atomic partners is
  /// typically an order of magnitude more effective.
  std::vector<double> third_body_efficiency;

  /// Arrhenius parameters in SI mole units: A [m^3/(mol s)] per reaction
  /// order, temperature exponent n, activation temperature theta [K].
  double arrhenius_a = 0.0;
  double arrhenius_n = 0.0;
  double theta = 0.0;  ///< activation temperature E_a/k [K]

  int delta_nu() const;  ///< mole change products - reactants
};

/// A reacting mechanism bound to a SpeciesSet.
class Mechanism {
 public:
  Mechanism(gas::SpeciesSet set, std::vector<Reaction> reactions);

  const gas::SpeciesSet& species_set() const { return set_; }
  const gas::Mixture& mixture() const { return mix_; }
  std::span<const Reaction> reactions() const { return reactions_; }
  std::size_t n_species() const { return set_.size(); }
  std::size_t n_reactions() const { return reactions_.size(); }

  /// Forward rate coefficient of reaction r at heavy-particle temperature t
  /// and vibronic temperature tv.
  double forward_rate(std::size_t r, double t, double tv) const;

  /// Concentration-based equilibrium constant of reaction r at temperature
  /// t: K_c = exp(-dG0/RuT) (p_ref/(Ru T))^dnu.
  double equilibrium_constant(std::size_t r, double t) const;

  /// Backward rate coefficient via detailed balance.
  double backward_rate(std::size_t r, double t, double tv) const;

  /// Molar production rates wdot [mol/(m^3 s)] for all species given molar
  /// concentrations c [mol/m^3]. Workspace form: zero allocations, rate
  /// coefficients and Gibbs energies memoized by temperature in \p ws.
  void production_rates(std::span<const double> c, double t, double tv,
                        std::span<double> wdot, Workspace& ws) const;

  /// Mass production rates [kg/(m^3 s)] from mass state (rho, y). Leaves
  /// the molar rates in ws.wdot_mole for reuse (e.g.
  /// vibronic_source_from_rates).
  void mass_production_rates(double rho, std::span<const double> y, double t,
                             double tv, std::span<double> wdot_mass,
                             Workspace& ws) const;

  /// SoA batch forms (chemistry/batch.hpp, implemented in batch.cpp):
  /// evaluate n = t.size() cells per call. \p c / \p wdot / \p y /
  /// \p wdot_mass are structure-of-arrays with plane pitch \p stride >= n
  /// (element (s, i) at [s * stride + i]). Results are bitwise identical to
  /// the scalar kernels above for every cell, for any block size.
  void production_rates_batch(std::span<const double> c,
                              std::span<const double> t,
                              std::span<const double> tv,
                              std::span<double> wdot, std::size_t stride,
                              BatchWorkspace& ws) const;
  void mass_production_rates_batch(std::span<const double> rho,
                                   std::span<const double> y,
                                   std::span<const double> t,
                                   std::span<const double> tv,
                                   std::span<double> wdot_mass,
                                   std::size_t stride,
                                   BatchWorkspace& ws) const;

  /// Vibrational energy gained/lost by chemistry [W/m^3]: Park's
  /// approximation that molecules are created/destroyed carrying the local
  /// average vibronic energy.
  double chemistry_vibronic_source(std::span<const double> c, double t,
                                   double tv, Workspace& ws) const;

  /// Same vibronic source from already-computed molar production rates
  /// (typically ws.wdot_mole after a rate-kernel call), skipping the
  /// duplicate kernel evaluation a separate chemistry_vibronic_source call
  /// would cost.
  double vibronic_source_from_rates(std::span<const double> wdot_mole,
                                    double tv, Workspace& ws) const;

 private:
  friend struct Workspace;
  friend struct BatchWorkspace;

  gas::SpeciesSet set_;
  gas::Mixture mix_;
  std::vector<Reaction> reactions_;
  std::uint64_t serial_;  ///< unique per constructed Mechanism (cache key)

  // Construction-time constants for the fast kernels.
  std::vector<gas::GibbsConstants> gibbs_const_;  ///< per species, at p_ref
  std::vector<double> molar_mass_;                ///< per species [kg/mol]
  std::vector<double> inv_molar_mass_;            ///< per species [mol/kg]
  std::vector<std::uint8_t> molecule_mask_;       ///< per species
  std::vector<double> log_a_;                     ///< per reaction, ln A
  std::vector<int> delta_nu_;                     ///< per reaction

  /// Fill \p g with per-species Gibbs energies at (t, p_ref) unless \p key
  /// already equals t.
  void update_gibbs(std::vector<double>& g, double& key, double t) const;

  /// Fill ws.kf / ws.kb for (t, tv) unless already cached.
  void update_rate_coefficients(Workspace& ws, double t, double tv) const;

  /// Fill ws.vib_e with vibronic energies at tv unless already cached.
  void update_vibronic_energies(Workspace& ws, double tv) const;
};

/// --- mechanism factories -------------------------------------------------

/// Park-type 5-species air (N2, O2, NO, N, O): 3 dissociations + 2
/// exchanges (Zeldovich).
Mechanism park_air5();

/// Park-type 9-species ionizing air (adds NO+, N+, O+, e-): associative
/// ionization, electron-impact ionization and charge exchange. This is the
/// paper's "typically nine species" air model.
Mechanism park_air9();

/// Park-type 11-species air (adds N2+ and O2+).
Mechanism park_air11();

}  // namespace cat::chemistry
