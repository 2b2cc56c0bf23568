#pragma once
/// \file stagnation.hpp
/// Stagnation-line viscous shock-layer solver with equilibrium chemistry
/// and tangent-slab radiation — the physics package behind the paper's
/// Fig. 2 (Titan probe heating pulses) and Fig. 3 (species profiles along
/// the stagnation streamline at peak heating).
///
/// Structure of the solve, mirroring the RASLE/HYVIS class of codes:
///  1. Equilibrium normal-shock jump -> shock-layer edge state and
///     shock standoff (0.78 eps R correlation, eps = density ratio).
///  2. Lees-Dorodnitsyn similarity BVP for the stagnation boundary layer
///     with equilibrium thermodynamics (rho mu varying across the layer),
///     solved by two-parameter shooting; yields the convective flux and
///     the temperature/species profiles between wall and boundary-layer
///     edge.
///  3. Tangent-slab radiative transport across the full shock layer
///     (boundary-layer profile + inviscid equilibrium slab).

#include <vector>

#include "gas/equilibrium.hpp"
#include "radiation/bands.hpp"
#include "transport/transport.hpp"

namespace cat::solvers {

/// Freestream + body inputs for one stagnation solution.
struct StagnationConditions {
  double velocity;          ///< [m/s]
  double rho_inf;           ///< [kg/m^3]
  double p_inf;             ///< [Pa]
  double t_inf;             ///< [K]
  double nose_radius;       ///< effective stagnation radius [m]
  double wall_temperature_K = 1500.0;  ///< radiative-equilibrium-ish TPS wall
};

/// Equilibrium post-shock / stagnation-edge state.
struct ShockLayerEdge {
  double rho2, p2, t2, h2, u2;  ///< immediately behind the normal shock
  double density_ratio;         ///< eps = rho1/rho2
  double p_stag, t_stag, rho_stag, h_stag;  ///< boundary-layer edge
  double standoff;              ///< shock standoff distance [m]
};

/// Full stagnation-line solution.
struct StagnationSolution {
  ShockLayerEdge edge;
  double q_conv;                ///< convective wall flux [W/m^2]
  double q_rad;                 ///< radiative wall flux [W/m^2]
  double du_dx;                 ///< edge velocity gradient [1/s]
  // Profiles from wall (index 0) to shock:
  std::vector<double> y_phys;   ///< distance from wall [m]
  std::vector<double> temperature;
  std::vector<std::vector<double>> species_x;  ///< mole fractions [s][k]
  std::size_t n_species;
};

/// Options for StagnationLineSolver.
struct StagnationOptions {
  std::size_t n_eta = 200;       ///< similarity grid points
  double eta_max = 8.0;  ///< outer edge of similarity layer  // cat-lint: dimensionless
  std::size_t n_table = 60;      ///< enthalpy table resolution
  std::size_t n_slab = 40;       ///< radiation slab layers
  std::size_t n_spectral = 160;  ///< spectral bins for q_rad (0.2-1.2 um)
  bool include_radiation = true;
};

/// Equilibrium stagnation-line solver over an arbitrary mixture.
class StagnationLineSolver {
 public:
  /// \p eq supplies both the thermodynamics and the species set; the
  /// radiation model self-assembles from that set.
  explicit StagnationLineSolver(const gas::EquilibriumSolver& eq,
                                StagnationOptions opt = {});

  /// Equilibrium normal-shock + stagnation edge computation (step 1).
  ShockLayerEdge shock_layer_edge(const StagnationConditions& c) const;

  /// Full solve (steps 1-3).
  StagnationSolution solve(const StagnationConditions& c) const;

 private:
  /// shock_layer_edge, also handing back the equilibrium stagnation state
  /// it solves for, so solve() does not solve that state again.
  ShockLayerEdge shock_layer_edge(const StagnationConditions& c,
                                  gas::EquilibriumResult& stag) const;

  const gas::EquilibriumSolver& eq_;
  StagnationOptions opt_;
  // Built once per solver and only read by solve(), so one solver serves
  // concurrent solves: the transport evaluator's Wilke mass factors, and
  // the spectral grid with its per-bin band envelopes and Planck
  // prefactors.
  transport::MixtureTransport trans_;
  radiation::RadiationModel rad_;
  radiation::SpectralGrid grid_;
};

}  // namespace cat::solvers
