#pragma once
/// \file relax1d.hpp
/// One-dimensional thermochemical relaxation behind a normal shock — the
/// paper's Fig. 7 experiment (Park's shock-tube simulation: V = 10 km/s,
/// p1 = 0.1 Torr, two-temperature dissociating and ionizing air).
///
/// The gas crosses the shock front frozen (translation/rotation jump, but
/// vibration and composition unchanged), then relaxes downstream under
/// finite-rate chemistry and Landau-Teller vibrational relaxation while
/// satisfying the steady 1-D conservation laws:
///   rho u = m,   rho u^2 + p = P,   h + u^2/2 = H.
/// Marching variables are the species mass fractions and the vibronic pool
/// energy; (rho, u, T, Tv, p) are recovered algebraically at each station.

#include <functional>
#include <span>
#include <vector>

#include "chemistry/reaction.hpp"
#include "gas/two_temperature.hpp"

namespace cat::solvers {

/// Upstream (pre-shock) state.
struct ShockTubeFreestream {
  double pressure;     ///< [Pa]
  double temperature;  ///< [K]
  double velocity;     ///< shock-frame upstream speed [m/s]
};

/// Post-shock frozen jump state (vibration & composition frozen).
struct FrozenJump {
  double rho, u, p, t;  ///< post-shock state; Tv stays at T1
  double density_ratio;
};

/// Relaxation profiles behind the shock.
struct RelaxationProfile {
  std::vector<double> x;             ///< distance behind shock [m]
  std::vector<double> t, tv;         ///< temperatures [K]
  std::vector<double> rho, u, p;     ///< flow state
  std::vector<std::vector<double>> y;///< y[s][k] mass fractions
  std::size_t n_species;

  /// Index of the last stored station (equilibrium end when converged).
  std::size_t size() const { return x.size(); }
};

/// Options for PostShockRelaxation (namespace scope so default arguments
/// work under GCC's nested-aggregate rules).
struct Relax1dOptions {
  double x_max_m = 0.10;          ///< march length [m]
  std::size_t n_samples = 400;  ///< stored stations (log-spaced + x=0)
  double x_first_m = 1e-7;        ///< first sample distance [m]
  bool two_temperature = true;  ///< false = thermal equilibrium (Tv = T)
  /// Ablation hook: controlling temperature for dissociation uses
  /// sqrt(T*Tv) when true (Park), plain T when false.
  bool park_sqrt_ttv = true;
  /// Verification hook (src/verify): called after the physics fills the
  /// marching derivative du/dx for state u = [y_0..y_{ns-1}, ev] at
  /// distance x; may add a manufactured source on top. With a frozen
  /// (reaction-free) mechanism the physics contribution is zero and an
  /// injected analytic source makes the stored profile an exact known
  /// solution — the marching/recovery pipeline check in tests/test_verify.
  std::function<void(double x, std::span<const double> u,
                     std::span<double> du)>
      source;
};

/// Two-temperature post-normal-shock relaxation solver.
class PostShockRelaxation {
 public:
  using Options = Relax1dOptions;

  /// \p mech must be an air mechanism whose set includes the species of
  /// interest (use park_air11 for the Fig. 7/8 ionizing case).
  explicit PostShockRelaxation(const chemistry::Mechanism& mech,
                               Options opt = {});

  /// Frozen Rankine-Hugoniot jump with temperature-dependent (but
  /// composition- and vibration-frozen) thermodynamics.
  FrozenJump frozen_jump(const ShockTubeFreestream& fs,
                         std::span<const double> y_frozen) const;

  /// March the relaxation zone. \p y1 is the upstream composition (mass
  /// fractions; typically cold air: y_N2 = 0.767, y_O2 = 0.233). The
  /// chemistry and stiff-integrator workspaces and the right-hand-side
  /// buffers are locals of the call: concurrent solves on one instance are
  /// safe, and no right-hand-side evaluation allocates.
  RelaxationProfile solve(const ShockTubeFreestream& fs,
                          std::span<const double> y1) const;

 private:
  const chemistry::Mechanism& mech_;
  gas::TwoTemperatureGas ttg_;
  Options opt_;

  /// Recover (rho, u, p, T) from invariants at given composition and Tv.
  struct FlowState {
    double rho, u, p, t;
  };
  FlowState recover_state(double m_flux, double p_flux, double h_total,
                          std::span<const double> y, double tv,
                          double rho_guess) const;
};

}  // namespace cat::solvers
