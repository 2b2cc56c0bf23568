#pragma once
/// \file transport.hpp
/// Mixture transport properties for the viscous solvers.
///
/// Species viscosities come from Blottner curve fits where published (air
/// species) and from hard-sphere kinetic theory otherwise (Titan species);
/// species conductivities from the Eucken relation; mixture values from
/// Wilke's semi-empirical mixing rule. Mass diffusion uses the
/// constant-Lewis-number model standard in shock-layer codes of the era
/// (binary and multicomponent diffusion is listed by the paper among the
/// VSL codes' physics — the constant-Le model is its leading-order form).

#include <span>
#include <vector>

#include "gas/mixture.hpp"

namespace cat::transport {

/// Sutherland viscosity for ideal-gas air (baseline CFD path).
double sutherland_viscosity(double t);

/// Single-species viscosity [Pa s]: Blottner fit when available, otherwise
/// hard-sphere kinetic theory with the species' tabulated diameter.
double species_viscosity(const gas::Species& s, double t);

/// Single-species thermal conductivity [W/(m K)] via modified Eucken:
/// k = mu (cp_trans_rot * 5/2-ish split): k = mu (15/4 R/M) for atoms,
/// k = mu (cv_t 5/2 + cv_r + cv_v) / M form for molecules.
double species_conductivity(const gas::Species& s, double t);

/// Mixture viscosity and frozen Prandtl number at one state.
struct ViscosityPrandtl {
  double mu;  ///< Wilke-mixed viscosity [Pa s]
  double pr;  ///< frozen Prandtl number mu cp / k
};

/// Transport evaluator bound to a Mixture. Construction precomputes the
/// temperature-independent parts of Wilke's rule (the molar-mass factors
/// of every species pair); every query after that is allocation-free.
class MixtureTransport {
 public:
  explicit MixtureTransport(const gas::Mixture& mix, double lewis = 1.4);

  /// Wilke-mixed viscosity [Pa s] from mass fractions.
  double viscosity(std::span<const double> y, double t) const;

  /// Wilke-mixed (frozen) thermal conductivity [W/(m K)].
  double conductivity(std::span<const double> y, double t) const;

  /// Effective mass diffusivity [m^2/s] from the constant Lewis number:
  /// D = Le k / (rho cp).
  double diffusivity(std::span<const double> y, double t, double rho) const;

  /// Viscosity and frozen Prandtl number mu cp / k together, the pair the
  /// boundary-layer property tables need: each species' viscosity and
  /// heat capacity are evaluated once and one Wilke pass mixes both mu
  /// and k. Bit-identical to viscosity(y, t) and to
  /// viscosity(y, t) * mix.cp_mass(y, t) / conductivity(y, t).
  ViscosityPrandtl viscosity_prandtl(std::span<const double> y,
                                     double t) const;

  double lewis_number() const { return lewis_; }

 private:
  /// Wilke-mixed mu and k and the frozen cp [J/(kg K)] of one state, from
  /// one pass over the species present in y (x > 0 enter Wilke's sums,
  /// y != 0 enter cp, as in Mixture::cp_mass): the one evaluation every
  /// public query reads.
  struct Mixed {
    double mu, k, cp;
  };
  Mixed mixed(std::span<const double> y, double t) const;

  const gas::Mixture& mix_;
  double lewis_;
  /// Free electrons are left out of Wilke's sums: their vanishing
  /// mass/viscosity poisons the phi_ij denominators while their true
  /// momentum contribution is nil.
  std::vector<char> heavy_;
  /// [i * n + j]: (M_j / M_i)^(1/4) and sqrt(8 (1 + M_i / M_j)).
  std::vector<double> mass_pow_, mass_den_;
};

}  // namespace cat::transport
