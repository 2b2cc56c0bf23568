#pragma once
/// \file mms.hpp
/// Method of Manufactured Solutions: analytic fields and exact source
/// terms for the formal order-of-accuracy verification of the solver
/// hierarchy (src/verify).
///
/// A manufactured solution is a smooth closed-form field chosen first;
/// substituting it into the governing equations leaves an analytic
/// residual, which is injected back into the discrete solver through its
/// SourceHook so the manufactured field becomes the exact solution of the
/// forced problem. Discretization error is then directly measurable on
/// any grid, and a refinement ladder yields the observed order of
/// accuracy (the standard verification practice of modern aerothermal
/// codes; cf. ROADMAP and the Stetson/US3D verification frameworks in
/// PAPERS.md).
///
/// Everything here is hand-differentiated; test_verify cross-checks every
/// source term against central finite differences of the analytic fluxes
/// so a derivation slip cannot silently pass.

#include <array>

#include "solvers/vsl/vsl.hpp"

namespace cat::verify {

/// One scalar manufactured component:
///   phi(x, y) = c0 + amp * sin(kx x + ky y + phase).
/// Keeping (kx x + ky y + phase) inside a monotone branch of sin over the
/// domain keeps every sweep line of the field monotone, so TVD limiters
/// never clip at interior extrema and the second-order design of the
/// MUSCL scheme is observable.
struct TrigField {
  double c0 = 0.0, amp = 0.0, kx = 0.0, ky = 0.0, phase = 0.0;

  double v(double x, double y) const;
  double dx(double x, double y) const;
  double dy(double x, double y) const;
  double dyy(double x, double y) const;
};

/// Manufactured primitive field for the planar finite-volume Euler /
/// thin-layer Navier-Stokes solvers with a calorically perfect gas.
/// rho and p share (kx, ky, phase) so the reconstructed internal energy
/// e = p / ((gamma-1) rho) is also monotone along sweep lines.
struct FvManufactured {
  TrigField rho, u, v, p;
  double gamma = 1.4;
  double r_gas = 287.053;
  double prandtl = 0.72;

  /// Primitive state [rho, u, v, e] the solver reconstructs.
  std::array<double, 4> primitive(double x, double y) const;

  /// Exact convective fluxes (for the finite-difference self-check).
  std::array<double, 4> convective_flux_x(double x, double y) const;
  std::array<double, 4> convective_flux_y(double x, double y) const;
  /// Exact thin-layer viscous flux through a +y face (Sutherland mu,
  /// constant-Pr conduction — the solver's model, not full NS).
  std::array<double, 4> thin_layer_flux_y(double x, double y) const;

  /// Steady source density S = div F_conv  (planar Euler).
  std::array<double, 4> euler_source(double x, double y) const;
  /// Steady source density S = div F_conv - d/dy F_visc  (thin-layer NS).
  std::array<double, 4> ns_source(double x, double y) const;
};

/// The catalog's standard fields. Domain [0, extent]^2; the Euler field is
/// supersonic in +x (Dirichlet data at the outflow is never upwinded), the
/// NS field adds a low-density state so the viscous terms carry O(10%) of
/// the flux balance and their discretization error is observable.
FvManufactured supersonic_euler_field();
FvManufactured viscous_ns_field();
/// Domain edge length matching each field's wavenumbers.
double fv_domain_extent(const FvManufactured& f);

/// Manufactured species mass fractions riding on an FvManufactured flow:
/// y_0 is a TrigField kept well inside (0, 1) and y_1 = 1 - y_0, so the
/// pair sums to one exactly and the solver's clip/renormalize decode is
/// the identity on the manufactured solution. Substituting into the
/// species continuity equation d(rho y_s)/dt + div(rho u y_s) = S_s
/// leaves the steady advective residual
///   S_s = y_s div(rho u) + rho (u dy_s/dx + v dy_s/dy),
/// injected back through the solver's SpeciesSourceHook. With a frozen
/// (reaction-free) mechanism this isolates the order of the species
/// MUSCL/upwind discretization.
struct SpeciesManufactured {
  TrigField y0;

  /// y_s at (x, y); s in {0, 1}.
  double y(std::size_t s, double x, double yy) const;
  /// Exact advective species fluxes rho u y_s / rho v y_s (for the
  /// finite-difference self-check).
  double flux_x(const FvManufactured& flow, std::size_t s, double x,
                double yy) const;
  double flux_y(const FvManufactured& flow, std::size_t s, double x,
                double yy) const;
  /// Steady source density S_s = div(rho u y_s) [kg/(m^3 s)].
  double source(const FvManufactured& flow, std::size_t s, double x,
                double yy) const;
};

/// The catalog's species field for the supersonic Euler flow: the sin
/// argument stays in the same monotone window as the flow primitives and
/// the amplitude keeps y_0 in [0.30, 0.60], far from the [0, 1] clips.
SpeciesManufactured species_transport_field();

/// Manufactured similarity profiles for the parabolic (VSL/PNS/BL)
/// marching core with a constant-property gas and Pr = 1:
///   F(eta) = z + a_f sin(pi z),   g(eta) = g_w + (1-g_w) z + a_g sin(pi z)
/// with z = eta/eta_max — xi-independent, so the streamwise history terms
/// of the march vanish on the manufactured solution and the eta-direction
/// tridiagonal discretization order is isolated.
struct MarchManufactured {
  double eta_max = 8.0;
  double a_f = 0.12;   ///< momentum perturbation amplitude
  double a_g = 0.08;   ///< enthalpy perturbation amplitude
  double g_w = 0.5;    ///< wall enthalpy ratio (matches T_wall cp / H_e)

  double f_profile(double eta) const;      ///< F = u/ue
  double g_profile(double eta) const;      ///< g = H/He
  double f_stream(double eta) const;       ///< f = int_0^eta F
  double fp(double eta) const;             ///< dF/deta
  double gp(double eta) const;             ///< dg/deta
  double fpp(double eta) const;            ///< d2F/deta2
  double gpp(double eta) const;            ///< d2g/deta2

  /// Sources for the marcher's equations (C = 1, Pr = 1, rho_e/rho = 1):
  ///   F'' + f F' + beta (1 - F^2) + S_F = 0
  ///   g'' + f g'                  + S_g = 0
  /// beta is 0.5 at the marcher's station 0 and 0 downstream (constant
  /// edge velocity).
  double momentum_source(double eta, double beta) const;
  double energy_source(double eta) const;
};

/// Constant-property PropertyProvider for the march verification: density
/// rho_c, viscosity mu_c, Prandtl 1, h = cp T.
solvers::PropertyProvider make_constant_props(double rho_c, double mu_c,
                                              double cp);

/// Streamwise (dxi) manufactured solution for the parabolic marching
/// core: the similarity profiles are modulated along the body,
///   F(eta, s) = z + [a_f + a_x phi(s)] sin(pi z)
///   g(eta, s) = g_w + (1 - g_w) z + [a_g + a_gx psi(s)] sin(pi z)
/// with z = eta/eta_max and phi/psi = sin(k s + phase), so the history
/// terms 2 xi F F_xi, 2 xi F g_xi and the xi f_xi convective addition are
/// all nonzero and the streamwise difference order of the march is
/// directly observable (the xi-independent MarchManufactured made every
/// history term vanish — which is exactly how the BDF1 march stayed
/// hidden behind the second-order eta sweeps until PR 5).
///
/// Edges carry a linear ue(s) = u0 + u1 (s - s0) — the marcher's
/// trapezoidal xi quadrature is exact for it, so xi(s) is analytic — and
/// a prescribed Vigneron fraction omega(s), so the PNS splitting path
/// beta = omega * clamp(2 xi / ue * due/dxi) is exercised with a
/// manufactured beta_eff that the discrete backward difference must
/// reproduce at design order. With the constant-property Pr = 1 gas
/// (make_constant_props) the marcher's continuum equations reduce to
///   F'' + (f + xi f_xi) F' + beta_eff (1 - F^2) - 2 xi F F_xi + S_F = 0
///   g'' + (f + xi f_xi) g'                      - 2 xi F g_xi + S_g = 0
/// downstream, and to the pinned beta = 0.5 similarity equations (no
/// history terms) at station 0.
struct MarchStreamwiseManufactured {
  double eta_max = 8.0;
  double a_f = 0.12, a_g = 0.08, g_w = 0.5;
  double a_x = 0.15;   ///< streamwise momentum modulation amplitude
  double a_gx = 0.10;  ///< streamwise enthalpy modulation amplitude
  double k_f = 0.40, phase_f = 0.3;
  double k_g = 0.55, phase_g = 1.1;
  /// Constant-property gas and edge law.
  double cp = 1000.0, h_total = 1.2e6;
  double rho_c = 0.05, mu_c = 2.0e-4, r_body = 0.5;
  double p_edge = 1000.0;
  double s0 = 1.0, s_end = 9.0;
  double u0 = 200.0, u1 = 0.0;        ///< ue(s) = u0 + u1 (s - s0)
  double omega0 = 1.0, omega1 = 0.0;  ///< omega(s) = omega0 + omega1 (s - s0)

  double ue(double s) const;
  double omega(double s) const;
  /// The marcher's own xi(s): stagnation startup 0.25 f(s0) s0 plus the
  /// (exact) trapezoid of the linear integrand f = rho mu ue r^2.
  double xi(double s) const;
  double dxi_ds(double s) const;
  /// Analytic beta the discrete march must reproduce downstream:
  /// omega(s) * (2 xi / ue) due/dxi (the clamp window is never active
  /// for the catalog parameters; asserted by the study).
  double beta_eff(double s) const;

  double F(double eta, double s) const;
  double g(double eta, double s) const;
  double F_eta(double eta, double s) const;
  double F_etaeta(double eta, double s) const;
  double g_eta(double eta, double s) const;
  double g_etaeta(double eta, double s) const;
  double f_stream(double eta, double s) const;   ///< int_0^eta F
  double F_xi(double eta, double s) const;
  double g_xi(double eta, double s) const;
  double f_stream_xi(double eta, double s) const;

  /// Manufactured forcing for MarchOptions::momentum_source /
  /// energy_source. station0 = true drops the history terms and pins
  /// beta = 0.5 (the marcher's similarity start at its first station).
  double momentum_source(double eta, double s, bool station0) const;
  double energy_source(double eta, double s, bool station0) const;

  /// Edge-station row for the marcher at arc position s.
  solvers::MarchEdge edge(double s) const;
  double t_wall() const { return g_w * h_total / cp; }
  /// Exact wall heat flux at station s (C = C/Pr = 1 at the wall).
  double q_wall_exact(double s) const;
};

}  // namespace cat::verify
