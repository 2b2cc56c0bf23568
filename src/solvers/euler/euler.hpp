#pragma once
/// \file euler.hpp
/// Axisymmetric shock-capturing finite-volume solver for the Euler
/// equations with a pluggable equation of state (ideal gamma or
/// equilibrium air), MUSCL reconstruction and HLLE fluxes.
///
/// This is the "sophisticated multidimensional ideal-gas fluid code" base
/// that the paper's second approach couples real-gas models to: swap the
/// GasModel and the same numerics compute reacting-equilibrium flow
/// (Fig. 4 bow shocks; Fig. 9 with FvOptions::viscous, which adds laminar
/// thin-layer viscous fluxes and a no-slip isothermal wall). The upwind
/// discretization "allows the hypersonic bow shock to be captured"
/// (paper, Fig. 9 discussion).

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "chemistry/batch.hpp"
#include "core/gas_model.hpp"
#include "grid/grid.hpp"
#include "numerics/limiters.hpp"

namespace cat::solvers {

/// Freestream primitive state (axial u, radial v).
struct FreeStream {
  double rho, u, v, p;
};

/// Volumetric source hook on the FV RHS (src/verify): returns the steady
/// source density S(x, r) per equation [mass, x-mom, r-mom, energy], added
/// to the semi-discrete update as dU/dt = -(1/V) oint F dA + S. The
/// Method-of-Manufactured-Solutions studies inject the exact flux
/// divergence of the manufactured field here.
using SourceHook = std::function<std::array<double, 4>(double x, double r)>;

/// Exact-state Dirichlet hook (src/verify): primitive [rho, u, v, e] of
/// the manufactured solution at an arbitrary point. When set, every
/// domain boundary becomes a Dirichlet boundary fed by two layers of
/// exact ghost states (replacing the wall/axis/outflow/freestream
/// treatment) so the interior discretization order is observable
/// unpolluted by boundary closures.
using DirichletHook = std::function<std::array<double, 4>(double x, double r)>;

/// Per-species volumetric source hook (src/verify): fills s[n_species]
/// with the steady species source densities [kg/(m^3 s)] at (x, r). The
/// species-transport MMS study injects the exact advective divergence of
/// the manufactured mass fractions here.
using SpeciesSourceHook =
    std::function<void(double x, double r, std::span<double> s)>;

/// Exact species Dirichlet hook (src/verify): fills y[n_species] with the
/// manufactured mass fractions at (x, r); active together with the flow
/// DirichletHook.
using SpeciesDirichletHook =
    std::function<void(double x, double r, std::span<double> y)>;

/// Options for the finite-volume solvers.
struct FvOptions {
  double cfl = 0.4;  // cat-lint: dimensionless
  std::size_t max_iter = 20000;
  double residual_tol = 1e-6;  ///< relative density-residual drop  // cat-lint: dimensionless
  numerics::Limiter limiter = numerics::Limiter::kVanLeer;
  bool muscl = true;               ///< 2nd-order reconstruction
  /// Impulsive-start protection: run this many first-order iterations at
  /// half CFL before enabling MUSCL.
  std::size_t startup_iters = 500;
  bool viscous = false;            ///< add central viscous fluxes (NS)
  double wall_temperature_K = 1000.0;///< isothermal no-slip wall (viscous)
  double prandtl = 0.72;  ///< constant-Pr laminar viscous model  // cat-lint: dimensionless
  SourceHook source;               ///< verification forcing (null = off)
  DirichletHook dirichlet;         ///< verification boundaries (null = off)

  // ---- finite-rate species transport (null mechanism = single fluid) ----
  /// Enables species continuity equations d(rho y_s)/dt +
  /// div(rho u y_s) = wdot_s alongside the bulk flow: SoA species planes,
  /// MUSCL-reconstructed mass fractions upwinded by the HLLE mass flux,
  /// and point-implicit finite-rate sources from a serial
  /// chemistry::BatchEvaluator at its default block size. A mechanism
  /// with no reactions runs frozen advection. First coupling step: one-way
  /// (flow drives chemistry; no energy/EOS feedback, no species diffusion).
  std::shared_ptr<const chemistry::Mechanism> mechanism;
  std::vector<double> species_y0;  ///< freestream/initial mass fractions  // cat-lint: dimensionless
  SpeciesSourceHook species_source;        ///< verification forcing (null = off)
  SpeciesDirichletHook species_dirichlet;  ///< verification boundaries
};

/// Cell-centered conservative state [rho, rho u, rho v, rho E].
using Conservative = std::array<double, 4>;

/// Primitive state for reconstruction [rho, u, v, e_internal].
/// Internal energy (not pressure) is carried so that general-EOS flux
/// evaluation needs only direct p(rho,e)/a(rho,e) queries — inverting
/// e(rho,p) per face would dominate the runtime of table-based EOS runs.
using Primitive = std::array<double, 4>;

/// Axisymmetric finite-volume Euler/Navier-Stokes solver.
class EulerSolver {
 public:
  EulerSolver(const grid::StructuredGrid& grid,
              std::shared_ptr<const core::GasModel> gas, FvOptions opt = {});

  /// Fill the whole field with the freestream state.
  void initialize(const FreeStream& fs);

  /// Advance until the density residual drops by residual_tol or max_iter
  /// is reached; returns iterations taken.
  std::size_t solve();

  /// Advance exactly n iterations (no convergence check); returns the
  /// current relative residual.
  double advance(std::size_t n);

  double residual() const { return residual_; }

  // ---- field access ----
  const Primitive& primitive(std::size_t i, std::size_t j) const {
    return w_[cidx(i, j)];
  }
  double pressure(std::size_t i, std::size_t j) const {
    return p_[cidx(i, j)];
  }
  double temperature(std::size_t i, std::size_t j) const;
  double mach(std::size_t i, std::size_t j) const;
  double internal_energy(std::size_t i, std::size_t j) const {
    return w_[cidx(i, j)][3];
  }

  const grid::StructuredGrid& grid() const { return grid_; }
  const core::GasModel& gas() const { return *gas_; }

  // ---- species field access (n_species() == 0 without a mechanism) ----
  std::size_t n_species() const { return ns_; }
  double species_mass_fraction(std::size_t s, std::size_t i,
                               std::size_t j) const {
    return ys_[s * u_.size() + cidx(i, j)];
  }
  /// Full mass-fraction plane of species s (cell index = i * nj + j).
  std::span<const double> species_plane(std::size_t s) const {
    return {ys_.data() + s * u_.size(), u_.size()};
  }

  /// Bow-shock detection: for each i-line, the j-index and physical
  /// location of the steepest inward pressure rise.
  struct ShockPoint {
    double x, r;
    std::size_t j;
  };
  std::vector<ShockPoint> shock_locations() const;

  /// Wall heat flux [W/m^2] per i-cell (viscous runs; Fourier at the wall
  /// with the constant-Pr model).
  std::vector<double> wall_heat_flux() const;

 private:
  const grid::StructuredGrid& grid_;
  std::shared_ptr<const core::GasModel> gas_;
  FvOptions opt_;
  FreeStream fs_{};

  std::vector<Conservative> u_;   // conservative states
  std::vector<Primitive> w_;      // primitive mirror [rho, u, v, e]
  std::vector<double> p_;         // cached cell pressures
  std::vector<Conservative> res_; // accumulated residuals
  // Per-iteration workspaces (workspace convention: preallocated once in
  // the constructor so the residual loop never allocates).
  std::vector<Conservative> u0_scratch_;  // stage-0 state of the RK2 update
  std::vector<double> dt_scratch_;        // per-cell local time steps
  double residual_ = 1.0, residual0_ = -1.0;
  std::size_t iter_count_ = 0;    // for the first-order startup phase
  bool second_order_now_ = true;
  double cfl_now_ = 0.4;

  std::size_t cidx(std::size_t i, std::size_t j) const {
    return i * grid_.nj() + j;
  }

  void decode_all();
  Primitive decode(const Conservative& c) const;
  Conservative encode(const Primitive& p) const;

  /// HLLE numerical flux through a face with area-weighted normal (nx,nr).
  Conservative hlle_flux(const Primitive& wl, const Primitive& wr, double nx,
                         double nr) const;

  /// Ghost states for each boundary.
  Primitive wall_ghost(const Primitive& inside, double nx, double nr) const;
  Primitive axis_ghost(const Primitive& inside) const;

  /// Face-sweep direction: kI walks the i-faces of a j-line (axis at
  /// q = 0, outflow at q = ni), kJ the j-faces of an i-line (wall at
  /// q = 0, freestream at q = nj).
  enum class Dir { kI, kJ };
  /// One grid line of a sweep: n cells, cell q at first + q * stride,
  /// faces q = 0..n (face q between cells q - 1 and q).
  struct Line {
    Dir dir;
    std::size_t index;  ///< j of an i-line sweep, i of a j-line sweep
    std::size_t first, stride, n;
    std::size_t cell(std::size_t q) const { return first + q * stride; }
  };
  Line line(Dir d, std::size_t index) const {
    if (d == Dir::kI) return {d, index, index, grid_.nj(), grid_.ni()};
    return {d, index, index * grid_.nj(), 1, grid_.nj()};
  }
  /// Area-weighted normal of face q of a line (pointing toward +q).
  std::array<double, 2> face_normal(const Line& l, std::size_t q) const;

  /// Dirichlet-mode stencil access along a sweep line: interior positions
  /// return the cell state, out-of-range positions return the exact hook
  /// state at a ghost center extrapolated from the two nearest interior
  /// centers (exact on the uniform verification grids).
  std::array<double, 2> mms_center(const Line& l, std::ptrdiff_t q) const;
  Primitive mms_state(const Line& l, std::ptrdiff_t q) const;

  void accumulate_fluxes();
  void accumulate_viscous();
  double local_dt(std::size_t i, std::size_t j) const;

  // ---- species transport (SoA planes, pitch = cell count; empty when no
  // mechanism is configured) ----
  std::size_t ns_ = 0;       ///< species count (0 = single fluid)
  std::vector<double> us_;          ///< conservative rho y_s
  std::vector<double> ys_;          ///< primitive mass fractions
  std::vector<double> res_s_;       ///< species residuals
  std::vector<double> us0_scratch_; ///< RK2 stage-0 species state
  std::vector<double> y_stencil_;   ///< 4 x ns face-stencil fractions
  std::vector<double> s_hook_;      ///< species_source hook output
  /// Finite-rate chemistry (engaged when the mechanism reacts).
  std::optional<chemistry::BatchEvaluator> chem_;
  std::vector<double> wdot_;        ///< finite-rate sources [kg/(m^3 s)]
  std::vector<double> damp_;        ///< point-implicit factors 1/(1+dt L)
  std::vector<double> chem_rho_;    ///< contiguous rho for the batch kernel
  std::vector<double> chem_t_;      ///< contiguous T for the batch kernel

  void decode_species();
  /// Batched finite-rate sources + point-implicit damping factors from the
  /// current field (lagged one iteration — steady-state consistent).
  void update_chemistry_source(const std::vector<double>& dts);
  /// Species upwind flux through face q of a line, riding on the HLLE
  /// mass flux f0.
  void species_face(const Line& l, std::size_t q, double f0);
};

}  // namespace cat::solvers
