#pragma once
/// \file workspace.hpp
/// Preallocated scratch state for the zero-allocation chemistry hot path.
///
/// Workspace-parameter convention (used across chemistry/, numerics/ode,
/// the reactor RHS closures and the shock-tube relaxation): every hot-path
/// kernel takes a caller-owned workspace that holds all per-call
/// temporaries — there is no workspace-free form — so repeated evaluation
/// performs zero heap allocations. The workspace also memoizes
/// temperature-keyed intermediates — per-species Gibbs energies and
/// per-reaction forward/backward rate coefficients depend only on (T, Tv),
/// so re-evaluations at an unchanged temperature (every species column of a
/// finite-difference Jacobian, every cell of an isothermal sweep) skip all
/// transcendental work. A Workspace is bound to one Mechanism at a time and
/// rebinding (or a first use) resizes buffers and invalidates the caches.
/// Workspaces are not thread-safe; use one per thread.

#include <cstdint>
#include <vector>

namespace cat::chemistry {

class Mechanism;

struct Workspace {
  /// Size buffers for \p m and invalidate caches if not already bound to
  /// it. Cheap (two comparisons) when already bound.
  void bind(const Mechanism& m);

  // --- per-species buffers (size n_species after bind) ---
  std::vector<double> c;          ///< molar concentrations [mol/m^3]
  std::vector<double> wdot_mole;  ///< molar production rates [mol/(m^3 s)];
                                  ///< left holding the latest kernel result
  std::vector<double> gibbs_t;    ///< g_s(T, p_ref) [J/mol]
  std::vector<double> gibbs_tv;   ///< g_s(Tv, p_ref) (electron-impact paths)
  std::vector<double> vib_e;      ///< vibronic energy at Tv [J/mol]

  // --- per-reaction buffers (size n_reactions after bind) ---
  std::vector<double> kf;  ///< forward rate coefficients
  std::vector<double> kb;  ///< backward rate coefficients

  // --- memo keys (negative = invalid) ---
  double gibbs_t_key = -1.0;
  double gibbs_tv_key = -1.0;
  double rate_t_key = -1.0;
  double rate_tv_key = -1.0;
  double vib_e_key = -1.0;

 private:
  /// Identity of the bound mechanism (serial number, not address, so a
  /// mechanism reallocated at a stale address can't hit a stale cache).
  std::uint64_t bound_serial_ = 0;
};

}  // namespace cat::chemistry
