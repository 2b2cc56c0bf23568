#pragma once
/// \file thermo_batch.hpp
/// SoA batch evaluation of the RRHO thermodynamic functions.
///
/// Each kernel evaluates one species over a contiguous block of
/// temperatures per call instead of re-dispatching the scalar entry point
/// per cell. The per-cell arithmetic replicates the scalar functions
/// operation for operation (shared helpers in thermo_detail.hpp), so the
/// results are bitwise identical to the scalar path for every block size —
/// the contract the finite-volume chemistry coupling and its verification
/// studies rely on (pinned by the BatchEquivalence tests).
///
/// Layout rules for auto-vectorization: all spans are contiguous, outputs
/// never alias inputs, and the surrounding polynomial work is a plain
/// indexed loop. The transcendental calls themselves remain scalar libm
/// calls (vector math libraries round differently, which would break the
/// bitwise contract); the win is hoisting the shared log(T), the dispatch
/// and the cache traffic out of the per-cell path.

#include <span>

#include "gas/species.hpp"
#include "gas/thermo.hpp"

namespace cat::gas {

/// out[i] = gibbs_mole_fast(s, gc, t[i]) with the per-cell log(t[i])
/// precomputed by the caller (one log per cell shared across all species
/// of a mixture, instead of one per species per cell). log_t[i] must equal
/// std::log(t[i]) bitwise.
void gibbs_mole_fast_batch(const Species& s, const GibbsConstants& gc,
                           std::span<const double> t,
                           std::span<const double> log_t,
                           std::span<double> out);

/// out[i] = cp_mole(s, t[i]), bitwise.
void cp_mole_batch(const Species& s, std::span<const double> t,
                   std::span<double> out);

/// out[i] = enthalpy_mole(s, t[i]), bitwise.
void enthalpy_mole_batch(const Species& s, std::span<const double> t,
                         std::span<double> out);

}  // namespace cat::gas
