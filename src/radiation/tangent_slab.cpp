#include "radiation/tangent_slab.hpp"

#include <cmath>

#include "core/error.hpp"
#include "numerics/quadrature.hpp"

namespace cat::radiation {

using numerics::expint_en;

SlabResult solve_tangent_slab(const SpectralGrid& grid,
                              std::span<const SlabLayer> layers) {
  CAT_REQUIRE(!layers.empty(), "empty slab");
  const std::size_t nb = grid.size();
  for (const auto& layer : layers) {
    CAT_REQUIRE(layer.j.size() == nb && layer.kappa.size() == nb,
                "layer spectrum size mismatch");
    CAT_REQUIRE(layer.thickness > 0.0, "non-positive layer thickness");
  }

  SlabResult out;
  out.q_lambda.assign(nb, 0.0);
  out.i_normal.assign(nb, 0.0);

  // Per wavelength bin: march from the wall outward accumulating optical
  // depth. Each homogeneous layer contributes its formal-solution integral
  // exactly: with source function S = j/kappa,
  //   flux moment:  2 pi S [E3(tau_in) - E3(tau_out)]   (dE3/dt = -E2)
  //   normal ray:       S [exp(-tau_in) - exp(-tau_out)]
  // and the optically thin limit (kappa -> 0) reduces to j dz weighting.
  for (std::size_t k = 0; k < nb; ++k) {
    double tau = 0.0;
    double q = 0.0, inorm = 0.0;
    for (const auto& layer : layers) {
      const double dtau = layer.kappa[k] * layer.thickness;
      if (dtau > 1e-6) {
        const double s_fn = layer.j[k] / layer.kappa[k];
        const double tau_out = tau + dtau;
        q += 2.0 * M_PI * s_fn *
             (expint_en(3, tau) - expint_en(3, tau_out));
        inorm += s_fn * (std::exp(-std::min(tau, 700.0)) -
                         std::exp(-std::min(tau_out, 700.0)));
      } else {
        // Optically thin layer: first-order in dtau, exact as kappa -> 0.
        const double tau_mid = tau + 0.5 * dtau;
        q += 2.0 * M_PI * layer.j[k] * expint_en(2, tau_mid) *
             layer.thickness;
        inorm += layer.j[k] * std::exp(-tau_mid) * layer.thickness;
      }
      tau += dtau;
    }
    out.q_lambda[k] = q;
    out.i_normal[k] = inorm;
  }

  double total = 0.0;
  for (double q : out.q_lambda) total += q;
  out.q_wall = total * grid.d_lambda();
  return out;
}

double optically_thin_wall_flux(const SpectralGrid& grid,
                                std::span<const SlabLayer> layers) {
  double total = 0.0;
  for (const auto& layer : layers) {
    double acc = 0.0;
    for (double j : layer.j) acc += j;
    total += 2.0 * M_PI * acc * layer.thickness;
  }
  return total * grid.d_lambda();
}

}  // namespace cat::radiation
