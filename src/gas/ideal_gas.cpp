#include "gas/ideal_gas.hpp"

#include <cmath>

#include "core/error.hpp"

namespace cat::gas {

IdealGas::IdealGas(double gamma, double r) : gamma_(gamma), r_(r) {
  CAT_REQUIRE(gamma > 1.0, "gamma must exceed 1");
  CAT_REQUIRE(r > 0.0, "gas constant must be positive");
}

double IdealGas::pressure(double rho, double e) const {
  return (gamma_ - 1.0) * rho * e;
}

double IdealGas::internal_energy(double rho, double p) const {
  return p / ((gamma_ - 1.0) * rho);
}

double IdealGas::temperature(double rho, double p) const {
  return p / (rho * r_);
}

double IdealGas::sound_speed(double rho, double p) const {
  return std::sqrt(gamma_ * p / rho);
}

}  // namespace cat::gas
