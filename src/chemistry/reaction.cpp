#include "chemistry/reaction.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo.hpp"

namespace cat::chemistry {

using gas::constants::kPressureRef;
using gas::constants::kRu;

namespace {

/// Integer power by repeated multiplication (|dnu| is 0..2 in practice).
double pow_int(double base, int e) {
  if (e == 0) return 1.0;
  const bool neg = e < 0;
  double r = 1.0;
  for (int k = neg ? -e : e; k > 0; --k) r *= base;
  return neg ? 1.0 / r : r;
}

}  // namespace

int Reaction::delta_nu() const {
  int d = 0;
  for (const auto& s : products) d += s.nu;
  for (const auto& s : reactants) d -= s.nu;
  return d;
}

void Workspace::bind(const Mechanism& m) {
  if (bound_serial_ == m.serial_) return;
  bound_serial_ = m.serial_;
  const std::size_t ns = m.n_species(), nr = m.n_reactions();
  // resize (not assign): rebinding to an equal-sized mechanism must not
  // clobber buffer contents — a caller may legitimately hold a span into
  // e.g. wdot_mole across the bind (vibronic_source_from_rates pattern).
  c.resize(ns);
  wdot_mole.resize(ns);
  gibbs_t.resize(ns);
  gibbs_tv.resize(ns);
  vib_e.resize(ns);
  kf.resize(nr);
  kb.resize(nr);
  gibbs_t_key = gibbs_tv_key = rate_t_key = rate_tv_key = vib_e_key = -1.0;
}

namespace {
std::uint64_t next_mechanism_serial() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}
}  // namespace

Mechanism::Mechanism(gas::SpeciesSet set, std::vector<Reaction> reactions)
    : set_(std::move(set)),
      mix_(set_),
      reactions_(std::move(reactions)),
      serial_(next_mechanism_serial()) {
  for (const auto& r : reactions_) {
    for (const auto& st : r.reactants)
      CAT_REQUIRE(st.species < set_.size() && st.nu > 0, "bad reactant");
    for (const auto& st : r.products)
      CAT_REQUIRE(st.species < set_.size() && st.nu > 0, "bad product");
    if (r.has_third_body)
      CAT_REQUIRE(r.third_body_efficiency.size() == set_.size(),
                  "third-body efficiency size mismatch");
    CAT_REQUIRE(r.arrhenius_a > 0.0, "non-positive pre-exponential");
    // Element balance check: production must conserve every element.
    std::array<int, gas::kNumElements> bal{};
    for (const auto& st : r.reactants)
      for (std::size_t e = 0; e < gas::kNumElements; ++e)
        bal[e] -= st.nu * set_.species(st.species).composition[e];
    for (const auto& st : r.products)
      for (std::size_t e = 0; e < gas::kNumElements; ++e)
        bal[e] += st.nu * set_.species(st.species).composition[e];
    for (std::size_t e = 0; e < gas::kNumElements; ++e)
      CAT_REQUIRE(bal[e] == 0, "reaction does not conserve elements: " + r.label);
  }
  // Constants for the workspace kernels: per-species Gibbs constants at the
  // detailed-balance reference pressure, molar masses, per-reaction
  // log-space Arrhenius prefactors and mole changes.
  gibbs_const_.reserve(set_.size());
  molar_mass_.reserve(set_.size());
  inv_molar_mass_.reserve(set_.size());
  molecule_mask_.reserve(set_.size());
  for (std::size_t s = 0; s < set_.size(); ++s) {
    const gas::Species& sp = set_.species(s);
    gibbs_const_.push_back(gas::make_gibbs_constants(sp, kPressureRef));
    molar_mass_.push_back(sp.molar_mass);
    inv_molar_mass_.push_back(1.0 / sp.molar_mass);
    molecule_mask_.push_back(sp.is_molecule() ? 1 : 0);
  }
  log_a_.reserve(reactions_.size());
  delta_nu_.reserve(reactions_.size());
  for (const auto& r : reactions_) {
    log_a_.push_back(std::log(r.arrhenius_a));
    delta_nu_.push_back(r.delta_nu());
  }
}

double Mechanism::forward_rate(std::size_t r, double t, double tv) const {
  const Reaction& rx = reactions_[r];
  double tc = t;
  switch (rx.type) {
    case ReactionType::kDissociation:
      tc = std::sqrt(t * tv);  // Park's geometric-mean controlling T
      break;
    case ReactionType::kElectronImpact:
      tc = tv;
      break;
    case ReactionType::kExchange:
    case ReactionType::kAssociativeIonization:
      tc = t;
      break;
  }
  tc = std::max(tc, 50.0);
  // Log-space Arrhenius: one exp instead of pow + exp.
  return std::exp(log_a_[r] + rx.arrhenius_n * std::log(tc) - rx.theta / tc);
}

void Mechanism::update_gibbs(std::vector<double>& g, double& key,
                             double t) const {
  if (key == t) return;
  for (std::size_t s = 0; s < g.size(); ++s)
    g[s] = gas::gibbs_mole_fast(set_.species(s), gibbs_const_[s], t);
  key = t;
}

double Mechanism::equilibrium_constant(std::size_t r, double t) const {
  const Reaction& rx = reactions_[r];
  double dg = 0.0;
  for (const auto& st : rx.products)
    dg += st.nu * gas::gibbs_mole_fast(set_.species(st.species),
                                       gibbs_const_[st.species], t);
  for (const auto& st : rx.reactants)
    dg -= st.nu * gas::gibbs_mole_fast(set_.species(st.species),
                                       gibbs_const_[st.species], t);
  const double kp = std::exp(std::clamp(-dg / (kRu * t), -300.0, 300.0));
  // K_c = K_p (p_ref / Ru T)^dnu with concentrations in mol/m^3.
  return kp * pow_int(kPressureRef / (kRu * t), delta_nu_[r]);
}

double Mechanism::backward_rate(std::size_t r, double t, double tv) const {
  // Detailed balance at the controlling temperature of the reverse path.
  // Reverse of electron-impact ionization (three-body recombination) is
  // electron-driven -> evaluate K_c at Tv; all others at T.
  const Reaction& rx = reactions_[r];
  const double tb =
      rx.type == ReactionType::kElectronImpact ? std::max(tv, 50.0) : t;
  // k_f at the backward controlling temperature (not the mixed forward
  // controlling temperature) so that kf/kb = K_c holds exactly at thermal
  // equilibrium.
  const double tbc = std::max(tb, 50.0);
  const double kf_at_tb =
      std::exp(log_a_[r] + rx.arrhenius_n * std::log(tbc) - rx.theta / tbc);
  const double kc = equilibrium_constant(r, tb);
  if (kc <= 0.0) return 0.0;
  return kf_at_tb / kc;
}

void Mechanism::update_rate_coefficients(Workspace& ws, double t,
                                         double tv) const {
  // NOTE: this hoisted-batch kernel must stay numerically consistent with
  // the scalar forward_rate/backward_rate/equilibrium_constant entry points
  // above — same controlling-temperature selection, clamps and
  // detailed-balance temperatures. The agreement is pinned by
  // ChemistryGolden.KernelMatchesScalarRateAssembly; touch both paths (and
  // that test) together when changing the rate model.
  if (ws.rate_t_key == t && ws.rate_tv_key == tv) return;

  // Per-species Gibbs at T, computed once per call (all backward paths
  // except electron impact balance at T).
  update_gibbs(ws.gibbs_t, ws.gibbs_t_key, t);

  const double t_cl = std::max(t, 50.0);
  const double log_t = std::log(t_cl);
  const double inv_t = 1.0 / t_cl;
  // Lazily computed controlling-temperature logs shared by all reactions of
  // the same class.
  double log_tc_d = 0.0, inv_tc_d = 0.0;
  bool have_diss = false;
  double tv_cl = 0.0, log_tv = 0.0, inv_tv = 0.0;
  bool have_tv = false;

  const double conc_ref_t = kPressureRef / (kRu * t);

  for (std::size_t r = 0; r < reactions_.size(); ++r) {
    const Reaction& rx = reactions_[r];
    double kf_tb;           // forward rate at the backward controlling T
    double tb;              // backward controlling temperature
    const std::vector<double>* g = &ws.gibbs_t;
    double conc_ref = conc_ref_t;

    switch (rx.type) {
      case ReactionType::kDissociation: {
        if (!have_diss) {
          const double tc = std::max(std::sqrt(t * tv), 50.0);
          log_tc_d = std::log(tc);
          inv_tc_d = 1.0 / tc;
          have_diss = true;
        }
        ws.kf[r] =
            std::exp(log_a_[r] + rx.arrhenius_n * log_tc_d - rx.theta * inv_tc_d);
        kf_tb =
            std::exp(log_a_[r] + rx.arrhenius_n * log_t - rx.theta * inv_t);
        tb = t;
        break;
      }
      case ReactionType::kElectronImpact: {
        if (!have_tv) {
          tv_cl = std::max(tv, 50.0);
          log_tv = std::log(tv_cl);
          inv_tv = 1.0 / tv_cl;
          update_gibbs(ws.gibbs_tv, ws.gibbs_tv_key, tv_cl);
          have_tv = true;
        }
        ws.kf[r] =
            std::exp(log_a_[r] + rx.arrhenius_n * log_tv - rx.theta * inv_tv);
        kf_tb = ws.kf[r];
        tb = tv_cl;
        g = &ws.gibbs_tv;
        conc_ref = kPressureRef / (kRu * tv_cl);
        break;
      }
      case ReactionType::kExchange:
      case ReactionType::kAssociativeIonization:
      default: {
        ws.kf[r] =
            std::exp(log_a_[r] + rx.arrhenius_n * log_t - rx.theta * inv_t);
        kf_tb = ws.kf[r];
        tb = t;
        break;
      }
    }

    double dg = 0.0;
    for (const auto& st : rx.products) dg += st.nu * (*g)[st.species];
    for (const auto& st : rx.reactants) dg -= st.nu * (*g)[st.species];
    const double kp = std::exp(std::clamp(-dg / (kRu * tb), -300.0, 300.0));
    const double kc = kp * pow_int(conc_ref, delta_nu_[r]);
    ws.kb[r] = kc > 0.0 ? kf_tb / kc : 0.0;
  }
  ws.rate_t_key = t;
  ws.rate_tv_key = tv;
}

void Mechanism::production_rates(std::span<const double> c, double t,
                                 double tv, std::span<double> wdot,
                                 Workspace& ws) const {
  CAT_REQUIRE(c.size() == n_species() && wdot.size() == n_species(),
              "size mismatch");
  ws.bind(*this);
  update_rate_coefficients(ws, t, tv);

  std::fill(wdot.begin(), wdot.end(), 0.0);
  for (std::size_t r = 0; r < reactions_.size(); ++r) {
    const Reaction& rx = reactions_[r];
    double fwd = ws.kf[r], bwd = ws.kb[r];
    for (const auto& st : rx.reactants)
      for (int k = 0; k < st.nu; ++k) fwd *= std::max(c[st.species], 0.0);
    for (const auto& st : rx.products)
      for (int k = 0; k < st.nu; ++k) bwd *= std::max(c[st.species], 0.0);

    double rate = fwd - bwd;
    if (rx.has_third_body) {
      double cm = 0.0;
      const double* eff = rx.third_body_efficiency.data();
      for (std::size_t s = 0; s < c.size(); ++s)
        cm += eff[s] * std::max(c[s], 0.0);
      rate *= cm;
    }
    for (const auto& st : rx.reactants) wdot[st.species] -= st.nu * rate;
    for (const auto& st : rx.products) wdot[st.species] += st.nu * rate;
  }
}

void Mechanism::mass_production_rates(double rho, std::span<const double> y,
                                      double t, double tv,
                                      std::span<double> wdot_mass,
                                      Workspace& ws) const {
  CAT_REQUIRE(y.size() == n_species() && wdot_mass.size() == n_species(),
              "size mismatch");
  ws.bind(*this);
  for (std::size_t s = 0; s < n_species(); ++s)
    ws.c[s] = rho * y[s] * inv_molar_mass_[s];
  production_rates(ws.c, t, tv, ws.wdot_mole, ws);
  for (std::size_t s = 0; s < n_species(); ++s)
    wdot_mass[s] = ws.wdot_mole[s] * molar_mass_[s];
}

void Mechanism::update_vibronic_energies(Workspace& ws, double tv) const {
  if (ws.vib_e_key == tv) return;
  for (std::size_t s = 0; s < n_species(); ++s) {
    const gas::Species& sp = set_.species(s);
    ws.vib_e[s] = sp.is_electron() ? 0.0 : gas::vibronic_energy_mole(sp, tv);
  }
  ws.vib_e_key = tv;
}

double Mechanism::vibronic_source_from_rates(std::span<const double> wdot_mole,
                                             double tv, Workspace& ws) const {
  CAT_REQUIRE(wdot_mole.size() == n_species(), "size mismatch");
  ws.bind(*this);
  update_vibronic_energies(ws, tv);
  double q = 0.0;
  for (std::size_t s = 0; s < n_species(); ++s) {
    if (!molecule_mask_[s]) continue;
    // Molecules appear/disappear carrying the prevailing vibronic energy.
    q += wdot_mole[s] * ws.vib_e[s];
  }
  return q;
}

double Mechanism::chemistry_vibronic_source(std::span<const double> c,
                                            double t, double tv,
                                            Workspace& ws) const {
  ws.bind(*this);
  production_rates(c, t, tv, ws.wdot_mole, ws);
  return vibronic_source_from_rates(ws.wdot_mole, tv, ws);
}

}  // namespace cat::chemistry
