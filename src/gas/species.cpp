#include "gas/species.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "gas/constants.hpp"
#include "gas/thermo.hpp"

namespace cat::gas {

namespace {

constexpr std::size_t kN = static_cast<std::size_t>(Element::kN);
constexpr std::size_t kO = static_cast<std::size_t>(Element::kO);
constexpr std::size_t kC = static_cast<std::size_t>(Element::kC);
constexpr std::size_t kH = static_cast<std::size_t>(Element::kH);
constexpr std::size_t kAr = static_cast<std::size_t>(Element::kAr);
constexpr std::size_t kQ = static_cast<std::size_t>(Element::kCharge);

std::array<int, kNumElements> comp(int n, int o, int c, int h, int ar, int q) {
  std::array<int, kNumElements> a{};
  a[kN] = n;
  a[kO] = o;
  a[kC] = c;
  a[kH] = h;
  a[kAr] = ar;
  a[kQ] = q;
  return a;
}

Species atom(std::string name, double m, int n, int o, int c, int h, int ar,
             int q, std::vector<ElectronicLevel> el, double hf,
             std::optional<BlottnerFit> blot = std::nullopt,
             double d = 3.0e-10) {
  Species s;
  s.name = std::move(name);
  s.molar_mass = m;
  s.charge = q;
  s.rotor = RotorType::kAtom;
  s.composition = comp(n, o, c, h, ar, q);
  s.electronic = std::move(el);
  s.h_formation_298 = hf;
  s.blottner = blot;
  s.hs_diameter = d;
  return s;
}

Species diatomic(std::string name, double m, int n, int o, int c, int h, int q,
                 double theta_r, int sigma, double theta_v,
                 std::vector<ElectronicLevel> el, double hf,
                 std::optional<BlottnerFit> blot = std::nullopt,
                 double d = 3.7e-10) {
  Species s;
  s.name = std::move(name);
  s.molar_mass = m;
  s.charge = q;
  s.rotor = RotorType::kLinear;
  s.composition = comp(n, o, c, h, 0, q);
  s.theta_rot = {theta_r, 0.0, 0.0};
  s.symmetry = sigma;
  s.vib = {{theta_v, 1}};
  s.electronic = std::move(el);
  s.h_formation_298 = hf;
  s.blottner = blot;
  s.hs_diameter = d;
  return s;
}

Species linear_poly(std::string name, double m, int n, int o, int c, int h,
                    double theta_r, int sigma, std::vector<VibMode> vib,
                    std::vector<ElectronicLevel> el, double hf,
                    double d = 4.2e-10) {
  Species s;
  s.name = std::move(name);
  s.molar_mass = m;
  s.charge = 0;
  s.rotor = RotorType::kLinear;
  s.composition = comp(n, o, c, h, 0, 0);
  s.theta_rot = {theta_r, 0.0, 0.0};
  s.symmetry = sigma;
  s.vib = std::move(vib);
  s.electronic = std::move(el);
  s.h_formation_298 = hf;
  s.hs_diameter = d;
  return s;
}

Species nonlinear_poly(std::string name, double m, int n, int o, int c, int h,
                       std::array<double, 3> theta_abc, int sigma,
                       std::vector<VibMode> vib,
                       std::vector<ElectronicLevel> el, double hf,
                       double d = 4.0e-10) {
  Species s;
  s.name = std::move(name);
  s.molar_mass = m;
  s.charge = 0;
  s.rotor = RotorType::kNonlinear;
  s.composition = comp(n, o, c, h, 0, 0);
  s.theta_rot = theta_abc;
  s.symmetry = sigma;
  s.vib = std::move(vib);
  s.electronic = std::move(el);
  s.h_formation_298 = hf;
  s.hs_diameter = d;
  return s;
}

}  // namespace

SpeciesDatabase::SpeciesDatabase() {
  using EL = std::vector<ElectronicLevel>;
  // ----- air neutrals -------------------------------------------------
  species_.push_back(diatomic(
      "N2", 28.0134e-3, 2, 0, 0, 0, 0, /*theta_r=*/2.875, 2,
      /*theta_v=*/3395.0,
      EL{{1, 0.0}, {3, 72231.6}, {6, 85778.9}}, 0.0,
      BlottnerFit{0.0268142, 0.3177838, -11.3155513}, 3.75e-10));
  species_.push_back(diatomic(
      "O2", 31.9988e-3, 0, 2, 0, 0, 0, 2.080, 2, 2239.0,
      EL{{3, 0.0}, {2, 11392.0}, {1, 18985.0}, {3, 71641.0}}, 0.0,
      BlottnerFit{0.0449290, -0.0826158, -9.2019475}, 3.55e-10));
  species_.push_back(diatomic(
      "NO", 30.0061e-3, 1, 1, 0, 0, 0, 2.452, 1, 2817.0,
      EL{{4, 0.0}, {8, 63270.0}}, 90250.0,
      BlottnerFit{0.0436378, -0.0335511, -9.5767430}, 3.60e-10));
  species_.push_back(atom(
      "N", 14.0067e-3, 1, 0, 0, 0, 0, 0,
      EL{{4, 0.0}, {10, 27664.7}, {6, 41494.0}}, 472680.0,
      BlottnerFit{0.0115572, 0.6031679, -12.4327495}, 3.0e-10));
  species_.push_back(atom(
      "O", 15.9994e-3, 0, 1, 0, 0, 0, 0,
      EL{{5, 0.0}, {3, 227.8}, {1, 326.6}, {5, 22830.0}, {1, 48621.0}},
      249175.0, BlottnerFit{0.0203144, 0.4294404, -11.6031403}, 2.9e-10));
  // ----- air ions + electron ------------------------------------------
  // Formation enthalpies use the stationary-electron convention:
  // Delta_h_f(ion) = Delta_h_f(neutral) + first ionization energy.
  constexpr double kMe = constants::kElectronMassKgPerMol;
  species_.push_back(diatomic(
      "N2+", 28.0134e-3 - kMe, 2, 0, 0, 0, 1, 2.80, 2, 3175.0,
      EL{{2, 0.0}, {4, 13190.0}, {2, 36786.0}}, 1503300.0,
      BlottnerFit{0.0268142, 0.3177838, -11.3155513}, 3.75e-10));
  species_.push_back(diatomic(
      "O2+", 31.9988e-3 - kMe, 0, 2, 0, 0, 1, 2.43, 2, 2741.0,
      EL{{4, 0.0}, {8, 47354.0}}, 1164600.0,
      BlottnerFit{0.0449290, -0.0826158, -9.2019475}, 3.55e-10));
  species_.push_back(diatomic(
      "NO+", 30.0061e-3 - kMe, 1, 1, 0, 0, 1, 2.87, 1, 3419.0,
      EL{{1, 0.0}, {3, 75089.0}}, 984250.0,
      BlottnerFit{0.0436378, -0.0335511, -9.5767430}, 3.60e-10));
  species_.push_back(atom(
      "N+", 14.0067e-3 - kMe, 1, 0, 0, 0, 0, 1,
      EL{{9, 0.0}, {5, 22037.0}, {1, 47032.0}}, 1875000.0,
      BlottnerFit{0.0115572, 0.6031679, -12.4327495}, 3.0e-10));
  species_.push_back(atom(
      "O+", 15.9994e-3 - kMe, 0, 1, 0, 0, 0, 1,
      EL{{4, 0.0}, {10, 38575.0}, {6, 58226.0}}, 1563100.0,
      BlottnerFit{0.0203144, 0.4294404, -11.6031403}, 2.9e-10));
  species_.push_back(atom(
      "e-", kMe, 0, 0, 0, 0, 0, -1, EL{{2, 0.0}}, 0.0, std::nullopt,
      1.0e-12));
  // ----- Titan entry gas (N2/CH4, Ref. 15) ----------------------------
  species_.push_back(nonlinear_poly(
      "CH4", 16.0425e-3, 0, 0, 1, 4, {7.54, 7.54, 7.54}, 12,
      {{4196.0, 1}, {2207.0, 2}, {4343.0, 3}, {1879.0, 3}},
      EL{{1, 0.0}}, -74600.0, 3.8e-10));
  species_.push_back(nonlinear_poly(
      "CH3", 15.0345e-3, 0, 0, 1, 3, {13.77, 13.77, 6.82}, 6,
      {{4322.0, 1}, {872.0, 1}, {4548.0, 2}, {2009.0, 2}},
      EL{{2, 0.0}}, 145690.0, 3.8e-10));
  species_.push_back(diatomic(
      "CH", 13.0186e-3, 0, 0, 1, 1, 0, 20.81, 1, 4114.0,
      EL{{4, 0.0}, {4, 8586.0}}, 594130.0, std::nullopt, 3.1e-10));
  species_.push_back(linear_poly(
      "C2H2", 26.0373e-3, 0, 0, 2, 2, 1.693, 2,
      {{4855.0, 1}, {2840.0, 1}, {4732.0, 1}, {881.0, 2}, {1050.0, 2}},
      EL{{1, 0.0}}, 228200.0, 4.1e-10));
  species_.push_back(linear_poly(
      "C2H", 25.0293e-3, 0, 0, 2, 1, 2.096, 1,
      {{4745.0, 1}, {2649.0, 1}, {535.0, 2}},
      EL{{2, 0.0}}, 568000.0, 4.0e-10));
  species_.push_back(diatomic(
      "H2", 2.01588e-3, 0, 0, 0, 2, 0, 87.55, 2, 6332.0,
      EL{{1, 0.0}}, 0.0, std::nullopt, 2.9e-10));
  species_.push_back(atom(
      "H", 1.00794e-3, 0, 0, 0, 1, 0, 0, EL{{2, 0.0}}, 217998.0,
      std::nullopt, 2.5e-10));
  species_.push_back(atom(
      "C", 12.0107e-3, 0, 0, 1, 0, 0, 0,
      EL{{1, 0.0}, {3, 23.6}, {5, 62.4}, {5, 14665.0}, {1, 31147.0}},
      716680.0, std::nullopt, 3.0e-10));
  species_.push_back(diatomic(
      "CN", 26.0174e-3, 1, 0, 1, 0, 0, 2.734, 1, 2976.0,
      EL{{2, 0.0}, {4, 13296.0}, {2, 37060.0}}, 435100.0, std::nullopt,
      3.7e-10));
  species_.push_back(linear_poly(
      "HCN", 27.0253e-3, 1, 0, 1, 1, 2.127, 1,
      {{4764.0, 1}, {1024.0, 2}, {3017.0, 1}},
      EL{{1, 0.0}}, 135100.0, 4.0e-10));
  species_.push_back(diatomic(
      "C2", 24.0214e-3, 0, 0, 2, 0, 0, 2.61, 2, 2669.0,
      EL{{1, 0.0}, {6, 1030.0}, {6, 28807.0}}, 831500.0, std::nullopt,
      3.6e-10));
  species_.push_back(linear_poly(
      "C3", 36.0321e-3, 0, 0, 3, 0, 0.619, 2,
      {{1761.0, 1}, {91.0, 2}, {2935.0, 1}},
      EL{{1, 0.0}}, 839900.0, 4.3e-10));
  species_.push_back(diatomic(
      "NH", 15.0146e-3, 1, 0, 0, 1, 0, 23.99, 1, 4722.0,
      EL{{3, 0.0}}, 352100.0, std::nullopt, 3.1e-10));
  species_.push_back(atom(
      "Ar", 39.948e-3, 0, 0, 0, 0, 1, 0, EL{{1, 0.0}}, 0.0, std::nullopt,
      3.4e-10));
  CAT_REQUIRE(species_.size() == kNumDatabaseSpecies,
              "kNumDatabaseSpecies must match the database");
  const double t_ref = constants::kTemperatureRef;
  for (Species& s : species_)
    s.h_thermal_298 =
        internal_energy_thermal(s, t_ref) + constants::kRu * t_ref;
}

const SpeciesDatabase& SpeciesDatabase::instance() {
  static const SpeciesDatabase db;
  return db;
}

std::size_t SpeciesDatabase::index(std::string_view name) const {
  for (std::size_t i = 0; i < species_.size(); ++i)
    if (species_[i].name == name) return i;
  throw std::invalid_argument("unknown species: " + std::string(name));
}

std::size_t SpeciesSet::local_index(std::string_view name) const {
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return i;
  throw std::invalid_argument("species not in set: " + std::string(name));
}

bool SpeciesSet::contains(std::string_view name) const {
  return std::any_of(names.begin(), names.end(),
                     [&](const std::string& n) { return n == name; });
}

namespace {
SpeciesSet make_set(std::vector<std::string> names) {
  const auto& db = SpeciesDatabase::instance();
  SpeciesSet set;
  set.names = std::move(names);
  set.db_index.reserve(set.names.size());
  for (const auto& n : set.names) set.db_index.push_back(db.index(n));
  return set;
}
}  // namespace

SpeciesSet make_air5() { return make_set({"N2", "O2", "NO", "N", "O"}); }

SpeciesSet make_air9() {
  return make_set({"N2", "O2", "NO", "N", "O", "NO+", "N+", "O+", "e-"});
}

SpeciesSet make_air11() {
  return make_set({"N2", "O2", "NO", "N", "O", "N2+", "O2+", "NO+", "N+",
                   "O+", "e-"});
}

SpeciesSet make_titan() {
  return make_set({"N2", "CH4", "CH3", "CH", "C2H2", "C2H", "H2", "H", "C",
                   "N", "CN", "HCN", "C2", "C3", "NH", "Ar"});
}

std::array<double, kNumElements> element_moles_per_kg(
    const std::vector<std::pair<std::string, double>>& mole_fractions) {
  const auto& db = SpeciesDatabase::instance();
  double mbar = 0.0;  // mean molar mass [kg/mol]
  for (const auto& [name, x] : mole_fractions) {
    CAT_REQUIRE(x >= 0.0, "negative mole fraction");
    mbar += x * db.find(name).molar_mass;
  }
  CAT_REQUIRE(mbar > 0.0, "empty mixture");
  std::array<double, kNumElements> b{};
  for (const auto& [name, x] : mole_fractions) {
    const Species& s = db.find(name);
    for (std::size_t e = 0; e < kNumElements; ++e)
      b[e] += x * s.composition[e] / mbar;
  }
  return b;
}

}  // namespace cat::gas
