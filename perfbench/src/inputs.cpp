#include "inputs.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

double Rng::stratum(double lo, double hi, std::size_t i, std::size_t n) {
  const double w = (hi - lo) / static_cast<double>(n);
  return uniform(lo + w * static_cast<double>(i),
                 lo + w * static_cast<double>(i + 1));
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  Rng r(seed ^ (a * 0x9e3779b97f4a7c15ull) ^ (b * 0xc2b2ae3d27d4eb4full));
  r.next();
  return r.next();
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char* expected_tier(Kind k) {
  switch (k) {
    case Kind::kHot:
    case Kind::kFreshSurrogate:
    case Kind::kCoalesce: return "surrogate";
    case Kind::kCorrelation:
    case Kind::kOffTable: return "correlation";
    case Kind::kSolve: return "solve";
  }
  return "";
}

namespace {

// The committed table (data/shuttle_stag_point.surrogate.bin) spans
// v in [3000, 7500] m/s and altitude in [45, 75] km. On-table queries keep
// a margin inside it; off-table ones lie above its velocity edge, where
// the server falls through to the correlation tier.
constexpr const char* kScenario = "shuttle_stag_point";

// Full solves, in the service and in the sweep grid, span this range.
constexpr double kSolveVelocity[2] = {4500.0, 7800.0};
constexpr double kSolveAltitude[2] = {50000.0, 80000.0};

std::string format_line(double v, double alt, const char* tier) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "query %s v=%.3f alt=%.1f%s", kScenario, v,
                alt, tier);
  return buf;
}

std::string query_line(Rng& r, Kind kind) {
  double v = 0.0, alt = 0.0;
  const char* tier = "";
  switch (kind) {
    case Kind::kHot:
    case Kind::kFreshSurrogate:
    case Kind::kCoalesce:
      v = r.uniform(3100.0, 7400.0);
      alt = r.uniform(46000.0, 74000.0);
      break;
    case Kind::kCorrelation:
      v = r.uniform(3000.0, 8500.0);
      alt = r.uniform(40000.0, 90000.0);
      tier = " tier=correlation";
      break;
    case Kind::kOffTable:
      v = r.uniform(7600.0, 8500.0);
      alt = r.uniform(45000.0, 90000.0);
      break;
    case Kind::kSolve:
      throw std::logic_error("solve lines come from solve_lines()");
  }
  return format_line(v, alt, tier);
}

/// The kSolvePerBlock solve lines of one client's block, drawn as a Latin
/// hypercube over the solve range: one solve in each velocity stratum and
/// one in each altitude stratum. A smoke solve costs 13-26 ms depending on
/// where it lies in that range, so plain uniform draws would make each
/// seed's share of slow solves, and with it every solve and throughput
/// figure, differ from seed to seed.
std::vector<std::string> solve_lines(Rng& r) {
  std::vector<std::size_t> alt_stratum(kSolvePerBlock);
  std::iota(alt_stratum.begin(), alt_stratum.end(), std::size_t{0});
  for (std::size_t i = alt_stratum.size(); i > 1; --i)
    std::swap(alt_stratum[i - 1], alt_stratum[r.below(i)]);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kSolvePerBlock; ++i) {
    const double v = r.stratum(kSolveVelocity[0], kSolveVelocity[1], i,
                               kSolvePerBlock);
    const double alt = r.stratum(kSolveAltitude[0], kSolveAltitude[1],
                                 alt_stratum[i], kSolvePerBlock);
    lines.push_back(format_line(v, alt, " tier=smoke"));
  }
  return lines;
}

}  // namespace

ServeStream::ServeStream(std::uint64_t seed, std::size_t initial_blocks)
    : seed_(seed) {
  Rng r(derive_seed(seed, 1));
  hash_ = fnv1a("serve_mix");
  for (std::size_t i = 0; i < kHotSetSize; ++i) {
    hot_.push_back(query_line(r, Kind::kHot));
    hash_ = fnv1a(hot_.back() + "\n", hash_);
  }
  blocks_.reserve(initial_blocks);
  while (blocks_.size() < initial_blocks) generate_next();
}

const ServeBlock& ServeStream::block(std::size_t i) {
  while (blocks_.size() <= i) generate_next();
  return blocks_[i];
}

void ServeStream::generate_next() {
  const std::size_t b = blocks_.size();
  Rng shared(derive_seed(seed_, 2, b));
  std::vector<bool> coalesce_at(kBlockSize, false);
  std::vector<std::string> coalesce_lines;
  for (std::size_t placed = 0; placed < kCoalescePerBlock;) {
    const std::size_t pos = shared.below(kBlockSize);
    if (coalesce_at[pos]) continue;
    coalesce_at[pos] = true;
    ++placed;
  }
  for (std::size_t i = 0; i < kCoalescePerBlock; ++i)
    coalesce_lines.push_back(query_line(shared, Kind::kCoalesce));

  ServeBlock block;
  for (std::size_t k = 0; k < kClients; ++k) {
    Rng r(derive_seed(seed_, 3 + k, b));
    std::vector<Kind> kinds;
    kinds.insert(kinds.end(), kHotPerBlock, Kind::kHot);
    kinds.insert(kinds.end(), kFreshPerBlock, Kind::kFreshSurrogate);
    kinds.insert(kinds.end(), kCorrelationPerBlock, Kind::kCorrelation);
    kinds.insert(kinds.end(), kOffTablePerBlock, Kind::kOffTable);
    kinds.insert(kinds.end(), kSolvePerBlock, Kind::kSolve);
    for (std::size_t i = kinds.size(); i > 1; --i)
      std::swap(kinds[i - 1], kinds[r.below(i)]);
    const std::vector<std::string> solves = solve_lines(r);
    auto& out = block.client[k];
    out.reserve(kBlockSize);
    std::size_t next_kind = 0, next_coalesce = 0, next_solve = 0;
    for (std::size_t pos = 0; pos < kBlockSize; ++pos) {
      if (coalesce_at[pos]) {
        out.push_back({coalesce_lines[next_coalesce++], Kind::kCoalesce});
        continue;
      }
      const Kind kind = kinds[next_kind++];
      out.push_back({kind == Kind::kHot     ? hot_[r.below(hot_.size())]
                     : kind == Kind::kSolve ? solves[next_solve++]
                                            : query_line(r, kind),
                     kind});
    }
  }
  for (const auto& client : block.client)
    for (const auto& req : client) hash_ = fnv1a(req.line + "\n", hash_);
  blocks_.push_back(std::move(block));
}

void ServeStream::release_before(std::size_t i) {
  for (std::size_t b = 0; b < std::min(i, blocks_.size()); ++b)
    for (auto& client : blocks_[b].client) std::vector<Request>().swap(client);
}

std::uint64_t StagInputs::hash() const {
  std::uint64_t h = fnv1a("stag_batch");
  auto mix = [&h](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%a;", v);
    h = fnv1a(buf, h);
  };
  for (const double v : velocities_mps) mix(v);
  for (const double a : altitudes_m) mix(a);
  for (const auto i : serial_check_points) mix(static_cast<double>(i));
  for (const auto i : traced_points) mix(static_cast<double>(i));
  mix(static_cast<double>(serial_check_pulse));
  return h;
}

StagInputs make_stag_inputs(std::uint64_t seed) {
  Rng r(derive_seed(seed, 10));
  StagInputs in;
  // One velocity and one altitude in each of kGridSide equal strata of the
  // solve range (a jittered grid): the sweep's cost then varies little
  // from seed to seed, while its points still do.
  for (std::size_t i = 0; i < kGridSide; ++i) {
    in.velocities_mps.push_back(
        r.stratum(kSolveVelocity[0], kSolveVelocity[1], i, kGridSide));
    in.altitudes_m.push_back(
        r.stratum(kSolveAltitude[0], kSolveAltitude[1], i, kGridSide));
  }
  std::vector<std::size_t> order(kGridSide * kGridSide);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[r.below(i)]);
  in.serial_check_points.assign(order.begin(), order.begin() + 8);
  in.traced_points.assign(order.begin() + 8, order.begin() + 24);
  std::sort(in.serial_check_points.begin(), in.serial_check_points.end());
  std::sort(in.traced_points.begin(), in.traced_points.end());
  in.serial_check_pulse = r.below(kPulseCases);
  return in;
}

}  // namespace perfbench
