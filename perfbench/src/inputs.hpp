#pragma once
/// \file inputs.hpp
/// Seeded, replayable inputs. Everything the library sees is generated
/// here from the run's seed: the serve_mix request lines and the
/// stag_batch sweep grid. The same seed gives the same inputs, and each
/// input set is summarised by a hash that goes into the run record.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// SplitMix64: small, fast and fully specified, so a stream replays
/// bit-for-bit on any platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);
  /// Uniform draw from the i-th of n equal strata of [lo, hi).
  double stratum(double lo, double hi, std::size_t i, std::size_t n);
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// Seed of an independent sub-stream (a block, a client, a grid).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

/// FNV-1a, 64 bit.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 14695981039346656037ull);
std::string hex64(std::uint64_t v);

/// What a request line is meant to exercise. The reply is classified by
/// what the server says it did; the kind only fixes the expected tier.
enum class Kind : unsigned char {
  kHot,             ///< repeat of the hot set: a cache hit after first use
  kFreshSurrogate,  ///< new on-table surrogate query: inserts into the cache
  kCorrelation,     ///< new explicit tier=correlation query
  kOffTable,        ///< new surrogate query off the table: falls through
  kCoalesce,        ///< new key sent by both clients at once
  kSolve,           ///< new tier=smoke full solve
};

/// Tier the server must answer a kind with ("surrogate", ...).
const char* expected_tier(Kind k);

struct Request {
  std::string line;
  Kind kind;
};

/// Per-client request counts in one block. Coalesce slots sit at the same
/// positions in both clients' blocks and carry the same line.
inline constexpr std::size_t kBlockSize = 1000;
inline constexpr std::size_t kHotPerBlock = 800;
inline constexpr std::size_t kFreshPerBlock = 120;
inline constexpr std::size_t kCorrelationPerBlock = 30;
inline constexpr std::size_t kOffTablePerBlock = 30;
inline constexpr std::size_t kCoalescePerBlock = 10;
inline constexpr std::size_t kSolvePerBlock = 10;
inline constexpr std::size_t kClients = 2;
inline constexpr std::size_t kHotSetSize = 24;
/// Blocks generated at set-up: the fewest a serve pass runs (3 in each of
/// 6 slices). Enough that every reported tail has at least kMinBeyond
/// samples beyond it: 2 clients x 18 blocks x 10 solves = 360 solves, 36
/// beyond the p90.
inline constexpr std::size_t kInitialServeBlocks = 18;

struct ServeBlock {
  std::array<std::vector<Request>, kClients> client;
};

/// The serve_mix request stream: an endless, deterministic sequence of
/// blocks. Blocks are generated on demand from (seed, block index).
class ServeStream {
 public:
  ServeStream() = default;
  ServeStream(std::uint64_t seed, std::size_t initial_blocks);

  const ServeBlock& block(std::size_t i);  ///< generates up to i if needed
  /// Block \p i, which must already be generated (read-only, so several
  /// clients may call it while no block is being generated).
  const ServeBlock& at(std::size_t i) const { return blocks_.at(i); }
  /// Free the lines of blocks before \p i (their replies are checked).
  void release_before(std::size_t i);
  /// Hash of the hot set and every generated block, in order.
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t seed_ = 0;
  std::vector<std::string> hot_;
  std::vector<ServeBlock> blocks_;
  std::uint64_t hash_ = 0;
  void generate_next();
};

/// stag_batch inputs: the velocity x altitude grid of shuttle_stag_point,
/// the grid points re-run serially for the 1-vs-N check, the points the
/// traced run splits by layer, and the pulse case re-run serially.
struct StagInputs {
  std::vector<double> velocities_mps;
  std::vector<double> altitudes_m;
  std::vector<std::size_t> serial_check_points;
  std::vector<std::size_t> traced_points;
  std::size_t serial_check_pulse = 0;  ///< index into the pulse case list
  std::uint64_t hash() const;
};

inline constexpr std::size_t kGridSide = 8;  ///< 8 x 8 = 64 solves
inline constexpr std::size_t kPulseCases = 5;

StagInputs make_stag_inputs(std::uint64_t seed);

}  // namespace perfbench
