#pragma once
/// \file server.hpp
/// The cat_serve library façade: a thread-safe serving layer that answers
/// scenario queries from the cheapest admissible tier of the serving
/// ladder (precomputed surrogate table -> engineering correlation family
/// -> full solve), caches every completed answer, and coalesces identical
/// in-flight requests so a burst of one hot query costs one solve.
///
/// Layout of one serve() call:
///   1. canonical key — the case's physics fields, bit-exact; labels
///      (case name/title, vehicle name) and timing never enter the key.
///   2. sharded cache — hash-selected shard, per-shard mutex; a hit
///      returns in well under a microsecond.
///   3. coalescing — a second request for a key already being computed
///      waits on the first's completion instead of recomputing.
///   4. compute — the owner answers the table and correlation rungs (~us)
///      on its own thread. A full solve goes to a bounded core::JobQueue
///      over the server's ThreadPool, and the owner waits for it with a
///      per-request timeout; on timeout the caller gets a timeout reply
///      while the job keeps running and still populates the cache.
///
/// Replies deliberately carry no timing, so a response stream is byte
/// identical for any worker-thread count (the batch layer's 1-vs-N
/// determinism discipline, extended to the service). tools/cat_serve.cpp
/// puts a line-oriented stdio/TCP front on this façade.

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/annotations.hpp"
#include "core/job_queue.hpp"
#include "core/thread_pool.hpp"
#include "scenario/scenario.hpp"

namespace cat::scenario {

/// Server construction knobs.
struct ServerOptions {
  std::size_t threads = 1;      ///< worker width (0 = hardware)  // cat-lint: dimensionless
  std::size_t cache_shards = 8;    ///< cache shard count  // cat-lint: dimensionless
  std::size_t queue_capacity = 64; ///< bounded queue depth  // cat-lint: dimensionless
  double request_timeout_s = 60.0; ///< [s] per-request wait for a full solve
  /// Directory whose *.surrogate.bin tables are registered at startup
  /// (empty = no preload).
  std::string table_dir;
  /// When false, the full-solve rung of the ladder is disabled: a request
  /// that falls through surrogate/correlation gets an error reply instead
  /// of a (ms-scale) hierarchy solve. Protocol tests and fuzz harnesses
  /// use this to keep every request path fast and hermetic.
  bool allow_solve = true;
};

/// One served answer. Timing is intentionally absent (see file header).
struct ServeReply {
  bool ok = false;
  std::string case_name;        ///< echoed case label (not in the key)
  std::string tier;             ///< "surrogate" | "correlation" | "solve"
  bool from_cache = false;      ///< answered from the result cache
  bool coalesced = false;       ///< waited on an identical in-flight job
  std::string error;            ///< set when !ok
  std::vector<Metric> metrics;  ///< the answer's headline scalars
};

/// Monotonic serving counters (one snapshot; process lifetime).
struct ServeStats {
  std::size_t requests = 0;
  std::size_t cache_hits = 0;
  std::size_t coalesced = 0;
  std::size_t served_surrogate = 0;
  std::size_t served_correlation = 0;
  std::size_t served_solve = 0;
  std::size_t errors = 0;
  std::size_t timeouts = 0;
};

/// Thread-safe scenario-serving façade. serve() may be called from any
/// number of threads concurrently; shutdown() drains in-flight work.
class Server {
 public:
  explicit Server(const ServerOptions& opt = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Register every *.surrogate.bin under \p dir (sorted by filename, so
  /// registration order — and therefore newest-first matching — is
  /// deterministic). Returns the number of tables loaded; throws
  /// cat::Error when a table file is present but unreadable.
  std::size_t preload_tables(const std::string& dir);

  /// Serve one case: cache, coalesce, or compute via the tier ladder.
  /// Never throws on a failed compute — the failure is the reply.
  ServeReply serve(const Case& c);

  ServeStats stats() const;

  /// Stop computing new keys and drain the queue. serve() calls
  /// arriving afterwards still answer from the cache but report an error
  /// instead of scheduling new work. Idempotent.
  void shutdown();

 private:
  struct Pending;
  struct Shard;

  /// Table, then correlation rung; false when neither answers \p c.
  bool answer_tier0(const Case& c, ServeReply& r);
  /// The full-solve rung.
  ServeReply solve(const Case& c);
  /// Cache a successful \p r, retire the in-flight slot, wake its waiters.
  void resolve(Shard& shard, const std::string& key, Pending& pending,
               ServeReply r);
  /// Resolve a new key refused because the server is shutting down.
  void reject_shutdown(const Case& c, Shard& shard, const std::string& key,
                       Pending& pending);
  Shard& shard_for(const std::string& key);

  ServerOptions opt_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// One slot per ServeStats field, in field order.
  enum Counter : unsigned char {
    kRequests,
    kCacheHits,
    kCoalesced,
    kServedSurrogate,
    kServedCorrelation,
    kServedSolve,
    kErrors,
    kTimeouts,
    kNCounters,
  };
  void bump(Counter c) {
    counters_[c].fetch_add(1, std::memory_order_relaxed);
  }
  std::array<std::atomic<std::size_t>, kNCounters> counters_{};
  /// Cleared by shutdown(): no new key is computed afterwards.
  std::atomic<bool> accepting_{true};

  // Pool before queue: the queue's drain loops park inside the pool, so
  // the queue must shut down (member order: destroyed first) before the
  // pool joins its workers.
  std::unique_ptr<core::ThreadPool> pool_;
  std::unique_ptr<core::JobQueue> queue_;
};

/// The canonical cache key of a case: every physics field serialized
/// bit-exactly, labels excluded. Empty when the case is uncacheable (it
/// carries a lift-modulation callback, which has no canonical form) —
/// such cases are computed directly and never cached or coalesced.
std::string canonical_case_key(const Case& c);

}  // namespace cat::scenario
