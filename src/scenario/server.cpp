#include "scenario/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <utility>

#include "core/error.hpp"
#include "scenario/runner.hpp"
#include "scenario/surrogate.hpp"

namespace cat::scenario {

// ---------------------------------------------------------------------------
// Canonical key
// ---------------------------------------------------------------------------

namespace {

void append_u64(std::string* key, std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  key->append(buf, sizeof buf);
}

void append_f64(std::string* key, double v) {
  // Bit-exact: +0.0 and -0.0 (and distinct NaN payloads) key differently,
  // which errs on the side of a spurious miss, never a wrong hit.
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  append_u64(key, bits);
}

template <class E>
void append_enum(std::string* key, E v) {
  append_u64(key, static_cast<std::uint64_t>(v));
}

}  // namespace

std::string canonical_case_key(const Case& c) {
  if (c.traj_opt.lift_modulation) return {};  // no canonical form: uncacheable
  std::string key;
  key.reserve(29 * sizeof(std::uint64_t));
  append_enum(&key, c.family);
  append_enum(&key, c.planet);
  append_enum(&key, c.gas);
  append_enum(&key, c.fidelity);
  append_f64(&key, c.vehicle.mass);
  append_f64(&key, c.vehicle.reference_area);
  append_f64(&key, c.vehicle.cd);
  append_f64(&key, c.vehicle.lift_to_drag);
  append_f64(&key, c.vehicle.nose_radius);
  append_f64(&key, c.entry.velocity);
  append_f64(&key, c.entry.flight_path_angle);
  append_f64(&key, c.entry.altitude);
  append_f64(&key, c.traj_opt.dt_sample_s);
  append_f64(&key, c.traj_opt.t_max_s);
  append_f64(&key, c.traj_opt.end_velocity_mps);
  append_f64(&key, c.traj_opt.end_altitude_m);
  append_f64(&key, c.condition.velocity_mps);
  append_f64(&key, c.condition.altitude_m);
  append_f64(&key, c.condition.pressure_Pa);
  append_f64(&key, c.condition.temperature_K);
  append_f64(&key, c.wall_temperature_K);
  append_f64(&key, c.angle_of_attack_rad);
  append_f64(&key, c.ideal_gamma);
  append_f64(&key, c.cone_half_angle_rad);
  append_f64(&key, c.body_length_m);
  append_u64(&key, c.n_stations);
  append_u64(&key, c.streamwise_order);
  append_u64(&key, c.max_pulse_points);
  append_u64(&key, (c.viscous ? 1u : 0u) | (c.finite_rate ? 2u : 0u));
  return key;
}

// ---------------------------------------------------------------------------
// Server internals
// ---------------------------------------------------------------------------

/// One in-flight computation other requests for the same key wait on.
struct Server::Pending {
  cat::Mutex mu;
  cat::CondVar cv;
  bool done CAT_GUARDED_BY(mu) = false;
  ServeReply reply CAT_GUARDED_BY(mu);
};

/// One cache shard: completed replies + in-flight jobs for its key range.
struct Server::Shard {
  cat::Mutex mu;
  std::unordered_map<std::string, ServeReply> cache CAT_GUARDED_BY(mu);
  std::unordered_map<std::string, std::shared_ptr<Pending>> inflight
      CAT_GUARDED_BY(mu);
};

Server::Server(const ServerOptions& opt) : opt_(opt) {
  opt_.cache_shards = std::max<std::size_t>(1, opt_.cache_shards);
  shards_.reserve(opt_.cache_shards);
  for (std::size_t s = 0; s < opt_.cache_shards; ++s)
    shards_.push_back(std::make_unique<Shard>());
  pool_ = std::make_unique<core::ThreadPool>(opt_.threads);
  queue_ = std::make_unique<core::JobQueue>(*pool_, pool_->size(),
                                            opt_.queue_capacity);
  if (!opt_.table_dir.empty()) preload_tables(opt_.table_dir);
}

Server::~Server() { shutdown(); }

void Server::shutdown() {
  accepting_.store(false, std::memory_order_release);
  queue_->shutdown();
}

std::size_t Server::preload_tables(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    const std::string suffix = ".surrogate.bin";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      paths.push_back(entry.path().string());
  }
  if (ec)
    throw Error("cat_serve: cannot read table directory '" + dir +
                "': " + ec.message());
  std::sort(paths.begin(), paths.end());
  for (const auto& path : paths)
    register_surrogate(
        std::make_shared<const SurrogateTable>(SurrogateTable::load(path)));
  return paths.size();
}

Server::Shard& Server::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

bool Server::answer_tier0(const Case& c, ServeReply& r) {
  r.case_name = c.name;
  const bool point = c.condition.velocity_mps > 0.0;
  const bool tier0 = c.fidelity == Fidelity::kSurrogate ||
                     c.fidelity == Fidelity::kCorrelation;

  // Tier 1: precomputed table lookup. Only for kSurrogate requests — a
  // ladder must degrade toward accuracy, never upgrade a full-solve
  // request into an interpolation.
  if (point && c.fidelity == Fidelity::kSurrogate) {
    try {
      const CaseResult res = run_case(c);
      r.ok = true;
      r.tier = "surrogate";
      r.metrics = res.metrics;
      bump(kServedSurrogate);
      return true;
    } catch (const Error&) {
      // No registered table covers this state: drop one rung.
    }
  }

  // Tier 2: the engineering correlation family (~us). Reached by
  // kSurrogate fall-through and by explicit kCorrelation requests.
  if (point && tier0) {
    try {
      Case cc = c;
      cc.fidelity = Fidelity::kCorrelation;
      const CaseResult res = run_case(cc);
      r.ok = true;
      r.tier = "correlation";
      r.metrics = res.metrics;
      bump(kServedCorrelation);
      return true;
    } catch (const Error&) {
      // Solver gave up: last rung below.
    } catch (const std::invalid_argument&) {
      // Case shape the correlation tier cannot express (CAT_REQUIRE).
    }
  }
  return false;
}

ServeReply Server::solve(const Case& c) {
  ServeReply r;
  r.case_name = c.name;
  const bool tier0 = c.fidelity == Fidelity::kSurrogate ||
                     c.fidelity == Fidelity::kCorrelation;

  // Tier 3: the full hierarchy. Tier-0 requests that fell through run at
  // the smoke preset (the cheapest truth); explicit full-fidelity
  // requests run exactly what they asked for. threads = 1 inside the
  // runner: the serving queue is the parallelism layer, and a nested
  // parallel_for on the shared pool would degrade to serial anyway.
  if (!opt_.allow_solve) {
    bump(kErrors);
    r.ok = false;
    r.error = "full-solve tier disabled on this server";
    return r;
  }
  try {
    Case cf = c;
    if (tier0) cf.fidelity = Fidelity::kSmoke;
    const CaseResult res = run_case(cf, {1});
    r.ok = true;
    r.tier = "solve";
    r.metrics = res.metrics;
    bump(kServedSolve);
    return r;
  } catch (const std::exception& err) {
    bump(kErrors);
    r.ok = false;
    r.tier.clear();
    r.metrics.clear();
    r.error = err.what();
    return r;
  }
}

void Server::resolve(Shard& shard, const std::string& key, Pending& pending,
                     ServeReply r) {
  {
    cat::MutexLock lock(shard.mu);
    // Only successes are cached — a transient failure (e.g. a table
    // registered later) must stay retryable.
    if (r.ok) shard.cache.emplace(key, r);
    shard.inflight.erase(key);
  }
  {
    cat::MutexLock lock(pending.mu);
    pending.reply = std::move(r);
    pending.done = true;
  }
  pending.cv.notify_all();
}

void Server::reject_shutdown(const Case& c, Shard& shard,
                             const std::string& key, Pending& pending) {
  // Resolve the pending slot so coalesced waiters (and the owner) get a
  // definite answer.
  bump(kErrors);
  ServeReply r;
  r.case_name = c.name;
  r.error = "server is shutting down";
  resolve(shard, key, pending, std::move(r));
}

ServeReply Server::serve(const Case& c) {
  bump(kRequests);
  const std::string key = canonical_case_key(c);
  if (key.empty()) {  // uncacheable: the whole ladder in place
    ServeReply r;
    return answer_tier0(c, r) ? r : solve(c);
  }

  Shard& shard = shard_for(key);
  std::shared_ptr<Pending> pending;
  bool owner = false;
  {
    cat::MutexLock lock(shard.mu);
    const auto hit = shard.cache.find(key);
    if (hit != shard.cache.end()) {
      bump(kCacheHits);
      ServeReply r = hit->second;
      r.from_cache = true;
      return r;
    }
    const auto in = shard.inflight.find(key);
    if (in != shard.inflight.end()) {
      pending = in->second;
    } else {
      pending = std::make_shared<Pending>();
      shard.inflight.emplace(key, pending);
      owner = true;
    }
  }

  if (owner) {
    // Tiers 1-2 cost microseconds, less than the two thread hand-offs of
    // a queued job, so the owner answers them on its own thread. Only a
    // full solve goes to the queue, where the request timeout applies.
    ServeReply r;
    if (!accepting_.load(std::memory_order_acquire)) {
      reject_shutdown(c, shard, key, *pending);
    } else if (answer_tier0(c, r)) {
      resolve(shard, key, *pending, std::move(r));
    } else if (!queue_->submit([this, c, key, &shard, pending] {
                 resolve(shard, key, *pending, solve(c));
               })) {
      // Shutdown raced the submit.
      reject_shutdown(c, shard, key, *pending);
    }
  } else {
    bump(kCoalesced);
  }

  const auto timeout = std::chrono::duration<double>(opt_.request_timeout_s);
  ServeReply r;
  bool done = false;
  {
    cat::MutexLock lock(pending->mu);
    done = pending->cv.wait_for(pending->mu, timeout, [&]() CAT_REQUIRES(
                                                         pending->mu) {
      return pending->done;
    });
    if (done) r = pending->reply;
  }
  if (!done) {
    bump(kTimeouts);
    r = ServeReply{};
    r.case_name = c.name;
    r.error = "request timed out (the computation continues and will "
              "populate the cache)";
    return r;
  }
  r.coalesced = !owner;
  return r;
}

ServeStats Server::stats() const {
  const auto get = [this](Counter c) {
    return counters_[c].load(std::memory_order_relaxed);
  };
  ServeStats s;
  s.requests = get(kRequests);
  s.cache_hits = get(kCacheHits);
  s.coalesced = get(kCoalesced);
  s.served_surrogate = get(kServedSurrogate);
  s.served_correlation = get(kServedCorrelation);
  s.served_solve = get(kServedSolve);
  s.errors = get(kErrors);
  s.timeouts = get(kTimeouts);
  return s;
}

}  // namespace cat::scenario
