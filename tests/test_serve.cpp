// The serving layer: core::JobQueue (bounded async jobs over the thread
// pool), the canonical case key, and scenario::Server — cache, request
// coalescing, the surrogate -> correlation -> full-solve fallback ladder,
// per-request timeouts, graceful shutdown, and the 1-vs-N worker
// determinism contract. The registry-torture test hammers the process
// surrogate registry from racing threads (run under TSan in CI).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/job_queue.hpp"
#include "core/thread_pool.hpp"
#include "scenario/registry.hpp"
#include "scenario/server.hpp"
#include "scenario/surrogate.hpp"

using namespace cat;

namespace {

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

scenario::Case anchor_case() {
  const scenario::Case* base = scenario::find_scenario("shuttle_stag_point");
  if (base == nullptr) throw std::runtime_error("anchor scenario missing");
  scenario::Case c = *base;
  c.fidelity = scenario::Fidelity::kSurrogate;
  return c;
}

/// A synthetic table covering the anchor case's neighborhood, built from a
/// cheap analytic truth (no solver runs).
std::shared_ptr<const scenario::SurrogateTable> anchor_table() {
  scenario::SurrogateMeta meta;
  const scenario::Case c = anchor_case();
  meta.planet = c.planet;
  meta.gas = c.gas;
  meta.family = c.family;
  meta.nose_radius_m = c.vehicle.nose_radius;
  meta.wall_temperature_K = c.wall_temperature_K;
  meta.angle_of_attack_rad = c.angle_of_attack_rad;
  meta.base_case = c.name;
  scenario::SurrogateDomain domain;
  domain.velocity_min_mps = 3000.0;
  domain.velocity_max_mps = 7500.0;
  domain.n_velocity = 5;
  domain.altitude_min_m = 45000.0;
  domain.altitude_max_m = 75000.0;
  domain.n_altitude = 5;
  return std::make_shared<const scenario::SurrogateTable>(
      scenario::build_surrogate(
          meta, domain,
          [](double v, double alt) {
            return std::array<double, 4>{1e-2 * v * v, 0.5 * v, 3000.0,
                                         alt * 0.1};
          },
          {}));
}

/// RAII guard: tests that touch the process-global surrogate registry
/// leave it empty for the next test.
struct RegistryCleaner {
  ~RegistryCleaner() { scenario::clear_surrogates(); }
};

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

TEST(JobQueue, DrainsEveryJobAcrossWorkers) {
  core::ThreadPool pool(4);
  core::JobQueue queue(pool, 4, 8);
  std::atomic<int> sum{0};
  for (int k = 1; k <= 100; ++k)
    ASSERT_TRUE(queue.submit([&sum, k] { sum.fetch_add(k); }));
  queue.shutdown();
  EXPECT_EQ(sum.load(), 5050);
  EXPECT_EQ(queue.first_error(), nullptr);
}

TEST(JobQueue, ShutdownDrainsQueuedJobsAndRejectsNewOnes) {
  core::ThreadPool pool(2);
  auto queue = std::make_unique<core::JobQueue>(pool, 2, 64);
  std::atomic<int> ran{0};
  for (int k = 0; k < 32; ++k)
    ASSERT_TRUE(queue->submit([&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ran.fetch_add(1);
    }));
  queue->shutdown();  // graceful: every queued job still runs
  EXPECT_EQ(ran.load(), 32);
  EXPECT_FALSE(queue->submit([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 32);
}

TEST(JobQueue, BoundedQueueAppliesBackpressureNotLoss) {
  core::ThreadPool pool(2);
  core::JobQueue queue(pool, 1, 2);  // one consumer, two queued slots
  std::atomic<int> ran{0};
  // Far more submissions than capacity: submit must block (not drop) when
  // the queue is full, so every job still runs exactly once.
  for (int k = 0; k < 64; ++k)
    ASSERT_TRUE(queue.submit([&ran] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran.fetch_add(1);
    }));
  queue.shutdown();
  EXPECT_EQ(ran.load(), 64);
}

TEST(JobQueue, FirstEscapedExceptionIsStored) {
  core::ThreadPool pool(2);
  core::JobQueue queue(pool, 2, 8);
  ASSERT_TRUE(queue.submit([] { throw SolverError("job exploded"); }));
  ASSERT_TRUE(queue.submit([] {}));  // later jobs keep draining
  queue.shutdown();
  const std::exception_ptr err = queue.first_error();
  ASSERT_NE(err, nullptr);
  try {
    std::rethrow_exception(err);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_NE(std::string(e.what()).find("job exploded"), std::string::npos);
  }
}

TEST(JobQueue, JobsMayUseThePoolReentrantly) {
  // A job fanning out on the queue's own pool hits ThreadPool's
  // reentrancy contract (inline serial loop) instead of deadlocking —
  // the property the served full solves rely on.
  core::ThreadPool pool(4);
  core::JobQueue queue(pool, 4, 8);
  std::atomic<int> items{0};
  ASSERT_TRUE(queue.submit([&pool, &items] {
    pool.parallel_for(16, [&items](std::size_t) { items.fetch_add(1); });
  }));
  queue.shutdown();
  EXPECT_EQ(items.load(), 16);
  EXPECT_EQ(queue.first_error(), nullptr);
}

// ---------------------------------------------------------------------------
// Canonical key
// ---------------------------------------------------------------------------

TEST(Serve, CanonicalKeyIgnoresLabelsAndTracksPhysics) {
  scenario::Case a = anchor_case();
  scenario::Case b = a;
  b.name = "renamed";
  b.title = "different title";
  b.vehicle.name = "other label";
  EXPECT_EQ(scenario::canonical_case_key(a), scenario::canonical_case_key(b));

  scenario::Case c = a;
  c.condition.velocity_mps += 1.0;
  EXPECT_NE(scenario::canonical_case_key(a), scenario::canonical_case_key(c));

  scenario::Case d = a;
  d.wall_temperature_K += 0.5;
  EXPECT_NE(scenario::canonical_case_key(a), scenario::canonical_case_key(d));

  scenario::Case e = a;
  e.fidelity = scenario::Fidelity::kCorrelation;
  EXPECT_NE(scenario::canonical_case_key(a), scenario::canonical_case_key(e));
}

TEST(Serve, CaseWithLiftModulationIsUncacheable) {
  scenario::Case c = anchor_case();
  c.traj_opt.lift_modulation = [](double) { return 1.0; };
  EXPECT_TRUE(scenario::canonical_case_key(c).empty());
}

// ---------------------------------------------------------------------------
// Server: ladder, cache, coalescing, timeout, shutdown
// ---------------------------------------------------------------------------

TEST(Serve, LadderServesSurrogateThenFallsBackOffTable) {
  const RegistryCleaner cleaner;
  scenario::register_surrogate(anchor_table());
  scenario::ServerOptions opt;
  opt.threads = 2;
  scenario::Server server(opt);

  // On-table: the surrogate tier answers.
  scenario::Case on = anchor_case();
  const auto r1 = server.serve(on);
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_EQ(r1.tier, "surrogate");
  EXPECT_FALSE(r1.from_cache);

  // Off-table (below the velocity domain): falls to the correlation tier.
  scenario::Case off = anchor_case();
  off.condition.velocity_mps = 2000.0;
  const auto r2 = server.serve(off);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.tier, "correlation");

  const auto s = server.stats();
  EXPECT_EQ(s.served_surrogate, 1u);
  EXPECT_EQ(s.served_correlation, 1u);
  EXPECT_EQ(s.errors, 0u);
}

TEST(Serve, DisabledSolveTierAnswersWithErrorNotSolve) {
  // ServerOptions::allow_solve = false gates only the full-solve rung:
  // surrogate and correlation requests still serve, but anything that
  // would reach the hierarchy gets an error reply (the hermetic mode the
  // protocol tests and fuzz_serve_line run the server in).
  const RegistryCleaner cleaner;
  scenario::register_surrogate(anchor_table());
  scenario::ServerOptions opt;
  opt.threads = 2;
  opt.allow_solve = false;
  scenario::Server server(opt);

  const auto r1 = server.serve(anchor_case());
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_EQ(r1.tier, "surrogate");

  scenario::Case full = anchor_case();
  full.fidelity = scenario::Fidelity::kSmoke;  // explicit truth request
  const auto r2 = server.serve(full);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("full-solve tier disabled"), std::string::npos)
      << r2.error;

  const auto s = server.stats();
  EXPECT_EQ(s.served_solve, 0u);
  EXPECT_EQ(s.errors, 1u);
}

TEST(Serve, ExplicitFullFidelityRequestIsNeverDowngraded) {
  const RegistryCleaner cleaner;
  scenario::register_surrogate(anchor_table());  // would cover the state
  scenario::ServerOptions opt;
  opt.threads = 2;
  scenario::Server server(opt);
  scenario::Case c = anchor_case();
  c.fidelity = scenario::Fidelity::kSmoke;  // explicit truth request
  const auto r = server.serve(c);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.tier, "solve");
}

TEST(Serve, RepeatQueryIsACacheHitWithTheIdenticalAnswer) {
  const RegistryCleaner cleaner;
  scenario::register_surrogate(anchor_table());
  scenario::Server server;
  const scenario::Case c = anchor_case();
  const auto first = server.serve(c);
  const auto second = server.serve(c);
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(first.from_cache);
  EXPECT_TRUE(second.from_cache);
  ASSERT_EQ(first.metrics.size(), second.metrics.size());
  for (std::size_t i = 0; i < first.metrics.size(); ++i) {
    EXPECT_EQ(first.metrics[i].name, second.metrics[i].name);
    // Bitwise: a cache hit replays the stored answer, it does not
    // recompute.
    EXPECT_EQ(std::memcmp(&first.metrics[i].value, &second.metrics[i].value,
                          sizeof(double)),
              0);
  }
  EXPECT_EQ(server.stats().cache_hits, 1u);
}

TEST(Serve, IdenticalConcurrentRequestsCoalesceToOneCompute) {
  const RegistryCleaner cleaner;
  scenario::ServerOptions opt;
  opt.threads = 4;
  scenario::Server server(opt);
  // An explicit smoke solve (~1.5 ms) — a window for the clients to pile
  // up on the one in-flight computation; late ones hit the cache.
  scenario::Case c = anchor_case();
  c.fidelity = scenario::Fidelity::kSmoke;

  constexpr std::size_t kClients = 8;
  std::vector<scenario::ServeReply> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t k = 0; k < kClients; ++k)
    clients.emplace_back(
        [&server, &replies, &c, k] { replies[k] = server.serve(c); });
  for (auto& t : clients) t.join();

  for (const auto& r : replies) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.tier, "solve");
  }
  const auto s = server.stats();
  // Exactly one compute; every other client either waited on the pending
  // slot or arrived after completion and hit the cache.
  EXPECT_EQ(s.served_solve, 1u);
  EXPECT_EQ(s.coalesced + s.cache_hits, kClients - 1);
}

TEST(Serve, TimedOutRequestReportsAndTheJobStillLands) {
  const RegistryCleaner cleaner;
  scenario::ServerOptions opt;
  opt.threads = 2;
  opt.request_timeout_s = 1e-4;  // far below the solve below
  scenario::Server server(opt);
  // A smoke heating pulse (~70 ms serial): a smoke stagnation-point solve
  // takes ~1.5 ms, short enough that a client descheduled past its
  // timeout on a loaded host could find it already done.
  scenario::Case c = *scenario::find_scenario("titan_probe_pulse");
  c.fidelity = scenario::Fidelity::kSmoke;
  const auto r = server.serve(c);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("timed out"), std::string::npos);
  EXPECT_GE(server.stats().timeouts, 1u);
  // shutdown() drains the still-running job; afterwards the answer must
  // have landed in the cache.
  server.shutdown();
  const auto cached = server.serve(c);
  ASSERT_TRUE(cached.ok) << cached.error;
  EXPECT_TRUE(cached.from_cache);
}

TEST(Serve, TableAndCorrelationMissesDoNotWaitForTheQueue) {
  const RegistryCleaner cleaner;
  scenario::register_surrogate(anchor_table());
  scenario::ServerOptions opt;
  opt.threads = 1;
  opt.request_timeout_s = 1e-4;
  scenario::Server server(opt);
  // Occupy the only worker with a smoke heating pulse (~70 ms serial);
  // its own request times out while the job keeps running.
  scenario::Case busy = *scenario::find_scenario("titan_probe_pulse");
  busy.fidelity = scenario::Fidelity::kSmoke;
  (void)server.serve(busy);
  const std::size_t timeouts = server.stats().timeouts;
  // Fresh table and correlation keys are answered on the calling thread,
  // inside a budget a job queued behind the pulse would miss.
  const auto table = server.serve(anchor_case());
  ASSERT_TRUE(table.ok) << table.error;
  EXPECT_EQ(table.tier, "surrogate");
  scenario::Case corr = anchor_case();
  corr.fidelity = scenario::Fidelity::kCorrelation;
  const auto correlation = server.serve(corr);
  ASSERT_TRUE(correlation.ok) << correlation.error;
  EXPECT_EQ(correlation.tier, "correlation");
  EXPECT_EQ(server.stats().timeouts, timeouts);
  // Both answers were cached like queued ones.
  EXPECT_TRUE(server.serve(anchor_case()).from_cache);
  EXPECT_TRUE(server.serve(corr).from_cache);
}

TEST(Serve, ShutdownRejectsNewComputeButStillServesCache) {
  const RegistryCleaner cleaner;
  scenario::register_surrogate(anchor_table());
  scenario::Server server;
  const scenario::Case c = anchor_case();
  ASSERT_TRUE(server.serve(c).ok);
  server.shutdown();
  const auto hit = server.serve(c);
  EXPECT_TRUE(hit.ok);
  EXPECT_TRUE(hit.from_cache);
  scenario::Case fresh = anchor_case();
  fresh.condition.velocity_mps += 10.0;
  const auto rejected = server.serve(fresh);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(rejected.error.find("shutting down"), std::string::npos);
  // The refusal is an error reply, so it is counted as one.
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(Serve, FailedComputeIsAReplyNotAnExceptionAndIsNotCached) {
  const RegistryCleaner cleaner;
  scenario::Server server;
  scenario::Case c = anchor_case();
  c.fidelity = scenario::Fidelity::kSmoke;
  c.condition.velocity_mps = 0.0;  // no point condition: the solve throws
  const auto r = server.serve(c);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  EXPECT_GE(server.stats().errors, 1u);
  // Failures must stay retryable: the second attempt recomputes (and
  // fails again) rather than replaying a cached failure.
  const auto again = server.serve(c);
  EXPECT_FALSE(again.ok);
  EXPECT_FALSE(again.from_cache);
}

// ---------------------------------------------------------------------------
// Determinism: 1 worker vs N workers
// ---------------------------------------------------------------------------

TEST(ServeDeterminism, ReplyStreamIsIdenticalForAnyWorkerCount) {
  const RegistryCleaner cleaner;
  // The same mixed query sequence (on-table, repeated, off-table) served
  // by a 1-worker and a 4-worker server must produce bitwise-identical
  // replies in order — replies carry no timing and the ladder is
  // deterministic.
  std::vector<scenario::Case> sequence;
  {
    scenario::Case on = anchor_case();
    sequence.push_back(on);
    sequence.push_back(on);  // cache hit the second time
    scenario::Case moved = on;
    moved.condition.velocity_mps = 6000.0;
    moved.condition.altitude_m = 62000.0;
    sequence.push_back(moved);
    scenario::Case off = on;
    off.condition.velocity_mps = 2500.0;  // correlation fallback
    sequence.push_back(off);
  }

  const auto run_stream = [&sequence](std::size_t threads) {
    scenario::register_surrogate(anchor_table());
    scenario::ServerOptions opt;
    opt.threads = threads;
    scenario::Server server(opt);
    std::vector<scenario::ServeReply> replies;
    replies.reserve(sequence.size());
    for (const auto& c : sequence) replies.push_back(server.serve(c));
    scenario::clear_surrogates();
    return replies;
  };

  const auto serial = run_stream(1);
  const auto threaded = run_stream(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].ok, threaded[i].ok) << "reply " << i;
    EXPECT_EQ(serial[i].tier, threaded[i].tier) << "reply " << i;
    EXPECT_EQ(serial[i].from_cache, threaded[i].from_cache) << "reply " << i;
    ASSERT_EQ(serial[i].metrics.size(), threaded[i].metrics.size());
    for (std::size_t m = 0; m < serial[i].metrics.size(); ++m) {
      EXPECT_EQ(serial[i].metrics[m].name, threaded[i].metrics[m].name);
      EXPECT_EQ(std::memcmp(&serial[i].metrics[m].value,
                            &threaded[i].metrics[m].value, sizeof(double)),
                0)
          << "reply " << i << " metric " << serial[i].metrics[m].name;
    }
  }
}

// ---------------------------------------------------------------------------
// Surrogate-registry torture (runs under TSan in CI)
// ---------------------------------------------------------------------------

TEST(Serve, SurrogateRegistryTortureConcurrentRegisterFindClear) {
  const RegistryCleaner cleaner;
  const scenario::Case probe = anchor_case();
  const auto table = anchor_table();
  std::atomic<bool> go{false};
  std::atomic<int> found{0};

  std::vector<std::thread> threads;
  // Writers: register fresh tables.
  for (int w = 0; w < 2; ++w)
    threads.emplace_back([&go, &table] {
      while (!go.load()) {}
      for (int k = 0; k < 50; ++k) scenario::register_surrogate(table);
    });
  // Readers: match and (when matched) query through the shared pointer —
  // a clear() racing a reader must not invalidate the table it returned.
  for (int r = 0; r < 4; ++r)
    threads.emplace_back([&go, &probe, &found] {
      while (!go.load()) {}
      for (int k = 0; k < 200; ++k) {
        const auto hit = scenario::find_surrogate(probe);
        if (hit != nullptr) {
          const auto a = hit->query(probe.condition.velocity_mps,
                                    probe.condition.altitude_m);
          if (a.q_conv_W_m2 > 0.0) found.fetch_add(1);
        }
      }
    });
  // Clearer: wipes the registry underneath everyone.
  threads.emplace_back([&go] {
    while (!go.load()) {}
    for (int k = 0; k < 25; ++k) {
      scenario::clear_surrogates();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  go.store(true);
  for (auto& t : threads) t.join();
  SUCCEED();  // the assertions are TSan's and the query's bounds checks
}

}  // namespace
