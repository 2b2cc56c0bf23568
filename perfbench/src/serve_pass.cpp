/// The serve_mix pass: two closed-loop clients calling
/// protocol::handle_line on one Server (two workers, committed tables
/// preloaded), every reply checked against a direct run_case at the tier
/// it names.

#include <atomic>
#include <barrier>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "scenario/protocol.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/server.hpp"
#include "scenario/surrogate.hpp"
#include "stats.hpp"

namespace perfbench {

namespace sc = cat::scenario;

namespace {

/// Case of one of the benchmark's own query lines, built from the
/// protocol's tokens the way handle_line builds it (scenario, v, alt,
/// tier). The library keeps its query parsing private, so this is a
/// copy; the lines are generated here, so a malformed one is a bug.
sc::Case case_of(const std::vector<std::string>& tokens) {
  sc::Case c = *sc::find_scenario(tokens.at(1));
  c.fidelity = sc::Fidelity::kSurrogate;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const auto& t = tokens[i];
    const std::size_t eq = t.find('=');
    const std::string key = t.substr(0, eq), val = t.substr(eq + 1);
    if (key == "v") c.condition.velocity_mps = std::strtod(val.c_str(), nullptr);
    if (key == "alt") c.condition.altitude_m = std::strtod(val.c_str(), nullptr);
    if (key == "tier")
      c.fidelity = val == "correlation" ? sc::Fidelity::kCorrelation
                   : val == "smoke"     ? sc::Fidelity::kSmoke
                                        : sc::Fidelity::kSurrogate;
  }
  return c;
}

/// Hash of a reply with its cached/coalesced flags cleared: what a first,
/// uncoalesced answer with the same tier and metrics renders as.
std::uint64_t reply_hash(std::string reply) {
  for (const std::string flag : {"\"cached\": ", "\"coalesced\": "}) {
    const std::size_t at = reply.find(flag + "true");
    if (at != std::string::npos) reply.replace(at + flag.size(), 4, "false");
  }
  return fnv1a(reply);
}

/// Direct run_case at the tier a reply names (what the server ran).
sc::CaseResult run_at_tier(sc::Case c, const std::string& tier) {
  if (tier == "surrogate") {
    c.fidelity = sc::Fidelity::kSurrogate;
  } else if (tier == "correlation") {
    c.fidelity = sc::Fidelity::kCorrelation;
  } else if (c.fidelity == sc::Fidelity::kSurrogate ||
             c.fidelity == sc::Fidelity::kCorrelation) {
    c.fidelity = sc::Fidelity::kSmoke;  // tier-0 fall-through
  }
  return sc::run_case(c, {1});
}

struct ParsedReply {
  bool ok = false;
  bool cached = false;
  std::string tier;
  std::uint64_t hash = 0;  ///< reply_hash()
  std::string error;
};

ParsedReply parse_reply(const std::string& reply) {
  ParsedReply p;
  p.ok = reply.rfind("{\"ok\": true", 0) == 0;
  if (!p.ok) {
    p.error = reply;
    return p;
  }
  p.cached = reply.find("\"cached\": true") != std::string::npos;
  const std::string tier_key = "\"tier\": \"";
  const std::size_t t = reply.find(tier_key) + tier_key.size();
  p.tier = reply.substr(t, reply.find('"', t) - t);
  p.hash = reply_hash(reply);
  return p;
}

enum class Bucket : unsigned char { kHit, kTier0, kSolve, kError };

struct Sample {
  std::uint32_t block = 0;
  std::uint16_t pos = 0;
  Bucket bucket = Bucket::kError;
  double latency_s = 0.0;
  ParsedReply reply;
};

/// Per-layer samples from the traced replays, per client.
struct LayerSamples {
  std::vector<double> tokenize, reply_json, key, hit, self_share,
      uncovered_share, miss_overhead, surrogate_query, correlation_case;
  std::size_t replay_serves = 0;  ///< extra serve() calls the replays made
  void append(const LayerSamples& o) {
    replay_serves += o.replay_serves;
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(tokenize, o.tokenize);
    cat(reply_json, o.reply_json);
    cat(key, o.key);
    cat(hit, o.hit);
    cat(self_share, o.self_share);
    cat(uncovered_share, o.uncovered_share);
    cat(miss_overhead, o.miss_overhead);
    cat(surrogate_query, o.surrogate_query);
    cat(correlation_case, o.correlation_case);
  }
};

/// Replay one traced request's pieces after the timed handle_line call
/// and record them as its child spans.
void trace_request(Context& ctx, sc::Server& server,
                   const sc::SurrogateTable& table, const std::string& line,
                   const ParsedReply& reply, Clock::time_point t0,
                   Clock::time_point t1, std::uint64_t id, LayerSamples* out) {
  if (!reply.ok) {
    Tracer::Group g(ctx.tracer, id);
    g.add("protocol.handle_line", t0, t1);
    g.commit();
    return;
  }
  Tracer::Group g(ctx.tracer, id);
  const double total = seconds_between(t0, t1);
  const auto parent = g.add("protocol.handle_line", t0, t1);

  const auto a = Clock::now();
  const auto tokens = sc::protocol::tokenize(line);
  const auto b = Clock::now();
  const sc::Case c = case_of(tokens);
  const auto d = Clock::now();
  g.add("protocol.tokenize", a, b, parent);
  g.add("protocol.parse", b, d, parent);
  const double tokenize_s = seconds_between(a, b);
  const double parse_s = seconds_between(b, d);
  out->tokenize.push_back(tokenize_s * 1e6);

  if (reply.cached) {
    const auto e = Clock::now();
    const std::string key = sc::canonical_case_key(c);
    const auto f = Clock::now();
    const sc::ServeReply r = server.serve(c);
    const auto h = Clock::now();
    ++out->replay_serves;
    const std::string json = sc::protocol::reply_to_json(r);
    const auto i = Clock::now();
    const auto serve = g.add("server.serve", f, h, parent);
    g.add("server.key", e, f, serve);
    g.add("protocol.reply_json", h, i, parent);
    const double serve_s = seconds_between(f, h);
    const double reply_s = seconds_between(h, i);
    out->key.push_back(seconds_between(e, f) * 1e6);
    out->hit.push_back(serve_s * 1e6);
    out->reply_json.push_back(reply_s * 1e6);
    out->self_share.push_back((total - serve_s) / total);
    out->uncovered_share.push_back(
        (total - tokenize_s - parse_s - serve_s - reply_s) / total);
  } else {
    // A miss cannot be replayed through serve (it would now hit), so its
    // serve time is the call minus the replayed protocol pieces, and the
    // server's own share is that minus a direct run at the answering tier.
    const sc::ServeReply cached = server.serve(c);
    ++out->replay_serves;
    const auto e = Clock::now();
    const std::string json = sc::protocol::reply_to_json(cached);
    const auto f = Clock::now();
    const sc::CaseResult direct = run_at_tier(c, reply.tier);
    const auto h = Clock::now();
    g.add("protocol.reply_json", e, f, parent);
    const double reply_s = seconds_between(e, f);
    const double direct_s = seconds_between(f, h);
    const double serve_s = total - tokenize_s - parse_s - reply_s;
    const auto serve = g.add_derived("server.serve", d, serve_s, parent);
    g.add(reply.tier == "surrogate"     ? "surrogate.case"
          : reply.tier == "correlation" ? "correlations.case"
                                        : "stagnation.case",
          f, h, serve);
    // Solves are replayed only so their time lands in the stagnation
    // layer; miss_overhead_us describes tier-0 misses.
    if (reply.tier != "solve")
      out->miss_overhead.push_back((serve_s - direct_s) * 1e6);
    if (reply.tier == "correlation") {
      out->correlation_case.push_back(direct_s * 1e6);
    } else if (reply.tier == "surrogate") {
      constexpr int kReps = 64;
      double sink = 0.0;
      const auto q0 = Clock::now();
      for (int k = 0; k < kReps; ++k)
        sink += table.query(c.condition.velocity_mps, c.condition.altitude_m)
                    .q_conv_W_m2;
      const auto q1 = Clock::now();
      if (sink != sink) ctx.outcome.wrong("surrogate query returned NaN");
      out->surrogate_query.push_back(seconds_between(q0, q1) * 1e9 / kReps);
    }
  }
  g.commit();
}

}  // namespace

struct ServePass::State {
  std::array<std::vector<Sample>, kClients> samples;  ///< current slice
  std::array<LayerSamples, kClients> layers;
  /// Latencies of checked replies.
  std::vector<double> hit_us, tier0_us, solve_ms;
  std::size_t requests = 0;
  std::size_t next_block = 0;
  double loop_s = 0.0;
  /// Peak RSS when the first kInitialServeBlocks blocks are done. Every
  /// run gets that far; later blocks keep inserting fresh keys into the
  /// cache, so a peak taken at the end would grow with throughput.
  double rss_mb = 0.0;
};

ServePass::ServePass(Context& ctx, Setup& setup)
    : ctx_(ctx), setup_(setup), st_(std::make_unique<State>()) {}

ServePass::~ServePass() = default;

void ServePass::slice(std::size_t min_blocks, double budget_s) {
  Context& ctx = ctx_;
  sc::Server& server = *setup_.server;
  ServeStream& stream = setup_.stream;
  State& st = *st_;
  if (min_blocks == 0 && budget_s <= 0.0) return;

  // Both clients stop at the same block boundary, decided by the barrier's
  // completion step, which also generates the next block while neither
  // client is reading the stream. Generation time is excluded from the
  // loop time that req_per_s divides by.
  struct Control {
    ServeStream* stream;
    std::size_t next_block;
    std::size_t end_min;  ///< blocks before this index always run
    double budget_s;
    double* rss_mb;
    bool stop = false;
    bool started = false;
    Clock::time_point slice_start{}, block_start{};
    double loop_s = 0.0;
    void operator()() noexcept {
      const auto now = Clock::now();
      if (!started) {
        started = true;
        slice_start = now;
      } else {
        loop_s += seconds_between(block_start, now);
        if (++next_block == kInitialServeBlocks) *rss_mb = peak_rss_mb();
        stop = next_block >= end_min &&
               seconds_between(slice_start, now) >= budget_s;
      }
      if (!stop) {
        try {
          stream->block(next_block);
        } catch (...) {
          stop = true;  // out of memory: end the slice with what ran
        }
      }
      block_start = Clock::now();
    }
  } control{&stream, st.next_block, st.next_block + min_blocks, budget_s,
            &st.rss_mb};
  auto on_block_end = [&control]() noexcept { control(); };
  std::barrier block_sync(static_cast<std::ptrdiff_t>(kClients),
                          on_block_end);
  std::barrier pair_sync(static_cast<std::ptrdiff_t>(kClients));

  auto client = [&](std::size_t k) {
    std::string out;
    block_sync.arrive_and_wait();
    while (!control.stop) {
      const std::size_t b = control.next_block;
      const auto& reqs = stream.at(b).client[k];
      for (std::size_t pos = 0; pos < reqs.size(); ++pos) {
        const Request& req = reqs[pos];
        if (req.kind == Kind::kCoalesce) pair_sync.arrive_and_wait();
        const auto t0 = Clock::now();
        sc::protocol::handle_line(server, req.line, &out);
        const auto t1 = Clock::now();
        Sample s;
        s.block = static_cast<std::uint32_t>(b);
        s.pos = static_cast<std::uint16_t>(pos);
        s.latency_s = seconds_between(t0, t1);
        s.reply = parse_reply(out);
        s.bucket = !s.reply.ok                ? Bucket::kError
                   : s.reply.cached           ? Bucket::kHit
                   : s.reply.tier == "solve" ? Bucket::kSolve
                                              : Bucket::kTier0;
        if (ctx.tracer.on())
          trace_request(ctx, server, *setup_.table, req.line, s.reply, t0, t1,
                        (std::uint64_t{k} << 56) | (std::uint64_t{b} << 16) |
                            pos,
                        &st.layers[k]);
        st.samples[k].push_back(std::move(s));
      }
      block_sync.arrive_and_wait();
    }
  };
  {
    std::array<std::jthread, kClients> clients;
    for (std::size_t k = 0; k < kClients; ++k)
      clients[k] = std::jthread(client, k);
  }
  st.next_block = control.next_block;
  st.loop_s += control.loop_s;
  check_slice();
}

void ServePass::check_slice() {
  Context& ctx = ctx_;
  ServeStream& stream = setup_.stream;
  State& st = *st_;
  auto& samples = st.samples;

  // Check every reply against a direct run_case at the tier it names,
  // one reference per distinct (line, tier), computed across nproc
  // threads after the slice's timed loop.
  struct Expected {
    std::string line;
    std::string tier;
    std::uint64_t hash = 0;
    std::string error;
  };
  std::vector<Expected> expected;
  std::unordered_map<std::string, std::size_t> index;
  std::size_t requests = 0;
  for (std::size_t k = 0; k < kClients; ++k) {
    for (const auto& s : samples[k]) {
      ++requests;
      const Request& req = stream.at(s.block).client[k][s.pos];
      switch (s.bucket) {
        case Bucket::kHit: st.hit_us.push_back(s.latency_s * 1e6); break;
        case Bucket::kTier0: st.tier0_us.push_back(s.latency_s * 1e6); break;
        case Bucket::kSolve: st.solve_ms.push_back(s.latency_s * 1e3); break;
        case Bucket::kError: break;
      }
      if (!s.reply.ok) continue;
      const std::string key = s.reply.tier + "|" + req.line;
      if (index.emplace(key, expected.size()).second)
        expected.push_back({req.line, s.reply.tier, 0, {}});
    }
  }
  {
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      for (std::size_t i = next++; i < expected.size(); i = next++) {
        auto& e = expected[i];
        try {
          const sc::Case c = case_of(sc::protocol::tokenize(e.line));
          sc::ServeReply direct;
          direct.ok = true;
          direct.case_name = c.name;
          direct.tier = e.tier;
          direct.metrics = run_at_tier(c, e.tier).metrics;
          e.hash = reply_hash(sc::protocol::reply_to_json(direct));
        } catch (const std::exception& err) {
          e.error = err.what();
        }
      }
    };
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < ctx.threads; ++t) pool.emplace_back(worker);
  }
  st.requests += requests;
  ctx.outcome.attempt(requests);
  for (std::size_t k = 0; k < kClients; ++k) {
    for (const auto& s : samples[k]) {
      const Request& req = stream.at(s.block).client[k][s.pos];
      if (!s.reply.ok) {
        ctx.outcome.fail("serve error for '" + req.line + "': " + s.reply.error);
        continue;
      }
      const auto& e = expected[index.at(s.reply.tier + "|" + req.line)];
      if (s.reply.tier != expected_tier(req.kind)) {
        ctx.outcome.wrong("'" + req.line + "' answered by tier " +
                          s.reply.tier + ", expected " +
                          expected_tier(req.kind));
      } else if (!e.error.empty()) {
        ctx.outcome.wrong("direct run_case failed for '" + req.line +
                          "': " + e.error);
      } else if (e.hash != s.reply.hash) {
        ctx.outcome.wrong("reply to '" + req.line +
                          "' differs from a direct run_case at tier " +
                          e.tier);
      }
    }
  }
  // The replies are checked: drop them and the lines they answered, so
  // memory does not grow with the number of requests a run gets through.
  for (auto& v : samples) v.clear();
  stream.release_before(st.next_block);
}

void ServePass::finish() {
  Context& ctx = ctx_;
  sc::Server& server = *setup_.server;
  ServeStream& stream = setup_.stream;
  State& st = *st_;
  auto& layers = st.layers;
  // Each percentile is taken over all the run's samples of its kind. The
  // medians and the solve p90 are end-to-end figures. The hit p99, the
  // tier-0 p90 and the solve p50 are per-layer figures: over ten seeds
  // their spreads reached 0.27-0.52, the first two because a tail of
  // thread hand-offs follows the shared host's load, the last because
  // it falls in the gap between the ~14 ms and ~25 ms clusters of solve
  // cost.
  auto put_percentile = [&ctx](const std::string& name,
                               const std::vector<double>& samples,
                               std::size_t pct, const char* unit,
                               bool end_to_end) {
    const Percentile p = percentile(samples, pct);
    if (!p.reportable) {
      ctx.outcome.wrong(name + ": only " + std::to_string(p.beyond) +
                        " samples beyond the percentile (need " +
                        std::to_string(kMinBeyond) + ")");
      return;
    }
    if (end_to_end)
      ctx.put(name, p.value, unit, samples.size());
    else
      ctx.put_layer(name, p.value, unit, samples.size());
  };
  put_percentile("serve.hit_p50_us", st.hit_us, 50, "us", true);
  put_percentile("serve.hit_p99_us", st.hit_us, 99, "us", false);
  put_percentile("serve.tier0_p50_us", st.tier0_us, 50, "us", true);
  // p90, not p99: a tier-0 miss is two thread hand-offs, and on a shared
  // host the p99 of those jumps between ~0.2 and ~2 ms from run to run.
  put_percentile("serve.tier0_p90_us", st.tier0_us, 90, "us", false);
  put_percentile("serve.solve_p50_ms", st.solve_ms, 50, "ms", false);
  put_percentile("serve.solve_p90_ms", st.solve_ms, 90, "ms", true);
  ctx.put("serve.req_per_s", static_cast<double>(st.requests) / st.loop_s,
          "1/s", st.requests);
  if (st.next_block < kInitialServeBlocks)
    ctx.outcome.wrong("serve pass ran fewer than its minimum blocks");
  ctx.put("peak_rss_mb", st.rss_mb, "MB", 1);
  ctx.stream_hashes.push_back("serve_mix:" + hex64(stream.hash()) + ":" +
                              std::to_string(st.next_block) + "blocks");

  if (!ctx.tracer.on()) return;
  LayerSamples all;
  for (const auto& l : layers) all.append(l);
  // The replays' own serve() calls are all cache hits; take them out of
  // the server's counters so the ratios describe the request stream.
  auto stats = server.stats();
  stats.requests -= all.replay_serves;
  stats.cache_hits -= all.replay_serves;
  const double n = static_cast<double>(std::max<std::size_t>(stats.requests, 1));
  ctx.put_layer("protocol.tokenize_us", median(all.tokenize), "us", all.tokenize.size());
  ctx.put_layer("protocol.reply_json_us", median(all.reply_json), "us", all.reply_json.size());
  ctx.put_layer("protocol.self_share", median(all.self_share), "1", all.self_share.size());
  ctx.put_layer("server.key_us", median(all.key), "us", all.key.size());
  ctx.put_layer("server.hit_us", median(all.hit), "us", all.hit.size());
  ctx.put_layer("server.miss_overhead_us", median(all.miss_overhead), "us", all.miss_overhead.size());
  ctx.put_layer("server.hit_ratio", static_cast<double>(stats.cache_hits) / n, "1", stats.requests);
  ctx.put_layer("server.coalesced_ratio", static_cast<double>(stats.coalesced) / n, "1", stats.requests);
  ctx.put_layer("server.served_surrogate", static_cast<double>(stats.served_surrogate), "count", 1);
  ctx.put_layer("server.served_correlation", static_cast<double>(stats.served_correlation), "count", 1);
  ctx.put_layer("server.served_solve", static_cast<double>(stats.served_solve), "count", 1);
  ctx.put_layer("server.errors", static_cast<double>(stats.errors), "count", 1);
  ctx.put_layer("server.timeouts", static_cast<double>(stats.timeouts), "count", 1);
  ctx.put_layer("surrogate.query_ns", median(all.surrogate_query), "ns", all.surrogate_query.size());
  ctx.put_layer("correlations.case_us", median(all.correlation_case), "us", all.correlation_case.size());
  ctx.put_layer("trace.hit_uncovered_share", median(all.uncovered_share), "1", all.uncovered_share.size());
}

}  // namespace perfbench
