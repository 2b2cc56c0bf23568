/// perfbench: the repository benchmark's program. One process runs
/// one workload. Every run executes the serving and stagnation-batch
/// passes interleaved in slices, so every run reports every end-to-end
/// figure; the workload's own pass runs more than its minimum and gets
/// --seconds. The traced run (--trace 1) adds the serial field suite,
/// whose figures are per-layer. It prints one JSON record on stdout;
/// run.py turns that into the benchmark's result line.
///
///   perfbench --workload serve_mix|stag_batch --seed N
///             --seconds S [--trace 0|1] [--threads T] [--data DIR]
///             [--trace-out FILE]
///   perfbench --self-test

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "scenario/protocol.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

namespace protocol = cat::scenario::protocol;

constexpr std::size_t kSetupRepeatsPerSlice = 4;

/// Serving blocks and stagnation rounds every slice runs at least, also
/// when the pass is not the workload's own.
constexpr std::size_t kServeBlocksPerSlice = 3;
constexpr std::size_t kStagRoundsPerSlice = 2;
constexpr std::size_t kMaxSpans = 400000;

/// Layers whose self time the traced run reports (span-name prefixes).
constexpr const char* kLayers[] = {
    "protocol", "server",   "surrogate", "correlations", "stagnation",
    "equilibrium", "radiation", "batch", "pulse", "fv", "march", "relax1d"};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t threads = 0;  ///< 0 = nproc
  std::string data_dir = "data";
  std::string trace_out;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S [--trace 0|1] [--threads T] [--data DIR] "
               "[--trace-out FILE]\n       perfbench --self-test\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
    } else if (flag == "--threads") {
      a.threads = std::strtoull(v.c_str(), &end, 10);
    } else if (flag == "--data") {
      a.data_dir = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage("unknown option " + flag);
    }
    if (end != nullptr && *end != '\0') usage("bad value for " + flag);
  }
  if (a.self_test) return a;
  if (a.workload != "serve_mix" && a.workload != "stag_batch")
    usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds >= 0.0 && a.seconds <= 600.0))
    usage("--seconds must lie in [0, 600]");
  return a;
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Cache size in bytes from sysfs (index2 = L2, index3 = L3); 0 if absent.
long cache_bytes(int index) {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                  std::to_string(index) + "/size");
  std::string s;
  if (!(f >> s) || s.empty()) return 0;
  long v = std::strtol(s.c_str(), nullptr, 10);
  if (s.back() == 'K') v *= 1024;
  if (s.back() == 'M') v *= 1024 * 1024;
  return v;
}

std::string figures_json(const std::map<std::string, Figure>& figures) {
  std::string out = "{";
  for (const auto& [name, f] : figures) {
    if (out.size() > 1) out += ", ";
    // Built by append: GCC 12's -Wrestrict misfires on operator+ chains.
    out += "\"";
    out += protocol::json_escape(name);
    out += "\": {\"value\": ";
    out += protocol::json_number(f.value);
    out += ", \"unit\": \"";
    out += protocol::json_escape(f.unit);
    out += "\", \"samples\": ";
    out += std::to_string(f.samples);
    out += "}";
  }
  return out + "}";
}

int self_test() {
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  const auto h1 = ServeStream(7, 2).hash(), h2 = ServeStream(7, 2).hash();
  const auto h3 = ServeStream(8, 2).hash();
  check(h1 == h2, "serve stream: same seed, same hash " + hex64(h1));
  check(h1 != h3, "serve stream: other seed, other hash " + hex64(h3));
  check(make_stag_inputs(7).hash() == make_stag_inputs(7).hash(),
        "stag inputs: same seed, same hash");
  check(make_stag_inputs(7).hash() != make_stag_inputs(8).hash(),
        "stag inputs: other seed, other hash");
  {
    ServeStream s(7, 1);
    std::size_t coalesce_same = 0, solves = 0;
    const auto& b = s.at(0);
    for (std::size_t i = 0; i < kBlockSize; ++i) {
      if (b.client[0][i].kind == Kind::kCoalesce &&
          b.client[1][i].kind == Kind::kCoalesce &&
          b.client[0][i].line == b.client[1][i].line)
        ++coalesce_same;
      if (b.client[0][i].kind == Kind::kSolve) ++solves;
    }
    check(coalesce_same == kCoalescePerBlock,
          "coalesce slots align across clients (" +
              std::to_string(coalesce_same) + ")");
    check(solves == kSolvePerBlock, "solve count per block is exact");
  }

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const auto p99 = percentile(v, 99);
  check(p99.value == 990.0 && p99.beyond == 10 && p99.reportable,
        "p99 of 1..1000 = 990 with 10 beyond (beyond = " +
            std::to_string(p99.beyond) + ")");
  v.pop_back();
  const auto p99_short = percentile(v, 99);
  check(!p99_short.reportable,
        "p99 of 1..999 not reportable (beyond = " +
            std::to_string(p99_short.beyond) + ")");
  const auto p90 = percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90);
  check(p90.value == 9.0 && p90.beyond == 1 && !p90.reportable,
        "p90 of 1..10 = 9 with 1 beyond, not reportable");
  check(median({3, 1, 2}) == 2.0 && median({4, 1, 3, 2}) == 2.5,
        "median of odd and even counts");
  return failures == 0 ? 0 : 1;
}

int run(const Args& args) {
  const std::size_t cpus = nproc();
  Context ctx;
  ctx.seed = args.seed;
  ctx.threads = args.threads == 0 ? cpus : args.threads;
  ctx.data_dir = args.data_dir;
  if (ctx.threads > cpus) {
    std::fprintf(stderr,
                 "perfbench: refusing %zu threads on a host with %zu CPUs\n",
                 ctx.threads, cpus);
    return 2;
  }
  if (args.trace) ctx.tracer.enable(kMaxSpans);

  // Set-up (server with tables preloaded, request stream, sweep grid) is
  // repeated and its median reported, so a change that moves work into
  // set-up shows. The repeats are spread over the run (two before the
  // first slice, kSetupRepeatsPerSlice after each) so one slow stretch of
  // a shared host does not set the median; the passes use the second one.
  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const auto t0 = Clock::now();
    Setup s = make_setup(ctx);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return s;
  };
  timed_setup();
  Setup setup = timed_setup();

  // Every slice runs both timed passes; the workload's own pass runs more
  // than its minimum and gets --seconds spread over the slices.
  const std::string& w = args.workload;
  const double share = args.seconds / static_cast<double>(kSlices);
  const bool home_serve = w == "serve_mix", home_stag = w == "stag_batch";
  ServePass serve(ctx, setup);
  StagPass stag(ctx, setup);
  for (std::size_t i = 0; i < kSlices; ++i) {
    serve.slice(kServeBlocksPerSlice, home_serve ? share : 0.0);
    stag.slice(kStagRoundsPerSlice, home_stag ? share : 0.0);
    for (std::size_t r = 0; r < kSetupRepeatsPerSlice; ++r) timed_setup();
  }
  serve.finish();
  stag.finish();
  ctx.put("setup_s", median(setup_s), "s", setup_s.size());
  if (args.trace) {
    FieldPass field(ctx);
    field.run();
    field.finish();
    const auto self = ctx.tracer.self_seconds_by_layer();
    for (const char* layer : kLayers) {
      const auto it = self.find(layer);
      ctx.put_layer(std::string(layer) + ".self_ms",
                    it == self.end() ? 0.0 : it->second * 1e3, "ms", 1);
    }
    ctx.put_layer("trace.spans", static_cast<double>(ctx.tracer.size()),
                  "count", 1);
    ctx.put_layer("trace.dropped", static_cast<double>(ctx.tracer.dropped()),
                  "count", 1);
    if (!args.trace_out.empty() && !ctx.tracer.write_jsonl(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }

  std::string hashes;
  for (const auto& h : ctx.stream_hashes)
    hashes += (hashes.empty() ? "\"" : ", \"") + h + "\"";
  std::string reasons;
  for (const auto& r : ctx.outcome.reasons())
    reasons += (reasons.empty() ? "\"" : ", \"") + protocol::json_escape(r) + "\"";
  std::string known;
  for (const auto& r : ctx.outcome.known_defects())
    known += (known.empty() ? "\"" : ", \"") + protocol::json_escape(r) + "\"";
  std::string outputs = "{";
  for (const auto& [name, ms] : ctx.outputs) {
    if (outputs.size() > 1) outputs += ", ";
    outputs += "\"" + name + "\": {";
    for (std::size_t i = 0; i < ms.size(); ++i)
      outputs += (i ? ", \"" : "\"") + protocol::json_escape(ms[i].first) +
                 "\": " + protocol::json_number(ms[i].second);
    outputs += "}";
  }
  outputs += "}";
  const long l2 = cache_bytes(2), l3 = cache_bytes(3);
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %s, "
      "\"inputs\": [%s], "
      "\"host\": {\"nproc\": %zu, \"threads\": {\"serve_clients\": %zu, "
      "\"serve_workers\": 2, \"stag\": %zu, \"field\": 1}, "
      "\"threaded_claims_valid\": %s, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"cat_native\": %s, \"l2_bytes\": %ld, "
      "\"l3_bytes\": %ld}, "
      "\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"failures\": [%s], \"known_defects\": [%s], \"metrics\": %s, "
      "\"per_layer\": %s, "
      "\"outputs\": %s}\n",
      w.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? "true" : "false", hashes.c_str(), cpus, kClients,
      ctx.threads, cpus >= 4 ? "true" : "false",
      protocol::json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_CAT_NATIVE ? "true" : "false", l2, l3,
      ctx.outcome.correct() ? "true" : "false", ctx.outcome.attempted(),
      ctx.outcome.failed(), reasons.c_str(), known.c_str(),
      figures_json(ctx.metrics).c_str(), figures_json(ctx.per_layer).c_str(),
      outputs.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (args.self_test) return perfbench::self_test();
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
