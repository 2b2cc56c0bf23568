// cat_run — the scenario-engine CLI: list the named scenario catalog, run
// one scenario (or all of them, or an entry-angle sweep) with a chosen
// thread count, and leave CSV/JSON artifacts next to the console output.
//
//   cat_run --list
//   cat_run titan_probe_pulse --threads 4 --csv out/ --json out/
//   cat_run titan_probe_pulse --sweep-gamma=-30,-24,-18 --threads 4
//   cat_run --all --fidelity smoke
//
// Exit code 0 on success, 1 on usage errors or an unknown scenario, 2 when
// any case of a batch failed.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arg_parse.hpp"
#include "core/thread_pool.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "scenario/batch.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/surrogate.hpp"

using namespace cat;

namespace {

void print_usage() {
  std::printf(
      "usage: cat_run --list\n"
      "       cat_run <scenario> [options]\n"
      "       cat_run --all [options]\n"
      "options:\n"
      "  --threads N         worker threads (0 = all cores; default 1)\n"
      "  --fidelity F        smoke | nominal | correlation | surrogate\n"
      "                      (default: scenario's own)\n"
      "  --table FILE        load a surrogate table (cat_tabulate output)\n"
      "                      and register it for --fidelity surrogate\n"
      "  --compare-fidelity  run <scenario> at every applicable tier and\n"
      "                      print the deviation table vs nominal\n"
      "  --csv DIR           write <scenario>.csv artifacts into DIR\n"
      "  --json DIR          write <scenario>.json artifacts into DIR\n"
      "  --sweep-gamma=A,B,… run an entry-angle sweep (deg) of <scenario>\n"
      "  --quiet             metrics only, no tables\n");
}

void print_list() {
  std::printf("%-28s %-20s %-6s %-6s %-9s  %s\n", "name", "solver", "planet",
              "gas", "fidelity", "title");
  for (const auto& c : scenario::registry()) {
    std::printf("%-28s %-20s %-6s %-6s %-9s  %s\n", c.name.c_str(),
                scenario::to_string(c.family), scenario::to_string(c.planet),
                scenario::to_string(c.gas), scenario::to_string(c.fidelity),
                c.title.c_str());
  }
}

void print_result(const scenario::CaseResult& r, bool quiet) {
  if (!quiet && r.table.n_rows() > 0) r.table.print();
  if (!quiet && !r.rendering.empty())
    std::printf("%s\n", r.rendering.c_str());
  std::printf("[%s] %s:", r.solver.c_str(), r.case_name.c_str());
  for (const auto& m : r.metrics)
    std::printf("  %s = %.6g %s", m.name.c_str(), m.value,
                m.unit == "-" ? "" : m.unit.c_str());
  std::printf("\n  (%.2f s", r.elapsed_seconds);
  if (r.n_points_skipped > 0)
    std::printf(", %zu points skipped", r.n_points_skipped);
  std::printf(")\n");
}

void write_artifacts(const scenario::CaseResult& r, const std::string& csv_dir,
                     const std::string& json_dir) {
  if (!csv_dir.empty())
    io::write_csv(r.table, csv_dir + "/" + r.case_name + ".csv");
  if (!json_dir.empty()) {
    std::vector<std::pair<std::string, double>> kv;
    for (const auto& m : r.metrics) kv.emplace_back(m.name, m.value);
    kv.emplace_back("elapsed_seconds", r.elapsed_seconds);
    kv.emplace_back("n_points_skipped",
                    static_cast<double>(r.n_points_skipped));
    std::string text = io::to_json(kv);
    // Merge metrics + table into one document.
    text.erase(text.find_last_of('}'));
    text += ",\n  \"table\": " + io::to_json(r.table) + "}\n";
    io::write_json(text, json_dir + "/" + r.case_name + ".json");
  }
}

/// The wall-heating metric a full solve of \p c reports: q_conv at a
/// stagnation point, peak_q_w for the marching families, nose_q_w for a
/// viscous finite-volume field; null for families that report none (an
/// inviscid field, say). The tier-0 rows always report q_conv.
const char* heating_metric(const scenario::Case& c) {
  switch (c.family) {
    case scenario::SolverFamily::kStagnationPoint:
      return "q_conv";
    case scenario::SolverFamily::kEulerBoundaryLayer:
    case scenario::SolverFamily::kVslMarch:
    case scenario::SolverFamily::kPnsMarch:
      return "peak_q_w";
    case scenario::SolverFamily::kFiniteVolumeField:
      return c.viscous ? "nose_q_w" : nullptr;
    default:
      return nullptr;
  }
}

/// --compare-fidelity: solve the same flight state at every applicable
/// tier and print one row per tier with the deviation of the wall heating
/// from the nominal answer. Surrogate rows appear only when a registered
/// table covers the state; correlation/surrogate need a point condition.
int compare_fidelity(const scenario::Case& base, std::size_t threads) {
  if (!(base.condition.velocity_mps > 0.0)) {
    std::fprintf(stderr,
                 "error: --compare-fidelity needs a point-condition "
                 "scenario (condition.velocity_mps > 0)\n");
    return 1;
  }
  const char* metric = heating_metric(base);
  if (metric == nullptr) {
    std::fprintf(stderr,
                 "error: --compare-fidelity: '%s' (%s) reports no wall "
                 "heating to compare\n",
                 base.name.c_str(), scenario::to_string(base.family));
    return 1;
  }
  struct Row {
    const char* tier;
    scenario::CaseResult result;
  };
  std::vector<Row> rows;
  scenario::RunOptions ropt;
  ropt.threads = threads;

  auto run_tier = [&](scenario::Fidelity f) {
    const char* label = scenario::to_string(f);
    scenario::Case c = base;
    c.fidelity = f;
    try {
      rows.push_back({label, scenario::run_case(c, ropt)});
    } catch (const std::exception& err) {
      std::printf("%-12s (skipped: %s)\n", label, err.what());
    }
  };
  run_tier(scenario::Fidelity::kNominal);
  run_tier(scenario::Fidelity::kSmoke);
  run_tier(scenario::Fidelity::kCorrelation);
  if (scenario::find_surrogate(base) != nullptr)
    run_tier(scenario::Fidelity::kSurrogate);
  else
    std::printf("surrogate    (skipped: no registered table covers '%s')\n",
                base.name.c_str());

  if (rows.empty() || std::string(rows.front().tier) != "nominal") {
    std::fprintf(stderr,
                 "error: nominal solve failed; no deviation reference\n");
    return 2;
  }
  auto heating_of = [metric](const scenario::CaseResult& r) {
    for (const char* name : {metric, "q_conv"})
      for (const auto& m : r.metrics)
        if (m.name == name) return m.value;
    return std::nan("");
  };
  const double q_ref = heating_of(rows.front().result);
  std::printf("\n%-12s %-20s %14s %12s %10s\n", "fidelity", "solver",
              "q_conv[W/m^2]", "dev_vs_nom", "time[s]");
  for (const auto& row : rows) {
    const double q = heating_of(row.result);
    std::printf("%-12s %-20s %14.6g %11.2f%% %10.3g\n", row.tier,
                row.result.solver.c_str(), q,
                q_ref != 0.0 ? 100.0 * (q - q_ref) / q_ref : 0.0,
                row.result.elapsed_seconds);
  }
  return 0;
}

std::vector<double> parse_angles_deg(const std::string& list) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t next = list.find(',', pos);
    if (next == std::string::npos) next = list.size();
    double deg = 0.0;
    if (!tools::try_parse_double(list.substr(pos, next - pos), -90.0, 90.0,
                                 &deg)) {
      std::fprintf(stderr,
                   "error: --sweep-gamma expects comma-separated angles in "
                   "[-90, 90] deg, got '%s'\n", list.c_str());
      std::exit(1);
    }
    out.push_back(deg * M_PI / 180.0);
    pos = next + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "error: --sweep-gamma needs at least one angle\n");
    std::exit(1);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }

  std::string target, csv_dir, json_dir, sweep_gamma, table_path;
  std::size_t threads = 1;
  bool all = false, quiet = false, list = false, compare = false;
  std::optional<scenario::Fidelity> fidelity;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A flag matches only exactly ("--csv out") or with '=' ("--csv=out");
    // prefix typos like --csvdir fall through to the unknown-option error.
    auto matches = [&](const char* flag) {
      const std::size_t n = std::strlen(flag);
      return arg == flag ||
             (arg.size() > n && arg.compare(0, n, flag) == 0 &&
              arg[n] == '=');
    };
    auto value = [&](const char* flag) -> std::string {
      const std::size_t n = std::strlen(flag);
      if (arg.size() > n && arg[n] == '=') return arg.substr(n + 1);
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (matches("--threads")) {
      threads = tools::parse_threads_arg(value("--threads"));
    } else if (matches("--fidelity")) {
      const std::string f = value("--fidelity");
      scenario::Fidelity parsed{};
      if (!scenario::parse_fidelity(f, &parsed)) {
        std::fprintf(stderr, "error: unknown fidelity '%s'\n", f.c_str());
        return 1;
      }
      fidelity = parsed;
    } else if (matches("--table")) {
      table_path = value("--table");
    } else if (arg == "--compare-fidelity") {
      compare = true;
    } else if (matches("--csv")) {
      csv_dir = value("--csv");
    } else if (matches("--json")) {
      json_dir = value("--json");
    } else if (matches("--sweep-gamma")) {
      sweep_gamma = value("--sweep-gamma");
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      print_usage();
      return 1;
    } else if (target.empty()) {
      target = arg;
    } else {
      std::fprintf(stderr, "error: more than one scenario named\n");
      return 1;
    }
  }

  if (list) {
    print_list();
    return 0;
  }
  if (!all && target.empty()) {
    print_usage();
    return 1;
  }

  // Register the table before any serving path runs — --compare-fidelity
  // includes the surrogate row only when a registered table matches.
  if (!table_path.empty()) {
    try {
      auto table = std::make_shared<scenario::SurrogateTable>(
          scenario::SurrogateTable::load(table_path));
      std::printf("loaded surrogate table '%s' (base case '%s')\n",
                  table_path.c_str(), table->meta().base_case.c_str());
      scenario::register_surrogate(std::move(table));
    } catch (const std::exception& err) {
      std::fprintf(stderr, "error: --table %s: %s\n", table_path.c_str(),
                   err.what());
      return 1;
    }
  }

  if (compare) {
    if (all || target.empty()) {
      std::fprintf(stderr,
                   "error: --compare-fidelity takes one scenario name\n");
      return 1;
    }
    const scenario::Case* c = scenario::find_scenario(target);
    if (c == nullptr) {
      std::fprintf(stderr,
                   "error: unknown scenario '%s' (try cat_run --list)\n",
                   target.c_str());
      return 1;
    }
    if (threads == 0) threads = core::ThreadPool::recommended_threads();
    return compare_fidelity(*c, threads);
  }

  auto apply_fidelity = [&](scenario::Case c) {
    if (fidelity) c.fidelity = *fidelity;
    return c;
  };

  std::vector<scenario::Case> cases;
  if (all) {
    for (const auto& c : scenario::registry())
      cases.push_back(apply_fidelity(c));
  } else {
    const scenario::Case* c = scenario::find_scenario(target);
    if (c == nullptr) {
      std::fprintf(stderr,
                   "error: unknown scenario '%s' (try cat_run --list)\n",
                   target.c_str());
      return 1;
    }
    if (!sweep_gamma.empty()) {
      cases = scenario::entry_angle_sweep(apply_fidelity(*c),
                                          parse_angles_deg(sweep_gamma));
    } else {
      cases.push_back(apply_fidelity(*c));
    }
  }

  if (threads == 0) threads = core::ThreadPool::recommended_threads();

  int rc = 0;
  try {
    if (cases.size() == 1) {
      // Single case: give it the full thread budget internally.
      scenario::RunOptions ropt;
      ropt.threads = threads;
      const auto r = scenario::run_case(cases.front(), ropt);
      print_result(r, quiet);
      write_artifacts(r, csv_dir, json_dir);
    } else {
      // Batch: parallelize across cases.
      scenario::BatchOptions bopt;
      bopt.threads = threads;
      const auto batch = scenario::run_batch(cases, bopt);
      for (const auto& r : batch.results) {
        print_result(r, quiet);
        write_artifacts(r, csv_dir, json_dir);
        for (const auto& m : r.metrics)
          if (m.name == "failed" && m.value != 0.0) rc = 2;
      }
      std::printf("batch: %zu cases in %.2f s on %zu threads\n",
                  batch.results.size(), batch.elapsed_seconds, threads);
    }
  } catch (const std::exception& err) {
    // Solver divergence (cat::Error) or artifact I/O failure: report and
    // use the batch-failure exit code instead of std::terminate.
    std::fprintf(stderr, "error: %s\n", err.what());
    return 2;
  }
  return rc;
}
