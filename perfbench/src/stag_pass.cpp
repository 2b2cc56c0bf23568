/// The stag_batch pass: a seeded velocity x altitude sweep of
/// shuttle_stag_point through run_batch across nproc threads, then the
/// peak-species solve and the four registry heating pulses, each with
/// nproc threads inside the case.

#include <algorithm>
#include <chrono>
#include <cstring>

#include "bench.hpp"
#include "scenario/batch.hpp"
#include "scenario/pulse.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "solvers/stagnation/stagnation.hpp"
#include "stats.hpp"

namespace perfbench {

namespace sc = cat::scenario;

namespace {

constexpr const char* kPulseCaseNames[kPulseCases] = {
    "titan_probe_peak_species", "titan_probe_pulse", "shuttle_orbiter_pulse",
    "aotv_aeropass_pulse", "galileo_class_pulse"};

/// The stagnation options the scenario runners use at smoke fidelity.
/// The library's own copy sits in its private runner_detail.hpp, so this
/// is a copy; the traced run checks that a direct solve with these
/// options reproduces run_batch and run_case bit for bit.
cat::solvers::StagnationOptions smoke_stagnation_options() {
  cat::solvers::StagnationOptions o;
  o.n_table = 24;
  o.n_spectral = 64;
  o.n_slab = 24;
  return o;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// True when two results carry the same metric names and bit-identical
/// values.
bool same_metrics(const sc::CaseResult& a, const sc::CaseResult& b) {
  if (a.metrics.size() != b.metrics.size()) return false;
  for (std::size_t i = 0; i < a.metrics.size(); ++i)
    if (a.metrics[i].name != b.metrics[i].name ||
        !same_bits(a.metrics[i].value, b.metrics[i].value))
      return false;
  return true;
}

/// Replays of each traced stagnation solve's pieces.
constexpr std::size_t kReplays = 3;

/// The traced per-layer split of single stagnation solves at the seeded
/// trace points: the full solve is the parent; the edge, a radiation-off
/// solve and a second full solve are replayed after it.
void trace_stagnation_points(Context& ctx, const std::vector<sc::Case>& grid,
                             const sc::BatchResult& batch,
                             const std::vector<std::size_t>& points) {
  const sc::Case& base = grid.front();
  const auto planet = sc::make_planet(base.planet);
  const auto eq = sc::make_equilibrium(base.gas, base.planet);
  auto opt = smoke_stagnation_options();
  const cat::solvers::StagnationLineSolver full(eq, opt);
  opt.include_radiation = false;
  const cat::solvers::StagnationLineSolver norad(eq, opt);

  std::vector<double> tp, ph, edge_ms, bl_ms, slab_ms, solve_ms, uncovered;
  for (const std::size_t i : points) {
    const sc::Case& c = grid[i];
    const auto atmo = planet.atmosphere->at(c.condition.altitude_m);
    cat::solvers::StagnationConditions cond;
    cond.velocity = c.condition.velocity_mps;
    cond.rho_inf = atmo.density;
    cond.p_inf = atmo.pressure;
    cond.t_inf = atmo.temperature;
    cond.nose_radius = c.vehicle.nose_radius;
    cond.wall_temperature_K = c.wall_temperature_K;

    const auto t0 = Clock::now();
    const auto sol = full.solve(cond);
    const auto t1 = Clock::now();
    // The pieces are replayed kReplays times and their median times used:
    // bl and slab are differences of whole solves, and a single timing of
    // each puts noise of the slab's own size into them.
    std::vector<double> e_s, tp_s, ph_s, n_s, r_s;
    for (std::size_t k = 0; k < kReplays; ++k) {
      const auto a = Clock::now();
      const auto edge = full.shock_layer_edge(cond);
      const auto b = Clock::now();
      (void)eq.solve_tp(edge.t2, edge.p2);
      const auto d = Clock::now();
      (void)eq.solve_ph(edge.p_stag, edge.h_stag);
      const auto e = Clock::now();
      (void)norad.solve(cond);
      const auto f = Clock::now();
      (void)full.solve(cond);
      const auto h = Clock::now();
      e_s.push_back(seconds_between(a, b));
      tp_s.push_back(seconds_between(b, d));
      ph_s.push_back(seconds_between(d, e));
      n_s.push_back(seconds_between(e, f));
      r_s.push_back(seconds_between(f, h));
    }

    if (!same_bits(sol.q_conv, metric_or(batch.results[i], "q_conv", -1.0)))
      ctx.outcome.wrong("direct stagnation solve of " + c.name +
                        " differs from its run_batch result");

    const double total = seconds_between(t0, t1);
    const double e = median(e_s), n = median(n_s), r = median(r_s);
    const double tp_one = median(tp_s), ph_one = median(ph_s);
    const double bl = std::max(0.0, n - e), slab = std::max(0.0, r - n);
    tp.push_back(tp_one * 1e6);
    ph.push_back(ph_one * 1e6);
    edge_ms.push_back(e * 1e3);
    bl_ms.push_back((n - e) * 1e3);
    slab_ms.push_back((r - n) * 1e3);
    solve_ms.push_back(total * 1e3);
    uncovered.push_back((total - r) / total);

    // The children are laid out one after another inside the parent.
    auto at = [t0](double s) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s));
    };
    Tracer::Group g(ctx.tracer, i);
    const auto parent = g.add("stagnation.solve", t0, t1);
    const auto edge_span = g.add_derived("stagnation.edge", t0, e, parent);
    g.add_derived("equilibrium.solve_tp", t0, tp_one, edge_span);
    g.add_derived("equilibrium.solve_ph", at(tp_one), ph_one, edge_span);
    g.add_derived("stagnation.bl", at(e), bl, parent);
    g.add_derived("radiation.slab", at(e + bl), slab, parent);
    g.commit();
  }
  ctx.put_layer("equilibrium.solve_tp_us", median(tp), "us", tp.size());
  ctx.put_layer("equilibrium.solve_ph_us", median(ph), "us", ph.size());
  ctx.put_layer("stagnation.edge_ms", median(edge_ms), "ms", edge_ms.size());
  ctx.put_layer("stagnation.bl_ms", median(bl_ms), "ms", bl_ms.size());
  ctx.put_layer("radiation.slab_ms", median(slab_ms), "ms", slab_ms.size());
  ctx.put_layer("stagnation.solve_ms", median(solve_ms), "ms", solve_ms.size());
  ctx.put_layer("trace.solve_uncovered_share", median(uncovered), "1",
                uncovered.size());
}

/// pulse.parallel_eff: one heating_pulse of titan_probe_pulse at 1 thread
/// and at N threads, whose points must agree bit for bit.
void trace_pulse_efficiency(Context& ctx, const sc::CaseResult& via_runner) {
  const sc::Case& c = *sc::find_scenario("titan_probe_pulse");
  const auto planet = sc::make_planet(c.planet);
  const auto eq = sc::make_equilibrium(c.gas, c.planet);
  const cat::solvers::StagnationLineSolver solver(eq,
                                                  smoke_stagnation_options());
  const auto traj = cat::trajectory::integrate_entry(
      c.vehicle, c.entry, *planet.atmosphere, planet.radius, planet.g0,
      c.traj_opt);
  sc::PulseOptions opt;
  opt.max_points = c.max_pulse_points;
  opt.wall_temperature_K = c.wall_temperature_K;

  opt.threads = 1;
  const auto t0 = Clock::now();
  const auto serial = sc::heating_pulse(traj, c.vehicle, solver, opt);
  const auto t1 = Clock::now();
  opt.threads = ctx.threads;
  const auto threaded = sc::heating_pulse(traj, c.vehicle, solver, opt);
  const auto t2 = Clock::now();

  bool same = serial.points.size() == threaded.points.size();
  for (std::size_t i = 0; same && i < serial.points.size(); ++i)
    same = same_bits(serial.points[i].q_conv, threaded.points[i].q_conv) &&
           same_bits(serial.points[i].q_rad, threaded.points[i].q_rad);
  if (!same)
    ctx.outcome.wrong("heating_pulse at " + std::to_string(ctx.threads) +
                      " threads differs from 1 thread");
  if (!same_bits(serial.heat_load(), metric_or(via_runner, "heat_load", -1.0)))
    ctx.outcome.wrong("direct heating_pulse differs from run_case(" + c.name +
                      ")");

  Tracer::Group g(ctx.tracer, 0);
  g.add("pulse.heating_pulse", t0, t1);
  g.add("pulse.heating_pulse", t1, t2);
  g.commit();
  const double ts = seconds_between(t0, t1), tn = seconds_between(t1, t2);
  ctx.put_layer("pulse.parallel_eff",
                ts / (static_cast<double>(ctx.threads) * tn), "1", 1);
}

}  // namespace

struct StagPass::State {
  std::vector<sc::Case> grid;
  std::vector<sc::Case> pulses;
  sc::BatchResult first_batch;
  std::vector<sc::CaseResult> first_pulses;
  std::vector<double> sweep_s, pulse_s;
  std::vector<std::vector<double>> case_s =
      std::vector<std::vector<double>>(kPulseCases);
  std::size_t rounds = 0;
  std::size_t solved = 0, skipped = 0, free_molecular = 0, sweep_failed = 0;
};

StagPass::StagPass(Context& ctx, Setup& setup)
    : ctx_(ctx), setup_(setup), st_(std::make_unique<State>()) {
  const StagInputs& in = setup.stag;
  st_->grid = sc::flight_grid_sweep(*sc::find_scenario("shuttle_stag_point"),
                                    in.velocities_mps, in.altitudes_m);
  for (const char* name : kPulseCaseNames)
    st_->pulses.push_back(*sc::find_scenario(name));
}

StagPass::~StagPass() = default;

void StagPass::slice(std::size_t min_rounds, double budget_s) {
  Context& ctx = ctx_;
  const StagInputs& in = setup_.stag;
  State& st = *st_;
  const auto& grid = st.grid;
  const auto& pulses = st.pulses;
  sc::BatchOptions batch_opt;
  batch_opt.threads = ctx.threads;
  const auto slice_start = Clock::now();
  for (std::size_t done = 0;
       done < min_rounds ||
       (budget_s > 0.0 && seconds_between(slice_start, Clock::now()) < budget_s);
       ++done) {
    const std::size_t round = st.rounds++;
    const auto t0 = Clock::now();
    sc::BatchResult batch = sc::run_batch(grid, batch_opt);
    const auto t1 = Clock::now();
    st.sweep_s.push_back(seconds_between(t0, t1));
    {
      Tracer::Group g(ctx.tracer, round);
      g.add("batch.run_batch", t0, t1);
      g.commit();
    }
    ctx.outcome.attempt(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& r = batch.results[i];
      if (metric_or(r, "failed", 0.0) != 0.0) {
        ++st.sweep_failed;
        ctx.outcome.fail("sweep point " + grid[i].name + " failed");
      } else if (round > 0 && !same_metrics(r, st.first_batch.results[i])) {
        ctx.outcome.wrong("sweep point " + grid[i].name +
                          " changed between rounds");
      }
    }

    std::vector<sc::CaseResult> results;
    const auto p0 = Clock::now();
    for (std::size_t k = 0; k < kPulseCases; ++k) {
      const auto c0 = Clock::now();
      results.push_back(sc::run_case(pulses[k], {ctx.threads}));
      const auto c1 = Clock::now();
      st.case_s[k].push_back(seconds_between(c0, c1));
      Tracer::Group g(ctx.tracer, k);
      g.add("pulse.case", c0, c1);
      g.commit();
    }
    st.pulse_s.push_back(seconds_between(p0, Clock::now()));

    for (std::size_t k = 0; k < kPulseCases; ++k) {
      const auto& r = results[k];
      ctx.outcome.attempt();
      if (round > 0) {
        if (!same_metrics(r, st.first_pulses[k]))
          ctx.outcome.wrong(pulses[k].name + " changed between rounds");
        continue;
      }
      ctx.outputs[pulses[k].name] = {};
      for (const auto& m : r.metrics)
        ctx.outputs[pulses[k].name].emplace_back(m.name, m.value);
      if (pulses[k].family != sc::SolverFamily::kStagnationPulse) continue;
      const auto n_points = static_cast<std::size_t>(metric_or(r, "n_points", -1));
      const auto n_solved = static_cast<std::size_t>(metric_or(r, "n_solved", -1));
      const auto n_fm = static_cast<std::size_t>(metric_or(r, "n_free_molecular", -1));
      const auto n_skip = static_cast<std::size_t>(metric_or(r, "n_skipped", -1));
      if (n_solved + n_fm + n_skip != n_points)
        ctx.outcome.wrong(pulses[k].name + ": solved + free-molecular + "
                          "skipped != points");
      st.solved += n_solved;
      st.free_molecular += n_fm;
      st.skipped += n_skip;
      ctx.outcome.attempt(n_points);
      for (std::size_t s = 0; s < n_skip; ++s)
        ctx.outcome.known_defect(pulses[k].name + ": pulse point skipped "
                                 "by the stagnation solver");
    }

    if (round == 0) {
      // The documented 1-vs-N contract, on the seed-chosen subset.
      std::vector<sc::Case> subset;
      for (const auto i : in.serial_check_points) subset.push_back(grid[i]);
      const auto serial = sc::run_batch(subset, {});
      for (std::size_t j = 0; j < subset.size(); ++j)
        if (!same_metrics(serial.results[j],
                          batch.results[in.serial_check_points[j]]))
          ctx.outcome.wrong("sweep point " + subset[j].name + " differs at " +
                            std::to_string(ctx.threads) + " threads");
      const auto& pc = pulses[in.serial_check_pulse];
      if (!same_metrics(sc::run_case(pc, {1}), results[in.serial_check_pulse]))
        ctx.outcome.wrong(pc.name + " differs at " +
                          std::to_string(ctx.threads) + " threads");
      st.first_batch = std::move(batch);
      st.first_pulses = std::move(results);
    }
  }
}

void StagPass::finish() {
  Context& ctx = ctx_;
  const StagInputs& in = setup_.stag;
  State& st = *st_;
  const auto& grid = st.grid;
  const auto& pulses = st.pulses;
  const sc::Case& base = *sc::find_scenario("shuttle_stag_point");
  if (st.rounds == 0) {
    ctx.outcome.wrong("stag_batch: no round ran");
    return;
  }
  ctx.put("stag.sweep_s", median(st.sweep_s), "s", st.sweep_s.size());
  ctx.put("stag.pulse_s", median(st.pulse_s), "s", st.pulse_s.size());
  ctx.stream_hashes.push_back("stag_batch:" + hex64(in.hash()));

  if (!ctx.tracer.on()) return;
  for (std::size_t k = 0; k < kPulseCases; ++k)
    ctx.put_layer("case." + pulses[k].name + "_s", median(st.case_s[k]), "s",
                  st.case_s[k].size());
  const auto b0 = Clock::now();
  (void)sc::run_case(base, {1});
  ctx.put_layer("case.shuttle_stag_point_s", seconds_between(b0, Clock::now()),
                "s", 1);
  // Serial and threaded sweeps back to back, so a drift of the host's
  // speed between the two does not enter the ratio.
  sc::BatchOptions threaded;
  threaded.threads = ctx.threads;
  const auto t0 = Clock::now();
  const auto serial = sc::run_batch(grid, {});
  const auto t1 = Clock::now();
  (void)sc::run_batch(grid, threaded);
  const auto t2 = Clock::now();
  for (std::size_t i = 0; i < grid.size(); ++i)
    if (!same_metrics(serial.results[i], st.first_batch.results[i]))
      ctx.outcome.wrong("sweep point " + grid[i].name + " differs at " +
                        std::to_string(ctx.threads) + " threads");
  ctx.put_layer("batch.parallel_eff",
                seconds_between(t0, t1) / (static_cast<double>(ctx.threads) *
                                           seconds_between(t1, t2)),
                "1", 1);
  trace_pulse_efficiency(ctx, st.first_pulses[1]);
  trace_stagnation_points(ctx, grid, st.first_batch, in.traced_points);
  ctx.put_layer("pulse.solved", static_cast<double>(st.solved), "count", 1);
  ctx.put_layer("pulse.skipped", static_cast<double>(st.skipped), "count", 1);
  ctx.put_layer("pulse.free_molecular", static_cast<double>(st.free_molecular),
                "count", 1);
  ctx.put_layer("sweep.failed", static_cast<double>(st.sweep_failed), "count", 1);
}

}  // namespace perfbench
