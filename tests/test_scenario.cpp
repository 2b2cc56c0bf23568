// Scenario-engine tests: registry integrity, runner dispatch, the batch
// heating-pulse driver (decimation fix, skip accounting, thread-count
// determinism, golden regression), and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "gas/constants.hpp"
#include "scenario/batch.hpp"
#include "scenario/pulse.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace {

using namespace cat;

// ---------- error hierarchy ----------

TEST(ErrorHierarchy, SolverErrorIsACatError) {
  const SolverError err("diverged");
  const Error* base = &err;
  EXPECT_STREQ(base->what(), "diverged");
  // cat::Error is the catchable root for in-domain runtime failures.
  bool caught = false;
  try {
    throw SolverError("x");
  } catch (const Error&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
  // API misuse stays outside the hierarchy.
  EXPECT_THROW(
      { CAT_REQUIRE(false, "misuse"); }, std::invalid_argument);
}

// ---------- thread pool ----------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  core::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialPathAndEmptyRange) {
  core::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int count = 0;
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 10);
  pool.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ExceptionPropagatesAfterDrain) {
  core::ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 13) throw SolverError("item 13");
                        }),
      SolverError);
  EXPECT_EQ(ran.load(), 64);  // remaining items still execute
}

TEST(ThreadPool, ConcurrentThrowsSurfaceLowestIndexDeterministically) {
  // Many items throw at once from different workers; the pool must (a)
  // never deadlock while draining, (b) surface exactly the lowest-index
  // failure regardless of scheduling — the deterministic choice — and
  // (c) still run every item. Repeated rounds shake out schedule-
  // dependent orderings; the TSan CI job runs this test instrumented.
  core::ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> ran{0};
    std::string surfaced;
    try {
      pool.parallel_for(97, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i % 9 == 3) {  // items 3, 12, 21, ... all throw
          throw SolverError("item " + std::to_string(i));
        }
      });
      FAIL() << "parallel_for swallowed the failures";
    } catch (const SolverError& e) {
      surfaced = e.what();
    }
    EXPECT_EQ(surfaced, "item 3");
    EXPECT_EQ(ran.load(), 97);
  }
  // The pool stays usable after failed jobs.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, SerialPathThrowsSameLowestIndexAsThreaded) {
  // The n_threads == 1 fast path must obey the identical contract.
  core::ThreadPool pool(1);
  try {
    pool.parallel_for(20, [&](std::size_t i) {
      if (i == 5 || i == 17) throw SolverError("item " + std::to_string(i));
    });
    FAIL() << "serial parallel_for swallowed the failure";
  } catch (const SolverError& e) {
    EXPECT_STREQ(e.what(), "item 5");
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineOnCallingThread) {
  // Regression (reentrancy fix): a work item that calls parallel_for on
  // its OWN pool must degrade to an inline serial loop on the calling
  // thread. Pre-fix, the nested call republished the pool's single
  // current-job slot and idle workers executed nested items on foreign
  // threads while the outer job was still live. The sleep keeps nested
  // items in flight long enough for idle workers to wake and (pre-fix)
  // steal them: 2 outer items on a 4-thread pool leave 2 workers idle.
  core::ThreadPool pool(4);
  std::atomic<int> foreign{0};
  std::vector<std::atomic<int>> hits(2 * 64);
  pool.parallel_for(2, [&](std::size_t i) {
    const auto outer_tid = std::this_thread::get_id();
    pool.parallel_for(64, [&](std::size_t j) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      if (std::this_thread::get_id() != outer_tid) foreign.fetch_add(1);
      hits[i * 64 + j].fetch_add(1);
    });
  });
  EXPECT_EQ(foreign.load(), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForStressAndErrorContract) {
  // Every outer item nests; repeated rounds shake schedule-dependent
  // interleavings (the TSan CI job runs this instrumented). The nested
  // inline loop must also keep the lowest-index failure rule.
  core::ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(8, [&](std::size_t) {
      pool.parallel_for(16,
                        [&](std::size_t j) { sum.fetch_add(static_cast<long>(j)); });
    });
    EXPECT_EQ(sum.load(), 8 * (15 * 16 / 2));
  }
  std::atomic<int> surfaced_item5{0};
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t) {
                          try {
                            pool.parallel_for(20, [](std::size_t j) {
                              if (j == 5 || j == 17)
                                throw SolverError("item " + std::to_string(j));
                            });
                          } catch (const SolverError& e) {
                            if (std::string(e.what()) == "item 5")
                              surfaced_item5.fetch_add(1);
                            throw;
                          }
                        }),
      SolverError);
  EXPECT_EQ(surfaced_item5.load(), 4);  // every nested drain saw index 5 first
}

TEST(ThreadPool, NestedAcrossDistinctPoolsStaysThreaded) {
  // The reentrancy guard is per pool: fanning out on a DIFFERENT pool
  // from inside a work item keeps that pool's workers engaged.
  core::ThreadPool outer(2);
  core::ThreadPool inner(2);
  std::atomic<int> count{0};
  outer.parallel_for(4, [&](std::size_t) {
    inner.parallel_for(32, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 4 * 32);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  core::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(50, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 49 * 50 / 2);
  }
}

// ---------- pulse decimation (the stride bugfix) ----------

std::vector<trajectory::TrajectoryPoint> synthetic_traj(
    std::size_t n, std::size_t n_hypersonic) {
  // velocity 10000 for the first n_hypersonic points, then 100 (below any
  // reasonable cut), 1 s apart.
  std::vector<trajectory::TrajectoryPoint> traj(n);
  for (std::size_t k = 0; k < n; ++k) {
    traj[k].time = static_cast<double>(k);
    traj[k].velocity = k < n_hypersonic ? 10000.0 : 100.0;
    traj[k].altitude = 100000.0;
    traj[k].density = 1e-4;
    traj[k].pressure = 10.0;
    traj[k].temperature = 200.0;
  }
  return traj;
}

TEST(PulseDecimation, AlwaysIncludesFinalRetainedPoint) {
  const auto traj = synthetic_traj(100, 100);
  scenario::PulseOptions opt;
  opt.max_points = 7;
  const auto idx = scenario::decimate_pulse_indices(traj, opt);
  ASSERT_FALSE(idx.empty());
  EXPECT_EQ(idx.front(), 0u);
  EXPECT_EQ(idx.back(), 99u);  // legacy floor-stride loop stopped at 98
  EXPECT_LE(idx.size(), opt.max_points + 1);
}

TEST(PulseDecimation, StrideComesFromRetainedSpanNotFullLength) {
  // 1000 samples but only the first 100 are hypersonic. The legacy stride
  // (1000/10 = 100) would visit a single retained point; the fixed stride
  // (ceil(100/10) = 10) keeps the pulse resolved.
  const auto traj = synthetic_traj(1000, 100);
  scenario::PulseOptions opt;
  opt.max_points = 10;
  const auto idx = scenario::decimate_pulse_indices(traj, opt);
  EXPECT_GE(idx.size(), 10u);
  EXPECT_LE(idx.size(), 11u);
  for (const auto k : idx) EXPECT_LT(k, 100u);
  EXPECT_EQ(idx.back(), 99u);
}

TEST(PulseDecimation, ShortTrajectoryKeepsEveryPoint) {
  const auto traj = synthetic_traj(5, 5);
  scenario::PulseOptions opt;
  opt.max_points = 80;
  const auto idx = scenario::decimate_pulse_indices(traj, opt);
  EXPECT_EQ(idx.size(), 5u);
}

// ---------- pulse skip accounting ----------

// A handcrafted 3-point trajectory: one solvable hypersonic point, one
// free-molecular point, one continuum-but-non-hypersonic point that makes
// the stagnation solver throw SolverError.
std::vector<trajectory::TrajectoryPoint> tricky_traj() {
  atmosphere::EarthAtmosphere atmo;
  std::vector<trajectory::TrajectoryPoint> traj(3);
  const auto a60 = atmo.at(60000.0);
  traj[0].time = 0.0;
  traj[0].velocity = 6000.0;
  traj[0].altitude = 60000.0;
  traj[0].density = a60.density;
  traj[0].pressure = a60.pressure;
  traj[0].temperature = a60.temperature;

  traj[1].time = 1.0;
  traj[1].velocity = 5000.0;
  traj[1].altitude = 200000.0;
  traj[1].density = 1e-12;  // below the continuum floor
  traj[1].pressure = 1e-7;
  traj[1].temperature = 180.0;

  const auto a30 = atmo.at(30000.0);
  traj[2].time = 2.0;
  traj[2].velocity = 950.0;  // above the 0.15 V_entry cut, not hypersonic
  traj[2].altitude = 30000.0;
  traj[2].density = a30.density;
  traj[2].pressure = a30.pressure;
  traj[2].temperature = a30.temperature;
  return traj;
}

solvers::StagnationLineSolver& cheap_air_solver() {
  static gas::EquilibriumSolver eq(gas::make_air5(),
                                   {{"N2", 0.79}, {"O2", 0.21}});
  static solvers::StagnationOptions sopt = [] {
    solvers::StagnationOptions o;
    o.n_table = 24;
    o.include_radiation = false;
    return o;
  }();
  static solvers::StagnationLineSolver stag(eq, sopt);
  return stag;
}

TEST(PulseSkipAccounting, CountsSolvedFreeMolecularAndSkipped) {
  const auto traj = tricky_traj();
  scenario::PulseOptions opt;
  opt.max_points = 8;
  const auto pulse =
      scenario::heating_pulse(traj, trajectory::galileo_class_probe(),
                              cheap_air_solver(), opt);
  ASSERT_EQ(pulse.points.size(), 3u);
  EXPECT_EQ(pulse.status[0], scenario::PulsePointStatus::kSolved);
  EXPECT_EQ(pulse.status[1], scenario::PulsePointStatus::kFreeMolecular);
  EXPECT_EQ(pulse.status[2], scenario::PulsePointStatus::kSkipped);
  EXPECT_EQ(pulse.n_solved, 1u);
  EXPECT_EQ(pulse.n_free_molecular, 1u);
  EXPECT_EQ(pulse.n_skipped, 1u);
  EXPECT_GT(pulse.points[0].q_conv, 1e4);
  EXPECT_EQ(pulse.points[1].q_conv, 0.0);
  EXPECT_EQ(pulse.points[2].q_conv, 0.0);
}

// ---------- thread-count determinism ----------

TEST(PulseDeterminism, OneThreadAndManyThreadsBitwiseIdentical) {
  // The guarantee the thread-pool refactor rests on: per-point solves are
  // independent and reentrant (caller-owned workspaces), so the only
  // thing threading may change is scheduling — never values.
  atmosphere::EarthAtmosphere atmo;
  const auto probe = trajectory::galileo_class_probe();
  trajectory::TrajectoryOptions topt;
  topt.dt_sample_s = 2.0;
  topt.end_velocity_mps = 2000.0;
  const auto traj = trajectory::integrate_entry(
      probe, {9000.0, -6.0 * M_PI / 180.0, 115000.0}, atmo,
      gas::constants::kEarthRadius, gas::constants::kEarthG0, topt);

  scenario::PulseOptions opt1;
  opt1.max_points = 12;
  opt1.threads = 1;
  scenario::PulseOptions optN = opt1;
  optN.threads = 4;

  const auto serial =
      scenario::heating_pulse(traj, probe, cheap_air_solver(), opt1);
  const auto threaded =
      scenario::heating_pulse(traj, probe, cheap_air_solver(), optN);

  ASSERT_EQ(serial.points.size(), threaded.points.size());
  for (std::size_t k = 0; k < serial.points.size(); ++k) {
    // Bitwise: EXPECT_EQ on doubles, no tolerance.
    EXPECT_EQ(serial.points[k].time, threaded.points[k].time) << k;
    EXPECT_EQ(serial.points[k].velocity, threaded.points[k].velocity) << k;
    EXPECT_EQ(serial.points[k].altitude, threaded.points[k].altitude) << k;
    EXPECT_EQ(serial.points[k].q_conv, threaded.points[k].q_conv) << k;
    EXPECT_EQ(serial.points[k].q_rad, threaded.points[k].q_rad) << k;
    EXPECT_EQ(serial.status[k], threaded.status[k]) << k;
  }
  EXPECT_EQ(serial.n_solved, threaded.n_solved);
  EXPECT_EQ(serial.n_free_molecular, threaded.n_free_molecular);
  EXPECT_EQ(serial.n_skipped, threaded.n_skipped);
}

// ---------- golden regression (captured by tools/capture_golden) ----------

TEST(PulseGolden, TitanReferencePulsePinned) {
  // Exact configuration of tools/capture_golden.cpp dump_pulse_golden();
  // regenerate the numbers there after any intentional physics change.
  gas::EquilibriumSolver eq(gas::make_titan(),
                            {{"N2", 0.95}, {"CH4", 0.05}});
  solvers::StagnationOptions sopt;
  sopt.n_table = 24;
  sopt.n_spectral = 64;
  sopt.n_slab = 24;
  const solvers::StagnationLineSolver stag(eq, sopt);
  atmosphere::TitanAtmosphere atmo;
  const auto probe = trajectory::titan_probe();
  trajectory::TrajectoryOptions topt;
  topt.dt_sample_s = 4.0;
  topt.end_velocity_mps = 3000.0;
  const auto traj = trajectory::integrate_entry(
      probe, {12000.0, -24.0 * M_PI / 180.0, 600000.0}, atmo,
      gas::constants::kTitanRadius, gas::constants::kTitanG0, topt);
  scenario::PulseOptions popt;
  popt.max_points = 8;
  popt.wall_temperature_K = 1800.0;
  const auto pulse = scenario::heating_pulse(traj, probe, stag, popt);

  // {time, velocity, altitude, q_conv, q_rad} from capture_golden.
  const double ref[][5] = {
      {0, 12000, 600000, 158913.74910415339, 148.60400734519467},
      {92, 9264.9235005144328, 331854.28162988083, 2125569.1974998321,
       96932.610176259011},
      {184, 4393.9694686030789, 332788.22515882785, 186036.87085691778,
       145362.69212901741},
      {276, 3516.7016215655208, 381383.81073352159, 38489.871741641364,
       12482.599406487492},
      {368, 3347.1821609234735, 450649.37677064125, 12290.277155474589,
       2173.3398212755751},
      {460, 3302.6050014626803, 539642.18044854142, 3528.5540304950205,
       467.99586181635158},
      {552, 3271.8354208547803, 647147.85636671586, 0, 0},
      {644, 3240.0610217395474, 771264.38308947196, 0, 0},
      {732, 3208.4325438062842, 903671.57510898553, 0, 0},
  };
  const double heat_load_ref = 248663597.04161689;

  ASSERT_EQ(pulse.points.size(), std::size(ref));
  EXPECT_EQ(pulse.n_solved, 6u);
  EXPECT_EQ(pulse.n_free_molecular, 1u);
  EXPECT_EQ(pulse.n_skipped, 2u);
  for (std::size_t k = 0; k < std::size(ref); ++k) {
    const auto& p = pulse.points[k];
    auto near = [&](double got, double want) {
      const double tol = 1e-6 * std::max(std::fabs(want), 1.0);
      EXPECT_NEAR(got, want, tol) << "point " << k;
    };
    near(p.time, ref[k][0]);
    near(p.velocity, ref[k][1]);
    near(p.altitude, ref[k][2]);
    near(p.q_conv, ref[k][3]);
    near(p.q_rad, ref[k][4]);
  }
  EXPECT_NEAR(pulse.heat_load(), heat_load_ref, 1e-6 * heat_load_ref);
}

// ---------- registry + fidelity names ----------

TEST(Registry, CatalogIsComplete) {
  const auto& reg = scenario::registry();
  EXPECT_GE(reg.size(), 8u);
  std::set<std::string> names;
  std::set<scenario::SolverFamily> families;
  for (const auto& c : reg) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate: " << c.name;
    EXPECT_FALSE(c.title.empty()) << c.name;
    families.insert(c.family);
  }
  // Every solver family is represented in the catalog.
  EXPECT_EQ(families.size(), 8u);
  EXPECT_EQ(scenario::scenario_names().size(), reg.size());
}

TEST(Registry, ParseFidelityInvertsToString) {
  for (const auto f :
       {scenario::Fidelity::kSmoke, scenario::Fidelity::kNominal,
        scenario::Fidelity::kCorrelation, scenario::Fidelity::kSurrogate}) {
    scenario::Fidelity parsed = scenario::Fidelity::kSmoke;
    EXPECT_TRUE(scenario::parse_fidelity(scenario::to_string(f), &parsed));
    EXPECT_EQ(parsed, f) << scenario::to_string(f);
  }
  scenario::Fidelity untouched = scenario::Fidelity::kNominal;
  for (const char* bad : {"", "Smoke", "fast"}) {
    EXPECT_FALSE(scenario::parse_fidelity(bad, &untouched)) << bad;
    EXPECT_EQ(untouched, scenario::Fidelity::kNominal) << bad;
  }
}

TEST(Registry, FindScenario) {
  EXPECT_NE(scenario::find_scenario("titan_probe_pulse"), nullptr);
  EXPECT_EQ(scenario::find_scenario("not_a_scenario"), nullptr);
}

TEST(Registry, EntryAngleSweepNamesAndAngles) {
  const auto* base = scenario::find_scenario("titan_probe_pulse");
  ASSERT_NE(base, nullptr);
  const auto sweep = scenario::entry_angle_sweep(
      *base, {-30.0 * M_PI / 180.0, -18.0 * M_PI / 180.0});
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_EQ(sweep[0].name, "titan_probe_pulse_gamma-30.0");
  EXPECT_NEAR(sweep[1].entry.flight_path_angle, -18.0 * M_PI / 180.0,
              1e-12);
  EXPECT_EQ(sweep[1].entry.velocity, base->entry.velocity);
}

// ---------- run_case end-to-end on fast scenarios ----------

TEST(RunCase, TrajectoryDomainProducesFlightEnvelope) {
  const auto* c = scenario::find_scenario("tav_flight_domain");
  ASSERT_NE(c, nullptr);
  const auto r = scenario::run_case(*c);
  EXPECT_EQ(r.case_name, "tav_flight_domain");
  EXPECT_GT(r.table.n_rows(), 10u);
  EXPECT_GT(r.metric("max_mach"), 5.0);
  EXPECT_GT(r.metric("max_reynolds"), 1e4);
  EXPECT_THROW((void)r.metric("no_such_metric"), std::invalid_argument);
}

TEST(RunCase, ResultIdentityIsStampedOnce) {
  // run_case stamps case_name, the solver label, the titled table and the
  // elapsed time for every family body and both tier-0 presets alike.
  const auto* traj = scenario::find_scenario("tav_flight_domain");
  const auto* stag = scenario::find_scenario("shuttle_stag_point");
  ASSERT_NE(traj, nullptr);
  ASSERT_NE(stag, nullptr);
  scenario::Case smoke = *stag;
  smoke.fidelity = scenario::Fidelity::kSmoke;
  scenario::Case corr = *stag;
  corr.fidelity = scenario::Fidelity::kCorrelation;
  const std::pair<scenario::Case, std::string> runs[] = {
      {*traj, "trajectory-domain"},
      {smoke, "stagnation-point"},
      {corr, "correlation"}};
  for (const auto& [c, solver] : runs) {
    const auto r = scenario::run_case(c);
    EXPECT_EQ(r.case_name, c.name);
    EXPECT_EQ(r.solver, solver) << c.name;
    EXPECT_EQ(r.table.title(), c.title) << c.name;
    EXPECT_GT(r.elapsed_seconds, 0.0) << c.name;
  }
}

TEST(RunCase, FiniteRateFieldRejectsNonAirGas) {
  // Finite-rate FV cases carry the Park air mechanism matching the case
  // gas; a gas with no air mechanism must be refused, not run as air5.
  const auto* base = scenario::find_scenario("hemisphere_fv_neq_air5");
  ASSERT_NE(base, nullptr);
  ASSERT_TRUE(base->finite_rate);
  for (const auto gas : {scenario::GasModelKind::kIdealGamma,
                         scenario::GasModelKind::kTitan}) {
    scenario::Case c = *base;
    c.gas = gas;
    EXPECT_THROW((void)scenario::run_case(c), std::invalid_argument)
        << scenario::to_string(gas);
  }
}

TEST(RunCase, EulerBlMarchHeatsAndDecays) {
  const auto* c = scenario::find_scenario("orbiter_windward_ebl");
  ASSERT_NE(c, nullptr);
  const auto r = scenario::run_case(*c);
  EXPECT_EQ(r.table.n_rows(), c->n_stations);
  EXPECT_GT(r.metric("peak_q_w"), 1e4);
  EXPECT_LT(r.metric("aft_q_w"), r.metric("peak_q_w"));
}

TEST(RunCase, StreamwiseOrderOptionReachesMarchingSolvers) {
  // Case::streamwise_order must plumb through to the VSL marching core:
  // the legacy BDF1 setting produces a measurably different (but same-
  // physics) heating curve than the default BDF2 march. The Δξ ladder
  // studies gate the orders themselves; this pins the scenario wiring.
  const auto* base = scenario::find_scenario("sphere_cone_vsl");
  ASSERT_NE(base, nullptr);
  scenario::Case c2 = *base;
  c2.fidelity = scenario::Fidelity::kSmoke;
  c2.n_stations = 12;
  scenario::Case c1 = c2;
  c1.streamwise_order = 1;
  const auto r2 = scenario::run_case(c2);
  const auto r1 = scenario::run_case(c1);
  const double q2 = r2.metric("aft_q_w"), q1 = r1.metric("aft_q_w");
  EXPECT_GT(q2, 0.0);
  EXPECT_GT(q1, 0.0);
  EXPECT_NEAR(q2, q1, 0.08 * q1);          // same physics
  EXPECT_NE(q2, q1) << "streamwise_order is not reaching the marcher";
}

// ---------- batch driver ----------

TEST(Batch, MatchesSerialRunsAndKeepsOrder) {
  std::vector<scenario::Case> cases = {
      *scenario::find_scenario("tav_flight_domain"),
      *scenario::find_scenario("shuttle_flight_domain"),
  };
  std::vector<scenario::CaseResult> serial;
  for (const auto& c : cases) serial.push_back(scenario::run_case(c));

  scenario::BatchOptions opt;
  opt.threads = 3;
  const auto batch = scenario::run_batch(cases, opt);
  ASSERT_EQ(batch.results.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(batch.results[k].case_name, cases[k].name);
    ASSERT_EQ(batch.results[k].metrics.size(), serial[k].metrics.size());
    for (std::size_t m = 0; m < serial[k].metrics.size(); ++m) {
      EXPECT_EQ(batch.results[k].metrics[m].name,
                serial[k].metrics[m].name);
      EXPECT_EQ(batch.results[k].metrics[m].value,
                serial[k].metrics[m].value)
          << cases[k].name << ":" << serial[k].metrics[m].name;
    }
  }
}

TEST(Batch, FailedCaseIsReportedNotFatal) {
  scenario::Case bad = *scenario::find_scenario("titan_probe_peak_species");
  bad.name = "bad_point";
  bad.condition.velocity_mps = 300.0;  // non-hypersonic: solver throws
  const auto batch = scenario::run_batch({bad});
  ASSERT_EQ(batch.results.size(), 1u);
  EXPECT_EQ(batch.results.front().metric("failed"), 1.0);
}

}  // namespace
