// Tests for the multi-hub simulation engine: the scenario registry, the
// per-scenario golden corpus, the deterministic per-hub seeding, the policy
// factory, the parallel fleet runner and its lockstep-batched twin (the
// bit-identity contract every future sharding/batching PR depends on), and
// the aggregate report arithmetic.
#include "common/time_grid.hpp"
#include "core/hub_env.hpp"
#include "policy/drl_policy.hpp"
#include "sim/coupling.hpp"
#include "sim/drl_zoo.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/metro.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "spatial/metro.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace ecthub::sim {
namespace {

// Builds `n` small jobs cycling through the built-in scenarios.
std::vector<FleetJob> make_jobs(std::size_t n, std::size_t days = 2,
                                SchedulerKind sched = SchedulerKind::kGreedyPrice) {
  const ScenarioRegistry registry = ScenarioRegistry::with_builtins();
  return make_fleet_jobs(registry, registry.keys(), n, days, sched);
}

// A small randomly-initialized actor checkpoint matching the default hub
// observation layout — training is irrelevant for execution-path identity.
std::shared_ptr<const policy::DrlCheckpoint> tiny_checkpoint(std::size_t state_dim = 0) {
  nn::Rng rng(123);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = state_dim == 0 ? policy::ObservationLayout{}.dim() : state_dim;
  cfg.trunk_dim = 16;
  cfg.head_dim = 8;
  policy::DrlPolicy actor(cfg, rng);
  return std::make_shared<policy::DrlCheckpoint>(actor.checkpoint());
}

std::vector<HubRunResult> run_fleet(const std::vector<FleetJob>& jobs, std::size_t threads,
                                    std::uint64_t base_seed = 7,
                                    std::size_t episodes = 1) {
  FleetRunnerConfig cfg;
  cfg.base_seed = base_seed;
  cfg.threads = threads;
  cfg.episodes_per_hub = episodes;
  return FleetRunner(cfg).run(jobs);
}

// ------------------------------------------------------------ registry

TEST(ScenarioRegistry, HasAllSixBuiltins) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  EXPECT_EQ(reg.size(), 6u);
  for (const char* key : {"urban", "rural", "high-renewables", "blackout-prone",
                          "price-spike", "heatwave"}) {
    EXPECT_TRUE(reg.contains(key)) << key;
    EXPECT_FALSE(reg.at(key).summary.empty());
  }
  EXPECT_EQ(reg.keys(), builtin_scenario_keys());
}

TEST(ScenarioRegistry, UnknownKeyThrows) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  EXPECT_FALSE(reg.contains("atlantis"));
  EXPECT_THROW((void)reg.at("atlantis"), std::out_of_range);
  EXPECT_THROW((void)reg.make_hub("atlantis", "h", 1), std::out_of_range);
}

TEST(ScenarioRegistry, RejectsDuplicatesAndBadScenarios) {
  ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  Scenario dup;
  dup.key = "urban";
  dup.make_hub = [](const std::string& name, std::uint64_t seed) {
    return core::HubConfig::urban(name, seed);
  };
  EXPECT_THROW(reg.add(dup), std::invalid_argument);
  Scenario unnamed;
  unnamed.make_hub = dup.make_hub;
  EXPECT_THROW(reg.add(unnamed), std::invalid_argument);
  Scenario no_factory;
  no_factory.key = "ghost";
  EXPECT_THROW(reg.add(no_factory), std::invalid_argument);
}

TEST(ScenarioRegistry, FactoriesAreDeterministic) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  for (const std::string& key : reg.keys()) {
    const core::HubConfig a = reg.make_hub(key, "h", 123);
    const core::HubConfig b = reg.make_hub(key, "h", 123);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.battery.capacity_kwh, b.battery.capacity_kwh);
    EXPECT_EQ(a.rtp.spike_prob, b.rtp.spike_prob);
    EXPECT_EQ(a.recovery_hours, b.recovery_hours);
  }
}

TEST(ScenarioRegistry, PresetsDifferWhereItMatters) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  EXPECT_GT(reg.make_hub("price-spike", "h", 1).rtp.spike_prob,
            reg.make_hub("urban", "h", 1).rtp.spike_prob);
  EXPECT_GT(reg.make_hub("blackout-prone", "h", 1).recovery_hours,
            reg.make_hub("urban", "h", 1).recovery_hours);
  EXPECT_GT(reg.make_hub("heatwave", "h", 1).weather.mean_temperature_c,
            reg.make_hub("urban", "h", 1).weather.mean_temperature_c);
  EXPECT_GT(reg.make_hub("high-renewables", "h", 1).battery.capacity_kwh,
            reg.make_hub("rural", "h", 1).battery.capacity_kwh);
}

// ------------------------------------------------------------ golden corpus

// Golden checksums for every built-in scenario preset: hub "golden", seed
// 4242, one 2-day episode under the scenario's own discount schedule.  If
// any value changes, the preset or the episode generators drifted — every
// stored sweep comparison and figure changes with it.  Regenerate
// deliberately (print the sums at %.17g) or fix the drift.
struct GoldenScenario {
  const char* key;
  double rtp_sum;
  double srtp_sum;
  double renewable_sum;
  double bs_sum;
  double cs_sum;
  double soc0;
};

TEST(ScenarioGolden, FixedSeedPinsEveryPreset) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const GoldenScenario golden[] = {
      {"blackout-prone", 4541.1709297381576, 8401.1662200155915, 39.84208128242058,
       111.29377860080922, 129.60000000000002, 0.61776257063720164},
      {"heatwave", 4545.3704321026244, 7989.8313961192316, 72.282726839633469,
       137.19922037215838, 144.0, 0.61776257063720164},
      {"high-renewables", 4540.4207212201445, 8399.7783342572675, 873.79761410265996,
       111.21875774900795, 143.0, 0.61776257063720164},
      {"price-spike", 4870.5648207150143, 8704.3549364178289, 63.678628209240244,
       111.29377860080922, 129.60000000000002, 0.61776257063720164},
      {"rural", 4540.4207212201445, 8399.7783342572675, 384.25570551409356,
       111.21875774900795, 143.0, 0.61776257063720164},
      {"urban", 4541.1709297381576, 7982.0623167449676, 63.678628209240244,
       111.29377860080922, 144.0, 0.61776257063720164},
  };
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  ASSERT_EQ(std::size(golden), reg.size());
  for (const GoldenScenario& g : golden) {
    const Scenario& scenario = reg.at(g.key);
    core::HubEnvConfig env_cfg = scenario.env;
    env_cfg.episode_days = 2;
    core::EctHubEnv env(reg.make_hub(g.key, "golden", 4242), env_cfg);
    std::vector<double> obs(env.state_dim());
    env.reset_into(obs);
    ASSERT_EQ(env.slots_per_episode(), 48u) << g.key;
    double rtp = 0.0, srtp = 0.0;
    for (std::size_t t = 0; t < 48; ++t) {
      rtp += env.rtp_at(t);
      srtp += env.srtp_at(t);
    }
    EXPECT_EQ(rtp, g.rtp_sum) << g.key;
    EXPECT_EQ(srtp, g.srtp_sum) << g.key;
    EXPECT_EQ(sum(env.renewable_series()), g.renewable_sum) << g.key;
    EXPECT_EQ(sum(env.bs_power_series()), g.bs_sum) << g.key;
    EXPECT_EQ(sum(env.cs_power_series()), g.cs_sum) << g.key;
    EXPECT_EQ(env.soc_frac(), g.soc0) << g.key;
  }
}

// ------------------------------------------------------------ seeding

TEST(MixSeed, DistinctAcrossHubsAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t id = 0; id < 1000; ++id) seen.insert(mix_seed(7, id));
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across the fleet
  EXPECT_NE(mix_seed(7, 0), mix_seed(8, 0));
  EXPECT_EQ(mix_seed(7, 3), mix_seed(7, 3));
}

// ------------------------------------------------------------ policy factory

TEST(PolicyFactory, NamesRoundTripForEveryKind) {
  const auto ckpt = tiny_checkpoint();
  EXPECT_EQ(all_scheduler_kinds().size(), 6u);
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    EXPECT_EQ(scheduler_kind_from_string(to_string(kind)), kind);
    const auto pol = make_policy(kind, 42, policy::ObservationLayout{},
                                 kind == SchedulerKind::kDrl ? ckpt : nullptr);
    ASSERT_NE(pol, nullptr);
    EXPECT_FALSE(pol->name().empty());
  }
  EXPECT_THROW((void)scheduler_kind_from_string("ppo2"), std::invalid_argument);
}

TEST(PolicyFactory, ParseIsCaseInsensitive) {
  EXPECT_EQ(scheduler_kind_from_string("TOU"), SchedulerKind::kTou);
  EXPECT_EQ(scheduler_kind_from_string("Drl"), SchedulerKind::kDrl);
  EXPECT_EQ(scheduler_kind_from_string("GREEDY"), SchedulerKind::kGreedyPrice);
  EXPECT_EQ(scheduler_kind_from_string("ForeCast"), SchedulerKind::kForecast);
  EXPECT_EQ(scheduler_kind_from_string("NONE"), SchedulerKind::kNoBattery);
  EXPECT_EQ(scheduler_kind_from_string("Random"), SchedulerKind::kRandom);
}

TEST(PolicyFactory, ParseErrorListsEveryValidName) {
  try {
    (void)scheduler_kind_from_string("atlantis");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("atlantis"), std::string::npos);
    for (const SchedulerKind kind : all_scheduler_kinds()) {
      EXPECT_NE(msg.find(to_string(kind)), std::string::npos) << to_string(kind);
    }
  }
}

TEST(PolicyFactory, DrlRequiresMatchingCheckpoint) {
  const policy::ObservationLayout layout;  // dim 33
  EXPECT_THROW((void)make_policy(SchedulerKind::kDrl, 1, layout, nullptr),
               std::invalid_argument);
  // A checkpoint trained for a different observation shape must be rejected.
  const auto mismatched = tiny_checkpoint(policy::ObservationLayout{3}.dim());
  EXPECT_THROW((void)make_policy(SchedulerKind::kDrl, 1, layout, mismatched),
               std::invalid_argument);
  EXPECT_NE(make_policy(SchedulerKind::kDrl, 1, layout, tiny_checkpoint()), nullptr);
}

TEST(FleetJobs, MakeFleetJobsCyclesScenarios) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto jobs = make_fleet_jobs(reg, {"urban", "rural"}, 5, 3, SchedulerKind::kTou);
  ASSERT_EQ(jobs.size(), 5u);
  EXPECT_EQ(jobs[0].scenario, "urban");
  EXPECT_EQ(jobs[1].scenario, "rural");
  EXPECT_EQ(jobs[4].scenario, "urban");
  EXPECT_EQ(jobs[2].env.episode_days, 3u);
  EXPECT_EQ(jobs[3].hub.name, "rural-3");
  EXPECT_EQ(jobs[3].scheduler, SchedulerKind::kTou);
  EXPECT_THROW((void)make_fleet_jobs(reg, {}, 2, 3, SchedulerKind::kTou),
               std::invalid_argument);
  EXPECT_THROW((void)make_fleet_jobs(reg, {"atlantis"}, 1, 3, SchedulerKind::kTou),
               std::out_of_range);
}

TEST(FleetJobs, CheckpointIsAttachedToEveryJob) {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto ckpt = tiny_checkpoint();
  const auto jobs = make_fleet_jobs(reg, {"urban"}, 3, 2, SchedulerKind::kDrl, ckpt);
  for (const FleetJob& job : jobs) {
    EXPECT_EQ(job.scheduler, SchedulerKind::kDrl);
    EXPECT_EQ(job.checkpoint.get(), ckpt.get());
  }
}

// ------------------------------------------------------------ fleet runner

TEST(FleetRunner, ParallelRunIsBitIdenticalToSerial) {
  // The acceptance criterion: 32 hubs, 8 threads vs 1 thread, every per-hub
  // ledger total equal to the last bit.
  const std::vector<FleetJob> jobs = make_jobs(32);
  const auto serial = run_fleet(jobs, 1);
  const auto parallel = run_fleet(jobs, 8);
  ASSERT_EQ(serial.size(), 32u);
  ASSERT_EQ(parallel.size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(serial[i].hub_id, i);
    EXPECT_EQ(parallel[i].seed, serial[i].seed);
    EXPECT_EQ(parallel[i].profit, serial[i].profit) << "hub " << i;
    EXPECT_EQ(parallel[i].revenue, serial[i].revenue) << "hub " << i;
    EXPECT_EQ(parallel[i].grid_cost, serial[i].grid_cost) << "hub " << i;
    EXPECT_EQ(parallel[i].bp_cost, serial[i].bp_cost) << "hub " << i;
    EXPECT_EQ(parallel[i].soc.checksum, serial[i].soc.checksum) << "hub " << i;
    EXPECT_EQ(parallel[i].episode_profit, serial[i].episode_profit) << "hub " << i;
  }
}

TEST(FleetRunner, RerunWithSameBaseSeedReproducesExactly) {
  // Same base seed, different thread counts, repeated runs: identical.
  const std::vector<FleetJob> jobs = make_jobs(32);
  const auto first = run_fleet(jobs, 8);
  const auto again = run_fleet(jobs, 8);
  const auto odd_threads = run_fleet(jobs, 3);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(first[i].profit, again[i].profit) << "hub " << i;
    EXPECT_EQ(first[i].profit, odd_threads[i].profit) << "hub " << i;
    EXPECT_EQ(first[i].soc.checksum, again[i].soc.checksum) << "hub " << i;
    EXPECT_EQ(first[i].soc.checksum, odd_threads[i].soc.checksum) << "hub " << i;
  }
}

TEST(FleetRunner, BaseSeedChangesResults) {
  const std::vector<FleetJob> jobs = make_jobs(4);
  const auto a = run_fleet(jobs, 2, 7);
  const auto b = run_fleet(jobs, 2, 8);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_NE(a[i].seed, b[i].seed);
    if (a[i].profit != b[i].profit) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST(FleetRunner, HubsHaveIndependentStreams) {
  // Two replicas of the same scenario must see different stochastic draws
  // (distinct mixed seeds), not a shared or duplicated stream.
  std::vector<FleetJob> jobs = make_jobs(2);
  jobs[1] = jobs[0];
  const auto results = run_fleet(jobs, 2);
  EXPECT_NE(results[0].seed, results[1].seed);
  EXPECT_NE(results[0].profit, results[1].profit);
}

TEST(FleetRunner, MultiEpisodeAccounting) {
  const std::vector<FleetJob> jobs = make_jobs(2);
  const auto results = run_fleet(jobs, 2, 7, 3);
  for (const HubRunResult& r : results) {
    EXPECT_EQ(r.episodes, 3u);
    ASSERT_EQ(r.episode_profit.size(), 3u);
    double sum = 0.0;
    for (const double p : r.episode_profit) sum += p;
    EXPECT_DOUBLE_EQ(sum, r.profit);
    EXPECT_EQ(r.soc.samples, r.slots_per_episode);
    EXPECT_GE(r.soc.min, 0.0);
    EXPECT_LE(r.soc.max, 1.0);
    EXPECT_GE(r.soc.mean, r.soc.min);
    EXPECT_LE(r.soc.mean, r.soc.max);
  }
}

TEST(FleetRunner, EmptyJobListAndBadConfig) {
  FleetRunnerConfig cfg;
  EXPECT_TRUE(FleetRunner(cfg).run({}).empty());
  cfg.episodes_per_hub = 0;
  EXPECT_THROW(FleetRunner{cfg}, std::invalid_argument);
}

// ------------------------------------------------------------ lockstep

void expect_results_bit_identical(const std::vector<HubRunResult>& a,
                                  const std::vector<HubRunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].hub_id, b[i].hub_id);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].scheduler, b[i].scheduler);
    EXPECT_EQ(a[i].profit, b[i].profit) << "hub " << i;
    EXPECT_EQ(a[i].revenue, b[i].revenue) << "hub " << i;
    EXPECT_EQ(a[i].grid_cost, b[i].grid_cost) << "hub " << i;
    EXPECT_EQ(a[i].bp_cost, b[i].bp_cost) << "hub " << i;
    EXPECT_EQ(a[i].episode_profit, b[i].episode_profit) << "hub " << i;
    EXPECT_EQ(a[i].soc.first, b[i].soc.first) << "hub " << i;
    EXPECT_EQ(a[i].soc.last, b[i].soc.last) << "hub " << i;
    EXPECT_EQ(a[i].soc.checksum, b[i].soc.checksum) << "hub " << i;
    EXPECT_EQ(a[i].soc.samples, b[i].soc.samples) << "hub " << i;
    EXPECT_EQ(a[i].through_kwh, b[i].through_kwh) << "hub " << i;
    EXPECT_EQ(a[i].spill_exported_kwh, b[i].spill_exported_kwh) << "hub " << i;
    EXPECT_EQ(a[i].spill_served_kwh, b[i].spill_served_kwh) << "hub " << i;
    EXPECT_EQ(a[i].spill_dropped_kwh, b[i].spill_dropped_kwh) << "hub " << i;
    EXPECT_EQ(a[i].outage_slots, b[i].outage_slots) << "hub " << i;
  }
}

TEST(FleetRunnerLockstep, BitIdenticalToPerHubAcrossAllKinds) {
  // The acceptance criterion of the lockstep engine: every scheduler kind —
  // shared-batched stateless policies (none/tou/drl) and per-hub stateful
  // ones (greedy/forecast/random) side by side in one fleet — produces the
  // same ledgers to the last bit as the per-hub threaded path.
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto ckpt = tiny_checkpoint();
  std::vector<FleetJob> jobs;
  for (const SchedulerKind kind : all_scheduler_kinds()) {
    const auto batch =
        make_fleet_jobs(reg, reg.keys(), 3, 2, kind,
                        kind == SchedulerKind::kDrl ? ckpt : nullptr);
    jobs.insert(jobs.end(), batch.begin(), batch.end());
  }
  FleetRunnerConfig cfg;
  cfg.threads = 4;
  cfg.episodes_per_hub = 2;  // exercise mid-lockstep episode turnover
  const FleetRunner runner(cfg);
  const auto per_hub = runner.run(jobs);
  const auto lockstep = runner.run_lockstep(jobs);
  expect_results_bit_identical(per_hub, lockstep);
}

TEST(FleetRunnerLockstep, DrlFleetRunsOneSharedActor) {
  // A pure ECT-DRL fleet: all hubs batch through one policy instance, and
  // the run matches the per-hub path exactly.
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto ckpt = tiny_checkpoint();
  const auto jobs =
      make_fleet_jobs(reg, reg.keys(), 8, 2, SchedulerKind::kDrl, ckpt);
  FleetRunnerConfig cfg;
  cfg.threads = 2;
  const FleetRunner runner(cfg);
  const auto per_hub = runner.run(jobs);
  const auto lockstep = runner.run_lockstep(jobs);
  expect_results_bit_identical(per_hub, lockstep);
  for (const HubRunResult& r : lockstep) {
    EXPECT_EQ(r.scheduler, SchedulerKind::kDrl);
    ASSERT_EQ(r.episode_profit.size(), 1u);
    EXPECT_TRUE(std::isfinite(r.profit));
  }
}

TEST(FleetRunnerLockstep, EmptyJobList) {
  EXPECT_TRUE(FleetRunner(FleetRunnerConfig{}).run_lockstep({}).empty());
}

// ------------------------------------------------------------ threaded lockstep

std::vector<HubRunResult> run_lockstep_fleet(const std::vector<FleetJob>& jobs,
                                             std::size_t lockstep_threads,
                                             std::size_t episodes = 1) {
  FleetRunnerConfig cfg;
  cfg.lockstep_threads = lockstep_threads;
  cfg.episodes_per_hub = episodes;
  return FleetRunner(cfg).run_lockstep(jobs);
}

// A 64-hub fleet covering every built-in scenario and every scheduler kind,
// 2-day episodes.
std::vector<FleetJob> make_all_kind_jobs() {
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto ckpt = tiny_checkpoint();
  const std::vector<std::string>& keys = reg.keys();
  const std::vector<SchedulerKind>& kinds = all_scheduler_kinds();
  std::vector<FleetJob> jobs;
  jobs.reserve(64);
  for (std::size_t i = 0; i < 64; ++i) {
    const std::string& key = keys[i % keys.size()];
    const SchedulerKind kind = kinds[(i / keys.size()) % kinds.size()];
    FleetJob job;
    job.hub = reg.at(key).make_hub(key + "-" + std::to_string(i), 0);
    job.env = reg.at(key).env;
    job.env.episode_days = 2;
    job.scenario = key;
    job.scheduler = kind;
    if (kind == SchedulerKind::kDrl) job.checkpoint = ckpt;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

TEST(LockstepDeterminism, FourWayBitIdentity64HubsAllScenariosAllSchedulers) {
  // The determinism harness of the threaded engine: a 64-hub fleet covering
  // every built-in scenario and every scheduler kind, executed four ways —
  // per-hub run(), single-threaded lockstep, 8-thread lockstep with the
  // coordinator GEMM and 8-thread lockstep with worker row-block GEMMs —
  // must produce bit-identical per-hub episode checksums across all paths.
  const std::vector<FleetJob> jobs = make_all_kind_jobs();
  // Every scheduler kind must actually be in the fleet.
  std::set<SchedulerKind> covered;
  for (const FleetJob& job : jobs) covered.insert(job.scheduler);
  ASSERT_EQ(covered.size(), all_scheduler_kinds().size());

  FleetRunnerConfig cfg;
  cfg.threads = 8;
  cfg.episodes_per_hub = 2;  // exercise mid-lockstep episode turnover
  cfg.lockstep_threads = 1;
  const auto per_hub = FleetRunner(cfg).run(jobs);
  const auto lockstep_1 = FleetRunner(cfg).run_lockstep(jobs);
  cfg.lockstep_threads = 8;
  cfg.lockstep_gemm = LockstepGemm::kCoordinator;
  const auto lockstep_8_coord = FleetRunner(cfg).run_lockstep(jobs);
  cfg.lockstep_gemm = LockstepGemm::kWorker;
  const auto lockstep_8_worker = FleetRunner(cfg).run_lockstep(jobs);

  expect_results_bit_identical(per_hub, lockstep_1);
  expect_results_bit_identical(lockstep_1, lockstep_8_coord);
  expect_results_bit_identical(lockstep_8_coord, lockstep_8_worker);
}

TEST(LockstepDeterminism, GemmPlacementIsBitIdenticalAtEveryThreadCount) {
  // The two phase-B placements across 1/2/5 workers on a mixed fleet: every
  // combination must reproduce the same ledgers — worker row-block GEMMs are
  // an execution detail, never a numerics change.
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  const auto ckpt = tiny_checkpoint();
  std::vector<FleetJob> jobs;
  for (const SchedulerKind kind :
       {SchedulerKind::kDrl, SchedulerKind::kTou, SchedulerKind::kGreedyPrice}) {
    const auto batch = make_fleet_jobs(reg, reg.keys(), 5, 2, kind,
                                       kind == SchedulerKind::kDrl ? ckpt : nullptr);
    jobs.insert(jobs.end(), batch.begin(), batch.end());
  }
  FleetRunnerConfig cfg;
  cfg.episodes_per_hub = 2;
  cfg.lockstep_threads = 1;
  cfg.lockstep_gemm = LockstepGemm::kCoordinator;
  const auto reference = FleetRunner(cfg).run_lockstep(jobs);
  for (const std::size_t threads : {1u, 2u, 5u}) {
    for (const LockstepGemm mode : all_lockstep_gemm_modes()) {
      cfg.lockstep_threads = threads;
      cfg.lockstep_gemm = mode;
      const auto got = FleetRunner(cfg).run_lockstep(jobs);
      expect_results_bit_identical(reference, got);
    }
  }
}

TEST(LockstepDeterminism, GemmModeNamesRoundTrip) {
  EXPECT_EQ(all_lockstep_gemm_modes().size(), 2u);
  for (const LockstepGemm mode : all_lockstep_gemm_modes()) {
    EXPECT_EQ(lockstep_gemm_from_string(to_string(mode)), mode);
  }
  EXPECT_EQ(lockstep_gemm_from_string("Coordinator"), LockstepGemm::kCoordinator);
  EXPECT_EQ(lockstep_gemm_from_string("WORKER"), LockstepGemm::kWorker);
  EXPECT_THROW((void)lockstep_gemm_from_string("gpu"), std::invalid_argument);
}

// ------------------------------------------------------------ metro coupling

// A 64-hub spatially generated metro fleet with coupling enabled on every
// hub.  Half the fleet runs the batched DRL path (so phase B GEMMs and the
// exchange interleave), half runs a stateful per-hub scheduler.
std::vector<FleetJob> make_coupled_metro_jobs(std::size_t hubs) {
  spatial::MetroConfig metro_cfg;
  metro_cfg.num_hubs = hubs;
  const spatial::MetroMap metro(metro_cfg, 42);
  const ScenarioRegistry reg = ScenarioRegistry::with_builtins();
  auto jobs = make_metro_fleet_jobs(metro, reg, reg.keys(), 2, SchedulerKind::kDrl,
                                    tiny_checkpoint());
  for (std::size_t i = 0; i < jobs.size(); i += 2) {
    jobs[i].scheduler = SchedulerKind::kGreedyPrice;
    jobs[i].checkpoint = nullptr;
  }
  return jobs;
}

TEST(LockstepDeterminism, CoupledMetroFleetBitIdenticalAcrossThreadsAndGemm) {
  // The acceptance criterion of the coupling layer: a 64-hub coupled metro
  // fleet — CouplingBus exchange at every slot barrier, correlated fronts,
  // through-traffic, episode turnover mid-run — is bit-identical between
  // lockstep x1 and lockstep x8 under both GEMM placements, spill ledgers
  // included.
  const std::vector<FleetJob> jobs = make_coupled_metro_jobs(64);
  FleetRunnerConfig cfg;
  cfg.episodes_per_hub = 2;  // exercise pending-import drop at turnover
  cfg.lockstep_threads = 1;
  const auto reference = FleetRunner(cfg).run_lockstep(jobs);
  cfg.lockstep_threads = 8;
  cfg.lockstep_gemm = LockstepGemm::kCoordinator;
  const auto coord_8 = FleetRunner(cfg).run_lockstep(jobs);
  cfg.lockstep_gemm = LockstepGemm::kWorker;
  const auto worker_8 = FleetRunner(cfg).run_lockstep(jobs);
  expect_results_bit_identical(reference, coord_8);
  expect_results_bit_identical(coord_8, worker_8);

  // The coupling must actually be live: demand flowed over the bus and some
  // of it was absorbed by neighbors.
  double exported = 0.0, served = 0.0, through = 0.0;
  for (const HubRunResult& r : reference) {
    exported += r.spill_exported_kwh;
    served += r.spill_served_kwh;
    through += r.through_kwh;
  }
  EXPECT_GT(through, 0.0);
  EXPECT_GT(exported, 0.0);
  EXPECT_GT(served, 0.0);
}

// ------------------------------------------------------------ oracle

// An independent reference for both entry points, built only from the
// public API: one EctHubEnv (hub seed mix_seed(base, hub_id_offset + i))
// and one make_policy instance per hub, deciding one observation at a time
// through decide() — no blocks, no batching, no threads.  Hubs advance slot
// by slot, each turning over its own episodes, so a coupled fleet can route
// its overflow over a CouplingBus after every slot as the slot-synchronous
// contract states.
std::vector<HubRunResult> oracle_run(const std::vector<FleetJob>& jobs,
                                     const FleetRunnerConfig& cfg) {
  // The runner's policy-stream tag (fleet_runner.cpp): a RandomPolicy must
  // draw from a stream independent of its hub's.
  constexpr std::uint64_t kPolicySeedTag = 0xec7ec7ec7ec7ec7eULL;
  struct Hub {
    std::unique_ptr<core::EctHubEnv> env;
    std::unique_ptr<policy::Policy> pol;
    std::vector<double> state;
    double dt_hours = 1.0;
    std::size_t episodes_done = 0;
    bool needs_reset = true;
    SocDigest soc;
  };
  bool coupled = false;
  std::vector<std::vector<std::size_t>> neighbors;
  std::vector<Hub> hubs(jobs.size());
  std::vector<HubRunResult> results(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const FleetJob& job = jobs[i];
    HubRunResult& r = results[i];
    r.hub_id = cfg.hub_id_offset + i;
    r.hub_name = job.hub.name;
    r.scenario = job.scenario;
    r.scheduler = job.scheduler;
    r.seed = mix_seed(cfg.base_seed, r.hub_id);
    r.episodes = cfg.episodes_per_hub;
    core::HubConfig hub = job.hub;
    hub.seed = r.seed;
    hubs[i].env = std::make_unique<core::EctHubEnv>(std::move(hub), job.env);
    hubs[i].pol = make_policy(job.scheduler, r.seed ^ kPolicySeedTag,
                              hubs[i].env->observation_layout(), job.checkpoint);
    hubs[i].state.resize(hubs[i].env->state_dim());
    hubs[i].dt_hours = TimeGrid(job.env.episode_days, job.env.slots_per_day).slot_hours();
    r.slots_per_episode = hubs[i].env->slots_per_episode();
    coupled = coupled || job.coupled();
    neighbors.push_back(job.neighbors);
  }
  std::optional<CouplingBus> bus;
  if (coupled) bus.emplace(neighbors);

  std::size_t active = jobs.size();
  while (active > 0) {
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      Hub& h = hubs[i];
      HubRunResult& r = results[i];
      if (h.episodes_done == cfg.episodes_per_hub) continue;
      const bool last_episode = h.episodes_done + 1 == cfg.episodes_per_hub;
      if (h.needs_reset) {
        h.needs_reset = false;
        if (bus) bus->drop_pending(i);
        h.env->reset_into(h.state);
        h.pol->begin_episode();
        if (last_episode) h.soc.open(h.env->soc_frac());
      }
      const std::size_t action = h.pol->decide(h.state);
      core::StepOutcome out;
      if (bus) {
        core::SlotCoupling sc;
        sc.import_kw = bus->take(i);
        out = h.env->step_into(action, h.state, sc);
        bus->deposit(i, sc.export_kw);
        r.through_kwh += sc.through_kw * h.dt_hours;
        r.spill_exported_kwh += sc.export_kw * h.dt_hours;
        r.spill_served_kwh += sc.served_import_kw * h.dt_hours;
        r.spill_dropped_kwh += sc.dropped_import_kw * h.dt_hours;
        if (sc.outage) ++r.outage_slots;
      } else {
        out = h.env->step_into(action, h.state);
      }
      if (last_episode) h.soc.sample(h.env->soc_frac());
      if (!out.done) continue;
      if (last_episode) {
        h.soc.close();
        r.soc = h.soc;
      }
      const core::ProfitLedger& ledger = h.env->ledger();
      r.revenue += ledger.total_revenue();
      r.grid_cost += ledger.total_grid_cost();
      r.bp_cost += ledger.total_bp_cost();
      r.profit += ledger.total_profit();
      r.episode_profit.push_back(ledger.total_profit());
      h.needs_reset = true;
      if (++h.episodes_done == cfg.episodes_per_hub) --active;
    }
    if (bus) bus->exchange();
  }
  return results;
}

void expect_matches_oracle(const std::vector<HubRunResult>& oracle,
                           const std::vector<HubRunResult>& got) {
  expect_results_bit_identical(oracle, got);
  for (std::size_t i = 0; i < oracle.size() && i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == oracle[i]) << "hub " << i << " differs in some field";
  }
}

TEST(FleetOracle, RunMatchesIndependentReferenceAtEveryThreadCount) {
  const std::vector<FleetJob> jobs = make_all_kind_jobs();
  FleetRunnerConfig cfg;
  cfg.episodes_per_hub = 2;
  cfg.hub_id_offset = 5;  // a shard's view: seeds follow the global id
  const auto oracle = oracle_run(jobs, cfg);
  for (const std::size_t threads : {1u, 3u, 8u}) {
    SCOPED_TRACE("run threads=" + std::to_string(threads));
    cfg.threads = threads;
    expect_matches_oracle(oracle, FleetRunner(cfg).run(jobs));
  }
}

TEST(FleetOracle, LockstepMatchesIndependentReferenceUnderBothPlacements) {
  const std::vector<FleetJob> jobs = make_all_kind_jobs();
  FleetRunnerConfig cfg;
  cfg.episodes_per_hub = 2;
  const auto oracle = oracle_run(jobs, cfg);
  for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
    for (const LockstepGemm mode : all_lockstep_gemm_modes()) {
      SCOPED_TRACE("lockstep threads=" + std::to_string(threads) + " gemm=" + to_string(mode));
      cfg.lockstep_threads = threads;
      cfg.lockstep_gemm = mode;
      expect_matches_oracle(oracle, FleetRunner(cfg).run_lockstep(jobs));
    }
  }
}

TEST(FleetOracle, CoupledMetroLockstepMatchesIndependentReference) {
  const std::vector<FleetJob> jobs = make_coupled_metro_jobs(64);
  FleetRunnerConfig cfg;
  cfg.episodes_per_hub = 2;
  const auto oracle = oracle_run(jobs, cfg);
  double exported = 0.0;
  for (const HubRunResult& r : oracle) exported += r.spill_exported_kwh;
  ASSERT_GT(exported, 0.0) << "the reference must exercise the exchange";
  for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
    for (const LockstepGemm mode : all_lockstep_gemm_modes()) {
      SCOPED_TRACE("lockstep threads=" + std::to_string(threads) + " gemm=" + to_string(mode));
      cfg.lockstep_threads = threads;
      cfg.lockstep_gemm = mode;
      expect_matches_oracle(oracle, FleetRunner(cfg).run_lockstep(jobs));
    }
  }
}

TEST(FleetRunner, RunRejectsCoupledJobs) {
  // Per-hub execution cannot honor the slot-synchronous exchange; both the
  // coupling flag and a bare neighbor list must route callers to
  // run_lockstep with a clear error.
  std::vector<FleetJob> jobs = make_jobs(2);
  jobs[0].env.coupling.enabled = true;
  EXPECT_THROW((void)FleetRunner(FleetRunnerConfig{}).run(jobs), std::invalid_argument);

  std::vector<FleetJob> neighbor_jobs = make_jobs(2);
  neighbor_jobs[1].neighbors = {0};
  EXPECT_THROW((void)FleetRunner(FleetRunnerConfig{}).run(neighbor_jobs),
               std::invalid_argument);
  // run_lockstep accepts the same job set.
  EXPECT_EQ(FleetRunner(FleetRunnerConfig{}).run_lockstep(neighbor_jobs).size(), 2u);
}

TEST(CouplingBus, RoutesEqualSharesAndDeliversNextTake) {
  // Hub 0 exports to {1, 2}; hub 1 exports to {0}; hub 2 has no neighbors.
  CouplingBus bus({{1, 2}, {0}, {}});
  ASSERT_EQ(bus.lanes(), 3u);
  bus.deposit(0, 10.0);
  bus.deposit(1, 4.0);
  // Nothing is visible until the barrier exchange.
  EXPECT_DOUBLE_EQ(bus.take(1), 0.0);
  bus.exchange();
  EXPECT_DOUBLE_EQ(bus.take(0), 4.0);  // all of hub 1's export
  EXPECT_DOUBLE_EQ(bus.take(1), 5.0);  // half of hub 0's export
  EXPECT_DOUBLE_EQ(bus.take(2), 5.0);
  // take() drains: a second read in the same slot sees nothing.
  EXPECT_DOUBLE_EQ(bus.take(1), 0.0);
  // Exports without neighbors vanish (hub 2 has nowhere to route).
  bus.deposit(2, 7.0);
  bus.exchange();
  EXPECT_DOUBLE_EQ(bus.take(0), 0.0);
  EXPECT_DOUBLE_EQ(bus.take(1), 0.0);
  EXPECT_DOUBLE_EQ(bus.take(2), 0.0);
  // drop_pending clears a lane's queued imports at episode turnover.
  bus.deposit(0, 6.0);
  bus.exchange();
  bus.drop_pending(1);
  EXPECT_DOUBLE_EQ(bus.take(1), 0.0);
  EXPECT_DOUBLE_EQ(bus.take(2), 3.0);
}

TEST(CouplingBus, RejectsBadNeighborLists) {
  EXPECT_THROW(CouplingBus({{1}, {5}}), std::invalid_argument);  // out of range
  EXPECT_THROW(CouplingBus({{0}, {0}}), std::invalid_argument);  // self-loop
}

TEST(FleetRunnerLockstep, OversubscribedThreadsMatchSerial) {
  // More workers than hubs: partitions clamp to the fleet size and the
  // result stays bit-identical.
  const std::vector<FleetJob> jobs = make_jobs(3);
  expect_results_bit_identical(run_lockstep_fleet(jobs, 1),
                               run_lockstep_fleet(jobs, 16));
}

TEST(FleetRunnerLockstep, SingleHubFleetRunsThreaded) {
  const std::vector<FleetJob> jobs = make_jobs(1);
  const auto serial = run_lockstep_fleet(jobs, 1);
  const auto threaded = run_lockstep_fleet(jobs, 4);
  ASSERT_EQ(threaded.size(), 1u);
  expect_results_bit_identical(serial, threaded);
  EXPECT_TRUE(std::isfinite(threaded[0].profit));
}

TEST(FleetRunnerLockstep, HardwareConcurrencyDefaultMatchesSerial) {
  // lockstep_threads == 0 resolves to hardware_concurrency.
  const std::vector<FleetJob> jobs = make_jobs(6);
  expect_results_bit_identical(run_lockstep_fleet(jobs, 1),
                               run_lockstep_fleet(jobs, 0));
}

TEST(FleetRunnerLockstep, BarrierStressManySlotsManyEpisodes) {
  // Thousands of barrier crossings on a tiny fleet: 2 hubs x 10 days x 3
  // episodes with 2 workers is ~1440 slots -> ~2880 barrier phases.  Any
  // lost-wakeup or ordering bug shows up as a hang (ctest timeout) or a
  // checksum mismatch.
  const std::vector<FleetJob> jobs = make_jobs(2, 10);
  expect_results_bit_identical(run_lockstep_fleet(jobs, 1, 3),
                               run_lockstep_fleet(jobs, 2, 3));
}

TEST(FleetRunnerLockstep, WorkerExceptionPropagatesWithoutDeadlock) {
  // A negative traffic noise sigma makes TrafficGenerator's constructor
  // throw at the first reset — which threaded lockstep performs on a worker
  // thread.  The crew must surface the exception, not deadlock or crash.
  std::vector<FleetJob> jobs = make_jobs(8);
  jobs[5].hub.traffic.noise_sigma = -1.0;
  FleetRunnerConfig cfg;
  cfg.lockstep_threads = 4;
  const FleetRunner runner(cfg);
  EXPECT_THROW((void)runner.run_lockstep(jobs), std::invalid_argument);
  // The runner stays usable after a failed fleet.
  jobs[5].hub.traffic.noise_sigma = 0.08;
  const auto results = runner.run_lockstep(jobs);
  ASSERT_EQ(results.size(), 8u);
  EXPECT_TRUE(std::isfinite(results[5].profit));
}

TEST(FleetRunnerLockstep, SerialWorkerExceptionAlsoPropagates) {
  std::vector<FleetJob> jobs = make_jobs(4);
  jobs[0].hub.traffic.noise_sigma = -1.0;
  EXPECT_THROW((void)run_lockstep_fleet(jobs, 1), std::invalid_argument);
}

TEST(FleetRunner, WorkerExceptionsPropagate) {
  // A zero-capacity battery makes EctHubEnv construction throw inside the
  // worker; the runner must surface it, not deadlock or crash.
  std::vector<FleetJob> jobs = make_jobs(4);
  jobs[2].hub.battery.capacity_kwh = 0.0;
  FleetRunnerConfig cfg;
  cfg.threads = 2;
  EXPECT_THROW((void)FleetRunner(cfg).run(jobs), std::invalid_argument);
}

// ------------------------------------------------------------ report

HubRunResult fake_result(std::size_t id, const std::string& scenario, double profit,
                         SchedulerKind sched = SchedulerKind::kTou) {
  HubRunResult r;
  r.hub_id = id;
  r.hub_name = scenario + "-" + std::to_string(id);
  r.scenario = scenario;
  r.scheduler = sched;
  r.episodes = 1;
  r.revenue = profit + 10.0;
  r.grid_cost = 8.0;
  r.bp_cost = 2.0;
  r.profit = profit;
  r.soc.mean = 0.5;
  return r;
}

TEST(AggregateReport, GroupsByScenarioAndScheduler) {
  const std::vector<HubRunResult> results = {
      fake_result(0, "urban", 4.0, SchedulerKind::kTou),
      fake_result(1, "urban", 6.0, SchedulerKind::kForecast),
      fake_result(2, "rural", 1.0, SchedulerKind::kTou),
  };
  const AggregateReport report(results);
  EXPECT_EQ(report.totals().hubs, 3u);
  EXPECT_DOUBLE_EQ(report.totals().profit.value(), 11.0);
  ASSERT_EQ(report.by_scenario().size(), 2u);
  EXPECT_DOUBLE_EQ(report.by_scenario().at("urban").profit.value(), 10.0);
  EXPECT_DOUBLE_EQ(report.by_scenario().at("urban").profit_per_hub(), 5.0);
  EXPECT_DOUBLE_EQ(report.by_scenario().at("rural").profit.value(), 1.0);
  ASSERT_EQ(report.by_scheduler().size(), 2u);
  EXPECT_EQ(report.by_scheduler().at("tou").hubs, 2u);
  EXPECT_DOUBLE_EQ(report.totals().mean_soc(), 0.5);
}

TEST(AggregateReport, MergeFoldsShards) {
  AggregateReport a({fake_result(0, "urban", 4.0)});
  const AggregateReport b({fake_result(1, "urban", 6.0), fake_result(2, "rural", 1.0)});
  a.merge(b);
  EXPECT_EQ(a.totals().hubs, 3u);
  EXPECT_DOUBLE_EQ(a.totals().profit.value(), 11.0);
  EXPECT_DOUBLE_EQ(a.by_scenario().at("urban").profit.value(), 10.0);
  EXPECT_EQ(a.by_scenario().at("rural").hubs, 1u);
}

TEST(AggregateReport, TablesRenderOneRowPerGroupPlusTotal) {
  const std::vector<HubRunResult> results = {
      fake_result(0, "urban", 4.0),
      fake_result(1, "rural", 1.0),
  };
  const AggregateReport report(results);
  EXPECT_EQ(report.scenario_table().num_rows(), 3u);   // 2 scenarios + TOTAL
  EXPECT_EQ(report.scheduler_table().num_rows(), 2u);  // 1 scheduler + TOTAL
  EXPECT_EQ(per_hub_table(results).num_rows(), 2u);
  EXPECT_FALSE(report.scenario_table().str().empty());
}

// ---------------------------------------------------------------- actor zoo

ZooTrainConfig tiny_zoo_cfg() {
  ZooTrainConfig cfg;
  cfg.episode_days = 1;
  cfg.iterations = 1;
  cfg.train_hubs = 1;
  cfg.ppo.episodes_per_iteration = 1;
  return cfg;
}

TEST(DrlZoo, TrainsSpecialistPerKeyPlusGeneralist) {
  const ScenarioRegistry registry = ScenarioRegistry::with_builtins();
  const ActorZoo zoo =
      train_actor_zoo(registry, {"urban", "rural"}, tiny_zoo_cfg());
  EXPECT_EQ(zoo.keys, (std::vector<std::string>{"rural", "urban"}));  // sorted
  ASSERT_EQ(zoo.specialists.size(), 2u);
  EXPECT_FALSE(zoo.specialists.at("urban").blob.empty());
  EXPECT_FALSE(zoo.specialists.at("rural").blob.empty());
  EXPECT_FALSE(zoo.generalist.blob.empty());
  // Different training fleets and seed streams: the actors must differ.
  EXPECT_NE(zoo.specialists.at("urban").blob, zoo.specialists.at("rural").blob);
  EXPECT_NE(zoo.generalist.blob, zoo.specialists.at("urban").blob);
  // Every checkpoint deploys through the Policy API.
  policy::DrlPolicy deployed(zoo.generalist);
  EXPECT_LT(deployed.decide(std::vector<double>(
                zoo.generalist.config.state_dim, 0.1)),
            3u);
}

TEST(DrlZoo, DeterministicAcrossRunsAndCollectorThreads) {
  const ScenarioRegistry registry = ScenarioRegistry::with_builtins();
  ZooTrainConfig cfg = tiny_zoo_cfg();
  const ActorZoo a = train_actor_zoo(registry, {"urban"}, cfg);
  cfg.collector_threads = 4;
  const ActorZoo b = train_actor_zoo(registry, {"urban"}, cfg);
  EXPECT_EQ(a.specialists.at("urban").blob, b.specialists.at("urban").blob);
  EXPECT_EQ(a.generalist.blob, b.generalist.blob);
}

TEST(DrlZoo, ValidatesInputs) {
  const ScenarioRegistry registry = ScenarioRegistry::with_builtins();
  ZooTrainConfig cfg = tiny_zoo_cfg();
  EXPECT_THROW((void)train_actor_zoo(registry, {"nope"}, cfg), std::out_of_range);
  cfg.train_hubs = 0;
  EXPECT_THROW((void)train_actor_zoo(registry, {"urban"}, cfg),
               std::invalid_argument);
}

TEST(DrlZoo, EmptyKeySelectionCoversWholeRegistry) {
  // Dedup + default-to-all behaviour, without paying for six trainings: a
  // two-scenario registry built from the urban/rural presets.
  const ScenarioRegistry builtins = ScenarioRegistry::with_builtins();
  ScenarioRegistry registry;
  registry.add(builtins.at("urban"));
  registry.add(builtins.at("rural"));
  const ActorZoo zoo = train_actor_zoo(registry, {}, tiny_zoo_cfg());
  EXPECT_EQ(zoo.keys, registry.keys());
  EXPECT_EQ(zoo.specialists.size(), 2u);
}

}  // namespace
}  // namespace ecthub::sim
