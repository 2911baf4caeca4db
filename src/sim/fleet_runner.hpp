// FleetRunner: N independent hub episodes, per-hub or lockstep-batched.
//
// Each job (hub config + episode shape + scheduler kind) is fully
// self-contained: every stochastic stream of hub i is seeded from
// mix_seed(base_seed, hub_id) and RNG state is never shared between hubs.
// Results are written into a per-job slot, so the output is bit-identical
// regardless of thread count or scheduling order: running 32 hubs on 1
// thread or 8 threads produces the same ledgers to the last bit.
//
// One engine runs both entry points.  Its unit is a *block*: the lanes
// [begin, end) of the fleet, each one hub's env, with the block's own policy
// instances.  Stateless kinds (TOU, no-battery, ECT-DRL) share one instance
// per block and a block-local (lanes x state_dim) observation matrix fed to
// one decide_batch per slot — so a neural policy replaces N matrix-vector
// products with one matrix-matrix forward pass; stateful kinds keep one
// instance per lane.  A block's slot is three phases: begin_slot (episode
// turnover, stateful decisions), infer (the batched calls), step.  Two
// drivers run blocks:
//
//  * Free-running — run(), and run_lockstep() on an uncoupled fleet under
//    LockstepGemm::kWorker.  Threads claim blocks by atomic index and run
//    each to its last slot with no slot barrier.  run() uses one hub per
//    block (work stealing; only in-flight hubs hold memory); run_lockstep()
//    one contiguous block per thread (the GEMM batch).
//  * Slot-synchronous — coupled fleets, or LockstepGemm::kCoordinator.  One
//    block per BarrierCrew member, built up front; each slot is one crew
//    phase, then the coordinator alone runs the CouplingBus exchange.
//    kCoordinator splits the slot: crew begin_slot, the coordinator calling
//    every block's infer, crew step.
//
// Determinism contract (tests/test_sim.cpp pins all of it):
//
//  * Seed mixing.  Every stochastic stream of hub i derives from
//    mix_seed(base_seed, i), so any execution order replays the identical
//    per-hub streams.
//  * Row independence.  Row i of a batched decision never reads row j, so
//    a lane's actions do not depend on which block it shares; a finished
//    lane's stale row disturbs no live one.
//  * Phase ownership.  A block is touched by one thread per phase, and the
//    exchange never runs concurrently with a crew phase, so coupled routed
//    totals are independent of the thread count and the GEMM placement.
//  * Errors.  A worker's exception is caught, the other workers drain, and
//    the first error is rethrown from the entry point — never a deadlock.
//
// run(), run_lockstep() at any lockstep_threads and under either
// LockstepGemm mode are all bit-identical on the same jobs and config.
#pragma once

#include "common/rng.hpp"
#include "core/hub_config.hpp"
#include "core/hub_env.hpp"
#include "policy/drl_policy.hpp"
#include "policy/policy.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace ecthub::sim {

/// Deterministic per-hub seed: a splitmix64 finalizer over (base, hub_id).
/// Distinct hub ids map to well-separated seeds even for adjacent bases.
/// Forwards to ecthub::mix_seed (common/rng) — the same primitive that keys
/// the metro front streams in core.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t base_seed,
                                            std::uint64_t hub_id) noexcept {
  return ecthub::mix_seed(base_seed, hub_id);
}

/// Scheduler families the runner can instantiate per worker: the five
/// rule-based baselines plus the trained ECT-DRL actor.
enum class SchedulerKind { kNoBattery, kTou, kGreedyPrice, kForecast, kRandom, kDrl };

/// All kinds in declaration order — the sweep set of scheduler comparisons.
[[nodiscard]] const std::vector<SchedulerKind>& all_scheduler_kinds();

/// Parses "none" | "tou" | "greedy" | "forecast" | "random" | "drl",
/// case-insensitively.  Throws std::invalid_argument listing every valid
/// name on anything else.
[[nodiscard]] SchedulerKind scheduler_kind_from_string(const std::string& name);
[[nodiscard]] std::string to_string(SchedulerKind kind);

/// Where run_lockstep's per-slot batched inference executes: on the
/// coordinator between two crew phases of every slot (kept for comparison
/// benchmarks), or on each block's own thread inside its slot (the default —
/// inference scales with the threads, and uncoupled fleets run with no slot
/// barrier).  Bit-identical either way.
enum class LockstepGemm { kCoordinator, kWorker };

/// All modes in declaration order — the sweep set of the GEMM-placement bench.
[[nodiscard]] const std::vector<LockstepGemm>& all_lockstep_gemm_modes();

/// Parses "coordinator" | "worker", case-insensitively.  Throws
/// std::invalid_argument listing the valid names on anything else.
[[nodiscard]] LockstepGemm lockstep_gemm_from_string(const std::string& name);
[[nodiscard]] std::string to_string(LockstepGemm mode);

/// Fresh policy instance for `kind`; cheap enough to build once per worker.
/// `seed` only matters for kRandom; `layout` must describe the observations
/// the hub emits (EctHubEnv::observation_layout()).  kDrl requires a
/// checkpoint whose state_dim matches the layout and throws
/// std::invalid_argument without one.
[[nodiscard]] std::unique_ptr<policy::Policy> make_policy(
    SchedulerKind kind, std::uint64_t seed, const policy::ObservationLayout& layout,
    const std::shared_ptr<const policy::DrlCheckpoint>& checkpoint = nullptr);

/// One unit of fleet work: a hub evaluated under one scheduler.  The hub's
/// `seed` field is overridden by the runner with mix_seed(base_seed, hub_id).
struct FleetJob {
  core::HubConfig hub;
  core::HubEnvConfig env;
  std::string scenario = "custom";  ///< label carried into the report
  SchedulerKind scheduler = SchedulerKind::kTou;
  /// Trained actor weights; required when scheduler == kDrl.  Immutable and
  /// shared across jobs — each worker restores its own DrlPolicy from it.
  std::shared_ptr<const policy::DrlCheckpoint> checkpoint;
  /// Road-graph neighbors (job indices) this hub exports overflow to when
  /// env.coupling is enabled.  A job set with coupling anywhere is lockstep-
  /// only: run() rejects it, because per-hub execution cannot honor the
  /// slot-synchronous exchange.
  std::vector<std::size_t> neighbors;

  /// True when this job participates in the metro coupling layer.
  [[nodiscard]] bool coupled() const noexcept {
    return env.coupling.enabled || !neighbors.empty();
  }
};

/// Digest of the SoC trajectory over the job's last episode.
struct SocDigest {
  double first = 0.0;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double checksum = 0.0;  ///< plain sum in slot order — drift detector
  std::size_t samples = 0;

  /// Starts a fresh trajectory at the episode's initial SoC.
  void open(double soc) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    *this = {.first = soc, .min = kInf, .max = -kInf};
  }
  /// Folds in the SoC after one slot.
  void sample(double soc) {
    last = soc;
    min = std::min(min, soc);
    max = std::max(max, soc);
    checksum += soc;
    ++samples;
  }
  /// Finalizes the mean once the episode is done.
  void close() { mean = samples > 0 ? checksum / static_cast<double>(samples) : 0.0; }

  friend bool operator==(const SocDigest&, const SocDigest&) = default;
};

struct HubRunResult {
  std::size_t hub_id = 0;
  std::string hub_name;
  std::string scenario;
  SchedulerKind scheduler = SchedulerKind::kTou;
  std::uint64_t seed = 0;  ///< the mixed per-hub seed actually used
  std::size_t episodes = 0;
  std::size_t slots_per_episode = 0;

  // Ledger totals accumulated across all episodes of the job.
  double revenue = 0.0;
  double grid_cost = 0.0;
  double bp_cost = 0.0;
  double profit = 0.0;

  std::vector<double> episode_profit;  ///< per-episode true profit
  SocDigest soc;                       ///< last episode's SoC trajectory

  // Coupling totals across all episodes (all zero on an uncoupled job).
  double through_kwh = 0.0;         ///< through-traffic demand seen
  double spill_exported_kwh = 0.0;  ///< overflow routed to neighbors
  double spill_served_kwh = 0.0;    ///< neighbor imports absorbed here
  double spill_dropped_kwh = 0.0;   ///< neighbor imports lost (one-hop bound)
  std::size_t outage_slots = 0;     ///< front outage slots endured

  /// Field-exact equality — the bit-identity currency of the determinism
  /// tests and the shard save/load round-trip (sim/shard_io).
  friend bool operator==(const HubRunResult&, const HubRunResult&) = default;
};

class ScenarioRegistry;  // scenario.hpp

/// Builds `count` jobs cycling round-robin through `scenario_keys` (each must
/// exist in `registry`).  Hub i is named "<key>-<i>" and runs the scenario's
/// episode shape with `episode_days` days.  `checkpoint` is attached to every
/// job (needed when scheduler == kDrl).  The shared job-construction path of
/// the sweep driver, the fleet bench and the determinism tests.
[[nodiscard]] std::vector<FleetJob> make_fleet_jobs(
    const ScenarioRegistry& registry, const std::vector<std::string>& scenario_keys,
    std::size_t count, std::size_t episode_days, SchedulerKind scheduler,
    std::shared_ptr<const policy::DrlCheckpoint> checkpoint = nullptr);

struct FleetRunnerConfig {
  std::uint64_t base_seed = 7;
  /// Global hub id of jobs[0].  A sharded sweep (sim/shard) runs the job
  /// sub-range [begin, end) of the full list with hub_id_offset = begin, so
  /// every hub keeps the mix_seed(base_seed, global_id) stream — and the
  /// exact per-hub result bits — it would have had in the unsharded run.
  std::size_t hub_id_offset = 0;
  /// Threads for run(), which runs one hub per block; 0 means
  /// std::thread::hardware_concurrency().  The caller is one of them.
  std::size_t threads = 0;
  /// Threads for run_lockstep(), which cuts the fleet into this many
  /// contiguous blocks, one per thread; 0 means
  /// std::thread::hardware_concurrency(), 1 (the default) runs one block
  /// on the caller alone.  Any value produces bit-identical results — big
  /// fleets get thread parallelism on top of batch parallelism.
  std::size_t lockstep_threads = 1;
  /// Where run_lockstep's batched inference runs (see LockstepGemm); also
  /// picks the driver of an uncoupled fleet (see the file comment).
  LockstepGemm lockstep_gemm = LockstepGemm::kWorker;
  std::size_t episodes_per_hub = 1;
};

class FleetRunner {
 public:
  explicit FleetRunner(FleetRunnerConfig cfg);

  /// Runs every job, one hub per block on the free-running driver;
  /// results[i] corresponds to jobs[i] (hub_id == cfg.hub_id_offset + i).
  /// The first exception thrown by any worker is rethrown after all workers
  /// have been joined.  Throws std::invalid_argument on a
  /// coupled job set (see FleetJob::coupled) — only run_lockstep advances
  /// the fleet slot-synchronously, which the exchange requires.
  [[nodiscard]] std::vector<HubRunResult> run(const std::vector<FleetJob>& jobs) const;

  /// Lockstep execution: cuts the fleet into lockstep_threads contiguous
  /// blocks that advance their hubs slot by slot and batch policy inference
  /// (see the file comment for the blocks and the two drivers).
  /// Bit-identical to run() on the same jobs and config, at any thread
  /// count and under either GEMM placement.
  ///
  /// Coupled fleets (FleetJob::coupled) run slot-synchronously: each lane
  /// steps with the imports routed to it at the previous slot boundary and
  /// deposits its exported overflow, then the coordinator — alone, in fixed
  /// lane order — routes every deposit over the road-graph neighbor lists
  /// (CouplingBus).  The exchange never runs concurrently with a worker
  /// phase, so coupled results stay bit-identical at any lockstep_threads
  /// and under either LockstepGemm mode.
  [[nodiscard]] std::vector<HubRunResult> run_lockstep(
      const std::vector<FleetJob>& jobs) const;

  [[nodiscard]] const FleetRunnerConfig& config() const noexcept { return cfg_; }

 private:
  FleetRunnerConfig cfg_;
};

}  // namespace ecthub::sim
