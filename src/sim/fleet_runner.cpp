#include "sim/fleet_runner.hpp"

#include "common/crew.hpp"
#include "common/parse.hpp"
#include "common/time_grid.hpp"
#include "policy/rule_policies.hpp"
#include "sim/coupling.hpp"
#include "sim/scenario.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

namespace ecthub::sim {

namespace {
// The policy stream must be independent of the hub stream: xor with a fixed
// tag so a RandomPolicy never replays the env's own draws.
constexpr std::uint64_t kPolicySeedTag = 0xec7ec7ec7ec7ec7eULL;

// Closes one finished episode into the job's result: the SoC digest when
// this episode recorded one, then the ledger totals.  Shared by run_job and
// the lockstep lanes so both tally in the same order.
void close_episode(HubRunResult& r, const core::ProfitLedger& ledger, SocDigest* soc) {
  if (soc != nullptr) {
    soc->close();
    r.soc = *soc;
  }
  r.revenue += ledger.total_revenue();
  r.grid_cost += ledger.total_grid_cost();
  r.bp_cost += ledger.total_bp_cost();
  r.profit += ledger.total_profit();
  r.episode_profit.push_back(ledger.total_profit());
}
}  // namespace

const std::vector<SchedulerKind>& all_scheduler_kinds() {
  static const std::vector<SchedulerKind> kinds = {
      SchedulerKind::kNoBattery, SchedulerKind::kTou,    SchedulerKind::kGreedyPrice,
      SchedulerKind::kForecast,  SchedulerKind::kRandom, SchedulerKind::kDrl};
  return kinds;
}

SchedulerKind scheduler_kind_from_string(const std::string& name) {
  return parse_enum_ci(
      name, all_scheduler_kinds(), [](SchedulerKind kind) { return to_string(kind); },
      "scheduler_kind_from_string: unknown scheduler");
}

std::string to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kNoBattery: return "none";
    case SchedulerKind::kTou: return "tou";
    case SchedulerKind::kGreedyPrice: return "greedy";
    case SchedulerKind::kForecast: return "forecast";
    case SchedulerKind::kRandom: return "random";
    case SchedulerKind::kDrl: return "drl";
  }
  throw std::invalid_argument("to_string: bad SchedulerKind");
}

const std::vector<LockstepGemm>& all_lockstep_gemm_modes() {
  static const std::vector<LockstepGemm> modes = {LockstepGemm::kCoordinator,
                                                  LockstepGemm::kWorker};
  return modes;
}

LockstepGemm lockstep_gemm_from_string(const std::string& name) {
  return parse_enum_ci(
      name, all_lockstep_gemm_modes(), [](LockstepGemm mode) { return to_string(mode); },
      "lockstep_gemm_from_string: unknown mode");
}

std::string to_string(LockstepGemm mode) {
  switch (mode) {
    case LockstepGemm::kCoordinator: return "coordinator";
    case LockstepGemm::kWorker: return "worker";
  }
  throw std::invalid_argument("to_string: bad LockstepGemm");
}

std::unique_ptr<policy::Policy> make_policy(
    SchedulerKind kind, std::uint64_t seed, const policy::ObservationLayout& layout,
    const std::shared_ptr<const policy::DrlCheckpoint>& checkpoint) {
  switch (kind) {
    case SchedulerKind::kNoBattery: return std::make_unique<policy::NoBatteryPolicy>();
    case SchedulerKind::kTou: return std::make_unique<policy::TouPolicy>(layout);
    case SchedulerKind::kGreedyPrice:
      return std::make_unique<policy::GreedyPricePolicy>(layout);
    case SchedulerKind::kForecast: return std::make_unique<policy::ForecastPolicy>(layout);
    case SchedulerKind::kRandom: return std::make_unique<policy::RandomPolicy>(seed);
    case SchedulerKind::kDrl: {
      if (!checkpoint) {
        throw std::invalid_argument(
            "make_policy: SchedulerKind::kDrl needs a trained DrlCheckpoint "
            "(attach one to the FleetJob)");
      }
      if (checkpoint->config.state_dim != layout.dim()) {
        throw std::invalid_argument(
            "make_policy: DRL checkpoint was trained for state_dim " +
            std::to_string(checkpoint->config.state_dim) + " but the hub emits " +
            std::to_string(layout.dim()));
      }
      return std::make_unique<policy::DrlPolicy>(*checkpoint);
    }
  }
  throw std::invalid_argument("make_policy: bad SchedulerKind");
}

std::vector<FleetJob> make_fleet_jobs(const ScenarioRegistry& registry,
                                      const std::vector<std::string>& scenario_keys,
                                      std::size_t count, std::size_t episode_days,
                                      SchedulerKind scheduler,
                                      std::shared_ptr<const policy::DrlCheckpoint> checkpoint) {
  if (scenario_keys.empty()) {
    throw std::invalid_argument("make_fleet_jobs: no scenario keys");
  }
  std::vector<FleetJob> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& key = scenario_keys[i % scenario_keys.size()];
    const Scenario& scenario = registry.at(key);
    FleetJob job;
    job.hub = scenario.make_hub(key + "-" + std::to_string(i), 0);
    job.env = scenario.env;
    job.env.episode_days = episode_days;
    job.scenario = key;
    job.scheduler = scheduler;
    job.checkpoint = checkpoint;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

FleetRunner::FleetRunner(FleetRunnerConfig cfg) : cfg_(cfg) {
  if (cfg_.episodes_per_hub == 0) {
    throw std::invalid_argument("FleetRunnerConfig: episodes_per_hub == 0");
  }
}

HubRunResult FleetRunner::run_job(const FleetJob& job, std::size_t hub_id,
                                  const FleetRunnerConfig& cfg) {
  if (job.coupled()) {
    throw std::invalid_argument(
        "FleetRunner::run_job: job '" + job.hub.name +
        "' is coupled (env.coupling.enabled or neighbors set); per-hub "
        "execution cannot honor the slot-synchronous exchange — use "
        "run_lockstep");
  }
  const std::uint64_t hub_seed = mix_seed(cfg.base_seed, hub_id);

  core::HubConfig hub = job.hub;
  hub.seed = hub_seed;
  core::EctHubEnv env(std::move(hub), job.env);
  const auto pol = make_policy(job.scheduler, hub_seed ^ kPolicySeedTag,
                               env.observation_layout(), job.checkpoint);

  HubRunResult r;
  r.hub_id = hub_id;
  r.hub_name = job.hub.name;
  r.scenario = job.scenario;
  r.scheduler = job.scheduler;
  r.seed = hub_seed;
  r.episodes = cfg.episodes_per_hub;
  r.slots_per_episode = env.slots_per_episode();
  r.episode_profit.reserve(cfg.episodes_per_hub);

  // One persistent observation buffer drives the whole job: reset_into /
  // step_into regenerate and observe in place, so after the first episode's
  // warm-up an episode performs zero heap allocations.
  std::vector<double> state(env.state_dim());
  for (std::size_t ep = 0; ep < cfg.episodes_per_hub; ++ep) {
    env.reset_into(state);
    pol->begin_episode();
    const bool record_soc = ep + 1 == cfg.episodes_per_hub;
    SocDigest soc;
    if (record_soc) soc.open(env.soc_frac());
    bool done = false;
    while (!done) {
      const core::StepOutcome sr = env.step_into(pol->decide(state), state);
      done = sr.done;
      if (record_soc) soc.sample(env.soc_frac());
    }
    close_episode(r, env.ledger(), record_soc ? &soc : nullptr);
  }
  return r;
}

std::vector<HubRunResult> FleetRunner::run(const std::vector<FleetJob>& jobs) const {
  for (const FleetJob& job : jobs) {
    if (job.coupled()) {
      throw std::invalid_argument(
          "FleetRunner::run: job '" + job.hub.name +
          "' is coupled (env.coupling.enabled or neighbors set); per-hub "
          "execution cannot honor the slot-synchronous exchange — use "
          "run_lockstep");
    }
  }
  std::vector<HubRunResult> results(jobs.size());
  if (jobs.empty()) return results;

  const std::size_t threads = crew_size_for(cfg_.threads, jobs.size());
  if (threads == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      results[i] = run_job(jobs[i], cfg_.hub_id_offset + i, cfg_);
    }
    return results;
  }

  // Work-stealing by atomic index: each worker owns the result slot of the
  // job it claims, so no two threads ever touch the same element.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        results[i] = run_job(jobs[i], cfg_.hub_id_offset + i, cfg_);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        // Drain the queue so the other workers stop claiming jobs and the
        // error surfaces immediately instead of after the full sweep.
        next.store(jobs.size(), std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

std::vector<HubRunResult> FleetRunner::run_lockstep(const std::vector<FleetJob>& jobs) const {
  constexpr std::size_t kNoGroup = std::numeric_limits<std::size_t>::max();

  std::vector<HubRunResult> results(jobs.size());
  if (jobs.empty()) return results;

  // One lane per hub: its env, observation target and episode bookkeeping.
  // A lane's observation lives either in its fixed row of the group's
  // observation matrix (shared stateless policies) or in its own `state`
  // buffer (per-hub stateful policies); either way it is written in place by
  // reset_into/step_into, so the steady-state slot loop never allocates.
  struct Lane {
    std::unique_ptr<core::EctHubEnv> env;
    std::unique_ptr<policy::Policy> own_pol;  ///< stateful policies only
    std::size_t group = kNoGroup;             ///< shared-policy group index
    std::size_t row = 0;                      ///< fixed row in the group matrix
    std::vector<double> state;                ///< stateful lanes only
    std::size_t episodes_done = 0;
    std::size_t action = 0;
    double dt_hours = 1.0;  ///< slot duration, for kW -> kWh spill accounting
    bool active = true;
    bool needs_begin = true;  ///< episode reset pending (runs in phase A)
    bool record_soc = false;
    SocDigest soc;
    HubRunResult result;
  };
  // A shared stateless policy and its whole-fleet observation batch.  Rows
  // are assigned once at setup; a finished lane keeps its (stale, finite)
  // row, which is safe because decide_batch computes every row
  // independently — and means the batch needs no per-slot regrouping.
  struct Group {
    std::unique_ptr<policy::Policy> pol;
    std::size_t dim = 0;
    std::size_t rows = 0;
    bool any_active = false;
    nn::Matrix obs;
    std::vector<std::size_t> actions;
  };

  // The coupled-fleet exchange bus (absent on a fully uncoupled fleet, whose
  // slot loop then takes exactly the pre-coupling path).  Neighbor lists are
  // validated by the bus constructor before any thread spawns.
  std::optional<CouplingBus> bus;
  for (const FleetJob& job : jobs) {
    if (!job.coupled()) continue;
    std::vector<std::vector<std::size_t>> neighbors(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) neighbors[i] = jobs[i].neighbors;
    bus.emplace(std::move(neighbors));
    break;
  }

  std::vector<Lane> lanes(jobs.size());
  std::vector<Group> groups;
  // Lanes whose policy is a pure function of the observation share one
  // instance per (kind, checkpoint, layout); value -1 marks a stateful kind
  // that must stay one-instance-per-hub.
  using GroupKey = std::tuple<int, const void*, std::size_t>;
  std::map<GroupKey, std::ptrdiff_t> group_of;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const FleetJob& job = jobs[i];
    Lane& lane = lanes[i];
    const std::uint64_t hub_seed = mix_seed(cfg_.base_seed, cfg_.hub_id_offset + i);

    core::HubConfig hub = job.hub;
    hub.seed = hub_seed;
    lane.env = std::make_unique<core::EctHubEnv>(std::move(hub), job.env);
    const policy::ObservationLayout layout = lane.env->observation_layout();

    const GroupKey key{static_cast<int>(job.scheduler), job.checkpoint.get(),
                       layout.lookback};
    const auto it = group_of.find(key);
    if (it != group_of.end() && it->second >= 0) {
      lane.group = static_cast<std::size_t>(it->second);
    } else if (it != group_of.end()) {
      lane.own_pol =
          make_policy(job.scheduler, hub_seed ^ kPolicySeedTag, layout, job.checkpoint);
    } else {
      auto pol =
          make_policy(job.scheduler, hub_seed ^ kPolicySeedTag, layout, job.checkpoint);
      if (pol->stateless()) {
        lane.group = groups.size();
        group_of[key] = static_cast<std::ptrdiff_t>(groups.size());
        Group g;
        g.pol = std::move(pol);
        g.dim = layout.dim();
        groups.push_back(std::move(g));
      } else {
        group_of[key] = -1;
        lane.own_pol = std::move(pol);
      }
    }
    if (lane.group != kNoGroup) {
      lane.row = groups[lane.group].rows++;
    } else {
      lane.state.resize(lane.env->state_dim());
    }

    lane.dt_hours = TimeGrid(job.env.episode_days, job.env.slots_per_day).slot_hours();
    lane.result.hub_id = cfg_.hub_id_offset + i;
    lane.result.hub_name = job.hub.name;
    lane.result.scenario = job.scenario;
    lane.result.scheduler = job.scheduler;
    lane.result.seed = hub_seed;
    lane.result.episodes = cfg_.episodes_per_hub;
    lane.result.slots_per_episode = lane.env->slots_per_episode();
    lane.result.episode_profit.reserve(cfg_.episodes_per_hub);
  }
  for (Group& g : groups) {
    g.obs = nn::Matrix(g.rows, g.dim);
    g.actions.resize(g.rows);
  }

  // The lane's in-place observation target.
  const auto obs_of = [&](Lane& lane) -> std::span<double> {
    if (lane.group == kNoGroup) return std::span<double>(lane.state);
    Group& g = groups[lane.group];
    return std::span<double>(g.obs.data().data() + lane.row * g.dim, g.dim);
  };

  std::atomic<std::size_t> active_count{lanes.size()};

  // Phase A: turn over finished episodes (every lane starts with one
  // pending) and let per-hub stateful policies decide.  Shared stateless
  // policies have no per-episode state by contract, so no begin_episode()
  // call touches the shared instance from a worker thread.
  const auto phase_a = [&](Lane& lane) {
    if (!lane.active) return;
    if (lane.needs_begin) {
      lane.needs_begin = false;
      // A fresh episode starts clean: demand routed across the episode
      // boundary is dropped (lane-owned slot, so this is worker-safe).
      if (bus) bus->drop_pending(static_cast<std::size_t>(&lane - lanes.data()));
      lane.env->reset_into(obs_of(lane));
      if (lane.own_pol) lane.own_pol->begin_episode();
      lane.record_soc = lane.episodes_done + 1 == cfg_.episodes_per_hub;
      if (lane.record_soc) lane.soc.open(lane.env->soc_frac());
    }
    if (lane.own_pol) lane.action = lane.own_pol->decide(lane.state);
  };

  // Phase B, coordinator placement (LockstepGemm::kCoordinator): one batched
  // policy call per live group — the matrix-matrix fleet slot; for an
  // ECT-DRL fleet every hub's action comes out of a single forward pass —
  // then scatter the actions back.
  const auto phase_b = [&]() {
    for (Group& g : groups) g.any_active = false;
    for (const Lane& lane : lanes) {
      if (lane.active && lane.group != kNoGroup) groups[lane.group].any_active = true;
    }
    for (Group& g : groups) {
      if (g.any_active) g.pol->decide_batch(g.obs, std::span<std::size_t>(g.actions));
    }
    for (Lane& lane : lanes) {
      if (lane.active && lane.group != kNoGroup) {
        lane.action = groups[lane.group].actions[lane.row];
      }
    }
  };

  // Phase C: advance every active lane one slot, writing the next
  // observation straight into the lane's row/buffer, and close out finished
  // episodes.
  const auto phase_c = [&](Lane& lane) {
    if (!lane.active) return;
    core::StepOutcome sr;
    if (bus) {
      // Step with the imports routed here at the previous slot barrier and
      // deposit this slot's export for the coordinator to route at the next
      // one.  Only this worker touches the lane's bus slots this phase.
      const auto li = static_cast<std::size_t>(&lane - lanes.data());
      core::SlotCoupling sc;
      sc.import_kw = bus->take(li);
      sr = lane.env->step_into(lane.action, obs_of(lane), sc);
      bus->deposit(li, sc.export_kw);
      lane.result.through_kwh += sc.through_kw * lane.dt_hours;
      lane.result.spill_exported_kwh += sc.export_kw * lane.dt_hours;
      lane.result.spill_served_kwh += sc.served_import_kw * lane.dt_hours;
      lane.result.spill_dropped_kwh += sc.dropped_import_kw * lane.dt_hours;
      if (sc.outage) ++lane.result.outage_slots;
    } else {
      sr = lane.env->step_into(lane.action, obs_of(lane));
    }
    if (lane.record_soc) lane.soc.sample(lane.env->soc_frac());
    if (!sr.done) return;
    close_episode(lane.result, lane.env->ledger(), lane.record_soc ? &lane.soc : nullptr);
    ++lane.episodes_done;
    if (lane.episodes_done < cfg_.episodes_per_hub) {
      lane.needs_begin = true;
    } else {
      lane.active = false;
      active_count.fetch_sub(1, std::memory_order_relaxed);
    }
  };

  // Phase B, worker placement (LockstepGemm::kWorker): group-matrix rows
  // were assigned in lane order, so a contiguous lane partition owns one
  // contiguous row block per group.  Each block carries its own policy
  // workspace, so concurrent decide_rows calls on the shared instance never
  // share scratch — and since a worker's GEMM reads and writes only rows its
  // own phases A and C produce and consume, the slot needs no barrier
  // between inference and env stepping.
  struct GroupBlock {
    std::size_t group = 0;
    std::size_t row_begin = 0;
    std::size_t row_end = 0;
    std::unique_ptr<policy::Policy::Workspace> ws;
    bool live = false;  ///< any active lane this slot (recomputed per slot)
  };
  struct WorkerPlan {
    std::size_t lane_begin = 0;
    std::size_t lane_end = 0;
    std::vector<GroupBlock> blocks;               ///< non-empty row blocks only
    std::vector<std::size_t> block_of_group;      ///< group -> block index
  };
  const auto make_plans = [&](std::size_t nthreads) {
    std::vector<WorkerPlan> plans(nthreads);
    std::vector<std::size_t> rows_before(groups.size(), 0);  // rows left of cursor
    for (std::size_t w = 0; w < nthreads; ++w) {
      WorkerPlan& plan = plans[w];
      plan.lane_begin = lanes.size() * w / nthreads;
      plan.lane_end = lanes.size() * (w + 1) / nthreads;
      plan.block_of_group.assign(groups.size(), kNoGroup);
      const std::vector<std::size_t> begin_rows = rows_before;
      for (std::size_t i = plan.lane_begin; i < plan.lane_end; ++i) {
        if (lanes[i].group != kNoGroup) ++rows_before[lanes[i].group];
      }
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (rows_before[g] == begin_rows[g]) continue;  // no rows here
        plan.block_of_group[g] = plan.blocks.size();
        GroupBlock block;
        block.group = g;
        block.row_begin = begin_rows[g];
        block.row_end = rows_before[g];
        block.ws = groups[g].pol->make_workspace();
        plan.blocks.push_back(std::move(block));
      }
    }
    return plans;
  };
  const auto infer_partition = [&](WorkerPlan& plan) {
    for (GroupBlock& block : plan.blocks) block.live = false;
    for (std::size_t i = plan.lane_begin; i < plan.lane_end; ++i) {
      const Lane& lane = lanes[i];
      if (lane.active && lane.group != kNoGroup) {
        plan.blocks[plan.block_of_group[lane.group]].live = true;
      }
    }
    for (GroupBlock& block : plan.blocks) {
      if (!block.live) continue;
      Group& g = groups[block.group];
      g.pol->decide_rows(g.obs, block.row_begin, block.row_end,
                         std::span<std::size_t>(g.actions), *block.ws);
    }
    for (std::size_t i = plan.lane_begin; i < plan.lane_end; ++i) {
      Lane& lane = lanes[i];
      if (lane.active && lane.group != kNoGroup) {
        lane.action = groups[lane.group].actions[lane.row];
      }
    }
  };

  const std::size_t threads = crew_size_for(cfg_.lockstep_threads, lanes.size());
  const bool worker_gemm = cfg_.lockstep_gemm == LockstepGemm::kWorker;

  // The coupled exchange runs after phase C of every slot, on the
  // coordinator alone in fixed lane order — between crew phases, never
  // concurrently with one — so routed totals are independent of the thread
  // count and the GEMM placement.
  const auto exchange = [&]() {
    if (bus) bus->exchange();
  };

  // Fixed contiguous lane partitions: each lane is touched by exactly one
  // worker per phase and the crew's barriers order the phases, so the
  // per-lane operation sequence is the same at any thread count (a crew of
  // one runs every phase inline on this thread).
  const auto for_partition = [&](std::size_t w, const auto& body) {
    const std::size_t begin = lanes.size() * w / threads;
    const std::size_t end = lanes.size() * (w + 1) / threads;
    for (std::size_t i = begin; i < end; ++i) body(lanes[i]);
  };
  BarrierCrew crew(threads);
  if (worker_gemm) {
    // One fused phase per slot: a worker's A, row-block inference and C
    // touch only its own lanes and group-matrix rows, so the only barrier
    // needed is the slot boundary itself.
    std::vector<WorkerPlan> plans = make_plans(threads);
    const std::function<void(std::size_t)> run_slot = [&](std::size_t w) {
      for_partition(w, phase_a);
      infer_partition(plans[w]);
      for_partition(w, phase_c);
    };
    while (active_count.load(std::memory_order_relaxed) > 0) {
      crew.run(run_slot);
      exchange();
    }
  } else {
    const std::function<void(std::size_t)> run_a = [&](std::size_t w) {
      for_partition(w, phase_a);
    };
    const std::function<void(std::size_t)> run_c = [&](std::size_t w) {
      for_partition(w, phase_c);
    };
    while (active_count.load(std::memory_order_relaxed) > 0) {
      crew.run(run_a);
      phase_b();
      crew.run(run_c);
      exchange();
    }
  }

  for (std::size_t i = 0; i < lanes.size(); ++i) results[i] = std::move(lanes[i].result);
  return results;
}

}  // namespace ecthub::sim
