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
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

namespace ecthub::sim {

namespace {
// The policy stream must be independent of the hub stream: xor with a fixed
// tag so a RandomPolicy never replays the env's own draws.
constexpr std::uint64_t kPolicySeedTag = 0xec7ec7ec7ec7ec7eULL;
constexpr std::size_t kNoGroup = std::numeric_limits<std::size_t>::max();

// Closes one finished episode into the job's result: the SoC digest when
// this episode recorded one, then the ledger totals.
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

// The one execution unit of both entry points: the lanes [begin, end) of a
// fleet — one hub env each, with its episode bookkeeping and result — plus
// the block's own policy instances.  Lanes of a stateless kind share one
// instance per (kind, checkpoint, lookback) group and a block-local
// observation matrix, one fixed row per lane written in place by
// reset_into/step_into, fed to one decide_batch per slot.  A finished lane
// keeps its stale, finite row: decide_batch computes every row
// independently, so the batch never needs regrouping.  Stateful kinds keep
// one instance and observation buffer per lane.
//
// A lane's operation sequence depends on the lane alone, so results do not
// depend on how the fleet is cut into blocks or on which thread runs one.
// One thread touches a block per phase; the drivers order the phases.
class Block {
 public:
  Block(const std::vector<FleetJob>& jobs, std::size_t begin, std::size_t end,
        const FleetRunnerConfig& cfg, CouplingBus* bus)
      : begin_(begin), episodes_(cfg.episodes_per_hub), bus_(bus), lanes_(end - begin),
        live_(end - begin) {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      const FleetJob& job = jobs[begin + l];
      Lane& lane = lanes_[l];
      const std::uint64_t hub_seed = mix_seed(cfg.base_seed, cfg.hub_id_offset + begin + l);

      core::HubConfig hub = job.hub;
      hub.seed = hub_seed;
      lane.env = std::make_unique<core::EctHubEnv>(std::move(hub), job.env);
      const policy::ObservationLayout layout = lane.env->observation_layout();

      const auto group = std::find_if(groups_.begin(), groups_.end(), [&](const Group& g) {
        return g.kind == job.scheduler && g.checkpoint == job.checkpoint.get() &&
               g.lookback == layout.lookback;
      });
      if (group != groups_.end()) {
        lane.group = static_cast<std::size_t>(group - groups_.begin());
      } else {
        auto pol =
            make_policy(job.scheduler, hub_seed ^ kPolicySeedTag, layout, job.checkpoint);
        if (pol->stateless()) {
          lane.group = groups_.size();
          Group& g = groups_.emplace_back();
          g.pol = std::move(pol);
          g.kind = job.scheduler;
          g.checkpoint = job.checkpoint.get();
          g.lookback = layout.lookback;
          g.dim = layout.dim();
        } else {
          lane.own_pol = std::move(pol);
          lane.state.resize(layout.dim());
        }
      }
      if (lane.group != kNoGroup) lane.row = groups_[lane.group].live++;

      lane.dt_hours = TimeGrid(job.env.episode_days, job.env.slots_per_day).slot_hours();
      lane.result.hub_id = cfg.hub_id_offset + begin + l;
      lane.result.hub_name = job.hub.name;
      lane.result.scenario = job.scenario;
      lane.result.scheduler = job.scheduler;
      lane.result.seed = hub_seed;
      lane.result.episodes = episodes_;
      lane.result.slots_per_episode = lane.env->slots_per_episode();
      lane.result.episode_profit.reserve(episodes_);
    }
    for (Group& g : groups_) {
      g.obs = nn::Matrix(g.live, g.dim);
      g.actions.resize(g.live);
    }
  }

  [[nodiscard]] bool live() const noexcept { return live_ > 0; }

  // Turns over finished episodes (every lane starts with one pending) and
  // lets per-lane stateful policies decide.
  void begin_slot() {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      Lane& lane = lanes_[l];
      if (!lane.active) continue;
      if (lane.needs_begin) {
        lane.needs_begin = false;
        // A fresh episode starts clean: demand routed across the episode
        // boundary is dropped.
        if (bus_ != nullptr) bus_->drop_pending(begin_ + l);
        lane.env->reset_into(obs_of(lane));
        if (lane.own_pol) lane.own_pol->begin_episode();
        lane.record_soc = lane.episodes_done + 1 == episodes_;
        if (lane.record_soc) lane.soc.open(lane.env->soc_frac());
      }
      if (lane.own_pol) lane.action = lane.own_pol->decide(lane.state);
    }
  }

  // One batched call per live shared group — for an ECT-DRL block every
  // lane's action comes out of a single forward pass — then the scatter.
  void infer() {
    for (Group& g : groups_) {
      if (g.live > 0) g.pol->decide_batch(g.obs, std::span<std::size_t>(g.actions));
    }
    for (Lane& lane : lanes_) {
      if (lane.active && lane.group != kNoGroup) {
        lane.action = groups_[lane.group].actions[lane.row];
      }
    }
  }

  // Advances every active lane one slot, writing the next observation in
  // place, and closes out finished episodes.
  void step() {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      Lane& lane = lanes_[l];
      if (!lane.active) continue;
      core::StepOutcome sr;
      if (bus_ != nullptr) {
        // Step with the imports routed here at the previous exchange and
        // deposit this slot's export for the next one.
        core::SlotCoupling sc;
        sc.import_kw = bus_->take(begin_ + l);
        sr = lane.env->step_into(lane.action, obs_of(lane), sc);
        bus_->deposit(begin_ + l, sc.export_kw);
        lane.result.through_kwh += sc.through_kw * lane.dt_hours;
        lane.result.spill_exported_kwh += sc.export_kw * lane.dt_hours;
        lane.result.spill_served_kwh += sc.served_import_kw * lane.dt_hours;
        lane.result.spill_dropped_kwh += sc.dropped_import_kw * lane.dt_hours;
        if (sc.outage) ++lane.result.outage_slots;
      } else {
        sr = lane.env->step_into(lane.action, obs_of(lane));
      }
      if (lane.record_soc) lane.soc.sample(lane.env->soc_frac());
      if (!sr.done) continue;
      close_episode(lane.result, lane.env->ledger(), lane.record_soc ? &lane.soc : nullptr);
      if (++lane.episodes_done < episodes_) {
        lane.needs_begin = true;
      } else {
        lane.active = false;
        --live_;
        if (lane.group != kNoGroup) --groups_[lane.group].live;
      }
    }
  }

  void slot() {
    begin_slot();
    infer();
    step();
  }

  void collect(std::vector<HubRunResult>& results) {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      results[begin_ + l] = std::move(lanes_[l].result);
    }
  }

 private:
  struct Lane {
    std::unique_ptr<core::EctHubEnv> env;
    std::unique_ptr<policy::Policy> own_pol;  ///< stateful kinds only
    std::size_t group = kNoGroup;             ///< shared-policy group index
    std::size_t row = 0;                      ///< fixed row in the group matrix
    std::vector<double> state;                ///< stateful kinds only
    std::size_t episodes_done = 0;
    std::size_t action = 0;
    double dt_hours = 1.0;  ///< slot duration, for kW -> kWh spill accounting
    bool active = true;
    bool needs_begin = true;  ///< episode reset pending (runs in begin_slot)
    bool record_soc = false;
    SocDigest soc;
    HubRunResult result;
  };
  struct Group {
    std::unique_ptr<policy::Policy> pol;
    SchedulerKind kind = SchedulerKind::kTou;
    const void* checkpoint = nullptr;
    std::size_t lookback = 0;
    std::size_t dim = 0;
    std::size_t live = 0;  ///< active lanes (the row count until setup ends)
    nn::Matrix obs;
    std::vector<std::size_t> actions;
  };

  // The lane's in-place observation target.
  std::span<double> obs_of(Lane& lane) {
    if (lane.group == kNoGroup) return lane.state;
    Group& g = groups_[lane.group];
    return {g.obs.data().data() + lane.row * g.dim, g.dim};
  }

  std::size_t begin_;
  std::size_t episodes_;
  CouplingBus* bus_;
  std::vector<Lane> lanes_;
  std::vector<Group> groups_;
  std::size_t live_;
};

// The free-running driver for uncoupled fleets: `threads` threads, the
// caller among them, claim block indices [0, blocks) by atomic index; block
// b covers lanes [lane_begin(b), lane_begin(b + 1)) and is built, run to its
// last slot and freed by the thread that claimed it — no slot barrier.  The
// first error drains the queue, so the others stop claiming, and is
// rethrown once every thread has joined.
template <typename LaneBegin>
void run_free(const std::vector<FleetJob>& jobs, const FleetRunnerConfig& cfg,
              std::size_t blocks, std::size_t threads, const LaneBegin& lane_begin,
              std::vector<HubRunResult>& results) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&]() {
    for (;;) {
      const std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= blocks) return;
      try {
        Block block(jobs, lane_begin(b), lane_begin(b + 1), cfg, nullptr);
        while (block.live()) block.slot();
        block.collect(results);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        next.store(blocks, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t w = 1; w < threads; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
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
  // One owning pointer assigned per case and returned once: the converting
  // unique_ptr<Derived> -> unique_ptr<Policy> return per case is what GCC
  // 12's analyzer mis-models as a leak.
  std::unique_ptr<policy::Policy> pol;
  switch (kind) {
    case SchedulerKind::kNoBattery: pol = std::make_unique<policy::NoBatteryPolicy>(); break;
    case SchedulerKind::kTou: pol = std::make_unique<policy::TouPolicy>(layout); break;
    case SchedulerKind::kGreedyPrice:
      pol = std::make_unique<policy::GreedyPricePolicy>(layout);
      break;
    case SchedulerKind::kForecast: pol = std::make_unique<policy::ForecastPolicy>(layout); break;
    case SchedulerKind::kRandom: pol = std::make_unique<policy::RandomPolicy>(seed); break;
    case SchedulerKind::kDrl:
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
      pol = std::make_unique<policy::DrlPolicy>(*checkpoint);
      break;
  }
  if (!pol) throw std::invalid_argument("make_policy: bad SchedulerKind");
  return pol;
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
  // One hub per block: threads steal single hubs, and each hub's env and
  // policy live only while its episode runs.
  std::vector<HubRunResult> results(jobs.size());
  run_free(jobs, cfg_, jobs.size(), crew_size_for(cfg_.threads, jobs.size()),
           [](std::size_t b) { return b; }, results);
  return results;
}

std::vector<HubRunResult> FleetRunner::run_lockstep(const std::vector<FleetJob>& jobs) const {
  std::vector<HubRunResult> results(jobs.size());
  if (jobs.empty()) return results;

  // The coupled-fleet exchange bus (absent on a fully uncoupled fleet).
  // Neighbor lists are validated by the bus constructor before any thread
  // spawns.
  std::optional<CouplingBus> bus;
  for (const FleetJob& job : jobs) {
    if (!job.coupled()) continue;
    std::vector<std::vector<std::size_t>> neighbors(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) neighbors[i] = jobs[i].neighbors;
    bus.emplace(std::move(neighbors));
    break;
  }

  // One contiguous block per thread.
  const std::size_t threads = crew_size_for(cfg_.lockstep_threads, jobs.size());
  const auto lane_begin = [&](std::size_t w) { return jobs.size() * w / threads; };
  const bool coordinator_gemm = cfg_.lockstep_gemm == LockstepGemm::kCoordinator;
  if (!bus && !coordinator_gemm) {
    run_free(jobs, cfg_, threads, threads, lane_begin, results);
    return results;
  }

  // Slot-synchronous: every block advances one slot per crew phase, then the
  // coordinator — alone, in fixed lane order — routes the slot's deposits.
  // kCoordinator splits the slot around the coordinator calling each
  // block's inference.
  std::vector<Block> blocks;
  blocks.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    blocks.emplace_back(jobs, lane_begin(w), lane_begin(w + 1), cfg_, bus ? &*bus : nullptr);
  }
  const std::function<void(std::size_t)> open = [&](std::size_t w) {
    if (coordinator_gemm) {
      blocks[w].begin_slot();
    } else {
      blocks[w].slot();
    }
  };
  const std::function<void(std::size_t)> step = [&](std::size_t w) { blocks[w].step(); };
  BarrierCrew crew(threads);
  while (std::any_of(blocks.begin(), blocks.end(), [](const Block& b) { return b.live(); })) {
    crew.run(open);
    if (coordinator_gemm) {
      for (Block& block : blocks) block.infer();
      crew.run(step);
    }
    if (bus) bus->exchange();
  }
  for (Block& block : blocks) block.collect(results);
  return results;
}

}  // namespace ecthub::sim
