// City sweep: the multi-hub simulation engine end to end.
//
// Instantiates a fleet of hubs across the registered scenarios (all six
// built-ins by default), runs every hub's episodes with per-hub
// deterministic seeding, and prints the per-hub detail plus the
// per-scenario and per-scheduler aggregate tables.
//
// Any scheduler kind can drive the fleet, including the trained ECT-DRL
// actor: with --scheduler drl (or all) a small PPO run trains in process —
// or a checkpoint loads from disk — and the fleet deploys that one actor
// across every hub.  --scheduler all sweeps every kind over the *same*
// hubs and seeds, so the per-scheduler table is a fair Table III-style
// comparison; --lockstep switches to slot-synchronous execution with one
// batched policy call per fleet slot.
//
//   $ ./city_sweep                                  # 6 scenarios x 2 hubs
//   $ ./city_sweep --hubs-per-scenario 8 --threads 8 --scheduler forecast
//   $ ./city_sweep --scenarios urban,price-spike --days 7 --episodes 2
//   $ ./city_sweep --scheduler all --lockstep       # 5 heuristics + ECT-DRL
//   $ ./city_sweep --scheduler drl --lockstep --lockstep-threads 8
//   $ ./city_sweep --scheduler drl --lockstep-threads 8 --lockstep-gemm coordinator
//   $ ./city_sweep --scheduler drl --drl-checkpoint actor.ckpt --drl-iters 8
//   $ ./city_sweep --scheduler drl --drl-hubs 8 --drl-threads 4
//   $ ./city_sweep --drl-zoo --drl-hubs 2           # specialist vs generalist
//   $ ./city_sweep --metro 16 --scheduler all       # coupled metro fleet
//   $ ./city_sweep --shard 0/4 --shard-out s0.ecsh  # worker: run shard 0 of 4
//   $ ./city_sweep --merge-shards 's*.ecsh'         # merge shard files
//   $ ./city_sweep --shard-fork 4 --shard-verify    # fork 4 workers + check
//   $ ./city_sweep --list                           # show the registry
//
// --drl-hubs N trains on N lockstep replica lanes of the training hub (the
// vectorized PPO collector) and --drl-threads T shards collection across T
// crew members (0 = hardware concurrency).  The trained weights are
// bit-identical at any T, so the flag is purely a throughput choice.
//
// --drl-zoo trains the per-scenario actor zoo instead of sweeping: one PPO
// specialist per selected scenario plus one generalist trained across all of
// them, then deploys both on a fresh evaluation fleet per scenario and
// prints the specialist-vs-generalist profit table.
//
// --lockstep-threads N shards the lockstep env-stepping phases across N
// workers (0 = hardware concurrency) and implies --lockstep; results are
// bit-identical at any thread count.  --lockstep-gemm worker|coordinator
// (default worker) picks where the per-slot batched inference runs: sharded
// across the worker crew as row-block GEMMs, or as the single coordinator
// GEMM — also bit-identical, so the flag is purely a performance choice.
//
// Sharded sweeps ("fleet of fleets"): --shard i/n runs only the contiguous
// job range shard i of n owns — with the hubs' *global* ids and seeds, so
// shard membership cannot change any trajectory — and writes one shard file
// (--shard-out).  --merge-shards <glob> folds shard files back into the
// aggregate tables; --shard-fork N does both in one invocation through N
// forked worker processes.  The merged report is byte-identical in
// serialized form to the single-process run of the same seed
// (--shard-verify pins it on the spot; exits non-zero on violation).
// Sharding needs a single --scheduler (not 'all') and an uncoupled fleet
// (no --metro): the CouplingBus exchange spans the whole fleet every slot.
//
// --metro N replaces the i.i.d. hub bag with a spatially generated metro of
// N hubs (MetroMap seeded from --base-seed): sites derive from base-station
// density on a synthetic road network, demand spills between road-graph
// neighbors at every slot barrier, and weather/outage fronts are correlated
// across the metro.  Coupled fleets are lockstep-only, so --metro implies
// --lockstep; results stay bit-identical at any --lockstep-threads.
#include "common/cli.hpp"
#include "common/codec.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"
#include "sim/drl_zoo.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/metro.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "sim/shard.hpp"
#include "sim/shard_driver.hpp"
#include "sim/shard_io.hpp"
#include "spatial/metro.hpp"

#include <glob.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Loads the checkpoint from `path` when it exists (exiting on a file that is
// not a valid checkpoint); otherwise trains a fresh actor on the first
// scenario's hub and (when a path was given) saves it.
std::shared_ptr<const ecthub::policy::DrlCheckpoint> obtain_drl_checkpoint(
    const ecthub::sim::ScenarioRegistry& registry, const std::string& scenario_key,
    std::size_t days, std::size_t iterations, std::size_t train_hubs,
    std::size_t collector_threads, std::uint64_t base_seed, const std::string& path) {
  using namespace ecthub;
  if (!path.empty() && std::filesystem::exists(path)) {
    std::cout << "loading ECT-DRL checkpoint from " << path << "\n";
    try {
      return std::make_shared<policy::DrlCheckpoint>(
          policy::DrlCheckpoint::decode(codec::read_file(path)));
    } catch (const codec::Error& e) {
      std::cerr << "city_sweep: --drl-checkpoint " << e.what() << "\n";
      std::exit(1);
    }
  }
  const sim::Scenario& scenario = registry.at(scenario_key);
  core::DrlFleetTrainConfig train_cfg;
  train_cfg.env = scenario.env;
  train_cfg.env.episode_days = days;
  train_cfg.iterations = iterations;
  train_cfg.train_hubs = train_hubs;
  train_cfg.collector_threads = collector_threads;
  train_cfg.seed = sim::mix_seed(base_seed, 0x5eedULL);
  const core::HubConfig train_hub =
      scenario.make_hub(scenario_key + "-drl-train", train_cfg.seed);
  std::cout << "training ECT-DRL in process: " << iterations << " PPO iteration(s) on '"
            << scenario_key << "' (" << train_hubs << " lockstep lane(s), " << days
            << " day episodes)...\n";
  auto ckpt = std::make_shared<policy::DrlCheckpoint>(
      core::train_drl_checkpoint(train_hub, train_cfg));
  if (!path.empty()) {
    try {
      codec::write_file(path, ckpt->encode());
      std::cout << "saved checkpoint to " << path << "\n";
    } catch (const codec::Error& e) {
      std::cerr << "city_sweep: --drl-checkpoint " << e.what()
                << "; continuing without saving\n";
    }
  }
  return ckpt;
}

// Parses "i/n" (e.g. "0/4") into shard coordinates via the strict
// sim::parse_shard_spec (full-token digits, exactly one '/'); exits on
// nonsense like "1/4abc" or "0x1/4" instead of silently truncating.
std::pair<std::size_t, std::size_t> parse_shard_spec(const std::string& spec) {
  try {
    return ecthub::sim::parse_shard_spec(spec);
  } catch (const std::invalid_argument& e) {
    std::cerr << "city_sweep: --shard " << e.what() << "\n";
    std::exit(1);
  }
}

std::vector<std::filesystem::path> expand_glob(const std::string& pattern) {
  ::glob_t matches{};
  const int rc = ::glob(pattern.c_str(), 0, nullptr, &matches);
  std::vector<std::filesystem::path> paths;
  if (rc == 0) {
    paths.assign(matches.gl_pathv, matches.gl_pathv + matches.gl_pathc);
  }
  ::globfree(&matches);
  if (rc != 0 && rc != GLOB_NOMATCH) {
    std::cerr << "city_sweep: glob('" << pattern << "') failed\n";
    std::exit(1);
  }
  return paths;
}

void print_fleet_report(const std::vector<ecthub::sim::HubRunResult>& results,
                        const ecthub::sim::AggregateReport& report) {
  ecthub::sim::per_hub_table(results).print(std::cout);
  std::cout << "\n--- Aggregate by scenario ---\n";
  report.scenario_table().print(std::cout);
  std::cout << "\n--- Aggregate by scheduler ---\n";
  report.scheduler_table().print(std::cout);
}

}  // namespace

static int run(const ecthub::CliFlags& flags) {
  using namespace ecthub;
  const sim::ScenarioRegistry registry = sim::ScenarioRegistry::with_builtins();
  const bool list_mode = flags.get_bool("list");

  const auto require_positive = [&](const char* name, std::int64_t def) {
    const std::int64_t v = flags.get_int(name, def);
    if (v <= 0) {
      std::cerr << "city_sweep: --" << name << " must be >= 1\n";
      std::exit(1);
    }
    return static_cast<std::size_t>(v);
  };
  const std::size_t hubs_per_scenario = require_positive("hubs-per-scenario", 2);
  const std::size_t days = require_positive("days", 7);
  const std::size_t episodes = require_positive("episodes", 1);
  const std::size_t drl_iters = require_positive("drl-iters", 4);
  const std::size_t drl_hubs = require_positive("drl-hubs", 1);
  const auto drl_threads = static_cast<std::size_t>(std::max<std::int64_t>(
      0, flags.get_int("drl-threads", 1)));  // 0 = hardware concurrency
  const auto threads = static_cast<std::size_t>(std::max<std::int64_t>(
      0, flags.get_int("threads", 0)));  // 0 = hardware concurrency
  const auto base_seed = static_cast<std::uint64_t>(flags.get_int("base-seed", 7));
  const bool metro_mode = flags.has("metro");
  const std::size_t metro_hubs = metro_mode ? require_positive("metro", 0) : 0;
  if (metro_mode && metro_hubs < 2) {
    std::cerr << "city_sweep: --metro needs at least 2 hubs\n";
    return 1;
  }
  // An explicit --lockstep-threads would be silently ignored by the per-hub
  // path, so it implies --lockstep; a coupled metro *requires* lockstep.
  const bool lockstep = flags.get_bool("lockstep") || flags.has("lockstep-threads") ||
                        flags.has("lockstep-gemm") || metro_mode;
  const auto lockstep_threads = static_cast<std::size_t>(std::max<std::int64_t>(
      0, flags.get_int("lockstep-threads", 1)));  // 0 = hardware concurrency
  sim::LockstepGemm lockstep_gemm = sim::LockstepGemm::kWorker;
  try {
    lockstep_gemm =
        sim::lockstep_gemm_from_string(flags.get_string("lockstep-gemm", "worker"));
  } catch (const std::invalid_argument& e) {
    std::cerr << "city_sweep: " << e.what() << "\n";
    return 1;
  }

  const std::string scheduler_arg = flags.get_string("scheduler", "tou");
  std::vector<sim::SchedulerKind> kinds;
  if (scheduler_arg == "all") {
    kinds = sim::all_scheduler_kinds();
  } else {
    kinds.push_back(sim::scheduler_kind_from_string(scheduler_arg));
  }

  std::vector<std::string> scenario_keys = registry.keys();
  if (flags.has("scenarios")) scenario_keys = split_csv(flags.get_string("scenarios", ""));
  if (scenario_keys.empty()) {
    std::cerr << "city_sweep: --scenarios selected no scenarios\n";
    return 1;
  }
  // Unknown keys fail here, as a flag error (exit 2), before any work runs.
  for (const std::string& key : scenario_keys) {
    if (!registry.contains(key)) {
      std::string valid;
      for (const std::string& k : registry.keys()) valid += (valid.empty() ? "" : "|") + k;
      throw std::invalid_argument("flag --scenarios: unknown scenario '" + key + "' (valid: " +
                                  valid + ")");
    }
  }

  // The late paths' flags, hoisted so every read precedes check_unknown():
  // a typo'd flag fails loudly up front instead of silently running defaults.
  const bool merge_mode = flags.has("merge-shards");
  const std::string merge_pattern = flags.get_string("merge-shards", "");
  const bool zoo_mode = flags.get_bool("drl-zoo");
  const std::string checkpoint_path = flags.get_string("drl-checkpoint", "");
  const bool shard_run = flags.has("shard");
  const std::string shard_spec_arg = flags.get_string("shard", "");
  const std::string shard_out = flags.get_string("shard-out", "");
  const bool shard_fork = flags.has("shard-fork");
  const std::size_t shard_fork_count = require_positive("shard-fork", 2);
  const std::string shard_dir_arg = flags.get_string("shard-dir", "");
  const bool shard_verify = flags.get_bool("shard-verify");
  flags.check_unknown();

  if (list_mode) {
    TextTable table({"scenario", "summary"});
    for (const std::string& key : registry.keys()) {
      table.begin_row().add(key).add(registry.at(key).summary);
    }
    table.print(std::cout);
    return 0;
  }

  // Merge pre-existing shard files (possibly produced on other machines):
  // pure aggregation, no simulation runs here.
  if (merge_mode) {
    const std::string& pattern = merge_pattern;
    const std::vector<std::filesystem::path> paths = expand_glob(pattern);
    if (paths.empty()) {
      std::cerr << "city_sweep: --merge-shards '" << pattern
                << "' matched no shard files\n";
      return 1;
    }
    try {
      const sim::ShardMerge merged = sim::ShardDriver::merge_shard_files(paths);
      std::cout << "=== Merged " << paths.size() << " shard file(s): "
                << merged.results.size() << " hubs ===\n\n";
      print_fleet_report(merged.results, merged.report);
    } catch (const std::exception& e) {
      std::cerr << "city_sweep: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  if (zoo_mode) {
    sim::ZooTrainConfig zoo_cfg;
    zoo_cfg.episode_days = days;
    zoo_cfg.iterations = drl_iters;
    zoo_cfg.train_hubs = drl_hubs;
    zoo_cfg.collector_threads = drl_threads;
    zoo_cfg.seed = sim::mix_seed(base_seed, 0x5eedULL);
    std::cout << "=== Actor zoo: " << scenario_keys.size() << " scenario(s), "
              << drl_iters << " PPO iteration(s), " << drl_hubs
              << " lane(s) per specialist ===\n";
    const sim::ActorZoo zoo = sim::train_actor_zoo(registry, scenario_keys, zoo_cfg);

    sim::FleetRunnerConfig eval_cfg;
    eval_cfg.base_seed = base_seed;
    eval_cfg.threads = threads;
    eval_cfg.episodes_per_hub = episodes;
    const sim::FleetRunner eval_runner(eval_cfg);

    // Deploy both actors on the *same* fresh evaluation fleet per scenario
    // (identical hubs, seeds and episodes) so the edge column is fair.
    const auto profit_per_hub_day =
        [&](const std::string& key, const policy::DrlCheckpoint& ckpt) {
          const std::vector<std::string> expanded(hubs_per_scenario, key);
          const auto ckpt_ptr = std::make_shared<policy::DrlCheckpoint>(ckpt);
          const std::vector<sim::FleetJob> jobs =
              sim::make_fleet_jobs(registry, expanded, expanded.size(), days,
                                   sim::SchedulerKind::kDrl, ckpt_ptr);
          double profit = 0.0;
          for (const sim::HubRunResult& r : eval_runner.run(jobs)) profit += r.profit;
          return profit / static_cast<double>(hubs_per_scenario * episodes * days);
        };

    TextTable table({"scenario", "specialist $/hub-day", "generalist $/hub-day",
                     "specialist edge"});
    for (const std::string& key : zoo.keys) {
      const double spec = profit_per_hub_day(key, zoo.specialists.at(key));
      const double gen = profit_per_hub_day(key, zoo.generalist);
      const double denom = std::abs(gen) > 1e-9 ? std::abs(gen) : 1.0;
      std::ostringstream edge;
      edge.setf(std::ios::fixed);
      edge.precision(1);
      edge << ((spec - gen) / denom * 100.0) << " %";
      table.begin_row().add(key).add_double(spec).add_double(gen).add(edge.str());
    }
    std::cout << "\n--- Specialist vs generalist ("
              << hubs_per_scenario << " eval hub(s)/scenario, " << episodes
              << " episode(s) x " << days << " day(s)) ---\n";
    table.print(std::cout);
    return 0;
  }

  // The trained actor deployed fleet-wide whenever a kDrl sweep runs.
  std::shared_ptr<const policy::DrlCheckpoint> checkpoint;
  if (std::find(kinds.begin(), kinds.end(), sim::SchedulerKind::kDrl) != kinds.end()) {
    checkpoint = obtain_drl_checkpoint(registry, scenario_keys.front(), days, drl_iters,
                                       drl_hubs, drl_threads, base_seed,
                                       checkpoint_path);
  }

  // One job per (scenario, replica), grouped by scenario: hub ids are
  // assigned by job order, and the runner derives every hub's seed from
  // (base_seed, hub_id).  Each scheduler kind sweeps the *same* job list —
  // identical hubs, seeds and episodes — so kinds are directly comparable.
  std::vector<std::string> expanded;
  expanded.reserve(scenario_keys.size() * hubs_per_scenario);
  for (const std::string& key : scenario_keys) {
    expanded.insert(expanded.end(), hubs_per_scenario, key);
  }

  // Metro mode: a spatially generated coupled fleet instead of the i.i.d.
  // bag.  The map is a pure function of (config, base_seed), so reruns are
  // bit-reproducible, and every scheduler kind sweeps the same metro.
  std::optional<spatial::MetroMap> metro;
  if (metro_mode) {
    spatial::MetroConfig metro_cfg;
    metro_cfg.num_hubs = metro_hubs;
    metro_cfg.neighbors_per_hub = std::min<std::size_t>(3, metro_hubs - 1);
    metro.emplace(metro_cfg, base_seed);
  }

  sim::FleetRunnerConfig runner_cfg;
  runner_cfg.base_seed = base_seed;
  runner_cfg.threads = threads;
  runner_cfg.lockstep_threads = lockstep_threads;
  runner_cfg.lockstep_gemm = lockstep_gemm;
  runner_cfg.episodes_per_hub = episodes;
  const sim::FleetRunner runner(runner_cfg);

  // ---- sharded execution ("fleet of fleets") ------------------------------
  if (shard_run || shard_fork) {
    if (metro_mode) {
      std::cerr << "city_sweep: --shard/--shard-fork cannot split a coupled metro "
                   "fleet (the CouplingBus exchange spans every hub each slot)\n";
      return 1;
    }
    if (kinds.size() != 1) {
      std::cerr << "city_sweep: --shard/--shard-fork need a single --scheduler, "
                   "not 'all'\n";
      return 1;
    }
    const std::vector<sim::FleetJob> jobs = sim::make_fleet_jobs(
        registry, expanded, expanded.size(), days, kinds.front(), checkpoint);
    const sim::ShardDriver driver(runner_cfg);
    try {
      if (shard_run) {
        const auto [shard_index, shard_count] = parse_shard_spec(shard_spec_arg);
        const std::string& out_path = shard_out;
        if (out_path.empty()) {
          std::cerr << "city_sweep: --shard requires --shard-out <path>\n";
          return 1;
        }
        const sim::ShardData shard = driver.run_shard(jobs, shard_index, shard_count);
        sim::save_shard(out_path, shard);
        std::cout << "shard " << shard_index << "/" << shard_count << ": hubs ["
                  << shard.plan.begin << ", " << shard.plan.end << ") of "
                  << shard.plan.job_count << " -> " << out_path << "\n";
        return 0;
      }
      // --shard-fork N: the whole sweep through N forked workers, one shard
      // file per child under --shard-dir (a fresh temp directory without it).
      const std::size_t shard_count = shard_fork_count;
      std::filesystem::path dir = shard_dir_arg;
      if (dir.empty()) {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "city_sweep_shards.XXXXXX")
                .string();
        if (::mkdtemp(tmpl.data()) == nullptr) {
          std::cerr << "city_sweep: cannot create a shard directory\n";
          return 1;
        }
        dir = tmpl;
      } else {
        std::filesystem::create_directories(dir);
      }
      std::cout << "=== City sweep: " << jobs.size() << " hubs sharded "
                << shard_count << "-way across forked workers (shard files in "
                << dir.string() << ") ===\n\n";
      const sim::ShardMerge merged = driver.run_forked(jobs, shard_count, dir);
      print_fleet_report(merged.results, merged.report);
      if (shard_verify) {
        // The guarantee, checked on the spot: the merged report (and every
        // per-hub result) is bit-identical to the single-process run.
        const std::vector<sim::HubRunResult> baseline = runner.run(jobs);
        const sim::AggregateReport baseline_report(baseline);
        if (merged.results != baseline ||
            sim::serialize_report(merged.report) !=
                sim::serialize_report(baseline_report)) {
          std::cerr << "city_sweep: SHARD IDENTITY VIOLATION — merged report "
                       "differs from the single-process run\n";
          return 1;
        }
        std::cout << "\nshard-verify: " << shard_count
                  << "-way merged report byte-identical to the single-process "
                     "run\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "city_sweep: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  const std::size_t fleet_size = metro ? metro->hubs().size() : expanded.size();
  std::cout << "=== City sweep: " << fleet_size << " hubs, " << scenario_keys.size()
            << " scenarios, " << episodes << " episode(s) x " << days
            << " day(s), scheduler=" << scheduler_arg;
  if (metro) std::cout << ", metro-coupled";
  if (lockstep) {
    std::cout << ", lockstep-batched ("
              << (lockstep_threads == 0 ? std::string("hw")
                                        : std::to_string(lockstep_threads))
              << " thread(s), " << sim::to_string(lockstep_gemm) << " GEMMs)";
  }
  std::cout << " ===\n\n";

  if (metro) {
    std::size_t urban = 0;
    for (const spatial::MetroHub& h : metro->hubs()) urban += h.urban ? 1 : 0;
    std::cout << "metro: " << metro->hubs().size() << " hubs (" << urban << " urban, "
              << (metro->hubs().size() - urban) << " rural), "
              << metro->config().neighbors_per_hub << " neighbors/hub over "
              << metro->roads().total_length() << " km of roads, seed " << base_seed
              << ", checksum " << metro->checksum() << "\n\n";
  }

  std::vector<sim::HubRunResult> results;
  for (const sim::SchedulerKind kind : kinds) {
    const std::shared_ptr<const policy::DrlCheckpoint> kind_ckpt =
        kind == sim::SchedulerKind::kDrl ? checkpoint : nullptr;
    const std::vector<sim::FleetJob> jobs =
        metro ? sim::make_metro_fleet_jobs(*metro, registry, scenario_keys, days, kind,
                                           kind_ckpt)
              : sim::make_fleet_jobs(registry, expanded, expanded.size(), days, kind,
                                     kind_ckpt);
    std::vector<sim::HubRunResult> batch =
        lockstep ? runner.run_lockstep(jobs) : runner.run(jobs);
    results.insert(results.end(), std::make_move_iterator(batch.begin()),
                   std::make_move_iterator(batch.end()));
  }

  sim::per_hub_table(results).print(std::cout);
  std::cout << "\n--- Aggregate by scenario ---\n";
  const sim::AggregateReport report(results);
  report.scenario_table().print(std::cout);
  std::cout << "\n--- Aggregate by scheduler ---\n";
  report.scheduler_table().print(std::cout);

  if (metro) {
    double through = 0.0, exported = 0.0, served = 0.0, dropped = 0.0;
    std::size_t outage_slots = 0;
    for (const sim::HubRunResult& r : results) {
      through += r.through_kwh;
      exported += r.spill_exported_kwh;
      served += r.spill_served_kwh;
      dropped += r.spill_dropped_kwh;
      outage_slots += r.outage_slots;
    }
    std::cout << "\n--- Metro coupling ---\n"
              << "through-traffic demand: " << through << " kWh\n"
              << "spillover routed to neighbors: " << exported << " kWh\n"
              << "spillover served by neighbors: " << served << " kWh\n"
              << "spillover dropped (one-hop bound): " << dropped << " kWh\n"
              << "front outage slots endured: " << outage_slots << "\n";
  }
  return 0;
}

int main(int argc, char** argv) { return ecthub::run_cli(argc, argv, run); }
