// Fleet experiment driver for Table III and Fig. 13.
//
// For each hub and each pricing method (ECT-Price / OR / IPS / DR), the
// driver wires the method's discount schedule into the hub environment,
// trains an ECT-DRL (PPO) scheduler on replicas of the hub with the same
// fleet recipe city sweeps deploy, then tests the exported greedy actor on
// the hub's own, held-out episode stream:
//   - Table III: average daily reward over the test episodes;
//   - Fig. 13:  the per-day reward series of one test episode.
#pragma once

#include "core/hub_env.hpp"
#include "policy/drl_policy.hpp"
#include "rl/ppo.hpp"

#include <string>
#include <vector>

namespace ecthub::core {

/// In-process training recipe behind SchedulerKind::kDrl: PPO over a fleet
/// of env lanes collected in lockstep, actor exported for deployment.
struct DrlFleetTrainConfig {
  HubEnvConfig env;      ///< episode shape to train under
  rl::PpoConfig ppo;
  std::size_t iterations = 4;  ///< PPO collect+update cycles
  std::uint64_t seed = 99;
  /// Rollout lanes: replicas of the training hub (seeded mix_seed(hub.seed,
  /// lane)) stepped in lockstep, episodes_per_iteration episodes per lane.
  std::size_t train_hubs = 1;
  /// Crew size for the vectorized collection phase (0 = hardware
  /// concurrency).  Any value trains bit-identical weights.
  std::size_t collector_threads = 1;
};

/// Table III / Fig. 13 protocol: train with the fleet recipe (cfg.train,
/// replica lanes of the hub), then test the deployed actor on the hub's own
/// episode stream.
struct DrlExperimentConfig {
  DrlFleetTrainConfig train;  ///< env.discount_by_hour is the method's schedule
  std::size_t test_episodes = 5;
};

struct HubMethodResult {
  std::string hub;
  std::string method;
  double avg_daily_reward = 0.0;        ///< Table III cell
  std::vector<double> daily_rewards;    ///< Fig. 13 series (one test episode)
  std::vector<double> train_curve;      ///< mean episode reward per iteration
};

/// Trains and evaluates ECT-DRL on one hub under one hourly discount schedule
/// (which replaces cfg.train.env.discount_by_hour).  Training is exactly
/// train_drl_checkpoint(hub, cfg.train with the schedule); the exported
/// actor then plays cfg.test_episodes episodes of EctHubEnv(hub, ...), whose
/// stream (hub.seed) is disjoint from the mix_seed(hub.seed, lane) replicas
/// it trained on.
[[nodiscard]] HubMethodResult run_hub_experiment(const HubConfig& hub,
                                                 const std::vector<bool>& discount_by_hour,
                                                 const DrlExperimentConfig& cfg,
                                                 const std::string& method_name);

/// Average of the daily-profit means across test episodes.
[[nodiscard]] double average_daily_reward(const std::vector<std::vector<double>>& daily_per_ep);

/// Serializes the actor path (shared trunk + actor head) of a trained
/// actor-critic into a deployable DrlPolicy checkpoint.  The critic head is
/// training-time baggage and is dropped; parameter names carry over, so the
/// checkpoint loads straight into policy::DrlPolicy and any architecture
/// mismatch fails loudly at load time.  Const: a const trainer can be
/// checkpointed mid-training (e.g. from the rollout collector).
[[nodiscard]] policy::DrlCheckpoint export_actor_checkpoint(const rl::ActorCritic& ac);

/// One rollout lane of a multi-hub training run.
struct DrlTrainLane {
  HubConfig hub;
  HubEnvConfig env;
};

/// Trains a PPO policy on `cfg.train_hubs` lockstep replicas of `hub` and
/// returns the deployable actor checkpoint — what a fleet sweep loads when
/// no pre-trained checkpoint is on disk.
[[nodiscard]] policy::DrlCheckpoint train_drl_checkpoint(const HubConfig& hub,
                                                         const DrlFleetTrainConfig& cfg);

/// Heterogeneous-lane variant (the actor-zoo generalist trains across
/// scenario presets this way): one env lane per entry, exactly as given —
/// cfg.env and cfg.train_hubs are ignored, lane seeds are the callers'.
/// All lanes must agree on the observation layout.
[[nodiscard]] policy::DrlCheckpoint train_drl_checkpoint(
    const std::vector<DrlTrainLane>& lanes, const DrlFleetTrainConfig& cfg);

}  // namespace ecthub::core
