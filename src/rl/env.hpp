// Abstract episodic environment with a discrete action space.
//
// The ECT-Hub environment (src/core/hub_env.hpp) implements this interface;
// keeping it abstract lets the PPO trainer be unit-tested on toy MDPs.
//
// Termination vs truncation.  `done` ends the episode either way; `truncated`
// distinguishes a time-limit cut (the paper's infinite-horizon MDP stopped at
// the training horizon — the tail still has value, so GAE bootstraps V(s_T))
// from a true terminal state (no future value, bootstrap zero).  EctHubEnv
// episodes end only at the fixed horizon, so it always truncates; toy MDPs
// with real terminals leave the flag false.
#pragma once

#include <cstddef>
#include <span>

namespace ecthub::rl {

/// Reward / termination of one step (Env::step_into).
struct StepOutcome {
  double reward = 0.0;
  bool done = false;
  bool truncated = false;  ///< done by time limit, not a terminal state
};

/// Both stepping calls write the observation into a caller-owned buffer of
/// state_dim() doubles, so a driver holds one row per env and an episode
/// needs no allocation of its own.
class Env {
 public:
  virtual ~Env() = default;

  /// Resets the episode and writes the initial state into `state`
  /// (size == state_dim()).
  virtual void reset_into(std::span<double> state) = 0;

  /// Applies a discrete action in [0, action_count) and writes the next
  /// observation into `next_state`.  On done the buffer holds the final
  /// observation (what V(s_T) is evaluated on when the episode was
  /// truncated).
  virtual StepOutcome step_into(std::size_t action, std::span<double> next_state) = 0;

  [[nodiscard]] virtual std::size_t state_dim() const = 0;
  [[nodiscard]] virtual std::size_t action_count() const = 0;
};

}  // namespace ecthub::rl
