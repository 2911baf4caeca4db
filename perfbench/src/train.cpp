// train-ppo: PPO training over 8 urban replica lanes, driven as
// PpoTrainer::train_fleet drives it (VecRolloutCollector::collect with T
// collector threads, then PpoTrainer::update on the merged buffer), so the
// collected buffers can be checked against VecRolloutCollector::collect_serial
// every iteration.  update (backward plus Adam) holds most of the wall, so a
// forward-kernel change that costs backward or 64-row minibatches shows here.
#include "bench.hpp"

#include "rl/ppo.hpp"
#include "rl/vec_collector.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/scenario.hpp"

#include <cmath>

namespace perfbench {
namespace {

namespace ec = ecthub;
using ec::rl::RolloutBuffer;

struct TrainShape {
  std::size_t lanes = 8;
  std::size_t days = 30;
  std::size_t episodes_per_iteration = 2;
};

TrainShape train_shape(const Options& o) {
  return o.smoke ? TrainShape{2, 2, 1} : TrainShape{};
}

constexpr std::size_t kMinIterations = 3;
constexpr std::size_t kMaxTracedIterations = 4;

std::vector<std::unique_ptr<ec::core::EctHubEnv>> make_lanes(const Options& o) {
  const auto registry = ec::sim::ScenarioRegistry::with_builtins();
  ec::core::HubEnvConfig env = registry.at("urban").env;
  env.episode_days = train_shape(o).days;
  std::vector<std::unique_ptr<ec::core::EctHubEnv>> envs;
  for (std::size_t l = 0; l < train_shape(o).lanes; ++l) {
    envs.push_back(std::make_unique<ec::core::EctHubEnv>(
        registry.make_hub("urban", "train-" + std::to_string(l), ec::mix_seed(o.seed, l)),
        env));
  }
  return envs;
}

std::vector<ec::rl::Env*> as_envs(const std::vector<std::unique_ptr<ec::core::EctHubEnv>>& v) {
  std::vector<ec::rl::Env*> out;
  for (const auto& e : v) out.push_back(e.get());
  return out;
}

/// The timed trainer and its serial twin: identical lanes and collector
/// seeds, so collect_serial with the trainer's pre-update weights must
/// reproduce each iteration's collected buffers exactly.
struct Training {
  std::vector<std::unique_ptr<ec::core::EctHubEnv>> envs, ref_envs;
  std::unique_ptr<ec::rl::PpoTrainer> trainer;
  std::unique_ptr<ec::rl::VecRolloutCollector> vec, ref_vec;
  std::size_t episodes = 0;
};

Training build_training(const Options& o) {
  Training tr;
  tr.envs = make_lanes(o);
  tr.ref_envs = make_lanes(o);
  ec::rl::PpoConfig cfg;
  cfg.episodes_per_iteration = train_shape(o).episodes_per_iteration;
  tr.episodes = cfg.episodes_per_iteration;
  ec::rl::ActorCriticConfig ac;
  ac.state_dim = tr.envs.front()->state_dim();
  ac.action_count = tr.envs.front()->action_count();
  tr.trainer = std::make_unique<ec::rl::PpoTrainer>(cfg, ac,
                                                    ec::nn::Rng(ec::mix_seed(o.seed, 0x7ea1ULL)));
  ec::rl::VecCollectorConfig vc;
  vc.threads = o.threads;
  vc.seed = ec::mix_seed(o.seed, 0xc011ULL);
  tr.vec = std::make_unique<ec::rl::VecRolloutCollector>(as_envs(tr.envs), vc);
  tr.ref_vec = std::make_unique<ec::rl::VecRolloutCollector>(as_envs(tr.ref_envs), vc);
  // Warm-up: one episode per lane through both collectors (same actor, so
  // the twins stay in step) sizes every env, buffer and the collector crew.
  ec::rl::ActorCritic warm_ac(tr.trainer->policy());
  (void)tr.vec->collect(tr.trainer->policy(), 1);
  (void)tr.ref_vec->collect_serial(warm_ac, 1);
  return tr;
}

bool same_transition(const ec::rl::Transition& a, const ec::rl::Transition& b) {
  return a.state == b.state && a.action == b.action && a.log_prob == b.log_prob &&
         a.reward == b.reward && a.value == b.value && a.done == b.done &&
         a.truncated == b.truncated && a.bootstrap_value == b.bootstrap_value;
}

bool same_buffers(const std::vector<RolloutBuffer>& a, const std::vector<RolloutBuffer>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t l = 0; l < a.size(); ++l) {
    const auto& x = a[l].transitions();
    const auto& y = b[l].transitions();
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!same_transition(x[i], y[i])) return false;
    }
  }
  return true;
}

bool finite_stats(const ec::rl::PpoUpdateStats& s) {
  return std::isfinite(s.policy_loss) && std::isfinite(s.value_loss) &&
         std::isfinite(s.entropy) && std::isfinite(s.mean_ratio) &&
         std::isfinite(s.clip_fraction);
}

struct Iteration {
  double collect_s = 0.0;
  double update_s = 0.0;
  std::size_t transitions = 0;
  bool ok = false;
  RolloutBuffer merged;
};

/// One training iteration exactly as train_fleet runs it, preceded by the
/// untimed serial reference collection and followed by the untimed checks.
Iteration iterate(Training& tr, Tracer& t, std::uint32_t n_collect, std::uint32_t n_update) {
  ec::rl::ActorCritic ref_ac(tr.trainer->policy());
  tr.ref_vec->clear();
  (void)tr.ref_vec->collect_serial(ref_ac, tr.episodes);

  Iteration it;
  std::int64_t t0 = now_ns();
  ec::rl::VecRolloutCollector::Stats stats;
  {
    const Scope s(t, n_collect);
    tr.vec->clear();
    stats = tr.vec->collect(tr.trainer->policy(), tr.episodes);
  }
  it.collect_s = seconds_since(t0);
  it.transitions = stats.transitions;
  const bool same = same_buffers(tr.vec->buffers(), tr.ref_vec->buffers());

  t0 = now_ns();
  ec::rl::PpoUpdateStats update;
  {
    const Scope s(t, n_update);
    it.merged.reserve(stats.transitions);
    for (const RolloutBuffer& lane : tr.vec->buffers()) it.merged.append(lane);
    update = tr.trainer->update(it.merged);
  }
  it.update_s = seconds_since(t0);
  it.ok = same && finite_stats(update);
  return it;
}

}  // namespace

Outcome run_train_ppo(const Options& o) {
  Training tr;
  const double setup_s = median_setup_s(kSetupReps, [&] { tr = build_training(o); });
  Tracer off("train-ppo");
  Outcome out;
  std::vector<double> iter_us, per_s;
  const std::int64_t start = now_ns();
  while (seconds_since(start) < o.seconds || iter_us.size() < kMinIterations) {
    const Iteration it = iterate(tr, off, 0, 0);
    iter_us.push_back((it.collect_s + it.update_s) * 1e6);
    per_s.push_back(double(it.transitions) / (it.collect_s + it.update_s));
    ++out.attempted;
    out.failed += it.ok ? 0 : 1;
  }
  add_end_to_end(out, setup_s, median(per_s), iter_us);
  out.derive("train_transitions_per_s", median(per_s), "transitions/s");
  out.note("one latency sample = one collect+update iteration");
  return out;
}

Outcome trace_train_ppo(const Options& o, Tracer& t, bool full) {
  Training tr = build_training(o);
  const std::uint32_t n_iter = t.intern("rl.iteration");
  const std::uint32_t n_collect = t.intern("rl.collect");
  const std::uint32_t n_update = t.intern("rl.update");
  Outcome out;
  // Iterations alternate unrecorded / recorded; the ratio of their walls is
  // the tracing overhead.
  std::vector<double> walls[2];
  std::vector<double> collect_ms, update_ms;
  std::size_t transitions = 0;
  Iteration last;
  const std::int64_t start = now_ns();
  for (std::uint32_t i = 0;; ++i) {
    const bool recorded = i % 2 == 1;
    t.set_rep(i);
    t.set_recording(recorded);
    {
      const Scope s(t, n_iter);
      last = iterate(tr, t, n_collect, n_update);
    }
    walls[recorded].push_back(last.collect_s + last.update_s);
    if (recorded) {
      collect_ms.push_back(last.collect_s * 1e3);
      update_ms.push_back(last.update_s * 1e3);
    }
    transitions = last.transitions;
    ++out.attempted;
    out.failed += last.ok ? 0 : 1;
    if (recorded && (!full || i + 1 >= kMaxTracedIterations || seconds_since(start) >= o.seconds)) {
      break;
    }
  }
  t.set_recording(true);

  // Layer probes on the trainer's shapes: one 64-row minibatch through
  // ActorCritic::forward + backward, one Adam::step over every parameter,
  // and one act_rows call over a lane-count row block.
  const auto& trans = last.merged.transitions();
  const std::size_t mb = tr.trainer->config().minibatch_size;
  const std::size_t rows = std::min(mb, trans.size());
  ec::nn::Matrix states(rows, trans.front().state.size());
  for (std::size_t r = 0; r < rows; ++r) {
    std::copy(trans[r].state.begin(), trans[r].state.end(),
              states.data().begin() + static_cast<std::ptrdiff_t>(r * states.cols()));
  }
  ec::rl::ActorCritic probe(tr.trainer->policy());
  ec::nn::Adam adam(tr.trainer->config().adam);
  const ec::nn::Matrix dprobs(rows, probe.config().action_count, 1e-3);
  const ec::nn::Matrix dvalues(rows, 1, 1e-3);
  const std::uint32_t n_fb = t.intern("nn.train_fwd_bwd");
  const std::uint32_t n_adam = t.intern("nn.adam_step");
  const std::uint32_t n_act = t.intern("rl.act_rows");
  const std::size_t calls = o.smoke ? 5 : 300;
  for (std::size_t c = 0; c < calls; ++c) {
    probe.zero_grad();
    {
      const Scope s(t, n_fb);
      (void)probe.forward(states);
      probe.backward(dprobs, dvalues);
    }
    auto params = probe.parameters();
    const Scope s(t, n_adam);
    adam.step(params);
  }
  const std::size_t lanes = std::min(tr.envs.size(), rows);
  ec::nn::Matrix lane_states(lanes, states.cols());
  std::copy_n(states.data().begin(), lanes * states.cols(), lane_states.data().begin());
  std::vector<ec::nn::Rng> rngs;
  for (std::size_t l = 0; l < lanes; ++l) rngs.emplace_back(ec::mix_seed(o.seed, 0xa11ULL + l));
  std::vector<ec::rl::ActorCritic::Sample> samples(lanes);
  ec::rl::ActorCritic::RowsWorkspace ws;
  for (std::size_t c = 0; c < calls * 10; ++c) {
    const Scope s(t, n_act);
    probe.act_rows(lane_states, 0, lanes, rngs, samples, ws);
  }
  // Stage replay on the lane hubs: an unrecorded warm-up pass, then one
  // recorded.
  StageReplay stages(t, train_shape(o).days);
  for (int recorded = 0; recorded < 2; ++recorded) {
    t.set_recording(recorded == 1);
    for (const auto& env : tr.envs) stages.run(env->hub());
  }
  t.set_recording(true);

  const auto agg = t.aggregate();
  const double fb_us = agg.at("nn.train_fwd_bwd").mean_ns() / 1e3;
  const double adam_us = agg.at("nn.adam_step").mean_ns() / 1e3;
  const double minibatches = double(tr.trainer->config().update_epochs) *
                             std::ceil(double(transitions) / double(mb));
  add_core_and_stage_metrics(agg, out);
  out.add("nn.train_fwd_bwd_us_per_minibatch", fb_us, "us");
  out.add("nn.adam_step_us", adam_us, "us");
  out.add("rl.collect_ms_per_iter", median(collect_ms), "ms");
  out.add("rl.update_ms_per_iter", median(update_ms), "ms");
  out.add("rl.update_self_ms", median(update_ms) - minibatches * (fb_us + adam_us) / 1e3, "ms");
  out.add("rl.act_rows_ns_per_row",
          agg.at("rl.act_rows").mean_ns() / double(lanes), "ns");
  out.add("rl.transitions", double(transitions), "count");
  out.add("rl.minibatches", minibatches, "count");
  out.add("trace.overhead_frac", median(walls[1]) / median(walls[0]) - 1.0, "ratio");
  out.note("training: " + std::to_string(out.attempted - out.failed) + "/" +
           std::to_string(out.attempted) +
           " iterations matched collect_serial with finite PPO stats");
  return out;
}

}  // namespace perfbench
