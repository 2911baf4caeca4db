// Micro-benchmarks (google-benchmark) of the hot kernels: Rng draws, NN
// forward / backward, environment stepping and PPO updates.
#include "core/hub_env.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/ppo.hpp"

#include <benchmark/benchmark.h>

#include <vector>

namespace {

using namespace ecthub;

// Per-draw costs of the Rng paths that episode generation leans on.
void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform());
}
BENCHMARK(BM_RngUniform);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal(0.0, 1.0));
}
BENCHMARK(BM_RngNormal);

// A fork draws one word and seeds a fresh 312-word engine from it.
void BM_RngFork(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    Rng child = rng.fork();
    benchmark::DoNotOptimize(child);
  }
}
BENCHMARK(BM_RngFork);

void BM_MatrixMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const nn::Matrix a = nn::Matrix::randn(n, n, rng);
  const nn::Matrix b = nn::Matrix::randn(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul(b));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MatrixMatmul)->Arg(16)->Arg(64)->Arg(128);

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(2);
  nn::MlpConfig cfg;
  cfg.layer_dims = {33, 64, 32, 3};
  nn::Mlp mlp(cfg, rng, "bench");
  const nn::Matrix x = nn::Matrix::randn(64, 33, rng);
  for (auto _ : state) {
    nn::Matrix y = mlp.forward(x);
    benchmark::DoNotOptimize(mlp.backward(y));
    mlp.zero_grad();
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_HubEnvStep(benchmark::State& state) {
  core::HubConfig hub = core::HubConfig::urban("bench", 5);
  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = 30;
  core::EctHubEnv env(hub, env_cfg);
  std::vector<double> obs(env.state_dim());
  env.reset_into(obs);
  std::size_t a = 0;
  for (auto _ : state) {
    const core::StepOutcome r = env.step_into(a % 3, obs);
    ++a;
    if (r.done) env.reset_into(obs);
  }
}
BENCHMARK(BM_HubEnvStep);

void BM_HubEnvReset(benchmark::State& state) {
  core::HubConfig hub = core::HubConfig::rural("bench", 6);
  core::HubEnvConfig env_cfg;
  env_cfg.episode_days = 30;
  core::EctHubEnv env(hub, env_cfg);
  std::vector<double> obs(env.state_dim());
  for (auto _ : state) {
    env.reset_into(obs);
    benchmark::DoNotOptimize(obs.data());
  }
}
BENCHMARK(BM_HubEnvReset);

void BM_PpoUpdate(benchmark::State& state) {
  Rng rng(7);
  rl::ActorCriticConfig ac_cfg;
  ac_cfg.state_dim = 33;
  rl::PpoConfig ppo_cfg;
  rl::PpoTrainer trainer(ppo_cfg, ac_cfg, rng);
  rl::RolloutBuffer buffer;
  Rng data_rng(8);
  for (std::size_t i = 0; i < 256; ++i) {
    rl::Transition t;
    t.state.resize(33);
    for (double& s : t.state) s = data_rng.uniform();
    t.action = static_cast<std::size_t>(data_rng.uniform_int(0, 2));
    t.log_prob = std::log(1.0 / 3.0);
    t.reward = data_rng.normal();
    t.value = 0.0;
    t.done = (i + 1) % 64 == 0;
    buffer.add(std::move(t));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.update(buffer));
  }
}
BENCHMARK(BM_PpoUpdate);

}  // namespace
