#include "policy/drl_policy.hpp"

#include "common/codec.hpp"
#include "nn/serialize.hpp"

#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace ecthub::policy {

namespace {

constexpr std::array<std::uint32_t, 2> kSections = {1, 2};  // config, params
constexpr codec::Format kFormat{"DRL checkpoint", "ECDR", 1, kSections};

nn::MlpConfig actor_head_config(const DrlPolicyConfig& cfg) {
  nn::MlpConfig mc;
  mc.layer_dims = {cfg.trunk_dim, cfg.head_dim, cfg.action_count};
  mc.output_activation = nn::Activation::kIdentity;
  return mc;
}

/// Whether the actor `c` describes (three dense layers, weights + biases)
/// has at most `budget` weights and no zero-width layer.  Overflow-safe for
/// forged dimensions: every product is bounded by the budget first.
bool weights_fit(const DrlPolicyConfig& c, std::uint64_t budget) {
  for (const auto& [in, out] : {std::pair{c.state_dim, c.trunk_dim},
                                std::pair{c.trunk_dim, c.head_dim},
                                std::pair{c.head_dim, c.action_count}}) {
    if (out == 0 || in >= budget || in + 1 > budget / out) return false;
    budget -= (in + 1) * out;
  }
  return true;
}

}  // namespace

std::string DrlCheckpoint::encode() const {
  std::string cfg;
  for (const std::size_t d : {config.state_dim, config.action_count, config.trunk_dim,
                              config.head_dim}) {
    codec::put_u64(cfg, d);
  }
  return codec::encode(kFormat, {cfg, blob});
}

DrlCheckpoint DrlCheckpoint::decode(std::string_view bytes) {
  const std::vector<std::string_view> sections = codec::decode(kFormat, bytes);
  DrlCheckpoint ckpt;
  DrlPolicyConfig& c = ckpt.config;
  codec::Reader in(sections[0], "DRL checkpoint config");
  for (std::size_t* d : {&c.state_dim, &c.action_count, &c.trunk_dim, &c.head_dim}) {
    *d = static_cast<std::size_t>(in.u64());
  }
  in.expect_end();
  if (c.state_dim == 0 || c.action_count < 2 || !weights_fit(c, sections[1].size() / 8)) {
    in.fail("no actor of this shape fits the params section");
  }
  ckpt.blob = sections[1];
  return ckpt;
}

DrlPolicyConfig DrlPolicy::validated(DrlPolicyConfig cfg) {
  if (cfg.state_dim == 0) throw std::invalid_argument("DrlPolicyConfig: state_dim == 0");
  if (cfg.action_count < 2) {
    throw std::invalid_argument("DrlPolicyConfig: need >= 2 actions");
  }
  if (cfg.trunk_dim == 0 || cfg.head_dim == 0) {
    throw std::invalid_argument("DrlPolicyConfig: zero layer width");
  }
  return cfg;
}

DrlPolicy::DrlPolicy(DrlPolicyConfig cfg, nn::Rng& rng)
    : cfg_(validated(cfg)),
      trunk_(cfg_.state_dim, cfg_.trunk_dim, rng, "ac.trunk"),
      trunk_act_(nn::Activation::kTanh),
      actor_(actor_head_config(cfg_), rng, "ac.actor") {}

DrlPolicy::DrlPolicy(DrlPolicyConfig cfg, nn::Rng&& scratch_rng)
    : DrlPolicy(cfg, scratch_rng) {}

DrlPolicy::DrlPolicy(const DrlCheckpoint& checkpoint)
    // Every checkpoint-restored policy owns its throwaway init RNG: the
    // draws are overwritten by the blob below, and no state is shared with
    // other policies loaded on the same thread (a fixed seed keeps even the
    // transient pre-load weights deterministic).
    : DrlPolicy(checkpoint.config, nn::Rng(0)) {
  std::vector<nn::Parameter> params = parameters();
  nn::decode_parameters(checkpoint.blob, params);
}

std::unique_ptr<Policy::Workspace> DrlPolicy::make_workspace() const {
  return std::make_unique<BatchWorkspace>();
}

void DrlPolicy::decide_rows(const nn::Matrix& obs, std::size_t row_begin,
                            std::size_t row_end, std::span<std::size_t> actions,
                            Workspace& ws) const {
  check_rows(obs, row_begin, row_end, actions);
  if (obs.rows() == 0 || row_begin == row_end) return;
  if (obs.cols() != cfg_.state_dim) {
    throw std::invalid_argument("DrlPolicy::decide_rows: state dim mismatch");
  }
  auto* scratch = dynamic_cast<BatchWorkspace*>(&ws);
  if (scratch == nullptr) {
    throw std::invalid_argument(
        "DrlPolicy::decide_rows: workspace was not created by make_workspace()");
  }
  trunk_.forward_rows_into(obs, row_begin, row_end, scratch->trunk);
  trunk_act_.forward_inplace(scratch->trunk);
  const nn::Matrix& logits =
      actor_.forward_rows(scratch->trunk, 0, scratch->trunk.rows(), scratch->head);
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    std::size_t best = 0;
    for (std::size_t a = 1; a < cfg_.action_count; ++a) {
      if (logits(i, a) > logits(i, best)) best = a;
    }
    actions[row_begin + i] = best;
  }
}

std::size_t DrlPolicy::decide(std::span<const double> obs) {
  if (obs.size() != cfg_.state_dim) {
    throw std::invalid_argument("DrlPolicy::decide: state dim mismatch");
  }
  nn::Matrix s(1, cfg_.state_dim);
  for (std::size_t c = 0; c < cfg_.state_dim; ++c) s(0, c) = obs[c];
  std::size_t action = 0;
  decide_rows(s, 0, 1, std::span<std::size_t>(&action, 1), scratch_);
  return action;
}

void DrlPolicy::decide_batch(const nn::Matrix& obs, std::span<std::size_t> actions) {
  if (actions.size() != obs.rows()) {
    throw std::invalid_argument("DrlPolicy::decide_batch: row/action count mismatch");
  }
  if (obs.rows() == 0) return;
  if (obs.cols() != cfg_.state_dim) {
    throw std::invalid_argument("DrlPolicy::decide_batch: state dim mismatch");
  }
  decide_rows(obs, 0, obs.rows(), actions, scratch_);
}

DrlCheckpoint DrlPolicy::checkpoint() {
  DrlCheckpoint ckpt;
  ckpt.config = cfg_;
  ckpt.blob = nn::encode_parameters(parameters());
  return ckpt;
}

std::vector<nn::Parameter> DrlPolicy::parameters() {
  std::vector<nn::Parameter> out = trunk_.parameters();
  for (auto& p : actor_.parameters()) out.push_back(p);
  return out;
}

}  // namespace ecthub::policy
