// Tests for the unified Policy API: the observation layout contract, the
// batched-vs-scalar equivalence of decide_batch() for every policy kind,
// and the DrlPolicy checkpoint round trip.
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "policy/drl_policy.hpp"
#include "policy/observation.hpp"
#include "policy/rule_policies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numbers>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ecthub::policy {
namespace {

// Synthetic but layout-valid observation: random channel windows, random
// SoC, exact phase encoding of `hour`.
std::vector<double> fake_obs(const ObservationLayout& layout, Rng& rng, double hour) {
  std::vector<double> obs(layout.dim());
  for (std::size_t i = 0; i < layout.soc_index(); ++i) obs[i] = rng.uniform(0.0, 1.5);
  obs[layout.soc_index()] = rng.uniform(0.0, 1.0);
  obs[layout.hour_sin_index()] = std::sin(2.0 * std::numbers::pi * hour / 24.0);
  obs[layout.hour_cos_index()] = std::cos(2.0 * std::numbers::pi * hour / 24.0);
  return obs;
}

nn::Matrix fake_obs_batch(const ObservationLayout& layout, Rng& rng, std::size_t rows) {
  nn::Matrix m(rows, layout.dim());
  for (std::size_t r = 0; r < rows; ++r) {
    const std::vector<double> obs = fake_obs(layout, rng, static_cast<double>(r % 24));
    for (std::size_t c = 0; c < obs.size(); ++c) m(r, c) = obs[c];
  }
  return m;
}

// ------------------------------------------------------------------ layout

TEST(ObservationLayout, DimRoundTripsThroughFromDim) {
  for (const std::size_t lookback : {1u, 3u, 6u, 12u}) {
    const ObservationLayout layout{lookback};
    EXPECT_EQ(ObservationLayout::from_dim(layout.dim()).lookback, lookback);
  }
  EXPECT_THROW((void)ObservationLayout::from_dim(0), std::invalid_argument);
  EXPECT_THROW((void)ObservationLayout::from_dim(7), std::invalid_argument);
  EXPECT_THROW((void)ObservationLayout::from_dim(34), std::invalid_argument);
}

TEST(ObservationLayout, DefaultMatchesHubEnvStateDim) {
  // 5 channels x 6 lookback + SoC + hour phase — the EctHubEnv default.
  EXPECT_EQ(ObservationLayout{}.dim(), 33u);
}

TEST(ObservationLayout, AccessorsDecodeTheEncodedFeatures) {
  const ObservationLayout layout{2};
  // [rtp0 rtp1 | ghi0 ghi1 | wind0 wind1 | traf0 traf1 | srtp0 srtp1 |
  //  soc sin cos], newest value last within each window.
  std::vector<double> obs = {0.5, 0.8, 0.1, 0.2, 0.3, 0.4, 0.6,
                             0.7, 0.4, 0.9, 0.55, 0.0, 1.0};
  ASSERT_EQ(obs.size(), layout.dim());
  EXPECT_DOUBLE_EQ(layout.rtp(obs), 0.8 * ObservationLayout::kPriceScale);
  EXPECT_DOUBLE_EQ(layout.srtp(obs), 0.9 * ObservationLayout::kPriceScale);
  EXPECT_DOUBLE_EQ(layout.soc(obs), 0.55);
  EXPECT_DOUBLE_EQ(layout.hour_of_day(obs), 0.0);
}

TEST(ObservationLayout, HourOfDaySurvivesThePhaseRoundTripExactly) {
  const ObservationLayout layout;
  Rng rng(7);
  for (std::size_t h = 0; h < 24; ++h) {
    const auto obs = fake_obs(layout, rng, static_cast<double>(h));
    EXPECT_DOUBLE_EQ(layout.hour_of_day(obs), static_cast<double>(h)) << h;
  }
  // Sub-hour slots (e.g. 48 slots/day) decode too.
  const auto obs = fake_obs(layout, rng, 13.5);
  EXPECT_DOUBLE_EQ(layout.hour_of_day(obs), 13.5);
}

TEST(ObservationLayout, WrongSizeIsRejected) {
  const ObservationLayout layout;
  const std::vector<double> too_short(5, 0.0);
  EXPECT_THROW((void)layout.soc(too_short), std::invalid_argument);
}

// -------------------------------------------------- batched-vs-scalar parity

// For every policy kind, decide_batch(M) must equal the row-by-row decide()
// sequence — the contract that makes lockstep fleets interchangeable with
// per-hub execution.
TEST(PolicyBatching, DecideBatchMatchesScalarForEveryKind) {
  const ObservationLayout layout;
  using Factory = std::function<std::unique_ptr<Policy>()>;
  nn::Rng drl_rng(99);
  DrlPolicyConfig drl_cfg;
  drl_cfg.state_dim = layout.dim();
  drl_cfg.trunk_dim = 16;
  drl_cfg.head_dim = 8;
  const DrlCheckpoint ckpt = DrlPolicy(drl_cfg, drl_rng).checkpoint();

  const std::vector<Factory> factories = {
      [&] { return std::make_unique<NoBatteryPolicy>(); },
      [&] { return std::make_unique<TouPolicy>(layout); },
      [&] { return std::make_unique<GreedyPricePolicy>(layout); },
      [&] { return std::make_unique<ForecastPolicy>(layout); },
      [&] { return std::make_unique<RandomPolicy>(42); },
      [&] { return std::make_unique<DrlPolicy>(ckpt); },
  };
  for (const Factory& make : factories) {
    Rng obs_rng(11);
    const nn::Matrix obs = fake_obs_batch(layout, obs_rng, 40);
    const auto scalar_pol = make();
    const auto batch_pol = make();
    std::vector<std::size_t> scalar_actions(obs.rows()), batch_actions(obs.rows());
    const double* data = obs.data().data();
    for (std::size_t i = 0; i < obs.rows(); ++i) {
      scalar_actions[i] =
          scalar_pol->decide(std::span<const double>(data + i * obs.cols(), obs.cols()));
    }
    batch_pol->decide_batch(obs, std::span<std::size_t>(batch_actions));
    EXPECT_EQ(scalar_actions, batch_actions) << scalar_pol->name();
    for (const std::size_t a : batch_actions) EXPECT_LT(a, 3u) << scalar_pol->name();
  }
}

// ----------------------------------------------- row-block decide parity

// Every stateless policy must reproduce its full-batch decide_batch output
// bit-exactly when the batch is split into arbitrary row-blocks — including
// 1-row and ragged splits — each computed through its own workspace.  This
// is the contract that lets the lockstep fleet shard one observation matrix
// across a worker crew.
TEST(PolicyRowBlocks, ArbitrarySplitsMatchFullBatchForEveryStatelessKind) {
  const ObservationLayout layout;
  nn::Rng drl_rng(99);
  DrlPolicyConfig drl_cfg;
  drl_cfg.state_dim = layout.dim();
  drl_cfg.trunk_dim = 16;
  drl_cfg.head_dim = 8;
  const DrlCheckpoint ckpt = DrlPolicy(drl_cfg, drl_rng).checkpoint();

  std::vector<std::unique_ptr<Policy>> policies;
  policies.push_back(std::make_unique<NoBatteryPolicy>());
  policies.push_back(std::make_unique<TouPolicy>(layout));
  policies.push_back(std::make_unique<DrlPolicy>(ckpt));

  constexpr std::size_t kRows = 41;  // odd on purpose: ragged split fodder
  Rng obs_rng(13);
  const nn::Matrix obs = fake_obs_batch(layout, obs_rng, kRows);
  const std::vector<std::vector<std::size_t>> split_sets = {
      {0, kRows},                          // the full batch as one block
      {0, 1, 2, 3, kRows},                 // 1-row blocks up front
      {0, 7, 7, 19, 40, kRows},            // ragged, including an empty block
      {0, 40, kRows},                      // a 1-row tail
  };
  for (const auto& pol : policies) {
    ASSERT_TRUE(pol->stateless()) << pol->name();
    std::vector<std::size_t> full(kRows, 99), blocked(kRows, 99);
    pol->decide_batch(obs, std::span<std::size_t>(full));
    for (const std::vector<std::size_t>& splits : split_sets) {
      std::fill(blocked.begin(), blocked.end(), 99);
      const auto ws = pol->make_workspace();
      ASSERT_NE(ws, nullptr) << pol->name();
      for (std::size_t s = 0; s + 1 < splits.size(); ++s) {
        pol->decide_rows(obs, splits[s], splits[s + 1], std::span<std::size_t>(blocked),
                         *ws);
      }
      EXPECT_EQ(blocked, full) << pol->name();
    }
  }
}

TEST(PolicyRowBlocks, ConcurrentDisjointBlocksOnOneSharedInstanceMatch) {
  // The threaded contract itself: several threads calling decide_rows on
  // disjoint row-blocks of one shared instance — each with its own
  // workspace — must reproduce the single-threaded full batch bit for bit.
  const ObservationLayout layout;
  nn::Rng drl_rng(7);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  cfg.trunk_dim = 16;
  cfg.head_dim = 8;
  const DrlCheckpoint ckpt = DrlPolicy(cfg, drl_rng).checkpoint();
  DrlPolicy shared(ckpt);

  constexpr std::size_t kRows = 67;
  constexpr std::size_t kThreads = 4;
  Rng obs_rng(29);
  const nn::Matrix obs = fake_obs_batch(layout, obs_rng, kRows);
  std::vector<std::size_t> full(kRows), threaded(kRows, 99);
  shared.decide_batch(obs, std::span<std::size_t>(full));

  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      const std::size_t begin = kRows * t / kThreads;
      const std::size_t end = kRows * (t + 1) / kThreads;
      const auto ws = shared.make_workspace();
      // Two passes through the same workspace: reuse must not perturb bits.
      shared.decide_rows(obs, begin, end, std::span<std::size_t>(threaded), *ws);
      shared.decide_rows(obs, begin, end, std::span<std::size_t>(threaded), *ws);
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(threaded, full);
}

TEST(PolicyRowBlocks, StatefulPoliciesRejectRowBlockCalls) {
  const ObservationLayout layout;
  Rng rng(3);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 4);
  std::vector<std::size_t> actions(4);
  GreedyPricePolicy greedy(layout);
  const auto ws = greedy.make_workspace();
  ASSERT_NE(ws, nullptr);
  EXPECT_THROW(
      greedy.decide_rows(obs, 0, 4, std::span<std::size_t>(actions), *ws),
      std::logic_error);
  RandomPolicy random(1);
  const auto rws = random.make_workspace();
  EXPECT_THROW(
      random.decide_rows(obs, 0, 4, std::span<std::size_t>(actions), *rws),
      std::logic_error);
}

TEST(PolicyRowBlocks, BadRangesAndForeignWorkspacesAreRejected) {
  const ObservationLayout layout;
  Rng rng(5);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 6);
  std::vector<std::size_t> actions(6);
  TouPolicy tou(layout);
  const auto tou_ws = tou.make_workspace();
  EXPECT_THROW(tou.decide_rows(obs, 4, 2, std::span<std::size_t>(actions), *tou_ws),
               std::invalid_argument);
  EXPECT_THROW(tou.decide_rows(obs, 0, 7, std::span<std::size_t>(actions), *tou_ws),
               std::invalid_argument);
  std::vector<std::size_t> too_few(3);
  EXPECT_THROW(tou.decide_rows(obs, 0, 3, std::span<std::size_t>(too_few), *tou_ws),
               std::invalid_argument);

  nn::Rng drl_rng(11);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  DrlPolicy drl(cfg, drl_rng);
  // A base (TOU) workspace is not a DRL forward scratch.
  EXPECT_THROW(drl.decide_rows(obs, 0, 6, std::span<std::size_t>(actions), *tou_ws),
               std::invalid_argument);
}

TEST(PolicyBatching, ActionSpanSizeMismatchThrows) {
  const ObservationLayout layout;
  Rng rng(3);
  const nn::Matrix obs = fake_obs_batch(layout, rng, 4);
  std::vector<std::size_t> too_few(3);
  TouPolicy tou(layout);
  EXPECT_THROW(tou.decide_batch(obs, std::span<std::size_t>(too_few)),
               std::invalid_argument);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  nn::Rng drl_rng(5);
  DrlPolicy drl(cfg, drl_rng);
  EXPECT_THROW(drl.decide_batch(obs, std::span<std::size_t>(too_few)),
               std::invalid_argument);
}

TEST(PolicyStatefulness, StatelessFlagsMatchTheImplementations) {
  const ObservationLayout layout;
  EXPECT_TRUE(NoBatteryPolicy().stateless());
  EXPECT_TRUE(TouPolicy(layout).stateless());
  EXPECT_FALSE(GreedyPricePolicy(layout).stateless());
  EXPECT_FALSE(ForecastPolicy(layout).stateless());
  EXPECT_FALSE(RandomPolicy(1).stateless());
  nn::Rng rng(1);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  EXPECT_TRUE(DrlPolicy(cfg, rng).stateless());
}

TEST(PolicyStatefulness, GreedyWindowClearsAtEpisodeStart) {
  const ObservationLayout layout;
  Rng rng(17);
  GreedyPricePolicy a(layout), b(layout);
  // Feed `a` a first episode, then reset both and replay the same second
  // episode: a's decisions must match the never-polluted b's exactly.
  for (std::size_t t = 0; t < 30; ++t) {
    (void)a.decide(fake_obs(layout, rng, static_cast<double>(t % 24)));
  }
  a.begin_episode();
  b.begin_episode();
  Rng replay(23);
  for (std::size_t t = 0; t < 30; ++t) {
    const auto obs = fake_obs(layout, replay, static_cast<double>(t % 24));
    EXPECT_EQ(a.decide(obs), b.decide(obs)) << "slot " << t;
  }
}

// The policy keeps its price window sorted incrementally; this twin re-sorts
// a copy of the whole window on every call (stats::percentile), the plain
// statement of the rule.
class GreedyTwin {
 public:
  GreedyTwin(ObservationLayout layout, double low_q, double high_q)
      : layout_(layout), low_q_(low_q), high_q_(high_q) {}
  void begin_episode() { seen_.clear(); }
  std::size_t decide(std::span<const double> obs) {
    const double now = layout_.rtp(obs);
    seen_.push_back(now);
    if (seen_.size() > 25) seen_.erase(seen_.begin());
    if (now <= stats::percentile(seen_, low_q_)) return 1;
    if (now >= stats::percentile(seen_, high_q_)) return 2;
    return 0;
  }

 private:
  ObservationLayout layout_;
  double low_q_, high_q_;
  std::vector<double> seen_;
};

TEST(PolicyStatefulness, GreedyIncrementalWindowMatchesResortingTwin) {
  const ObservationLayout layout;
  const std::pair<double, double> quantiles[] = {
      {30.0, 70.0}, {0.0, 100.0}, {10.0, 90.0}, {45.0, 55.0}, {0.0, 12.5}};
  for (const auto& [lo, hi] : quantiles) {
    GreedyPricePolicy policy(layout, lo, hi);
    GreedyTwin twin(layout, lo, hi);
    Rng rng(static_cast<std::uint64_t>(1000 * lo + hi));
    std::vector<double> obs(layout.dim(), 0.5);
    std::size_t slot = 0;
    // Episodes of varying length (shorter and longer than the window), with
    // prices drawn mostly from a handful of levels so ties are everywhere.
    for (const std::size_t episode_len : {3u, 24u, 25u, 26u, 400u, 1u, 999u}) {
      policy.begin_episode();
      twin.begin_episode();
      for (std::size_t t = 0; t < episode_len; ++t, ++slot) {
        const double price = rng.bernoulli(0.8)
                                 ? 40.0 + 5.0 * static_cast<double>(rng.uniform_int(0, 4))
                                 : rng.uniform(20.0, 90.0);
        obs[layout.rtp_begin() + layout.lookback - 1] = price / ObservationLayout::kPriceScale;
        ASSERT_EQ(policy.decide(obs), twin.decide(obs))
            << "quantiles " << lo << "/" << hi << ", slot " << slot;
      }
    }
  }
}

// ------------------------------------------------------------- DRL policy

TEST(DrlPolicy, CheckpointRoundTripsThroughAStream) {
  const ObservationLayout layout;
  nn::Rng rng(321);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  cfg.trunk_dim = 24;
  cfg.head_dim = 12;
  DrlPolicy original(cfg, rng);

  std::stringstream stream;
  original.checkpoint().save(stream);
  const DrlCheckpoint restored_ckpt = DrlCheckpoint::load(stream);
  EXPECT_EQ(restored_ckpt.config.state_dim, cfg.state_dim);
  EXPECT_EQ(restored_ckpt.config.trunk_dim, cfg.trunk_dim);
  EXPECT_EQ(restored_ckpt.config.head_dim, cfg.head_dim);
  DrlPolicy restored(restored_ckpt);

  Rng obs_rng(55);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto obs = fake_obs(layout, obs_rng, static_cast<double>(i % 24));
    EXPECT_EQ(original.decide(obs), restored.decide(obs)) << "obs " << i;
  }
}

TEST(DrlPolicy, CheckpointLoadsAreIndependentOfThreadLoadHistory) {
  // Regression test: checkpoint restoration used to draw its throwaway init
  // weights from one `static thread_local` RNG shared by every policy loaded
  // on that thread, so a restored policy's construction consumed state that
  // other loads depended on.  Each load now owns a fixed-seed RNG, so a
  // restored policy is a pure function of its checkpoint: every load — first
  // or hundredth on a thread, interleaved with other shapes, or on a fresh
  // thread — must reproduce the source weights bit for bit.
  const ObservationLayout layout;
  nn::Rng rng(2718);
  DrlPolicyConfig cfg;
  cfg.state_dim = layout.dim();
  cfg.trunk_dim = 16;
  cfg.head_dim = 8;
  DrlPolicy source(cfg, rng);
  const DrlCheckpoint ckpt = source.checkpoint();

  const auto expect_matches_source = [&](DrlPolicy& restored, const char* what) {
    auto got = restored.parameters();
    auto want = source.parameters();
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t p = 0; p < want.size(); ++p) {
      ASSERT_EQ(got[p].name, want[p].name) << what;
      ASSERT_EQ(got[p].value->data().size(), want[p].value->data().size()) << what;
      for (std::size_t i = 0; i < want[p].value->data().size(); ++i) {
        EXPECT_EQ(got[p].value->data()[i], want[p].value->data()[i])
            << what << ": " << want[p].name << "[" << i << "]";
      }
    }
  };

  // Interleave loads of a different architecture so any shared RNG state
  // would be advanced by a different number of draws between loads.
  DrlPolicyConfig other_cfg = cfg;
  other_cfg.trunk_dim = 24;
  other_cfg.head_dim = 4;
  nn::Rng other_rng(4);
  const DrlCheckpoint other_ckpt = DrlPolicy(other_cfg, other_rng).checkpoint();

  DrlPolicy first(ckpt);
  DrlPolicy interloper(other_ckpt);
  DrlPolicy second(ckpt);
  expect_matches_source(first, "first load");
  expect_matches_source(second, "load after an interleaved different shape");

  std::unique_ptr<DrlPolicy> threaded;
  std::thread loader([&] { threaded = std::make_unique<DrlPolicy>(ckpt); });
  loader.join();
  expect_matches_source(*threaded, "load on a fresh thread");
}

TEST(DrlPolicy, LoadRejectsGarbageAndMismatchedBlobs) {
  std::istringstream garbage("not a checkpoint at all, sorry");
  EXPECT_THROW((void)DrlCheckpoint::load(garbage), std::runtime_error);

  // A blob serialized for one architecture must not load into another.
  nn::Rng rng(9);
  DrlPolicyConfig small;
  small.state_dim = 33;
  small.trunk_dim = 8;
  small.head_dim = 4;
  DrlCheckpoint ckpt = DrlPolicy(small, rng).checkpoint();
  ckpt.config.trunk_dim = 16;  // lie about the shape
  EXPECT_THROW((void)DrlPolicy{ckpt}, std::runtime_error);
}

TEST(DrlPolicy, ValidatesItsConfig) {
  nn::Rng rng(1);
  DrlPolicyConfig bad;
  bad.state_dim = 0;
  EXPECT_THROW((void)DrlPolicy(bad, rng), std::invalid_argument);
  bad.state_dim = 10;
  bad.action_count = 1;
  EXPECT_THROW((void)DrlPolicy(bad, rng), std::invalid_argument);
  bad.action_count = 3;
  bad.trunk_dim = 0;
  EXPECT_THROW((void)DrlPolicy(bad, rng), std::invalid_argument);
}

TEST(DrlPolicy, DecideRejectsWrongStateDim) {
  nn::Rng rng(2);
  DrlPolicyConfig cfg;
  cfg.state_dim = 33;
  DrlPolicy pol(cfg, rng);
  const std::vector<double> wrong(12, 0.0);
  EXPECT_THROW((void)pol.decide(wrong), std::invalid_argument);
  const nn::Matrix wrong_batch(2, 12);
  std::vector<std::size_t> actions(2);
  EXPECT_THROW(pol.decide_batch(wrong_batch, std::span<std::size_t>(actions)),
               std::invalid_argument);
}

}  // namespace
}  // namespace ecthub::policy
