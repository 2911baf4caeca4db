// Round-trip tests for model checkpointing.
#include "causal/ect_price.hpp"
#include "common/codec.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ecthub::nn {
namespace {

TEST(Serialize, MlpRoundTripReproducesOutputs) {
  Rng rng(1);
  Mlp a(MlpConfig{.layer_dims = {4, 8, 2}}, rng, "m");
  Rng rng2(2);
  Mlp b(MlpConfig{.layer_dims = {4, 8, 2}}, rng2, "m");

  const Matrix x = Matrix::randn(3, 4, rng);
  // Different inits -> different outputs.
  EXPECT_NE(a.forward(x).data(), b.forward(x).data());

  auto pa = a.parameters();
  const std::string buf = encode_parameters(pa);
  auto pb = b.parameters();
  decode_parameters(buf, pb);
  EXPECT_EQ(a.forward(x).data(), b.forward(x).data());
}

TEST(Serialize, NameMismatchThrows) {
  Rng rng(3);
  Mlp a(MlpConfig{.layer_dims = {2, 2}}, rng, "alpha");
  Mlp b(MlpConfig{.layer_dims = {2, 2}}, rng, "beta");
  auto pa = a.parameters();
  const std::string buf = encode_parameters(pa);
  auto pb = b.parameters();
  EXPECT_THROW(decode_parameters(buf, pb), codec::FormatError);
}

TEST(Serialize, ShapeMismatchThrows) {
  Rng rng(4);
  Mlp a(MlpConfig{.layer_dims = {2, 3}}, rng, "m");
  Mlp b(MlpConfig{.layer_dims = {2, 4}}, rng, "m");
  auto pa = a.parameters();
  const std::string buf = encode_parameters(pa);
  auto pb = b.parameters();
  EXPECT_THROW(decode_parameters(buf, pb), codec::FormatError);
}

TEST(Serialize, TruncatedStreamThrows) {
  Rng rng(5);
  Mlp a(MlpConfig{.layer_dims = {2, 2}}, rng, "m");
  auto pa = a.parameters();
  const std::string full = encode_parameters(pa);
  const std::string cut = full.substr(0, full.size() / 2);
  EXPECT_THROW(decode_parameters(cut, pa), codec::FormatError);
}

TEST(Serialize, BadMagicThrows) {
  // Records carry no magic of their own: garbage fails the count check.
  const std::string buf = "not a checkpoint at all........";
  Rng rng(6);
  Mlp a(MlpConfig{.layer_dims = {2, 2}}, rng, "m");
  auto pa = a.parameters();
  EXPECT_THROW(decode_parameters(buf, pa), codec::FormatError);
}

TEST(Serialize, EctPriceModelCheckpointRestoresPredictions) {
  // End-to-end: train a model, checkpoint, restore into a fresh model with
  // a different seed, and verify identical predictions.
  using namespace ecthub::causal;
  EctPriceConfig cfg;
  cfg.ncf.num_stations = 2;
  cfg.ncf.embedding_dim = 4;
  cfg.ncf.hidden_dims = {8};
  cfg.epochs = 1;
  std::vector<Item> items;
  Rng data_rng(7);
  for (int k = 0; k < 200; ++k) {
    Item it;
    it.station_id = k % 2;
    it.time_id = k % 24;
    it.treated = data_rng.bernoulli(0.5);
    it.charged = data_rng.bernoulli(0.3);
    items.push_back(it);
  }
  EctPriceModel trained(cfg, Rng(8));
  trained.fit(items);
  EctPriceModel restored(cfg, Rng(999));

  auto pt = trained.parameters();
  const std::string buf = encode_parameters(pt);
  auto pr = restored.parameters();
  decode_parameters(buf, pr);

  const auto a = trained.predict_one(0, 5);
  const auto b = restored.predict_one(0, 5);
  EXPECT_DOUBLE_EQ(a.p_incentive, b.p_incentive);
  EXPECT_DOUBLE_EQ(a.p_always, b.p_always);
  EXPECT_DOUBLE_EQ(a.propensity, b.propensity);
}

}  // namespace
}  // namespace ecthub::nn
