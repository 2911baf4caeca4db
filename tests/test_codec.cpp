// The common binary container (common/codec) and a seeded mutation fuzzer
// over every format built on it: shard artifacts, DRL checkpoints and bare
// parameter records.  Whatever the mutation, a decode either succeeds or
// throws a codec::Error — never another exception type, never a crash (the
// ASan job runs this binary too).
#include "common/codec.hpp"
#include "common/rng.hpp"
#include "nn/serialize.hpp"
#include "policy/drl_policy.hpp"
#include "policy/observation.hpp"
#include "sim/shard_io.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

namespace ecthub::codec {
namespace {

constexpr std::array<std::uint32_t, 2> kTwoSections = {7, 9};
constexpr Format kTestFormat{"test", "TEST", 3, kTwoSections};

TEST(Codec, RoundTripsSectionsInOrder) {
  const std::string bytes = encode(kTestFormat, {"alpha", ""});
  const std::vector<std::string_view> payloads = decode(kTestFormat, bytes);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], "alpha");
  EXPECT_EQ(payloads[1], "");
  // magic + version + count, two {id, size} headers, payload, trailer.
  EXPECT_EQ(bytes.size(), 4u + 4 + 4 + 2 * 12 + 5 + 8);
}

TEST(Codec, WrongSectionSequenceIsAFormatError) {
  constexpr std::array<std::uint32_t, 2> swapped = {9, 7};
  const Format other{"test", "TEST", 3, swapped};
  EXPECT_THROW((void)decode(kTestFormat, encode(other, {"a", "b"})), FormatError);
  constexpr std::array<std::uint32_t, 1> one = {7};
  const Format shorter{"test", "TEST", 3, one};
  EXPECT_THROW((void)decode(kTestFormat, encode(shorter, {"a"})), FormatError);
}

TEST(Codec, ForgedSectionCountIsTruncationNotAnAllocation) {
  std::string bytes = encode(kTestFormat, {"a", "b"});
  for (unsigned i = 0; i < 4; ++i) bytes[8 + i] = '\xff';  // 2^32 - 1 sections
  EXPECT_THROW((void)decode(kTestFormat, bytes), TruncatedError);
}

TEST(Codec, ReaderBoundsLengthsAndCountsByTheBytesLeft) {
  std::string payload;
  put_u64(payload, std::uint64_t{1} << 40);  // a string "of" 1 TiB
  Reader strings(payload, "forged");
  EXPECT_THROW((void)strings.str(), FormatError);

  payload.clear();
  put_u64(payload, 3);
  put_f64(payload, 1.5);
  put_f64(payload, -2.0);
  Reader counts(payload, "short");
  EXPECT_THROW((void)counts.count(8), FormatError);  // 3 doubles promised, 2 present

  Reader exact(payload, "exact");
  EXPECT_EQ(exact.u64(), 3u);
  EXPECT_EQ(exact.f64(), 1.5);
  EXPECT_THROW(exact.expect_end(), FormatError);
  EXPECT_EQ(exact.f64(), -2.0);
  EXPECT_NO_THROW(exact.expect_end());
}

// ------------------------------------------------------------ fuzzing

sim::ShardData fuzz_shard() {
  sim::ShardData shard;
  shard.plan = sim::plan_shard(6, 1, 2);
  for (std::size_t k = 0; k < shard.plan.size(); ++k) {
    sim::HubRunResult r;
    r.hub_id = shard.plan.begin + k;
    r.hub_name = "hub-" + std::to_string(r.hub_id);
    r.scenario = k % 2 == 0 ? "urban" : "rural";
    r.scheduler = k % 2 == 0 ? sim::SchedulerKind::kTou : sim::SchedulerKind::kGreedyPrice;
    r.seed = 17 + k;
    r.episodes = 2;
    r.slots_per_episode = 24;
    r.revenue = 10.5 + static_cast<double>(k);
    r.grid_cost = 4.25;
    r.profit = r.revenue - r.grid_cost;
    r.episode_profit = {3.0, 2.5};
    r.soc = {0.5, 0.25, 0.125, 0.75, 0.375, 9.0, 24};
    r.outage_slots = k;
    shard.results.push_back(r);
  }
  shard.report = sim::AggregateReport(shard.results);
  return shard;
}

policy::DrlCheckpoint fuzz_checkpoint() {
  nn::Rng rng(11);
  policy::DrlPolicyConfig cfg;
  cfg.state_dim = policy::ObservationLayout{}.dim();
  cfg.trunk_dim = 6;
  cfg.head_dim = 4;
  return policy::DrlPolicy(cfg, rng).checkpoint();
}

// One container-level mutation: a bit flip, a truncation, an insertion of
// random bytes, or a rewritten length-sized field (u32 or u64) holding an
// adversarial value.
std::string mutate(std::string bytes, Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  switch (rng.uniform_int(0, 3)) {
    case 0:
      if (!bytes.empty()) {
        const std::size_t at = pick(bytes.size() - 1);
        bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^
                                      (1u << pick(7)));
      }
      break;
    case 1:
      bytes.resize(pick(bytes.size()));
      break;
    case 2: {
      std::string noise(1 + pick(15), '\0');
      for (char& c : noise) c = static_cast<char>(pick(255));
      bytes.insert(pick(bytes.size()), noise);
      break;
    }
    default: {
      const std::size_t width = rng.bernoulli(0.5) ? 8 : 4;
      if (bytes.size() < width) break;
      const std::uint64_t values[] = {0,
                                      1,
                                      bytes.size(),
                                      bytes.size() + 1,
                                      std::uint64_t{1} << 32,
                                      std::uint64_t{1} << 62,
                                      ~std::uint64_t{0},
                                      rng.engine()()};
      const std::uint64_t v = values[pick(std::size(values) - 1)];
      const std::size_t at = pick(bytes.size() - width);
      for (std::size_t i = 0; i < width; ++i) {
        bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xffu);
      }
    }
  }
  return bytes;
}

// Mutates one section payload and reseals the container with a valid
// checksum, so the mutation reaches the format's payload readers.
std::string mutate_resealed(const Format& format, const std::string& bytes, Rng& rng) {
  std::vector<std::string> payloads;
  for (const std::string_view p : decode(format, bytes)) payloads.emplace_back(p);
  std::string& target = payloads[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(payloads.size()) - 1))];
  target = mutate(target, rng);
  return payloads.size() == 2 ? encode(format, {payloads[0], payloads[1]})
                              : encode(format, {payloads[0], payloads[1], payloads[2]});
}

// The wire formats under test, as README "Binary formats" documents them.
constexpr std::array<std::uint32_t, 3> kShardSections = {1, 2, 3};
constexpr Format kShard{"shard", "ECSH", 1, kShardSections};
constexpr std::array<std::uint32_t, 2> kCheckpointSections = {1, 2};
constexpr Format kCheckpoint{"DRL checkpoint", "ECDR", 1, kCheckpointSections};

TEST(Codec, ShardSchedulerNamesParseCaseInsensitivelyAndRejectUnknown) {
  // The scheduler kind is the one shard field decoded by name; a name the
  // parser rejects must surface as the codec's FormatError.
  const std::string valid = sim::serialize_shard(fuzz_shard());
  std::vector<std::string> payloads;
  for (const std::string_view p : decode(kShard, valid)) payloads.emplace_back(p);
  const auto renamed = [&](const std::string& name) {
    const std::string from = std::string("\x03\0\0\0\0\0\0\0", 8) + "tou";
    const std::string to = std::string("\x03\0\0\0\0\0\0\0", 8) + name;
    std::string results = payloads[1];
    for (std::size_t at = results.find(from); at != std::string::npos;
         at = results.find(from, at + to.size())) {
      results.replace(at, from.size(), to);
    }
    EXPECT_NE(results, payloads[1]);
    return encode(kShard, {payloads[0], results, payloads[2]});
  };
  EXPECT_EQ(sim::parse_shard(renamed("TOU")).results.front().scheduler,
            sim::SchedulerKind::kTou);
  EXPECT_THROW((void)sim::parse_shard(renamed("xyz")), FormatError);
}

struct Target {
  const char* name;
  std::string valid;
  const Format* format;  ///< container to reseal through; nullptr for bare records
  std::function<void(const std::string&)> decode;
};

TEST(CodecFuzz, MutatedEncodingsDecodeOrThrowOnlyCodecErrors) {
  const policy::DrlCheckpoint ckpt = fuzz_checkpoint();
  const std::vector<Target> targets = {
      {"shard", sim::serialize_shard(fuzz_shard()), &kShard,
       [](const std::string& b) { (void)sim::parse_shard(b); }},
      {"checkpoint", ckpt.encode(), &kCheckpoint,
       [](const std::string& b) { (void)policy::DrlPolicy(policy::DrlCheckpoint::decode(b)); }},
      {"parameters", ckpt.blob, nullptr,
       [&ckpt](const std::string& b) {
         policy::DrlPolicy into(ckpt);
         std::vector<nn::Parameter> params = into.parameters();
         nn::decode_parameters(b, params);
       }},
  };

  constexpr int kMutationsPerTarget = 1500;
  Rng rng(0xf022ULL);
  for (const Target& t : targets) {
    ASSERT_NO_THROW(t.decode(t.valid)) << t.name << ": the unmutated encoding must decode";
    std::map<std::string, int> outcomes;
    for (int i = 0; i < kMutationsPerTarget; ++i) {
      const bool reseal = t.format != nullptr && rng.bernoulli(0.5);
      const std::string bytes = reseal ? mutate_resealed(*t.format, t.valid, rng)
                                       : mutate(t.valid, rng);
      try {
        t.decode(bytes);
        ++outcomes["ok"];
      } catch (const Error& e) {
        ++outcomes[typeid(e).name()];
      } catch (const std::exception& e) {
        ADD_FAILURE() << t.name << " mutation " << i << (reseal ? " (resealed)" : "")
                      << " threw " << typeid(e).name() << ": " << e.what();
      }
    }
    // The budget must reach past the container into the payload readers.
    EXPECT_GT(outcomes[typeid(FormatError).name()], 0) << t.name;
    if (t.format != nullptr) {
      EXPECT_GT(outcomes[typeid(ChecksumError).name()], 0) << t.name;
      EXPECT_GT(outcomes[typeid(TruncatedError).name()], 0) << t.name;
    }
  }
}

}  // namespace
}  // namespace ecthub::codec
