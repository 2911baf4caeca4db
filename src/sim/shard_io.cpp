#include "sim/shard_io.hpp"

#include <array>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace ecthub::sim {

namespace {

constexpr std::array<std::uint32_t, 3> kSections = {1, 2, 3};  // plan, results, report
constexpr codec::Format kFormat{"shard", "ECSH", 1, kSections};

// Each record's fields are listed once, in wire order, and visited with a
// Writer (const records) or a Loader (mutable ones), so the encoder and the
// decoder cannot drift apart.

/// Appends each visited field in wire form.
struct Writer {
  std::string& out;
  template <std::unsigned_integral T>
  void operator()(T v) const { codec::put_u64(out, v); }
  void operator()(double v) const { codec::put_f64(out, v); }
  void operator()(const std::string& s) const { codec::put_string(out, s); }
  void operator()(SchedulerKind k) const { codec::put_string(out, to_string(k)); }
  void operator()(const ExactSum& sum) const {
    for (const std::uint64_t limb : sum.limbs()) codec::put_u64(out, limb);
  }
  void operator()(const std::vector<double>& v) const {
    codec::put_u64(out, v.size());
    for (const double x : v) codec::put_f64(out, x);
  }
};

/// Reads each visited field back through the bounded reader.
struct Loader {
  codec::Reader& in;
  template <std::unsigned_integral T>
  void operator()(T& v) const { v = static_cast<T>(in.u64()); }
  void operator()(double& v) const { v = in.f64(); }
  void operator()(std::string& s) const { s = in.str(); }
  void operator()(SchedulerKind& k) const {
    const std::string name = in.str();
    // fail() throws.  It runs after the handler, not inside it: throwing
    // from the handler makes GCC's -fanalyzer (CI Job 5) report the
    // message string as leaked.
    std::string error;
    try {
      k = scheduler_kind_from_string(name);
      return;
    } catch (const std::invalid_argument& e) {
      error = e.what();
    }
    in.fail(error);
  }
  void operator()(ExactSum& sum) const {
    ExactSum::Limbs limbs{};
    for (std::uint64_t& limb : limbs) limb = in.u64();
    sum = ExactSum::from_limbs(limbs);
  }
  void operator()(std::vector<double>& v) const {
    v.resize(static_cast<std::size_t>(in.count(8)));
    for (double& x : v) x = in.f64();
  }
};

/// Visits `fields` left to right — the wire order.
template <class F, class... T>
void each(const F& f, T&... fields) {
  (f(fields), ...);
}

template <class Plan, class F>
void plan_fields(Plan& p, const F& f) {
  each(f, p.shard_index, p.shard_count, p.job_count, p.begin, p.end);
}

template <class Group, class F>
void group_fields(Group& g, const F& f) {
  each(f, g.hubs, g.episodes, g.revenue, g.grid_cost, g.bp_cost, g.profit, g.soc_mean_sum,
       g.through_kwh, g.spill_exported_kwh, g.spill_served_kwh, g.spill_dropped_kwh,
       g.outage_slots);
}

template <class Result, class F>
void result_fields(Result& r, const F& f) {
  each(f, r.hub_id, r.hub_name, r.scenario, r.scheduler, r.seed, r.episodes,
       r.slots_per_episode, r.revenue, r.grid_cost, r.bp_cost, r.profit, r.episode_profit,
       r.soc.first, r.soc.last, r.soc.min, r.soc.max, r.soc.mean, r.soc.checksum,
       r.soc.samples, r.through_kwh, r.spill_exported_kwh, r.spill_served_kwh,
       r.spill_dropped_kwh, r.outage_slots);
}

[[nodiscard]] std::map<std::string, GroupStats> read_keyed_groups(codec::Reader& in,
                                                                  const char* key_kind) {
  std::map<std::string, GroupStats> groups;
  const std::uint64_t count = in.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = in.str();
    if (groups.contains(key)) in.fail(std::string("duplicate ") + key_kind + " key '" + key + "'");
    group_fields(groups[std::move(key)], Loader{in});
  }
  return groups;
}

}  // namespace

std::string serialize_report(const AggregateReport& report) {
  std::string out;
  const Writer put{out};
  group_fields(report.totals(), put);
  for (const auto* groups : {&report.by_scenario(), &report.by_scheduler()}) {
    put(groups->size());
    for (const auto& [key, stats] : *groups) {
      put(key);
      group_fields(stats, put);
    }
  }
  return out;
}

std::string serialize_shard(const ShardData& shard) {
  std::string plan;
  plan_fields(shard.plan, Writer{plan});
  std::string results;
  const Writer put{results};
  put(shard.results.size());
  for (const HubRunResult& r : shard.results) result_fields(r, put);
  return codec::encode(kFormat, {plan, results, serialize_report(shard.report)});
}

ShardData parse_shard(std::string_view bytes) {
  const std::vector<std::string_view> sections = codec::decode(kFormat, bytes);

  ShardData shard;
  {
    codec::Reader in(sections[0], "shard plan");
    plan_fields(shard.plan, Loader{in});
    in.expect_end();
    try {
      if (shard.plan != plan_shard(shard.plan.job_count, shard.plan.shard_index,
                                   shard.plan.shard_count)) {
        in.fail("not the canonical partition of its (job_count, shard_index, shard_count)");
      }
    } catch (const std::invalid_argument& e) {
      in.fail(e.what());
    }
  }
  {
    codec::Reader in(sections[1], "shard results");
    const std::uint64_t count = in.count(8);
    if (count != shard.plan.size()) {
      in.fail("carries " + std::to_string(count) + " results but its plan owns " +
              std::to_string(shard.plan.size()) + " jobs");
    }
    shard.results.resize(static_cast<std::size_t>(count));
    for (std::size_t k = 0; k < shard.results.size(); ++k) {
      HubRunResult& r = shard.results[k];
      result_fields(r, Loader{in});
      if (r.hub_id != shard.plan.begin + k) {
        in.fail("result " + std::to_string(k) + " carries hub_id " +
                std::to_string(r.hub_id) + "; its plan assigns " +
                std::to_string(shard.plan.begin + k));
      }
    }
    in.expect_end();
  }
  {
    codec::Reader in(sections[2], "shard report");
    GroupStats totals;
    group_fields(totals, Loader{in});
    auto by_scenario = read_keyed_groups(in, "scenario");
    auto by_scheduler = read_keyed_groups(in, "scheduler");
    in.expect_end();
    shard.report = AggregateReport::from_groups(std::move(totals), std::move(by_scenario),
                                                std::move(by_scheduler));
    try {
      if (!(AggregateReport(shard.results) == shard.report)) {
        in.fail("does not aggregate the shard's own results");
      }
    } catch (const std::invalid_argument& e) {  // a non-finite result field
      in.fail(e.what());
    }
  }
  return shard;
}

void save_shard(const std::filesystem::path& path, const ShardData& shard) {
  codec::write_file(path, serialize_shard(shard));
}

ShardData load_shard(const std::filesystem::path& path) {
  return parse_shard(codec::read_file(path));
}

}  // namespace ecthub::sim
