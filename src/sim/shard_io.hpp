// shard_io: the sharded-sweep artifact — one shard's ShardPlan, its
// per-hub results, and its partial AggregateReport — as a common/codec
// container (README "Binary formats").
//
// Format "ECSH" version 2, three sections (every field little-endian).
// Version 2 marks results of the ziggurat episode-noise contract
// (common/rng.hpp); version-1 files, computed under the earlier contract,
// are refused with codec::VersionError instead of merging with them.
//
//   id 1  plan     shard_index/shard_count/job_count/begin/end (u64)
//   id 2  results  u64 count + HubRunResult records (strings as u64 length
//                  + bytes; doubles as u64 bit patterns; SchedulerKind by
//                  name)
//   id 3  report   GroupStats totals + keyed GroupStats maps; each ExactSum
//                  as its 34 raw limbs, so merging reports loaded from disk
//                  stays exact
//
// parse_shard raises the codec's typed errors, FormatError also for a
// checksummed payload that is not a consistent shard (impossible counts,
// unknown scheduler name, plan/results/report disagreement).
#pragma once

#include "common/codec.hpp"
#include "sim/report.hpp"
#include "sim/shard.hpp"

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace ecthub::sim {

/// One shard artifact: which slice of the sweep this is, its per-hub
/// results (hub_id == plan.begin + k for record k), and the partial report
/// aggregated from exactly those results.
struct ShardData {
  ShardPlan plan;
  std::vector<HubRunResult> results;
  AggregateReport report;
};

/// Serializes to the format above.  Deterministic: equal ShardData values
/// produce byte-identical output (the identity tests compare these bytes).
[[nodiscard]] std::string serialize_shard(const ShardData& shard);

/// Serializes just an AggregateReport as a section-3 payload — the byte
/// string the merge-identity guarantee is stated over.
[[nodiscard]] std::string serialize_report(const AggregateReport& report);

/// Parses serialize_shard output; throws the codec errors above.
[[nodiscard]] ShardData parse_shard(std::string_view bytes);

/// File round trip; an unreadable path or failed write is a codec::Error.
void save_shard(const std::filesystem::path& path, const ShardData& shard);
[[nodiscard]] ShardData load_shard(const std::filesystem::path& path);

}  // namespace ecthub::sim
