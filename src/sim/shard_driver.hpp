// ShardDriver: executes a sharded city sweep — "fleet of fleets".
//
// Three entry points, all built on the same artifacts (sim/shard_io):
//
//   run_shard(jobs, i, n)      one shard, in this process (the worker body,
//                              and the `city_sweep --shard i/n` path)
//   run_forked(jobs, n, dir)   forks n worker processes, one shard file per
//                              child, waits, then merges the files
//   merge_shard_files(paths)   merges pre-existing shard files from disk
//                              (the `city_sweep --merge-shards` path — the
//                              shards may have run on other machines)
//
// Identity guarantee (pinned by tests/test_shard.cpp and bench_fleet part
// 7): because shard_fleet_jobs preserves every hub's global id/seed and the
// report sums are exact (ExactSum), the merged report is byte-identical in
// serialized form to the single-process FleetRunner run of the same jobs
// and config, for any shard count.
//
// Fork discipline: run_forked forks while the process is single-threaded —
// the driver spawns no threads itself, and each child's FleetRunner spawns
// its worker threads only after the fork — so the fork is safe under
// the threaded runtime and the TSan CI job.  Children write their shard
// file and _exit without touching stdout; a child that exits non-zero or
// dies on a signal is surfaced as a ShardDriverError naming the shard.
#pragma once

#include "sim/fleet_runner.hpp"
#include "sim/report.hpp"
#include "sim/shard_io.hpp"

#include <cstddef>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ecthub::sim {

/// Orchestration failure: fork/wait plumbing, a failed worker, or an
/// inconsistent shard-file set.  (Per-file decode failures keep their
/// codec error types.)
class ShardDriverError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Merged output of a sharded sweep: per-hub results concatenated in global
/// hub_id order and the report folded through AggregateReport::merge in
/// shard order.
struct ShardMerge {
  std::vector<HubRunResult> results;
  AggregateReport report;
};

class ShardDriver {
 public:
  explicit ShardDriver(FleetRunnerConfig cfg) : cfg_(std::move(cfg)) {}

  /// Runs shard `shard_index` of `shard_count` over `jobs` in this process
  /// and returns its artifact (plan, results with global hub ids, partial
  /// report).  Coupled job lists are accepted only at shard_count == 1
  /// (via run_lockstep); see shard_fleet_jobs.
  [[nodiscard]] ShardData run_shard(const std::vector<FleetJob>& jobs,
                                    std::size_t shard_index,
                                    std::size_t shard_count) const;

  /// Forks `shard_count` workers; child i runs run_shard(jobs, i, n) and
  /// saves dir/shard_file_name(i, n).  Waits for every child, throws
  /// ShardDriverError naming any shard whose worker exited non-zero or was
  /// killed by a signal, then merges the shard files.
  [[nodiscard]] ShardMerge run_forked(const std::vector<FleetJob>& jobs,
                                      std::size_t shard_count,
                                      const std::filesystem::path& dir) const;

  /// Loads every path (typed codec errors propagate), validates that the
  /// files form one complete, consistent shard set — identical shard_count
  /// and job_count, every shard_index 0..n-1 present exactly once — and
  /// folds them in shard order.
  [[nodiscard]] static ShardMerge merge_shard_files(
      std::vector<std::filesystem::path> paths);

  /// Canonical shard file name: "shard-<i>-of-<n>.ecsh".
  [[nodiscard]] static std::string shard_file_name(std::size_t shard_index,
                                                   std::size_t shard_count);

  [[nodiscard]] const FleetRunnerConfig& config() const noexcept { return cfg_; }

 private:
  FleetRunnerConfig cfg_;
};

}  // namespace ecthub::sim
