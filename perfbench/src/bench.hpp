// Shared plumbing of the ecthub benchmark program: options, the span
// recorder of traced runs, metric lists, order statistics and the machine
// record.  Everything here times calls into the library from outside; the
// library itself is never instrumented.
#pragma once

#include "common/time_grid.hpp"
#include "core/hub_config.hpp"
#include "policy/drl_policy.hpp"

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;      ///< tiny shapes: proves the harness, measures nothing
  std::size_t threads = 0; ///< T; resolved to min(nproc, 4) when 0
  std::string trace_out;   ///< span dump of a traced run ("" = none)
};

[[nodiscard]] std::int64_t now_ns() noexcept;
[[nodiscard]] double seconds_since(std::int64_t start_ns) noexcept;

/// Single-threaded span recorder.  Spans live in memory until write(); a
/// span's parent is the innermost span open when it began.  With recording
/// off begin() returns -1 without reading the clock.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint32_t rep = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Agg {
    double total_ns = 0.0;
    double self_ns = 0.0;  ///< total minus the time child spans cover
    std::size_t count = 0;
    [[nodiscard]] double mean_ns() const { return count ? total_ns / double(count) : 0.0; }
  };

  explicit Tracer(std::string workload) : workload_(std::move(workload)) {}

  void set_recording(bool on) noexcept { on_ = on; }
  [[nodiscard]] bool recording() const noexcept { return on_; }
  void set_rep(std::uint32_t rep) noexcept { rep_ = rep; }

  [[nodiscard]] std::uint32_t intern(std::string_view name);
  std::int32_t begin(std::uint32_t name);
  void end(std::int32_t id);

  /// Appends `other`'s spans (e.g. one sender thread's), re-parenting its
  /// roots under `parent`.
  void merge(const Tracer& other, std::int32_t parent);

  [[nodiscard]] std::map<std::string, Agg> aggregate() const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] const std::string& workload() const noexcept { return workload_; }

  /// One header line, then one line per span:
  /// id,parent,name,workload,rep,start_ns,end_ns (times from the first span).
  void write(const std::string& path) const;

 private:
  std::string workload_;
  bool on_ = false;
  std::uint32_t rep_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

class Scope {
 public:
  Scope(Tracer& t, std::uint32_t name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string source;  ///< workload pass that measured it (traced runs)
};

/// What one workload run produced: its metrics plus the correctness tally.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines, printed before the result
  /// The workload's figures under their workload-specific names
  /// (hub_days_per_s, train_transitions_per_s, serve_*), printed as
  /// "derived:" lines; the result line carries only the generic metrics.
  std::vector<Metric> derived;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit), {}});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  void derive(std::string name, double value, std::string unit) {
    derived.push_back({std::move(name), value, std::move(unit), {}});
  }
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Runs `build` `times` times and returns the median wall seconds; the last
/// build's product stays with the caller through the closure.
[[nodiscard]] double median_setup_s(std::size_t times, const std::function<void()>& build);

/// Threads that may run this process (sched_getaffinity), as nproc prints.
[[nodiscard]] std::size_t nproc();
[[nodiscard]] double peak_rss_mib();
[[nodiscard]] std::string machine_record(std::size_t threads);

/// The end-to-end metrics every untraced run reports, in BENCHMARK.json order.
/// A decision is one hub-hour battery decision; `latency_us` holds one sample
/// per unit of blocking work, in the order the work was due.
void add_end_to_end(Outcome& out, double setup_s, double decisions_per_s,
                    const std::vector<double>& latency_us);

/// Latency percentiles are taken per window of consecutive samples and the
/// median over windows is reported, so a host stall that delays one stretch
/// of the run moves one window, not the figure.  Windows hold at least 10
/// samples; there are at most 10.
[[nodiscard]] std::size_t latency_windows(std::size_t samples);
[[nodiscard]] double windowed_quantile(const std::vector<double>& in_time_order, double q);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 7;

/// The seeded ECT-DRL actor shared by metro-drl and serve-open: untrained
/// DrlPolicy(cfg, rng) weights over the lookback-6 layout (33 features).
[[nodiscard]] std::shared_ptr<const ecthub::policy::DrlCheckpoint> make_actor(
    std::uint64_t seed);

/// Stage replay: each public episode-generation call an env's reset makes
/// (traffic, weather, renewables, RTP, selling price, EV occupancy), run on
/// one hub config with its own seed.  A replay for timing: its draws are not
/// the env's episode streams.  Buffers persist across calls as an env's do
/// across resets, so every call after the first is steady state.  The
/// traced passes run it right after each replayed reset, so reset and
/// stages are timed under the same machine load.  Records spans only while
/// the tracer records.
class StageReplay {
 public:
  StageReplay(Tracer& t, std::size_t days);
  void run(const ecthub::core::HubConfig& hub);
  /// Wall time spent in run(), recorded or not.
  [[nodiscard]] double busy_ns() const noexcept { return busy_ns_; }

 private:
  Tracer& t_;
  ecthub::TimeGrid grid_;
  std::vector<bool> no_discount_;
  std::uint32_t n_hub_, n_traffic_, n_weather_, n_plant_, n_rtp_, n_selling_, n_ev_;
  ecthub::traffic::TrafficTrace traffic_;
  ecthub::weather::WeatherSeries wx_;
  ecthub::renewables::GenerationSeries gen_;
  std::vector<double> rtp_, srtp_;
  ecthub::ev::OccupancySeries occ_;
  double busy_ns_ = 0.0;
};

/// Adds the stage metrics (mean microseconds per call) and, when the trace
/// holds core.reset spans, the core.* metrics including
/// core.reset_self_us = core.reset_us - the summed stage means.
void add_core_and_stage_metrics(const std::map<std::string, Tracer::Agg>& agg, Outcome& out);

// ---- Workloads -------------------------------------------------------------
// run_* measures end-to-end metrics (untraced).  trace_* is the traced pass:
// `full` lets it fill --seconds, otherwise it runs once to supply the layers
// another workload's traced run does not exercise.

Outcome run_sweep_rules(const Options& o);
Outcome run_metro_drl(const Options& o);
Outcome run_train_ppo(const Options& o);
Outcome run_serve_open(const Options& o);

Outcome trace_sweep_rules(const Options& o, Tracer& t, bool full);
Outcome trace_metro_drl(const Options& o, Tracer& t, bool full);
Outcome trace_train_ppo(const Options& o, Tracer& t, bool full);
Outcome trace_serve_open(const Options& o, Tracer& t, bool full);

}  // namespace perfbench
