// ecthub_perfbench: one benchmark run.
//
//   ecthub_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--threads <T>] [--smoke] [--trace-dir <dir>]
//
// Prints the machine record, notes, one "metric value unit" line per metric,
// and as its last line one JSON object: correct, attempted, failed, metrics.
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics
// (and writes the recorded spans to --trace-dir when given).  Exit code 0
// when the run completed (correct or not), 2 on a usage error, 3 when the
// harness itself failed.
#include "bench.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Outcome;
using perfbench::Tracer;

struct Workload {
  const char* name;
  Outcome (*run)(const Options&);
  Outcome (*trace)(const Options&, Tracer&, bool);
};

const std::vector<Workload> kWorkloads = {
    {"sweep-rules", perfbench::run_sweep_rules, perfbench::trace_sweep_rules},
    {"metro-drl", perfbench::run_metro_drl, perfbench::trace_metro_drl},
    {"train-ppo", perfbench::run_train_ppo, perfbench::trace_train_ppo},
    {"serve-open", perfbench::run_serve_open, perfbench::trace_serve_open},
};

/// End-to-end metrics, as BENCHMARK.json lists them.
const std::vector<std::string> kEndToEnd = {"setup_s", "decisions_per_s", "latency_p50_us",
                                            "latency_p90_us", "peak_rss_mb"};

/// Per-layer metrics, as BENCHMARK.json lists them, each with the workload
/// whose traced pass measures it when the traced workload does not.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"core.reset_us", "sweep-rules"},
    {"core.reset_self_us", "sweep-rules"},
    {"core.step_ns", "sweep-rules"},
    {"core.episodes", "sweep-rules"},
    {"core.slots", "sweep-rules"},
    {"traffic.generate_us", "sweep-rules"},
    {"weather.generate_us", "sweep-rules"},
    {"renewables.generate_us", "sweep-rules"},
    {"pricing.rtp_us", "sweep-rules"},
    {"pricing.selling_us", "sweep-rules"},
    {"ev.simulate_us", "sweep-rules"},
    {"policy.decide_ns", "sweep-rules"},
    {"policy.decide_rows_ns_per_row", "metro-drl"},
    {"policy.rows_per_call", "metro-drl"},
    {"nn.trunk_gemm_ns_per_row", "metro-drl"},
    {"nn.trunk_tanh_ns_per_row", "metro-drl"},
    {"nn.head_ns_per_row", "metro-drl"},
    {"nn.forward_gflops", "metro-drl"},
    {"nn.train_fwd_bwd_us_per_minibatch", "train-ppo"},
    {"nn.adam_step_us", "train-ppo"},
    {"rl.collect_ms_per_iter", "train-ppo"},
    {"rl.update_ms_per_iter", "train-ppo"},
    {"rl.update_self_ms", "train-ppo"},
    {"rl.act_rows_ns_per_row", "train-ppo"},
    {"rl.transitions", "train-ppo"},
    {"rl.minibatches", "train-ppo"},
    {"sim.engine_ms", "metro-drl"},
    {"sim.parallel_eff", "metro-drl"},
    {"sim.coupling_exchange_ns", "metro-drl"},
    {"sim.routed_kwh", "metro-drl"},
    {"spatial.metro_build_ms", "metro-drl"},
    {"serve.mean_batch", "serve-open"},
    {"serve.full_flush_frac", "serve-open"},
    {"serve.max_queue_depth", "serve-open"},
    {"serve.flushes", "serve-open"},
    {"serve.service_p99_us", "serve-open"},
    {"serve.gen_lag_p99_us", "serve-open"},
    {"trace.overhead_frac", ""},  // always the traced workload's own
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  std::string names;
  for (const Workload& w : kWorkloads) names += std::string(names.empty() ? "" : ", ") + w.name;
  throw std::invalid_argument("unknown workload '" + name + "' (one of: " + names + ")");
}

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    const auto whole = [&](const std::string& v) {
      std::size_t used = 0;
      const unsigned long long n = std::stoull(v, &used);
      if (used != v.size() || v.front() == '-') {
        throw std::invalid_argument(arg + ": not a whole number: " + v);
      }
      return n;
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = whole(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      const std::string v = value();
      std::size_t used = 0;
      o.seconds = std::stod(v, &used);
      if (used != v.size() || !(o.seconds > 0.0) || o.seconds > 600.0) {
        throw std::invalid_argument("--seconds must be in (0, 600]: " + v);
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace must be 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (arg == "--threads") {
      o.threads = whole(value());
      if (o.threads == 0) throw std::invalid_argument("--threads must be >= 1");
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--trace-dir") {
      o.trace_out = value();
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument("--workload, --seed, --seconds and --trace are required");
  }
  (void)find_workload(o.workload);
  const std::size_t cores = perfbench::nproc();
  if (o.threads > cores) {
    throw std::invalid_argument("refusing --threads " + std::to_string(o.threads) +
                                ": only " + std::to_string(cores) +
                                " CPU(s) available to this process");
  }
  if (o.threads == 0) o.threads = std::min<std::size_t>(cores, 4);
  return o;
}

/// The traced run: the workload's own pass for the whole --seconds, then one
/// pass of each owner workload for the layers it did not exercise.
Outcome traced(const Options& o) {
  const Workload& self = find_workload(o.workload);
  std::vector<Tracer> tracers;
  tracers.reserve(kWorkloads.size());
  tracers.emplace_back(o.workload);
  tracers.back().set_recording(true);
  Outcome out = self.trace(o, tracers.back(), true);
  for (Metric& m : out.metrics) m.source = o.workload;

  std::map<std::string, Outcome> owners;
  Outcome result;
  result.attempted = out.attempted;
  result.failed = out.failed;
  result.notes = out.notes;
  const auto find = [](const Outcome& pass, const std::string& name) -> const Metric* {
    for (const Metric& m : pass.metrics) {
      if (m.name == name) return &m;
    }
    return nullptr;
  };
  for (const auto& [name, owner] : kPerLayer) {
    const Metric* found = find(out, name);
    if (found == nullptr && owner.empty()) {
      throw std::logic_error(o.workload + " pass did not measure " + name);
    }
    if (found == nullptr) {
      if (!owners.count(owner)) {
        tracers.emplace_back(owner);
        tracers.back().set_recording(true);
        Outcome& pass = owners[owner] = find_workload(owner).trace(o, tracers.back(), false);
        for (Metric& m : pass.metrics) m.source = owner;
        result.attempted += pass.attempted;
        result.failed += pass.failed;
        for (const std::string& n : pass.notes) result.notes.push_back("[" + owner + "] " + n);
      }
      found = find(owners.at(owner), name);
      if (found == nullptr) throw std::logic_error(owner + " pass did not measure " + name);
    }
    result.metrics.push_back(*found);
  }
  if (!o.trace_out.empty()) {
    for (const Tracer& t : tracers) {
      // One file per pass, overwritten by the next traced run that makes the
      // pass: the largest (sweep-rules) holds ~10^6 spans.
      const std::string path = o.trace_out + "/" + t.workload() + ".spans.csv";
      t.write(path);
      result.notes.push_back("spans: " + std::to_string(t.size()) + " written to " + path);
    }
  }
  return result;
}

int run(const Options& o) {
  std::cout << "workload: " << o.workload << " seed=" << o.seed << " seconds=" << o.seconds
            << " trace=" << (o.trace ? 1 : 0) << (o.smoke ? " smoke" : "") << "\n";
  std::cout << "machine: " << perfbench::machine_record(o.threads) << "\n" << std::flush;

  Outcome out;
  if (o.trace) {
    out = traced(o);
  } else {
    out = find_workload(o.workload).run(o);
    std::vector<Metric> ordered;
    for (const std::string& name : kEndToEnd) {
      const auto it = std::find_if(out.metrics.begin(), out.metrics.end(),
                                   [&](const Metric& m) { return m.name == name; });
      if (it == out.metrics.end()) throw std::logic_error("run did not measure " + name);
      ordered.push_back(*it);
    }
    out.metrics = std::move(ordered);
  }
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) throw std::logic_error(m.name + " is not finite");
  }
  if (out.attempted == 0) throw std::logic_error("no operation was attempted");

  for (const std::string& n : out.notes) std::cout << "note: " << n << "\n";
  for (const Metric& m : out.metrics) {
    std::cout << "metric: " << m.name << " " << json_number(m.value) << " " << m.unit
              << (m.source.empty() ? "" : "  [" + m.source + " pass]") << "\n";
  }
  for (const Metric& m : out.derived) {
    std::cout << "derived: " << m.name << " " << json_number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "derived: failed_frac "
            << json_number(double(out.failed) / double(out.attempted)) << " ratio ("
            << out.failed << " of " << out.attempted << " checked operations)\n";

  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ecthub_perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "ecthub_perfbench: " << o.workload << " failed: " << e.what() << "\n";
    return 3;
  }
}
