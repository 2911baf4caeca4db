#include "bench.hpp"

#include "common/rng.hpp"
#include "common/time_grid.hpp"
#include "ev/station.hpp"
#include "policy/observation.hpp"
#include "pricing/rtp.hpp"
#include "pricing/selling.hpp"
#include "renewables/plant.hpp"
#include "traffic/generator.hpp"
#include "weather/weather.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::begin(std::uint32_t name) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.rep = rep_;
  const auto id = static_cast<std::int32_t>(spans_.size());
  open_.push_back(id);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return id;
}

void Tracer::end(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: spans must close innermost-first");
  }
  open_.pop_back();
}

void Tracer::merge(const Tracer& other, std::int32_t parent) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  for (const Span& s : other.spans_) {
    Span copy = s;
    copy.name = intern(other.names_[s.name]);
    copy.parent = s.parent < 0 ? parent : base + s.parent;
    spans_.push_back(copy);
  }
}

std::map<std::string, Tracer::Agg> Tracer::aggregate() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += double(s.end_ns - s.start_ns);
  }
  std::map<std::string, Agg> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Agg& a = out[names_[s.name]];
    const auto dur = double(s.end_ns - s.start_ns);
    a.total_ns += dur;
    a.self_ns += dur - child_ns[i];
    ++a.count;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("Tracer::write: cannot open " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "id,parent,name,workload,rep,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << i << ',' << s.parent << ',' << names_[s.name] << ',' << workload_ << ',' << s.rep
      << ',' << (s.start_ns - t0) << ',' << (s.end_ns - t0) << '\n';
  }
  if (!f) throw std::runtime_error("Tracer::write: write failed for " + path);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median_setup_s(std::size_t times, const std::function<void()>& build) {
  std::vector<double> walls;
  for (std::size_t i = 0; i < times; ++i) {
    const std::int64_t t0 = now_ns();
    build();
    walls.push_back(seconds_since(t0));
  }
  return median(walls);
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across execve,
  // so it would report the launching process's peak when that was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string machine_record(std::size_t threads) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream s;
  s << "nproc=" << nproc() << " hardware_concurrency=" << std::thread::hardware_concurrency()
    << " threads=" << threads << " compiler=\"" << compiler
    << "\" build_type=" << PERFBENCH_BUILD_TYPE << " flags=\"" << PERFBENCH_CXX_FLAGS
    << "\" ECTHUB_NATIVE=" << PERFBENCH_NATIVE;
  return s.str();
}

void add_end_to_end(Outcome& out, double setup_s, double decisions_per_s,
                    const std::vector<double>& latency_us) {
  out.add("setup_s", setup_s, "s");
  out.add("decisions_per_s", decisions_per_s, "1/s");
  out.add("latency_p50_us", windowed_quantile(latency_us, 0.50), "us");
  out.add("latency_p90_us", windowed_quantile(latency_us, 0.90), "us");
  out.add("peak_rss_mb", peak_rss_mib(), "MiB");
  out.note("latency samples: " + std::to_string(latency_us.size()) + " in " +
           std::to_string(latency_windows(latency_us.size())) + " windows");
}

std::size_t latency_windows(std::size_t samples) {
  return std::clamp<std::size_t>(samples / 10, 1, 10);
}

double windowed_quantile(const std::vector<double>& in_time_order, double q) {
  const std::size_t n = in_time_order.size();
  const std::size_t windows = latency_windows(n);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = in_time_order.begin() + static_cast<std::ptrdiff_t>(n * w / windows);
    const auto end = in_time_order.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows);
    per_window.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return median(per_window);
}

std::shared_ptr<const ecthub::policy::DrlCheckpoint> make_actor(std::uint64_t seed) {
  ecthub::policy::DrlPolicyConfig cfg;
  cfg.state_dim = ecthub::policy::ObservationLayout{6}.dim();
  ecthub::nn::Rng rng(ecthub::mix_seed(seed, 0xac7ULL));
  ecthub::policy::DrlPolicy actor(cfg, rng);
  return std::make_shared<const ecthub::policy::DrlCheckpoint>(actor.checkpoint());
}

void add_core_and_stage_metrics(const std::map<std::string, Tracer::Agg>& agg,
                                Outcome& out) {
  const auto mean_ns = [&](const char* span) {
    const auto it = agg.find(span);
    return it == agg.end() ? 0.0 : it->second.mean_ns();
  };
  const auto count = [&](const char* span) {
    const auto it = agg.find(span);
    return it == agg.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  static constexpr std::pair<const char*, const char*> kStages[] = {
      {"traffic.generate", "traffic.generate_us"}, {"weather.generate", "weather.generate_us"},
      {"renewables.generate", "renewables.generate_us"}, {"pricing.rtp", "pricing.rtp_us"},
      {"pricing.selling", "pricing.selling_us"},   {"ev.simulate", "ev.simulate_us"}};
  double stages_ns = 0.0;
  for (const auto& [span, metric] : kStages) {
    stages_ns += mean_ns(span);
    out.add(metric, mean_ns(span) / 1e3, "us");
  }
  if (count("core.reset") == 0.0) return;
  out.add("core.reset_us", mean_ns("core.reset") / 1e3, "us");
  out.add("core.reset_self_us", (mean_ns("core.reset") - stages_ns) / 1e3, "us");
  out.add("core.step_ns", mean_ns("core.step"), "ns");
  out.add("core.episodes", count("core.reset"), "count");
  out.add("core.slots", count("core.step"), "count");
}

StageReplay::StageReplay(Tracer& t, std::size_t days)
    : t_(t),
      grid_(days, 24),
      no_discount_(grid_.size(), false),
      n_hub_(t.intern("stage_replay.hub")),
      n_traffic_(t.intern("traffic.generate")),
      n_weather_(t.intern("weather.generate")),
      n_plant_(t.intern("renewables.generate")),
      n_rtp_(t.intern("pricing.rtp")),
      n_selling_(t.intern("pricing.selling")),
      n_ev_(t.intern("ev.simulate")) {}

void StageReplay::run(const ecthub::core::HubConfig& hub) {
  namespace ec = ecthub;
  // Built once per hub by an env too (at construction / first reset), so
  // outside the stage spans.
  const ec::ev::ChargingStation station(
      hub.station, ec::ev::StrataProfile(hub.ev_popularity, hub.ev_evening_sensitivity,
                                         hub.ev_evening_commuter));
  const ec::pricing::SellingPricePolicy selling(
      hub.selling, ec::pricing::DiscountSchedule::from_flags(no_discount_, 0.2));
  const std::int64_t t0 = now_ns();
  {
    const Scope hub_span(t_, n_hub_);
    ec::Rng rng(hub.seed);
    {
      const Scope s(t_, n_traffic_);
      ec::traffic::TrafficGenerator g(hub.traffic, rng.fork());
      g.generate_into(grid_, traffic_);
    }
    {
      const Scope s(t_, n_weather_);
      ec::weather::WeatherGenerator g(hub.weather, rng.fork());
      g.generate_into(grid_, wx_);
    }
    {
      const Scope s(t_, n_plant_);
      const ec::renewables::RenewablePlant plant(hub.plant);
      plant.generate_into(wx_, gen_);
    }
    {
      const Scope s(t_, n_rtp_);
      ec::pricing::RtpGenerator g(hub.rtp, rng.fork());
      g.generate_into(grid_, traffic_.load_rate, rtp_);
    }
    {
      const Scope s(t_, n_selling_);
      selling.series_into(rtp_, srtp_);
    }
    {
      const Scope s(t_, n_ev_);
      ec::Rng ev_rng = rng.fork();
      station.simulate_into(grid_, no_discount_, ev_rng, occ_);
    }
  }
  busy_ns_ += double(now_ns() - t0);
}

}  // namespace perfbench
