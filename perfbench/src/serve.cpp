// serve-open: the micro-batching DecisionService under an open loop.
//
// T-1 sender threads (one core stays free for the service worker) send
// observations from a seeded 256-row pool on a fixed schedule, at each rate
// of a fixed ladder.  Hubs are independent callers, so the load does not
// slow down when the service does: a sender that falls behind sends at once,
// and every latency is timed from the request's due time, so a stall is
// charged to every request queued behind it.  With at most T-1 requests in
// flight the service forwards 1-3-row batches; this is the only workload for
// admission, batching, wake-ups and small forwards.
#include "bench.hpp"

#include "core/hub_env.hpp"
#include "serve/decision_service.hpp"
#include "sim/fleet_runner.hpp"
#include "sim/scenario.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <thread>

namespace perfbench {
namespace {

namespace ec = ecthub;

constexpr std::size_t kPoolRows = 256;
constexpr std::size_t kWarmupPerSender = 500;
/// Offered rates, requests/s over all senders.  Latency is reported at the
/// middle rung; the highest rung that meets kBudgetUs with no failure and a
/// steady generator is serve_max_rps.  The last rung offers more than the
/// service can take (T-1 blocking senders against a 50 us batching window),
/// so its completion rate is the service's capacity.
const std::vector<double> kLadder = {2000, 4000, 8000, 12000, 16000, 20000, 60000};
constexpr std::size_t kMiddleRung = 3;
constexpr double kBudgetUs = 1000.0;
/// Generator lag is "growing" when the last quarter's median lag exceeds the
/// first quarter's by more than this.
constexpr double kLagGrowthUs = 200.0;

std::uint64_t clock_us() { return static_cast<std::uint64_t>(now_ns() / 1000); }

struct Serving {
  std::shared_ptr<const ec::policy::DrlCheckpoint> actor;
  ec::nn::Matrix pool;
  std::unique_ptr<ec::serve::DecisionService> service;
  std::size_t senders = 1;
};

/// Real observations: 256 consecutive slots of a seeded urban hub.
ec::nn::Matrix make_pool(std::uint64_t seed) {
  const auto registry = ec::sim::ScenarioRegistry::with_builtins();
  ec::core::EctHubEnv env(registry.make_hub("urban", "serve-pool", ec::mix_seed(seed, 0x9001ULL)),
                          registry.at("urban").env);
  ec::nn::Matrix pool(kPoolRows, env.state_dim());
  const auto row = [&](std::size_t r) {
    return std::span<double>(pool.data().data() + r * env.state_dim(), env.state_dim());
  };
  env.reset_into(row(0));
  for (std::size_t r = 1; r < kPoolRows; ++r) {
    std::copy(row(r - 1).begin(), row(r - 1).end(), row(r).begin());
    (void)env.step_into(r % 3, row(r));
  }
  return pool;
}

std::span<const double> pool_row(const ec::nn::Matrix& pool, std::size_t r) {
  return {pool.data().data() + r * pool.cols(), pool.cols()};
}

Serving build_serving(const Options& o) {
  Serving s;
  s.actor = make_actor(o.seed);
  s.pool = make_pool(o.seed);
  s.senders = std::max<std::size_t>(1, o.threads - 1);
  ec::serve::ServiceConfig cfg;
  cfg.max_batch = 32;
  cfg.max_wait_us = 50;
  cfg.now_us = &clock_us;
  s.service = std::make_unique<ec::serve::DecisionService>(
      std::make_shared<const ec::policy::DrlPolicy>(*s.actor), s.pool.cols(), cfg);
  // Warm-up: grow the ticket pool and fault in the flush buffers.
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < s.senders; ++i) {
    threads.emplace_back([&s, i] {
      for (std::size_t k = 0; k < kWarmupPerSender; ++k) {
        (void)s.service->decide(pool_row(s.pool, (k * 7 + i) % kPoolRows));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return s;
}

std::vector<std::size_t> oracle(const Serving& s) {
  ec::policy::DrlPolicy pol(*s.actor);
  std::vector<std::size_t> actions(kPoolRows);
  pol.decide_batch(s.pool, actions);
  return actions;
}

struct Rung {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_us;  ///< due -> action returned
  std::vector<double> lag_us;      ///< due -> sent
  bool lag_growing = false;
  [[nodiscard]] bool meets_budget() const {
    return failed == 0 && !lag_growing && quantile(latency_us, 0.99) <= kBudgetUs;
  }
};

/// Sends at `rps` for `duration_s`.  Request j (over all senders) is due at
/// start + j / rps and goes to sender j mod senders.  A sender that is still
/// behind when the rung ends stops (an overloaded rung sends fewer than
/// planned; what it did not send was never attempted).  With `tracers` each
/// sender records one serve.request span per request into its own tracer.
Rung run_rung(const Serving& s, const std::vector<std::size_t>& expected, double rps,
              double duration_s, std::vector<Tracer>* tracers) {
  const std::size_t n = s.senders;
  const auto total = static_cast<std::size_t>(rps * duration_s);
  const double gap_ns = 1e9 / rps;
  struct Sender {
    std::vector<double> latency, lag, due;
    std::uint64_t sent = 0, failed = 0;
    std::int64_t last_done = 0;
  };
  std::vector<Sender> out(n);
  const std::int64_t start = now_ns() + 2'000'000;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Sender& me = out[i];
      me.latency.reserve(total / n + 1);
      me.lag.reserve(total / n + 1);
      me.due.reserve(total / n + 1);
      Tracer* tr = tracers != nullptr ? &(*tracers)[i] : nullptr;
      const std::uint32_t n_req = tr != nullptr ? tr->intern("serve.request") : 0;
      const auto end = start + static_cast<std::int64_t>(duration_s * 1e9);
      for (std::size_t j = i; j < total && now_ns() < end; j += n) {
        const auto due = start + static_cast<std::int64_t>(double(j) * gap_ns);
        // Sleep only far from the due time (sleeps overshoot by tens of
        // microseconds); yield-spin the rest.
        for (std::int64_t now = now_ns(); now < due; now = now_ns()) {
          if (due - now > 2'000'000) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 1'000'000));
          } else {
            std::this_thread::yield();
          }
        }
        const std::int64_t sent = now_ns();
        const std::size_t row = j % kPoolRows;
        std::size_t action = 0;
        const std::int32_t span = tr != nullptr ? tr->begin(n_req) : -1;
        try {
          action = s.service->decide(pool_row(s.pool, row));
        } catch (const std::exception&) {
          if (tr != nullptr) tr->end(span);
          ++me.failed;
          ++me.sent;
          continue;
        }
        if (tr != nullptr) tr->end(span);
        const std::int64_t done = now_ns();
        ++me.sent;
        if (action != expected[row]) ++me.failed;
        me.latency.push_back(double(done - due) / 1e3);
        me.lag.push_back(double(sent - due) / 1e3);
        me.due.push_back(double(due - start));
        me.last_done = done;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Rung r;
  r.offered_rps = rps;
  std::int64_t last_done = start;
  std::vector<std::array<double, 3>> samples;  // due, latency, lag
  for (const Sender& me : out) {
    r.sent += me.sent;
    r.failed += me.failed;
    last_done = std::max(last_done, me.last_done);
    for (std::size_t k = 0; k < me.due.size(); ++k) {
      samples.push_back({me.due[k], me.latency[k], me.lag[k]});
    }
  }
  std::sort(samples.begin(), samples.end());  // due order across senders
  std::vector<double> first_lag, last_lag;
  const double quarter_ns = duration_s * 1e9 / 4.0;
  for (const auto& [due, latency, lag] : samples) {
    r.latency_us.push_back(latency);
    r.lag_us.push_back(lag);
    if (due < quarter_ns) first_lag.push_back(lag);
    if (due >= 3.0 * quarter_ns) last_lag.push_back(lag);
  }
  r.achieved_rps = double(r.latency_us.size()) / (double(last_done - start) / 1e9);
  r.lag_growing = median(last_lag) - median(first_lag) > kLagGrowthUs;
  return r;
}

std::string describe(const Rung& r) {
  return "rung " + std::to_string(static_cast<long>(r.offered_rps)) + " req/s: sent " +
         std::to_string(r.sent) + ", achieved " + std::to_string(r.achieved_rps) +
         " req/s, p50 " + std::to_string(quantile(r.latency_us, 0.5)) + " us, p99 " +
         std::to_string(quantile(r.latency_us, 0.99)) + " us, lag p99 " +
         std::to_string(quantile(r.lag_us, 0.99)) + " us" +
         (r.lag_growing ? ", lag growing" : "") + (r.meets_budget() ? "" : " -- over budget");
}

double smoke_rps(double rps) { return rps / 20.0; }

}  // namespace

Outcome run_serve_open(const Options& o) {
  Serving s;
  const double setup_s = median_setup_s(kSetupReps, [&] {
    s.service.reset();
    s = build_serving(o);
  });
  const std::vector<std::size_t> expected = oracle(s);
  const double rung_s = o.seconds / double(kLadder.size());

  Outcome out;
  const Rung* best = nullptr;
  std::vector<Rung> rungs;
  rungs.reserve(kLadder.size());
  for (const double rate : kLadder) {
    rungs.push_back(run_rung(s, expected, o.smoke ? smoke_rps(rate) : rate, rung_s, nullptr));
    const Rung& r = rungs.back();
    out.attempted += r.sent;
    out.failed += r.failed;
    if (r.meets_budget()) best = &r;
    out.note(describe(r));
  }
  const Rung& mid = rungs[kMiddleRung];
  const Rung& overload = rungs.back();
  add_end_to_end(out, setup_s, overload.achieved_rps, mid.latency_us);
  out.derive("serve_p50_us", quantile(mid.latency_us, 0.50), "us");
  out.derive("serve_p99_us", quantile(mid.latency_us, 0.99), "us");
  out.derive("serve_max_rps", best != nullptr ? best->achieved_rps : 0.0, "req/s");
  out.note("latency_* and serve_p50_us/serve_p99_us are from due time at the middle rung (" +
           std::to_string(static_cast<long>(mid.offered_rps)) + " req/s); serve_max_rps = " +
           "completions/s at the highest rung within " +
           std::to_string(static_cast<long>(kBudgetUs)) + " us p99 (0: none); " +
           "decisions_per_s = completions/s at the overload rung (capacity)");
  return out;
}

Outcome trace_serve_open(const Options& o, Tracer& t, bool full) {
  const Serving s = build_serving(o);
  const std::vector<std::size_t> expected = oracle(s);
  const double rate = o.smoke ? smoke_rps(kLadder[kMiddleRung]) : kLadder[kMiddleRung];
  const double rung_s = full ? o.seconds / 2.0 : 1.0;
  Outcome out;

  // The middle rung twice: unrecorded (overhead baseline), then with one
  // span per request.  ServiceStats counters are differenced across the
  // recorded rung, so warm-up and the baseline rung are excluded.
  const Rung plain = run_rung(s, expected, rate, rung_s, nullptr);
  const ec::serve::ServiceStats before = s.service->stats();
  std::vector<Tracer> senders;
  for (std::size_t i = 0; i < s.senders; ++i) {
    senders.emplace_back(t.workload());
    senders.back().set_recording(true);
  }
  const std::int32_t rung_span = t.begin(t.intern("serve.rung"));
  const Rung traced = run_rung(s, expected, rate, rung_s, &senders);
  t.end(rung_span);
  const ec::serve::ServiceStats after = s.service->stats();
  for (const Tracer& sender : senders) t.merge(sender, rung_span);
  for (const Rung* r : {&plain, &traced}) {
    out.attempted += r->sent;
    out.failed += r->failed;
  }

  const double flushes = double(after.flushes - before.flushes);
  out.add("serve.mean_batch", double(after.requests - before.requests) / flushes, "rows");
  out.add("serve.full_flush_frac",
          double(after.full_batch_flushes - before.full_batch_flushes) / flushes, "ratio");
  out.add("serve.max_queue_depth", double(after.max_queue_depth), "count");
  out.add("serve.flushes", flushes, "count");
  out.add("serve.service_p99_us", after.latency_p99_us, "us");
  out.add("serve.gen_lag_p99_us", quantile(traced.lag_us, 0.99), "us");
  out.add("trace.overhead_frac",
          quantile(traced.latency_us, 0.5) / quantile(plain.latency_us, 0.5) - 1.0, "ratio");
  out.note(describe(plain) + " (unrecorded)");
  out.note(describe(traced) + " (recorded)");
  out.note("serve.max_queue_depth is the service's high-water mark since construction "
           "(includes warm-up); serve.service_p99_us covers its last " +
           std::to_string(s.service->config().latency_window) + " completions");
  return out;
}

}  // namespace perfbench
