#include "serve/decision_service.hpp"

#include "common/stats.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace ecthub::serve {

DecisionService::DecisionService(std::shared_ptr<const policy::Policy> policy,
                                 std::size_t state_dim, ServiceConfig cfg)
    : policy_(std::move(policy)), state_dim_(state_dim), cfg_(cfg) {
  if (!policy_) throw std::invalid_argument("DecisionService: null policy");
  if (state_dim_ == 0) throw std::invalid_argument("DecisionService: state_dim must be >= 1");
  if (cfg_.max_batch == 0) {
    throw std::invalid_argument("DecisionService: max_batch must be >= 1");
  }
  if (!policy_->stateless()) {
    // Mirrors the decide_rows contract: micro-batching interleaves requests
    // from arbitrary callers into one matrix, which only a pure function of
    // the observation can answer.  Stateful policies stay one-per-hub.
    throw std::invalid_argument("DecisionService: policy '" + policy_->name() +
                                "' is stateful — request micro-batching requires a "
                                "stateless policy (the decide_rows contract)");
  }
  batch_hist_.assign(cfg_.max_batch + 1, 0);
  latency_ring_.assign(std::max<std::size_t>(1, cfg_.latency_window), 0.0);
  flush_ws_.policy_ws = policy_->make_workspace();
  // Pre-size the admission matrix and scatter buffers to their largest shape
  // so flush-time resize_zeroed calls are capacity reuses, never growth.
  flush_ws_.obs.resize_zeroed(cfg_.max_batch, state_dim_);
  flush_ws_.actions.assign(cfg_.max_batch, 0);
  flush_ws_.batch.reserve(cfg_.max_batch);
  worker_ = std::thread([this] { worker_loop(); });
}

DecisionService::~DecisionService() { shutdown(); }

DecisionService::Ticket* DecisionService::acquire_ticket() {
  if (free_.empty()) {
    // Warm-up growth: the pool high-water mark is the maximum number of
    // concurrently blocked callers; after that every acquire is a reuse.
    tickets_.push_back(std::make_unique<Ticket>());
    tickets_.back()->obs.reserve(state_dim_);
    return tickets_.back().get();
  }
  Ticket* ticket = free_.back();
  free_.pop_back();
  return ticket;
}

std::size_t DecisionService::decide(std::span<const double> obs) {
  if (obs.size() != state_dim_) {
    throw std::invalid_argument("DecisionService::decide: observation has " +
                                std::to_string(obs.size()) + " features, expected " +
                                std::to_string(state_dim_));
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!accepting_) {
    throw std::runtime_error("DecisionService::decide: service is shut down");
  }
  Ticket* ticket = acquire_ticket();
  ticket->obs.assign(obs.begin(), obs.end());
  ticket->done = false;
  ticket->enqueue_us = cfg_.now_us != nullptr ? cfg_.now_us() : 0;
  pending_.push_back(ticket);
  max_queue_depth_ = std::max(max_queue_depth_, pending_.size());
  // The worker may be idle (empty queue) or holding a partial batch open;
  // either way a new arrival can complete a batch, so always poke it.
  worker_cv_.notify_one();
  ticket->cv.wait(lock, [ticket] { return ticket->done; });
  const std::size_t action = ticket->action;
  const std::exception_ptr error = std::exchange(ticket->error, nullptr);
  free_.push_back(ticket);
  if (error) std::rethrow_exception(error);
  return action;
}

void DecisionService::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (pending_.empty()) {
      if (stop_) return;
      worker_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      continue;
    }
    if (pending_.size() < cfg_.max_batch && cfg_.max_wait_us > 0 && !stop_) {
      // The batching window: hold the partial batch open for peers until
      // either it fills or the window elapses.  (Timer flushes are what
      // bound a lone request's latency to ~max_wait_us.)
      worker_cv_.wait_for(lock, std::chrono::microseconds(cfg_.max_wait_us), [this] {
        return stop_ || pending_.size() >= cfg_.max_batch;
      });
    }
    flush_into(flush_ws_);
  }
}

void DecisionService::flush_into(FlushWorkspace& ws) {
  const std::size_t admitted = std::min(pending_.size(), cfg_.max_batch);
  ws.batch.assign(pending_.begin(),
                  pending_.begin() + static_cast<std::ptrdiff_t>(admitted));
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(admitted));
  ws.obs.resize_zeroed(admitted, state_dim_);
  double* rows = ws.obs.data().data();
  for (std::size_t i = 0; i < admitted; ++i) {
    std::copy(ws.batch[i]->obs.begin(), ws.batch[i]->obs.end(), rows + i * state_dim_);
  }
  ws.actions.resize(admitted);
  const std::span<std::size_t> actions(ws.actions.data(), admitted);
  try {
    policy_->decide_rows(ws.obs, 0, admitted, actions, *ws.policy_ws);
  } catch (...) {
    // An exception escaping the worker thread would terminate the process
    // with every caller still blocked.  Retry the flush row by row instead:
    // rows are independent (the bit-identity contract), so every caller
    // gets its own action or the exception its own row raised — and no
    // exception object is shared between caller threads.
    for (std::size_t i = 0; i < admitted; ++i) {
      try {
        policy_->decide_rows(ws.obs, i, i + 1, actions, *ws.policy_ws);
      } catch (...) {
        ws.batch[i]->error = std::current_exception();
      }
    }
  }

  ++flushes_;
  ++batch_hist_[admitted];
  if (admitted == cfg_.max_batch) {
    ++full_batch_flushes_;
  } else {
    ++timer_flushes_;
  }
  completed_ += admitted;
  const std::uint64_t scatter_us = cfg_.now_us != nullptr ? cfg_.now_us() : 0;
  for (std::size_t i = 0; i < admitted; ++i) {
    Ticket* ticket = ws.batch[i];
    if (cfg_.now_us != nullptr) {
      const auto latency =
          static_cast<double>(scatter_us - ticket->enqueue_us);
      latency_ring_[latency_next_] = latency;
      latency_next_ = (latency_next_ + 1) % latency_ring_.size();
      ++latency_total_;
      latency_max_us_ = std::max(latency_max_us_, latency);
    }
    ticket->action = ws.actions[i];
    ticket->done = true;
    ticket->cv.notify_one();
  }
}

void DecisionService::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    stop_ = true;
  }
  worker_cv_.notify_one();
  if (worker_.joinable()) worker_.join();
}

ServiceStats DecisionService::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s;
  s.requests = completed_;
  s.flushes = flushes_;
  s.full_batch_flushes = full_batch_flushes_;
  s.timer_flushes = timer_flushes_;
  s.queue_depth = pending_.size();
  s.max_queue_depth = max_queue_depth_;
  s.mean_batch_size =
      flushes_ > 0 ? static_cast<double>(completed_) / static_cast<double>(flushes_) : 0.0;
  s.batch_size_hist = batch_hist_;
  s.latency_samples = latency_total_;
  if (latency_total_ > 0) {
    const std::size_t window =
        static_cast<std::size_t>(std::min<std::uint64_t>(latency_total_, latency_ring_.size()));
    const std::vector<double> samples(latency_ring_.begin(),
                                      latency_ring_.begin() +
                                          static_cast<std::ptrdiff_t>(window));
    s.latency_p50_us = stats::percentile(samples, 50.0);
    s.latency_p95_us = stats::percentile(samples, 95.0);
    s.latency_p99_us = stats::percentile(samples, 99.0);
    s.latency_max_us = latency_max_us_;
  }
  return s;
}

}  // namespace ecthub::serve
