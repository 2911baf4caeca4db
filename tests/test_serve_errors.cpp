// DecisionService failure contract: a policy that throws inside a flush
// fails exactly the requests whose rows it throws on — each of those callers
// rethrows the policy's exception, every other caller still gets its action
// — and the worker keeps serving later flushes.  Linked
// into test_serve; kept out of test_serve.cpp so this translation unit does
// not see that file's replacement operator new/delete.
#include "policy/observation.hpp"
#include "policy/policy.hpp"
#include "serve/decision_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ecthub::serve {
namespace {

// A stateless policy that throws on any row whose first feature is the
// marker, and otherwise thresholds the second feature.
class ThrowOnMarkedRow final : public policy::Policy {
 public:
  static constexpr double kMarker = -1.0;
  std::size_t decide(std::span<const double> obs) override { return pick(obs); }
  void decide_rows(const nn::Matrix& obs, std::size_t row_begin, std::size_t row_end,
                   std::span<std::size_t> actions, Workspace&) const override {
    check_rows(obs, row_begin, row_end, actions);
    for (std::size_t r = row_begin; r < row_end; ++r) {
      actions[r] = pick({obs.data().data() + r * obs.cols(), obs.cols()});
    }
  }
  [[nodiscard]] std::string name() const override { return "ThrowOnMarkedRow"; }
  [[nodiscard]] bool stateless() const override { return true; }

 private:
  static std::size_t pick(std::span<const double> row) {
    if (row[0] == kMarker) throw std::runtime_error("marked row");
    return row[1] > 0.5 ? 1 : 0;
  }
};

TEST(ServeErrors, ThrowingPolicyFailsOnlyItsRowsAndTheWorkerKeepsServing) {
  const std::size_t dim = policy::ObservationLayout{}.dim();
  std::vector<double> plain(dim, 0.0);
  plain[1] = 0.9;  // action 1
  std::vector<double> marked(dim, 0.0);
  marked[0] = ThrowOnMarkedRow::kMarker;

  // One request per flush: a marked request fails alone, the next succeeds.
  {
    DecisionService service(std::make_shared<ThrowOnMarkedRow>(), dim, {.max_batch = 1});
    for (int round = 0; round < 3; ++round) {
      EXPECT_THROW((void)service.decide(marked), std::runtime_error);
      EXPECT_EQ(service.decide(plain), 1u);
    }
  }

  // Concurrent clients batched together: every marked request throws the
  // policy's error, every plain one gets its action.
  DecisionService service(std::make_shared<ThrowOnMarkedRow>(), dim,
                          {.max_batch = 8, .max_wait_us = 200});
  constexpr std::size_t kClients = 4, kRequests = 60;
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kRequests; ++i) {
        const bool is_marked = (c * kRequests + i) % 7 == 0;
        try {
          if (service.decide(is_marked ? marked : plain) != 1u || is_marked) ++wrong;
        } catch (const std::runtime_error& e) {
          if (!is_marked || std::string(e.what()) != "marked row") ++wrong;
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(service.decide(plain), 1u);
  EXPECT_EQ(service.stats().requests, kClients * kRequests + 1);
}

}  // namespace
}  // namespace ecthub::serve
