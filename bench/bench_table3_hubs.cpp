// Table III — average daily rewards for the 12-hub fleet under the four
// pricing methods, each driving its own ECT-DRL scheduler.
#include "drl_common.hpp"

#include "common/table.hpp"

#include <iostream>

static int run(const ecthub::CliFlags& flags) {
  using namespace ecthub;
  std::cout << "=== Table III: average daily rewards for 12 ECT-Hubs ===\n";
  benchx::EctPriceSetup setup = benchx::make_setup(flags, 0.3);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 101));
  const auto num_hubs = static_cast<std::size_t>(flags.get_int("hubs", 12));
  const core::DrlExperimentConfig drl_cfg = benchx::make_drl_config(flags);
  flags.check_unknown();  // before the pricing stage: a typo fails in seconds

  std::vector<core::HubConfig> fleet = core::default_fleet();
  benchx::align_fleet_with_stations(fleet, setup);
  const benchx::MethodSchedules schedules =
      benchx::train_pricing_stage(setup, fleet.size(), seed);

  // rewards[method][hub]
  std::map<std::string, std::vector<double>> rewards;
  for (std::size_t h = 0; h < std::min(num_hubs, fleet.size()); ++h) {
    std::cout << "\ntraining ECT-DRL on " << fleet[h].name << " (4 price inputs)...\n";
    for (const auto& method : benchx::method_order()) {
      const auto result =
          core::run_hub_experiment(fleet[h], schedules.at(method).at(h), drl_cfg, method);
      rewards[method].push_back(result.avg_daily_reward);
      std::cout << "  " << method << ": avg daily reward " << result.avg_daily_reward << "\n";
    }
  }

  std::vector<std::string> header = {"Methods"};
  for (std::size_t h = 0; h < rewards.begin()->second.size(); ++h) {
    header.push_back("Hub" + std::to_string(h + 1));
  }
  header.push_back("Mean");
  TextTable table(header);
  std::map<std::string, double> means;
  for (const auto& method : benchx::method_order()) {
    table.begin_row().add(method);
    double acc = 0.0;
    for (double r : rewards.at(method)) {
      table.add_double(r, 2);
      acc += r;
    }
    means[method] = acc / static_cast<double>(rewards.at(method).size());
    table.add_double(means[method], 2);
  }
  table.print(std::cout);
  std::cout << "\nPaper shape: Ours has the highest average daily reward on every hub\n"
               "(paper Table III: e.g. Hub1 565.19 vs 529.57/498.63/535.58); absolute\n"
               "magnitudes differ (synthetic substrate, $ per day).  Checked here:\n";
  for (std::size_t h = 1; h < header.size() - 1; ++h) {
    std::map<std::string, double> scores;
    for (const auto& method : benchx::method_order()) scores[method] = rewards.at(method)[h - 1];
    benchx::print_shape_check(std::cout, header[h], scores);
  }
  benchx::print_shape_check(std::cout, "Mean", means);
  return 0;
}

int main(int argc, char** argv) { return ecthub::run_cli(argc, argv, run); }
