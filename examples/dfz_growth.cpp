// dfz_growth — why the Locator/Identifier split exists, as a program.
//
// Converges BGP over the same synthetic Internet twice — once with every
// site's prefix injected into the default-free zone (today's Internet),
// once with only provider RLOC aggregates routable and the site blocks
// held by the LISP mapping system — and prints the table-size and churn
// contrast the paper's §1 opens with.
//
//   $ ./dfz_growth [stub_sites] [deaggregation_factor] [shards]
#include <cstdlib>
#include <iostream>

#include "metrics/table.hpp"
#include "routing/dfz_study.hpp"

using namespace lispcp;

int main(int argc, char** argv) {
  // A negative atoi result would wrap through size_t to something huge
  // (e.g. 2^64-1 shards), so validate instead of casting blindly.
  const auto positive_arg = [&](int index, long fallback) -> std::size_t {
    if (argc <= index) return static_cast<std::size_t>(fallback);
    const long v = std::atol(argv[index]);
    if (v <= 0) {
      std::cerr << "usage: dfz_growth [stub_sites] [deaggregation_factor] "
                   "[shards]  (positive integers)\n";
      std::exit(2);
    }
    return static_cast<std::size_t>(v);
  };
  const std::size_t stubs = positive_arg(1, 150);
  const std::size_t deagg = positive_arg(2, 4);
  const std::size_t shards = positive_arg(3, 1);

  routing::DfzStudyConfig config;
  config.internet.stub_count = stubs;
  config.internet.providers_per_stub = 2;
  config.deaggregation_factor = deagg;
  // Convergence-engine partitions: the table is identical for any value.
  config.bgp.shards = shards;

  // Re-homing the first stub: one zero-hold whole-site flap.
  routing::ChurnPlan rehoming;
  rehoming.events.push_back(routing::ChurnEvent::flap(0));

  metrics::Table table({"scenario", "DFZ table", "mean RIB", "updates",
                        "converge ms", "mapping entries", "rehoming updates",
                        "ASes touched by a flap"});
  for (const auto scenario : {routing::AddressingScenario::kLegacyBgp,
                              routing::AddressingScenario::kLispRlocOnly}) {
    config.scenario = scenario;
    const auto result = routing::run_dfz_study(config);
    const auto churn = routing::run_churn_plan(config, rehoming).events.front();
    table.add_row({to_string(scenario),
                   metrics::Table::integer(result.dfz_table_size),
                   metrics::Table::num(result.mean_rib_size, 1),
                   metrics::Table::integer(result.update_messages),
                   metrics::Table::num(result.convergence_ms, 1),
                   metrics::Table::integer(result.mapping_system_entries),
                   metrics::Table::integer(churn.update_messages),
                   metrics::Table::integer(churn.ases_touched)});
  }

  std::cout << stubs << " stub sites, de-aggregation factor " << deagg
            << ":\n\n";
  table.print(std::cout);
  std::cout << "\nEvery site prefix (x de-aggregation) lands in every DFZ "
               "router under legacy BGP; under LISP the DFZ holds only the "
               "provider aggregates and a site re-homing is a mapping push "
               "that no BGP speaker ever hears about.\n";
  return 0;
}
