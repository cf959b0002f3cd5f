#include "scenario/dfz_adapter.hpp"

#include "routing/dfz_study.hpp"
#include "sim/rng.hpp"

namespace lispcp::scenario::dfz {

using routing::AddressingScenario;

Axis scenarios(std::string name) {
  std::vector<Axis::Point> points;
  for (const auto scenario :
       {AddressingScenario::kLegacyBgp, AddressingScenario::kLispRlocOnly}) {
    const std::string label = routing::to_string(scenario);
    points.push_back(Axis::Point{
        label, Field::text(label), [scenario](ExperimentConfig& config) {
          config.dfz.scenario = scenario;
        }});
  }
  return Axis(std::move(name), std::move(points));
}

Axis stub_sites(std::vector<std::uint64_t> values, std::string name) {
  return Axis::integers(std::move(name), std::move(values),
                        [](ExperimentConfig& config, std::uint64_t v) {
                          config.dfz.internet.stub_count =
                              static_cast<std::size_t>(v);
                        });
}

Axis deaggregation(std::vector<std::uint64_t> values, std::string name) {
  return Axis::integers(std::move(name), std::move(values),
                        [](ExperimentConfig& config, std::uint64_t v) {
                          config.dfz.deaggregation_factor =
                              static_cast<std::size_t>(v);
                        });
}

std::function<void(ExperimentConfig&)> sharded(std::size_t shards,
                                               std::size_t workers) {
  return [shards, workers](ExperimentConfig& config) {
    config.dfz.bgp.shards = shards == 0 ? 1 : shards;
    config.dfz.bgp.shard_workers = workers;
  };
}

void run_study(const RunPoint& point, Record& record) {
  const auto result = routing::run_dfz_study(point.config.dfz);
  record.set_int("DFZ table", result.dfz_table_size);
  record.set_real("mean RIB", result.mean_rib_size, 1);
  record.set_int("max RIB", result.max_rib_size);
  record.set_int("updates", result.update_messages);
  record.set_int("route records", result.route_records);
  record.set_real("converge ms", result.convergence_ms, 1);
  record.set_int("mapping entries", result.mapping_system_entries);
}

void run_churn(const RunPoint& point, Record& record) {
  // The first stub's ingress swing: one zero-hold whole-site flap.
  routing::ChurnPlan plan;
  plan.events.push_back(routing::ChurnEvent::flap(0));
  const auto churn =
      routing::run_churn_plan(point.config.dfz, plan).events.front();
  record.set_int("updates", churn.update_messages);
  record.set_int("route records", churn.route_records);
  record.set_int("ASes touched", churn.ases_touched);
  record.set_real("settle ms", churn.settle_ms, 1);
}

std::function<void(ExperimentConfig&)> full_replay() {
  return [](ExperimentConfig& config) { config.dfz.soak.full_replay = true; };
}

Axis soak_flaps(std::vector<std::uint64_t> values, std::string name) {
  return Axis::integers(std::move(name), std::move(values),
                        [](ExperimentConfig& config, std::uint64_t v) {
                          config.dfz.soak.flaps =
                              static_cast<std::size_t>(v);
                        });
}

void run_soak(const RunPoint& point, Record& record) {
  const routing::DfzStudyConfig& config = point.config.dfz;
  // The plan derives from the point's internet seed through its own
  // stream, so seed_mode kPerPoint / replications() sweep distinct flap
  // sequences while topology and plan stay locked together per point.
  routing::ChurnPlan plan = routing::make_flap_plan(
      config.soak.flaps, config.internet.stub_count,
      sim::Rng::derive_seed(config.internet.seed, 0x536f616bu /* 'Soak' */),
      config.soak.mean_spacing, config.soak.hold);
  plan.full_replay = config.soak.full_replay;
  const auto result = routing::run_churn_plan(config, plan);

  record.set_int("flaps", result.flaps);
  record.set_int("updates", result.update_messages);
  record.set_int("route records", result.route_records);
  record.set_real("updates/flap", result.mean_updates_per_flap, 2);
  record.set_real("records/flap", result.mean_records_per_flap, 2);
  record.set_real("settle ms", result.mean_settle_ms, 2);
  record.set_real("max settle ms", result.max_settle_ms, 1);
  record.set_int("engine events", result.engine_events);
  record.set_real("sim days", result.span_ms / 86'400'000.0, 2);
}

std::function<void(ExperimentConfig&)> roles_enabled() {
  return [](ExperimentConfig& config) { config.dfz.policy.roles = true; };
}

Axis policy_events(std::vector<routing::PolicyEvent::Kind> kinds,
                   std::string name) {
  std::vector<Axis::Point> points;
  for (const auto kind : kinds) {
    const std::string label = routing::to_string(kind);
    points.push_back(Axis::Point{
        label, Field::text(label), [kind](ExperimentConfig& config) {
          config.dfz.policy.event.kind = kind;
        }});
  }
  return Axis(std::move(name), std::move(points));
}

Axis filtered_transits(std::vector<double> fractions, std::string name) {
  return Axis::reals(std::move(name), std::move(fractions),
                     [](ExperimentConfig& config, double v) {
                       config.dfz.policy.filtered_transit_fraction = v;
                     });
}

Axis event_deagg(std::vector<std::uint64_t> values, std::string name) {
  return Axis::integers(std::move(name), std::move(values),
                        [](ExperimentConfig& config, std::uint64_t v) {
                          config.dfz.policy.event.deagg_factor =
                              static_cast<std::size_t>(v);
                        });
}

void run_policy_event(const RunPoint& point, Record& record) {
  routing::ChurnPlan plan;
  plan.events.push_back(routing::ChurnEvent::policy_incident());
  const auto result = *routing::run_churn_plan(point.config.dfz, plan).incident;
  record.set_int("DFZ before", result.dfz_table_before);
  record.set_int("DFZ after", result.dfz_table_after);
  record.set_int("updates", result.update_messages);
  record.set_int("route records", result.route_records);
  record.set_real("settle ms", result.settle_ms, 1);
  record.set_int("ASes touched", result.ases_touched);
  record.set_int("announcements", result.event_announcements);
  record.set_int("RIB delta", result.rib_delta);
  record.set_real("RIB/ann", result.rib_cost_per_announcement, 2);
  record.set_real("churn/ann", result.churn_per_announcement, 2);
  record.set_int("captured ASes", result.ases_preferring_actor);
  record.set_percent("captured", result.actor_preference_fraction);
}

}  // namespace lispcp::scenario::dfz
