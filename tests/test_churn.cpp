// Tests for the unified churn surface (routing::ChurnEvent/ChurnPlan) and
// the incremental re-convergence contract: a plan measured against one
// long-lived fabric must be byte-identical to the same plan measured
// against a freshly rebuilt world per event (full replay), for every shard
// count — plus RouteDelta batch-grouping invariance, idle-clock
// time-translation invariance, and plan validation that rejects a bad plan
// before any world is built, under either addressing scenario.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "routing/bgp.hpp"
#include "routing/dfz_study.hpp"
#include "sim/rng.hpp"

namespace lispcp::routing {
namespace {

DfzStudyConfig small_config(std::size_t deagg = 1) {
  DfzStudyConfig config;
  config.internet.tier1_count = 3;
  config.internet.transit_count = 5;
  config.internet.stub_count = 20;
  config.internet.seed = 11;
  config.scenario = AddressingScenario::kLegacyBgp;
  config.deaggregation_factor = deagg;
  return config;
}

/// Expects run_churn_plan to reject the plan with its own validation
/// error, which names run_churn_plan.
void expect_rejected(const DfzStudyConfig& config, const ChurnPlan& plan) {
  try {
    (void)run_churn_plan(config, plan);
    ADD_FAILURE() << "plan was not rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("run_churn_plan: ", 0), 0u)
        << e.what();
  }
}

TEST(ChurnPlan, IncrementalMatchesFullReplayExactly) {
  // The tentpole's parity gate in unit form: randomized flap sequences,
  // measured incrementally and by rebuild-per-event, must agree on every
  // counter of every event — for K = 1, 2, and 8 shards.
  const DfzStudyConfig base = small_config(2);
  const ChurnPlan plan =
      make_flap_plan(6, base.internet.stub_count, 42,
                     sim::SimDuration::seconds(90), sim::SimDuration::seconds(20));
  ASSERT_EQ(plan.events.size(), 6u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    DfzStudyConfig config = base;
    config.bgp.shards = shards;
    config.bgp.shard_workers = shards == 8 ? 4 : 1;

    const ChurnPlanResult incremental = run_churn_plan(config, plan);
    ChurnPlan replay = plan;
    replay.full_replay = true;
    const ChurnPlanResult full = run_churn_plan(config, replay);

    EXPECT_EQ(incremental, full)
        << "incremental diverged from full replay at " << shards << " shards";
    EXPECT_GT(incremental.update_messages, 0u);
    EXPECT_EQ(incremental.flaps, 6u);
  }
}

TEST(ChurnPlan, DeterministicAcrossShardCountsAndReruns) {
  const ChurnPlan plan = make_flap_plan(4, 20, 7, sim::SimDuration::seconds(60),
                                        sim::SimDuration::seconds(10));
  const ChurnPlanResult reference = run_churn_plan(small_config(), plan);
  EXPECT_EQ(run_churn_plan(small_config(), plan), reference)
      << "rerun diverged";
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    DfzStudyConfig config = small_config();
    config.bgp.shards = shards;
    EXPECT_EQ(run_churn_plan(config, plan), reference)
        << "churn plan diverged at " << shards << " shards";
  }
}

TEST(ChurnPlan, FlapsAreStateRestoring) {
  // Flapping the same site twice must measure identically both times: the
  // first flap restored every RIB and ledger exactly, and cascades are
  // time-translation invariant.
  ChurnPlan plan;
  plan.events.push_back(ChurnEvent::flap(3, sim::SimDuration::seconds(5),
                                         sim::SimDuration::seconds(30)));
  plan.events.push_back(ChurnEvent::flap(3, sim::SimDuration::seconds(5),
                                         sim::SimDuration::seconds(30)));
  const ChurnPlanResult result = run_churn_plan(small_config(), plan);
  ASSERT_EQ(result.events.size(), 2u);
  EXPECT_EQ(result.events[0], result.events[1]);
  EXPECT_GT(result.events[0].engine_events, 0u);
}

TEST(ChurnPlan, SpacingDoesNotChangeMeasures) {
  // Time-translation invariance through the public surface: the same flap
  // with wildly different idle gaps produces the same measured deltas.
  ChurnPlan tight;
  tight.events.push_back(ChurnEvent::flap(0));
  ChurnPlan spread;
  spread.events.push_back(
      ChurnEvent::flap(0, sim::SimDuration{}, sim::SimDuration::seconds(86400)));
  const auto a = run_churn_plan(small_config(), tight);
  const auto b = run_churn_plan(small_config(), spread);
  ASSERT_EQ(a.events.size(), 1u);
  ASSERT_EQ(b.events.size(), 1u);
  EXPECT_EQ(a.events[0], b.events[0]);
  EXPECT_GT(b.span_ms, a.span_ms);
}

TEST(ChurnPlan, PrefixDownThenUpEqualsOneFlap) {
  // The decomposed pair measures the same totals as the atomic flap with
  // zero hold (the flap is literally a down event plus an up event).
  ChurnPlan pair;
  pair.events.push_back(ChurnEvent::prefix_down(2, ChurnEvent::kWholeSite));
  pair.events.push_back(ChurnEvent::prefix_up(2, ChurnEvent::kWholeSite));
  ChurnPlan flap;
  flap.events.push_back(ChurnEvent::flap(2));
  const auto decomposed = run_churn_plan(small_config(), pair);
  const auto atomic = run_churn_plan(small_config(), flap);
  EXPECT_EQ(decomposed.update_messages, atomic.update_messages);
  EXPECT_EQ(decomposed.route_records, atomic.route_records);
  EXPECT_EQ(decomposed.engine_events, atomic.engine_events);
  EXPECT_EQ(decomposed.flaps, 0u);
  EXPECT_EQ(atomic.flaps, 1u);
}

TEST(ChurnPlan, SingleFlapTouchesFarFewerEngineEventsThanTheStorm) {
  // The incremental claim in miniature: re-converging one flapped site
  // fires a small fraction of the events the origination storm did.
  DfzStudyConfig config = small_config();
  auto graph_events = [&](const ChurnPlan& plan) {
    return run_churn_plan(config, plan);
  };
  ChurnPlan plan;
  plan.events.push_back(ChurnEvent::flap(0));
  const auto result = graph_events(plan);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_GT(result.events[0].engine_events, 0u);
  // The storm converges 3 tiers x all prefixes; the flap replays only one
  // site's cascade.  A loose 1/3 bound keeps the test robust while still
  // failing if apply() ever degenerates into a full re-convergence.
  DfzStudyConfig probe = small_config();
  const auto study = run_dfz_study(probe);
  EXPECT_LT(result.events[0].engine_events, study.update_messages * 3)
      << "flap re-convergence should not rescale with the full storm";
}

TEST(ChurnPlan, LispScenarioMeasuresZeroButCountsFlaps) {
  DfzStudyConfig config = small_config();
  config.scenario = AddressingScenario::kLispRlocOnly;
  const ChurnPlan plan = make_flap_plan(5, 20, 3, sim::SimDuration::seconds(60),
                                        sim::SimDuration::seconds(10));
  const auto result = run_churn_plan(config, plan);
  EXPECT_EQ(result.flaps, 5u);
  EXPECT_EQ(result.update_messages, 0u);
  EXPECT_EQ(result.route_records, 0u);
  EXPECT_EQ(result.engine_events, 0u);
  EXPECT_GT(result.span_ms, 0.0);
}

TEST(ChurnPlan, InvalidPlansThrowUnderBothScenarios) {
  // Validation runs once, before the scenario branch: a plan the legacy
  // scenario rejects must not pass as mapping-side churn under LISP.
  const std::vector<std::vector<ChurnEvent>> invalid = {
      {ChurnEvent::flap(0), ChurnEvent::flap(999)},
      {ChurnEvent::prefix_up(20, 0)},
      {ChurnEvent::prefix_down(0, 2)},  // deagg 2: indices 0 and 1
  };
  for (const auto scenario :
       {AddressingScenario::kLegacyBgp, AddressingScenario::kLispRlocOnly}) {
    DfzStudyConfig config = small_config(2);
    config.scenario = scenario;
    for (const auto& events : invalid) {
      ChurnPlan plan;
      plan.events = events;
      SCOPED_TRACE(to_string(scenario));
      expect_rejected(config, plan);
    }
  }
}

TEST(MakeFlapPlan, DeterministicPerSeed) {
  const auto a = make_flap_plan(50, 20, 9, sim::SimDuration::seconds(120),
                                sim::SimDuration::seconds(30));
  const auto b = make_flap_plan(50, 20, 9, sim::SimDuration::seconds(120),
                                sim::SimDuration::seconds(30));
  ASSERT_EQ(a.events.size(), 50u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].stub, b.events[i].stub);
    EXPECT_EQ(a.events[i].spacing.ns(), b.events[i].spacing.ns());
    EXPECT_EQ(a.events[i].hold.ns(), b.events[i].hold.ns());
  }
  // A different seed draws a different sequence.
  const auto c = make_flap_plan(50, 20, 10, sim::SimDuration::seconds(120),
                                sim::SimDuration::seconds(30));
  bool differs = false;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].stub != c.events[i].stub ||
        a.events[i].spacing.ns() != c.events[i].spacing.ns()) {
      differs = true;
      break;
    }
  }
  EXPECT_TRUE(differs);
  EXPECT_THROW((void)make_flap_plan(1, 0, 1, sim::SimDuration::seconds(1),
                                    sim::SimDuration{}),
               std::invalid_argument);
}

TEST(ChurnPlan, PolicyIncidentValidationThrows) {
  // Each check in isolation: break one field of a valid incident at a time.
  DfzStudyConfig valid = small_config();
  valid.policy.roles = true;
  valid.policy.event.kind = PolicyEvent::Kind::kHijackMoreSpecific;
  ChurnPlan plan;
  plan.events.push_back(ChurnEvent::policy_incident());
  EXPECT_TRUE(run_churn_plan(valid, plan).incident.has_value());

  const std::vector<std::function<void(DfzStudyConfig&)>> breaks = {
      [](DfzStudyConfig& c) { c.policy.roles = false; },
      [](DfzStudyConfig& c) { c.scenario = AddressingScenario::kLispRlocOnly; },
      [](DfzStudyConfig& c) { c.policy.event.kind = PolicyEvent::Kind::kNone; },
      [](DfzStudyConfig& c) { c.policy.event.deagg_factor = 3; },
      [](DfzStudyConfig& c) { c.policy.event.victim_stub = 20; },
      [](DfzStudyConfig& c) { c.policy.event.actor_stub = 20; },
  };
  for (const auto& breaks_one : breaks) {
    DfzStudyConfig config = valid;
    breaks_one(config);
    expect_rejected(config, plan);
  }
}

TEST(RouteDeltaApi, BatchGroupingIsObservationallyIdentical) {
  // Splitting one batch into per-delta apply() calls (no run in between)
  // must leave identical converged state and stats.
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTier1);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_as(AsNumber{3}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  graph.add_customer_provider(AsNumber{3}, AsNumber{1});
  const std::vector<RouteDelta> batch = {
      RouteDelta::announce(AsNumber{2}, stub_site_prefixes(0, 1).front()),
      RouteDelta::announce(AsNumber{3}, stub_site_prefixes(1, 1).front()),
      RouteDelta::withdraw(AsNumber{2}, stub_site_prefixes(0, 1).front()),
  };
  BgpFabric grouped(graph);
  grouped.apply(batch);
  grouped.run_to_convergence();
  BgpFabric split(graph);
  for (const RouteDelta& delta : batch) split.apply({delta});
  split.run_to_convergence();

  EXPECT_EQ(grouped.now().ns(), split.now().ns());
  EXPECT_EQ(grouped.total_updates_sent(), split.total_updates_sent());
  EXPECT_EQ(grouped.total_routes_announced(), split.total_routes_announced());
  EXPECT_EQ(grouped.total_routes_withdrawn(), split.total_routes_withdrawn());
  for (AsNumber asn : graph.ases()) {
    EXPECT_EQ(grouped.speaker(asn).rib_size(), split.speaker(asn).rib_size());
    EXPECT_EQ(grouped.speaker(asn).stats().best_changes,
              split.speaker(asn).stats().best_changes);
  }
}

TEST(RouteDeltaApi, AdvanceRequiresIdleEngineAndPositiveDuration) {
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  BgpFabric fabric(graph);
  EXPECT_THROW(fabric.advance(sim::SimDuration::nanos(-1)),
               std::invalid_argument);
  fabric.apply({RouteDelta::announce(AsNumber{2}, stub_site_prefixes(0, 1).front())});
  EXPECT_THROW(fabric.advance(sim::SimDuration::seconds(1)), std::logic_error);
  fabric.run_to_convergence();
  const auto before = fabric.now();
  fabric.advance(sim::SimDuration::seconds(7));
  EXPECT_EQ((fabric.now() - before).ns(),
            sim::SimDuration::seconds(7).ns());
}

TEST(RouteDeltaApi, LastRunEventsReportsIncrementalCost) {
  AsGraph graph;
  graph.add_as(AsNumber{1}, AsTier::kTransit);
  graph.add_as(AsNumber{2}, AsTier::kStub);
  graph.add_customer_provider(AsNumber{2}, AsNumber{1});
  BgpFabric fabric(graph);
  fabric.apply({RouteDelta::announce(AsNumber{2}, stub_site_prefixes(0, 1).front())});
  fabric.run_to_convergence();
  const std::uint64_t storm = fabric.last_run_events();
  EXPECT_GT(storm, 0u);
  // A convergent no-op run fires nothing.
  fabric.run_to_convergence();
  EXPECT_EQ(fabric.last_run_events(), 0u);
}

}  // namespace
}  // namespace lispcp::routing
