// Copy-on-write world snapshots (core::SnapshotCache consumers): points
// sharing a shape must fork one immutable snapshot inside a scope, builds
// must stay private outside any scope, and mutating one forked point must
// never leak into a sibling.
#include <gtest/gtest.h>

#include "routing/as_graph.hpp"
#include "routing/dfz_study.hpp"
#include "topo/blueprint.hpp"
#include "topo/internet.hpp"

namespace lispcp {
namespace {

routing::SyntheticInternetConfig small_internet() {
  routing::SyntheticInternetConfig config;
  config.tier1_count = 3;
  config.transit_count = 4;
  config.stub_count = 20;
  return config;
}

TEST(SnapshotCow, GraphSharedInsideScopePrivateOutside) {
  const auto config = small_internet();
  {
    routing::SyntheticInternetScope scope;
    const auto a = routing::shared_synthetic_internet(config);
    const auto b = routing::shared_synthetic_internet(config);
    EXPECT_EQ(a.get(), b.get()) << "same config must fork one snapshot";

    auto other = config;
    other.seed = 99;
    const auto c = routing::shared_synthetic_internet(other);
    EXPECT_NE(a.get(), c.get()) << "different config must not share";
    EXPECT_EQ(c->size(), a->size());
  }
  // Outside any scope: private builds, nothing retained.
  const auto d = routing::shared_synthetic_internet(config);
  const auto e = routing::shared_synthetic_internet(config);
  EXPECT_NE(d.get(), e.get());
  EXPECT_EQ(d->size(), e->size());
  EXPECT_EQ(d->edge_count(), e->edge_count());
}

TEST(SnapshotCow, ForkedDfzPointsAreIsolated) {
  routing::DfzStudyConfig config;
  config.internet = small_internet();

  routing::SyntheticInternetScope scope;
  const auto baseline = routing::run_dfz_study(config);

  // A sibling fork that mutates aggressively: the churn study converges,
  // withdraws a site, and re-announces it over the *shared* graph.
  routing::ChurnPlan flap;
  flap.events.push_back(routing::ChurnEvent::flap(0));
  (void)routing::run_churn_plan(config, flap);

  const auto repeat = routing::run_dfz_study(config);
  EXPECT_EQ(baseline.dfz_table_size, repeat.dfz_table_size);
  EXPECT_EQ(baseline.max_rib_size, repeat.max_rib_size);
  EXPECT_EQ(baseline.update_messages, repeat.update_messages);
  EXPECT_EQ(baseline.route_records, repeat.route_records);
  EXPECT_EQ(baseline.convergence_ms, repeat.convergence_ms);
}

TEST(SnapshotCow, BlueprintTablesMatchTheFormulasTheyReplace) {
  const topo::BlueprintShape shape{5, 3, 4};
  const topo::Blueprint blueprint(shape);
  EXPECT_EQ(blueprint.host_name(2, 1).to_string(), "h1.d2.example");
  EXPECT_EQ(blueprint.host_name(4, 0).to_string(), "h0.d4.example");
  ASSERT_EQ(blueprint.site_prefixes(0).size(), 4u);
  EXPECT_EQ(blueprint.site_prefixes(0).front().length(), 26);

  const auto dests = blueprint.destination_names(1);
  ASSERT_EQ(dests.size(), 4u * 3u);  // (domains - 1) * hosts, host-major
  EXPECT_EQ(dests.front().to_string(), "h0.d0.example");
  EXPECT_EQ(dests[1].to_string(), "h0.d2.example");
}

TEST(SnapshotCow, BlueprintSharedAcrossSameShapeInternets) {
  topo::InternetSpec spec;
  spec.domains = 3;
  spec.hosts_per_domain = 2;

  topo::BlueprintScope scope;
  topo::Internet a(spec);
  topo::Internet b(spec);
  EXPECT_EQ(a.blueprint().get(), b.blueprint().get());

  auto wider = spec;
  wider.hosts_per_domain = 4;
  topo::Internet c(wider);
  EXPECT_NE(a.blueprint().get(), c.blueprint().get());

  // Isolation: driving one fork's clock and sessions must not disturb a
  // sibling's view of the shared tables.
  const auto before = b.destination_names(0);
  a.domain(0).hosts[0]->start_session(a.host_name(1, 0));
  a.sim().run_until(a.sim().now() + sim::SimDuration::seconds(5));
  const auto after = b.destination_names(0);
  EXPECT_EQ(before, after);
  EXPECT_EQ(a.host_eid(1, 1), b.host_eid(1, 1));
}

}  // namespace
}  // namespace lispcp
