// Topology invariants: the address plan, the LISP routing premise (EIDs not
// globally routable), DNS reachability, OWD symmetry, Fig. 1 shape.
#include <gtest/gtest.h>

#include "topo/blueprint.hpp"
#include "topo/internet.hpp"

namespace lispcp::topo {
namespace {

InternetSpec fig1_spec() {
  // The Fig. 1 scene: two domains, each dual-homed (providers A,B / X,Y).
  auto spec = InternetSpec::preset(ControlPlaneKind::kPce);
  spec.domains = 2;
  spec.hosts_per_domain = 2;
  spec.providers_per_domain = 2;
  return spec;
}

TEST(Topology, Fig1ComponentInventory) {
  Internet internet(fig1_spec());
  ASSERT_EQ(internet.domains().size(), 2u);
  for (const auto& dom : internet.domains()) {
    EXPECT_EQ(dom.hosts.size(), 2u);
    EXPECT_EQ(dom.xtrs.size(), 2u);
    EXPECT_EQ(dom.provider_links.size(), 2u);
    EXPECT_NE(dom.resolver, nullptr);
    EXPECT_NE(dom.authoritative, nullptr);
    EXPECT_NE(dom.pce, nullptr);
    EXPECT_NE(dom.irc, nullptr);
    EXPECT_NE(dom.control_plane, nullptr);
  }
  EXPECT_EQ(internet.registry().size(), 2u);
}

TEST(Topology, AddressPlanIsDisjoint) {
  auto spec = fig1_spec();
  spec.domains = 10;
  Internet internet(spec);
  const auto eid_space = net::Ipv4Prefix::from_string("100.64.0.0/10");
  const auto rloc_space = net::Ipv4Prefix::from_string("10.0.0.0/8");
  const auto infra_space = net::Ipv4Prefix::from_string("192.0.0.0/8");
  for (const auto& dom : internet.domains()) {
    for (const auto* host : dom.hosts) {
      EXPECT_TRUE(eid_space.contains(host->address())) << host->name();
    }
    for (const auto* xtr : dom.xtrs) {
      EXPECT_TRUE(rloc_space.contains(xtr->rloc())) << xtr->name();
    }
    EXPECT_TRUE(infra_space.contains(dom.resolver->address()));
    EXPECT_TRUE(infra_space.contains(dom.authoritative->address()));
    EXPECT_TRUE(infra_space.contains(dom.pce->address()));
    EXPECT_TRUE(eid_space.contains(dom.eid_prefix.address()));
  }
}

TEST(Topology, EidPrefixesAreUniquePerDomain) {
  auto spec = fig1_spec();
  spec.domains = 50;
  Internet internet(spec);
  std::set<net::Ipv4Prefix> prefixes;
  for (const auto& dom : internet.domains()) {
    EXPECT_TRUE(prefixes.insert(dom.eid_prefix).second) << dom.name;
  }
}

TEST(Topology, OwdIsSymmetricAndMatchesLinkBudget) {
  Internet internet(fig1_spec());
  const auto owd_01 = internet.owd(0, 1);
  const auto owd_10 = internet.owd(1, 0);
  EXPECT_EQ(owd_01, owd_10);
  // host -> R -> xtr -> core -> xtr -> R -> host:
  // 2 lan + 2 lan + 2 core_link = 2*0.2ms + 2*0.2ms + 2*20ms.
  const auto expected = sim::SimDuration::micros(200) * 4 +
                        sim::SimDuration::millis(20) * 2;
  EXPECT_EQ(owd_01, expected);
}

TEST(Topology, EidsNotGloballyRoutableUnderLisp) {
  Internet internet(fig1_spec());
  auto& net = internet.network();
  // A raw EID packet injected at the core must be dropped: only RLOC and
  // infra prefixes are routed there (the paper's premise).
  const auto before = net.counters().drops_no_route;
  net::TcpHeader tcp;
  auto packet = net::Packet::tcp(net::Ipv4Address(1, 1, 1, 1),
                                 internet.domain(1).hosts[0]->address(), tcp, 0);
  net.inject(internet.core_router().id(), std::move(packet));
  internet.sim().run();
  EXPECT_EQ(net.counters().drops_no_route, before + 1);
}

TEST(Topology, EidsGloballyRoutableUnderPlainIp) {
  Internet internet(InternetSpec::preset(ControlPlaneKind::kPlainIp));
  auto& net = internet.network();
  const auto before = net.counters().drops_no_route;
  net::TcpHeader tcp;
  auto packet = net::Packet::tcp(net::Ipv4Address(1, 1, 1, 1),
                                 internet.domain(1).hosts[0]->address(), tcp, 0);
  net.inject(internet.core_router().id(), std::move(packet));
  internet.sim().run();
  EXPECT_EQ(net.counters().drops_no_route, before);
}

TEST(Topology, RlocsGloballyReachable) {
  Internet internet(fig1_spec());
  for (const auto& dom : internet.domains()) {
    for (const auto* xtr : dom.xtrs) {
      const auto delay = internet.network().path_delay(
          internet.core_router().id(), xtr->id());
      ASSERT_TRUE(delay.has_value()) << xtr->name();
    }
  }
}

TEST(Topology, DnsInfrastructureReachableAcrossDomains) {
  Internet internet(fig1_spec());
  // Domain 0's resolver must reach domain 1's authoritative server (the
  // iterative query path crosses both PCEs).
  const auto delay = internet.network().path_delay(
      internet.domain(0).resolver->id(), internet.domain(1).authoritative->id());
  ASSERT_TRUE(delay.has_value());
  EXPECT_GT(*delay, sim::SimDuration::millis(40));  // crosses the core twice
}

TEST(Topology, HostNamesAndDestinations) {
  auto spec = fig1_spec();
  spec.domains = 3;
  Internet internet(spec);
  EXPECT_EQ(internet.host_name(2, 1).to_string(), "h1.d2.example");
  const auto destinations = internet.destination_names(0);
  // 2 hosts x 2 other domains.
  EXPECT_EQ(destinations.size(), 4u);
  for (const auto& name : destinations) {
    EXPECT_EQ(name.to_string().find("d0"), std::string::npos);
  }
}

TEST(Topology, RegistryMatchesSiteRlocs) {
  Internet internet(fig1_spec());
  for (const auto& dom : internet.domains()) {
    const auto* entry = internet.registry().find(dom.eid_prefix);
    ASSERT_NE(entry, nullptr);
    ASSERT_EQ(entry->rlocs.size(), dom.xtrs.size());
    EXPECT_EQ(entry->rlocs[0].priority, 1);  // primary
    EXPECT_EQ(entry->rlocs[1].priority, 2);  // backup
    for (std::size_t j = 0; j < dom.xtrs.size(); ++j) {
      EXPECT_EQ(entry->rlocs[j].address, dom.xtrs[j]->rloc());
    }
  }
}

TEST(Topology, SpecValidation) {
  auto bad = fig1_spec();
  bad.domains = 1;
  EXPECT_THROW(Internet{bad}, std::invalid_argument);
  bad = fig1_spec();
  bad.domains = 1000;
  EXPECT_THROW(Internet{bad}, std::invalid_argument);
  bad = fig1_spec();
  bad.hosts_per_domain = 0;
  EXPECT_THROW(Internet{bad}, std::invalid_argument);
  bad = fig1_spec();
  bad.providers_per_domain = 9;
  EXPECT_THROW(Internet{bad}, std::invalid_argument);
}

TEST(Topology, ControlPlaneNames) {
  EXPECT_STREQ(to_string(ControlPlaneKind::kPce), "lisp-pce");
  EXPECT_STREQ(to_string(ControlPlaneKind::kAltQueue), "lisp-alt(queue)");
  EXPECT_STREQ(to_string(ControlPlaneKind::kPlainIp), "plain-ip");
}

TEST(Topology, PresetsSelectKindAndDefaults) {
  // A preset is the registry's spec defaults for the kind: it selects the
  // kind and applies the per-kind knobs (here, the miss policies that define
  // the ALT variants).
  for (auto kind : mapping::MappingSystemFactory::instance().kinds()) {
    EXPECT_EQ(InternetSpec::preset(kind).kind, kind);
  }
  EXPECT_EQ(InternetSpec::preset(ControlPlaneKind::kAltDrop).miss_policy,
            lisp::MissPolicy::kDrop);
  EXPECT_EQ(InternetSpec::preset(ControlPlaneKind::kAltQueue).miss_policy,
            lisp::MissPolicy::kQueue);
  EXPECT_EQ(InternetSpec::preset(ControlPlaneKind::kAltForward).miss_policy,
            lisp::MissPolicy::kForwardOverlay);
}

TEST(Topology, DeaggregationRegistersSubPrefixes) {
  auto spec = fig1_spec();
  spec.deaggregation_factor = 4;
  spec.hosts_per_domain = 8;
  Internet internet(spec);
  // 2 domains x 4 sub-prefixes.
  EXPECT_EQ(internet.registry().size(), 8u);
  const auto prefixes = internet.site_prefixes(0);
  ASSERT_EQ(prefixes.size(), 4u);
  EXPECT_EQ(prefixes[0].length(), 26);
  // Sub-prefixes tile the /24 exactly.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(internet.domain(0).eid_prefix.contains(prefixes[i]));
    EXPECT_EQ(prefixes[i].address().value(),
              internet.domain(0).eid_prefix.address().value() + i * 64);
  }
  // Hosts are spread so several sub-prefixes carry traffic.
  std::set<net::Ipv4Prefix> covering;
  for (std::size_t h = 0; h < 8; ++h) {
    for (const auto& p : prefixes) {
      if (p.contains(internet.host_eid(0, h))) covering.insert(p);
    }
  }
  EXPECT_GE(covering.size(), 3u);
  // The registry resolves each host to its covering sub-prefix.
  const auto* entry = internet.registry().lookup(internet.host_eid(0, 7));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->eid_prefix.length(), 26);
}

TEST(Topology, DeaggregationValidation) {
  auto bad = fig1_spec();
  bad.deaggregation_factor = 3;  // not a power of two
  EXPECT_THROW(Internet{bad}, std::invalid_argument);
  bad.deaggregation_factor = 128;  // too large
  EXPECT_THROW(Internet{bad}, std::invalid_argument);
}

TEST(Topology, HostEidsMatchDnsZone) {
  auto spec = fig1_spec();
  spec.hosts_per_domain = 4;
  Internet internet(spec);
  for (std::size_t d = 0; d < 2; ++d) {
    for (std::size_t h = 0; h < 4; ++h) {
      EXPECT_EQ(internet.domain(d).hosts[h]->address(), internet.host_eid(d, h));
      const auto* records =
          internet.domain(d).authoritative->zone().find_a(internet.host_name(d, h));
      ASSERT_NE(records, nullptr);
      EXPECT_EQ(records->front().addr, internet.host_eid(d, h));
    }
  }
}

TEST(Topology, BlueprintTablesMatchTheFormulasTheyReplace) {
  const BlueprintShape shape{5, 3, 4};
  const Blueprint blueprint(shape);
  EXPECT_EQ(blueprint.host_name(2, 1).to_string(), "h1.d2.example");
  EXPECT_EQ(blueprint.host_name(4, 0).to_string(), "h0.d4.example");
  ASSERT_EQ(blueprint.site_prefixes(0).size(), 4u);
  EXPECT_EQ(blueprint.site_prefixes(0).front().length(), 26);

  const auto dests = blueprint.destination_names(1);
  ASSERT_EQ(dests.size(), 4u * 3u);  // (domains - 1) * hosts, host-major
  EXPECT_EQ(dests.front().to_string(), "h0.d0.example");
  EXPECT_EQ(dests[1].to_string(), "h0.d2.example");
}

TEST(Topology, LargeTopologyBuildsQuickly) {
  auto spec = InternetSpec::preset(ControlPlaneKind::kAltDrop);
  spec.domains = 128;
  spec.hosts_per_domain = 2;
  spec.providers_per_domain = 2;
  Internet internet(spec);
  // 128 domains x (1 R + 2 xTR + 1 resolver + 1 auth + 2 hosts) + infra.
  EXPECT_GT(internet.network().node_count(), 128u * 7u);
  EXPECT_EQ(internet.registry().size(), 128u);
}

}  // namespace
}  // namespace lispcp::topo
