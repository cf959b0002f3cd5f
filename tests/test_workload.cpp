// Workload model tests: host session state machine, SYN retransmission
// recovery, metrics accounting, traffic generation rates.
#include <gtest/gtest.h>

#include "scenario/experiment.hpp"
#include "workload/generator.hpp"

namespace lispcp::workload {
namespace {

scenario::ExperimentConfig plain_config() {
  scenario::ExperimentConfig config;
  config.spec = topo::InternetSpec::preset(topo::ControlPlaneKind::kPlainIp);
  config.spec.domains = 3;
  config.spec.hosts_per_domain = 2;
  config.spec.seed = 21;
  config.traffic.sessions_per_second = 20;
  config.traffic.duration = sim::SimDuration::seconds(10);
  return config;
}

TEST(Workload, SessionLifecycleAccounting) {
  scenario::Experiment experiment(plain_config());
  const auto summary = experiment.run();
  ASSERT_GT(summary.sessions, 100u);
  EXPECT_EQ(summary.established, summary.sessions);
  EXPECT_EQ(summary.completed, summary.sessions);
  EXPECT_EQ(summary.dns_failures, 0u);
  EXPECT_EQ(summary.connect_failures, 0u);
  // T_dns < T_setup always (setup includes the handshake).
  EXPECT_LT(summary.t_dns_mean_ms, summary.t_setup_mean_ms);
}

TEST(Workload, SetupMatchesPaperFormula) {
  // §1: T_setup = T_DNS + 2·OWD(S,D) + OWD(D,S) for the pre-LISP Internet.
  scenario::Experiment experiment(plain_config());
  const auto summary = experiment.run();
  auto& internet = experiment.internet();
  const double owd_ms = internet.owd(0, 1).ms();
  const double expected_ms = summary.t_dns_mean_ms + 3.0 * owd_ms;
  // Allow processing delays and the host->ITR leg asymmetry a small margin.
  EXPECT_NEAR(summary.t_setup_mean_ms, expected_ms, expected_ms * 0.05);
}

TEST(Workload, ServerStatsCountDataAndResponses) {
  scenario::Experiment experiment(plain_config());
  const auto summary = experiment.run();
  std::uint64_t data_received = 0;
  std::uint64_t responses_sent = 0;
  for (auto& dom : experiment.internet().domains()) {
    for (auto* host : dom.hosts) {
      data_received += host->stats().data_packets_received;
      responses_sent += host->stats().responses_sent;
    }
  }
  // 4 data packets per session, each answered.
  EXPECT_EQ(data_received, summary.sessions * 4);
  EXPECT_EQ(responses_sent, data_received);
}

TEST(Workload, GeneratorHonoursMaxSessions) {
  auto config = plain_config();
  config.traffic.max_sessions = 17;
  scenario::Experiment experiment(config);
  const auto summary = experiment.run();
  EXPECT_EQ(summary.sessions, 17u);
}

TEST(Workload, GeneratorRateIsApproximatelyPoisson) {
  auto config = plain_config();
  config.traffic.sessions_per_second = 50;
  config.traffic.duration = sim::SimDuration::seconds(40);
  scenario::Experiment experiment(config);
  const auto summary = experiment.run();
  // 50/s over 40 s = 2000 expected; Poisson sd ~ 45.
  EXPECT_NEAR(static_cast<double>(summary.sessions), 2000.0, 150.0);
}

TEST(Workload, GeneratorValidatesInput) {
  sim::Simulator sim;
  sim::Network network(sim);
  auto& client = network.make<Host>("c", net::Ipv4Address(1, 0, 0, 1),
                                    HostConfig{}, nullptr);
  TrafficConfig cfg;
  // Two one-host domains: source 0's only destination is h0.d1.
  const DestinationNames names{
      std::make_shared<const std::vector<dns::DomainName>>(
          std::vector<dns::DomainName>{dns::DomainName::from_string("h0.d0"),
                                       dns::DomainName::from_string("h0.d1")}),
      DestinationRanks{2, 1, 0},
      std::make_shared<const sim::ZipfDistribution>(1, cfg.zipf_alpha)};
  EXPECT_NO_THROW(TrafficGenerator(sim, {&client}, names, cfg, sim::Rng(1)));
  EXPECT_THROW(TrafficGenerator(sim, {}, names, cfg, sim::Rng(1)),
               std::invalid_argument);
  auto mismatched = names;
  mismatched.zipf = std::make_shared<const sim::ZipfDistribution>(2, 0.9);
  EXPECT_THROW(TrafficGenerator(sim, {&client}, mismatched, cfg, sim::Rng(1)),
               std::invalid_argument);
}

TEST(Workload, ZipfSkewConcentratesDestinations) {
  // With extreme skew nearly every session goes to rank-0; under plain IP
  // that destination's server sees almost all SYNs.
  auto config = plain_config();
  config.traffic.zipf_alpha = 4.0;
  scenario::Experiment experiment(config);
  const auto summary = experiment.run();
  std::uint64_t max_syns = 0;
  for (auto& dom : experiment.internet().domains()) {
    for (auto* host : dom.hosts) {
      max_syns = std::max(max_syns, host->stats().syns_received);
    }
  }
  EXPECT_GT(max_syns, summary.sessions * 8 / 10);
}

TEST(Workload, SynRetransmissionRecoversFromFirstPacketDrop) {
  // Under ALT-drop the first SYN toward a cold destination dies at the ITR;
  // the client's 3 s RTO recovers it, and the session's setup time shows
  // the full penalty.
  auto config = plain_config();
  config.spec = topo::InternetSpec::preset(topo::ControlPlaneKind::kAltDrop);
  config.spec.domains = 3;
  config.spec.hosts_per_domain = 2;
  config.spec.seed = 21;
  config.traffic.sessions_per_second = 1;  // slow: many cold destinations
  config.traffic.duration = sim::SimDuration::seconds(30);
  scenario::Experiment experiment(config);
  const auto summary = experiment.run();
  ASSERT_GT(summary.sessions, 10u);
  EXPECT_GT(summary.syn_retransmissions, 0u);
  EXPECT_EQ(summary.established, summary.sessions);
  // Affected sessions pay >= 3000 ms: visible at the p95/p99 tail.
  EXPECT_GT(summary.t_setup_p99_ms, 3000.0);
  // Unaffected (cache-warm) sessions stay fast.
  EXPECT_LT(summary.t_setup_p50_ms, 200.0);
}

TEST(Workload, RecoveryUnderRandomLoss) {
  // 1% loss on every provider access link: DNS queries are recovered by the
  // resolver's retry logic and SYN/SYN-ACK losses by the client's RTO, so
  // connections still establish; data packets have no retransmission in the
  // model, so some sessions legitimately do not complete their exchange.
  auto config = plain_config();
  config.spec = topo::InternetSpec::preset(topo::ControlPlaneKind::kPce);
  config.spec.domains = 3;
  config.spec.hosts_per_domain = 2;
  config.spec.access_loss = 0.01;
  config.spec.seed = 55;
  config.traffic.sessions_per_second = 20;
  config.traffic.duration = sim::SimDuration::seconds(20);
  config.drain = sim::SimDuration::seconds(120);
  scenario::Experiment experiment(config);
  const auto summary = experiment.run();
  ASSERT_GT(summary.sessions, 200u);
  // Control-plane and handshake recovery: nearly everything establishes.
  EXPECT_GT(summary.established + summary.connect_failures +
                summary.dns_failures,
            summary.sessions * 99 / 100);
  EXPECT_GT(summary.established, summary.sessions * 9 / 10);
  // Loss must actually have occurred for this test to mean anything.
  EXPECT_GT(experiment.internet().network().counters().drops_loss, 0u);
  EXPECT_LE(summary.completed, summary.established);
}

TEST(Workload, MetricsHandshakeRequiresKnownSession) {
  WorkloadMetrics metrics;
  metrics.handshake_complete(999, sim::SimTime::zero());  // unknown id
  EXPECT_EQ(metrics.established(), 0u);
  metrics.session_started(1, sim::SimTime::zero());
  metrics.handshake_complete(1, sim::SimTime::zero() + sim::SimDuration::millis(50));
  EXPECT_EQ(metrics.established(), 1u);
  EXPECT_NEAR(metrics.t_setup().mean(), 50'000.0, 1.0);  // us
}

}  // namespace
}  // namespace lispcp::workload
