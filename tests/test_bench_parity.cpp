// Bench-record parity pins: reduced in-process replicas of the F2, F1 and
// E4 bench sweeps, each run at --jobs 1 vs 4 (and, for the sharded BGP
// engine, --shards 1 vs 8), with the resulting ResultSets compared for
// byte-identical JSON.  This is the perf program's core contract — flat
// RIBs, arena-backed queues and recycled update buffers are allowed to
// change *when* work happens, never *what* the records say — pinned where
// a failure bisects in-process instead of as a CI artifact diff.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "scenario/dfz_adapter.hpp"
#include "scenario/sweep.hpp"

namespace lispcp::scenario {
namespace {

using topo::ControlPlaneKind;

/// Serialises a ResultSet the same way the bench --json sink does, so
/// "byte-identical" here means the same thing CI's artifact diff means.
std::string json_bytes(const ResultSet& results) {
  std::ostringstream os;
  results.to_json(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// F2 — DFZ scaling on the sharded BGP convergence engine
// ---------------------------------------------------------------------------

/// A scaled-down F2a: both addressing scenarios across two stub-site
/// counts, exactly the bench's axes with smaller values.
SweepSpec f2_mini(std::size_t shards) {
  SweepSpec spec;
  spec.named("F2-mini")
      .base([](ExperimentConfig& config) {
        config.dfz.internet.tier1_count = 3;
        config.dfz.internet.transit_count = 4;
        config.dfz.internet.providers_per_stub = 2;
        config.dfz.internet.seed = 7;
        config.spec.seed = config.dfz.internet.seed;
      })
      .base(dfz::sharded(shards, 1))
      .axis(dfz::scenarios())
      .axis(dfz::stub_sites({24, 48}));
  return spec;
}

ResultSet run_f2(std::size_t shards, std::size_t jobs) {
  Runner runner(f2_mini(shards));
  runner.execute(dfz::run_study);
  RunOptions options;
  options.jobs = jobs;
  return runner.run(options);
}

TEST(BenchParity, F2RecordsIdenticalAcrossJobsAndShards) {
  const ResultSet baseline = run_f2(/*shards=*/1, /*jobs=*/1);
  ASSERT_FALSE(baseline.records().empty());

  // Partitioning the AS graph across 8 shards and fanning points across 4
  // worker threads must not perturb one byte of the emitted records.
  const ResultSet sharded = run_f2(/*shards=*/8, /*jobs=*/1);
  const ResultSet parallel = run_f2(/*shards=*/1, /*jobs=*/4);
  const ResultSet both = run_f2(/*shards=*/8, /*jobs=*/4);

  const std::string want = json_bytes(baseline);
  EXPECT_EQ(baseline, sharded);
  EXPECT_EQ(baseline, parallel);
  EXPECT_EQ(baseline, both);
  EXPECT_EQ(want, json_bytes(sharded));
  EXPECT_EQ(want, json_bytes(parallel));
  EXPECT_EQ(want, json_bytes(both));
}

TEST(BenchParity, F2ChurnRecordsIdenticalAcrossShards) {
  auto churn = [](std::size_t shards) {
    SweepSpec spec;
    spec.named("F2-churn-mini")
        .base([](ExperimentConfig& config) {
          config.dfz.internet.tier1_count = 3;
          config.dfz.internet.transit_count = 4;
          config.dfz.internet.stub_count = 24;
          config.dfz.internet.providers_per_stub = 2;
          config.dfz.internet.seed = 7;
          config.spec.seed = config.dfz.internet.seed;
        })
        .base(dfz::sharded(shards, 1))
        .axis(dfz::scenarios());
    Runner runner(std::move(spec));
    runner.execute(dfz::run_churn);
    return runner.run();
  };
  const ResultSet one = churn(1);
  const ResultSet eight = churn(8);
  ASSERT_FALSE(one.records().empty());
  EXPECT_EQ(one, eight);
  EXPECT_EQ(json_bytes(one), json_bytes(eight));
}

// ---------------------------------------------------------------------------
// F1 / E4 — simulator-backed sweeps (flat RIB + arena path)
// ---------------------------------------------------------------------------

/// A scaled-down F1a: de-aggregation axis crossed with two control planes
/// on the bench's topology shape, with a shorter workload.
ResultSet run_f1(std::size_t jobs) {
  SweepSpec spec;
  spec.named("F1-mini")
      .base([](ExperimentConfig& config) {
        config.spec.domains = 8;
        config.spec.hosts_per_domain = 4;
        config.spec.providers_per_domain = 2;
        config.spec.cache_capacity = 24;
        config.spec.mapping_ttl_seconds = 120;
        config.spec.seed = 12;
        config.traffic.sessions_per_second = 20;
        config.traffic.duration = sim::SimDuration::seconds(5);
        config.traffic.zipf_alpha = 0.8;
        config.drain = sim::SimDuration::seconds(10);
      })
      .axis(Axis::integers("deagg factor", {1, 4},
                           [](ExperimentConfig& config, std::uint64_t v) {
                             config.spec.deaggregation_factor =
                                 static_cast<std::size_t>(v);
                           }))
      .axis(Axis::control_planes(
          "control plane",
          {ControlPlaneKind::kAltDrop, ControlPlaneKind::kPce}));
  Runner runner(std::move(spec));
  runner.probe([](Experiment& experiment, const RunPoint&, Record& record) {
    const auto s = experiment.summary();
    record.set_int("sessions", s.sessions);
    record.set_int("drops", s.miss_drops);
    record.set_int("encapsulated", s.encapsulated);
    record.set_real("t_setup mean (ms)", s.t_setup_mean_ms);
  });
  RunOptions options;
  options.jobs = jobs;
  return runner.run(options);
}

TEST(BenchParity, F1RecordsIdenticalAcrossJobs) {
  const ResultSet serial = run_f1(1);
  const ResultSet parallel = run_f1(4);
  ASSERT_FALSE(serial.records().empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(json_bytes(serial), json_bytes(parallel));
}

/// A scaled-down E4a: the ingress-TE policy comparison on the bench's
/// topology shape.  Probe fields come from the summary rather than the
/// bench's link-window probe — parity is about record stability, and the
/// summary path crosses every subsystem the perf work touched.
ResultSet run_e4(std::size_t jobs) {
  SweepSpec spec;
  spec.named("E4-mini")
      .base([](ExperimentConfig& config) {
        config.spec.domains = 10;
        config.spec.hosts_per_domain = 2;
        config.spec.providers_per_domain = 2;
        config.spec.seed = 4;
        config.traffic.sessions_per_second = 30;
        config.traffic.duration = sim::SimDuration::seconds(5);
        config.traffic.zipf_alpha = 0.8;
        config.drain = sim::SimDuration::seconds(10);
      })
      .axis(Axis::control_planes(
          "control plane",
          {ControlPlaneKind::kAltQueue, ControlPlaneKind::kPce}));
  Runner runner(std::move(spec));
  runner.probe([](Experiment& experiment, const RunPoint&, Record& record) {
    const auto s = experiment.summary();
    record.set_int("sessions", s.sessions);
    record.set_int("established", s.established);
    record.set_int("encapsulated", s.encapsulated);
    record.set_real("t_dns mean (ms)", s.t_dns_mean_ms);
    record.set_real("t_setup p99 (ms)", s.t_setup_p99_ms);
  });
  RunOptions options;
  options.jobs = jobs;
  return runner.run(options);
}

TEST(BenchParity, E4RecordsIdenticalAcrossJobs) {
  const ResultSet serial = run_e4(1);
  const ResultSet parallel = run_e4(4);
  ASSERT_FALSE(serial.records().empty());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(json_bytes(serial), json_bytes(parallel));
}

}  // namespace
}  // namespace lispcp::scenario
