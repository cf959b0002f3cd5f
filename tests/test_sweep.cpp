// Sweep-API tests: expansion order and seed stability, parallel/serial
// record identity, probe field plumbing, pivot rendering, and the JSON
// sink's round-trip fidelity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "scenario/sweep.hpp"
#include "sim/rng.hpp"

namespace lispcp::scenario {
namespace {

using topo::ControlPlaneKind;

/// A small but real sweep: 2 control planes x 2 cache sizes on a tiny
/// topology (fast enough for CI, large enough to exercise the machinery).
SweepSpec tiny_sweep() {
  auto spec = SweepSpec::steady_state();
  spec.named("tiny")
      .base([](ExperimentConfig& config) {
        config.spec.domains = 4;
        config.spec.seed = 7;
        config.traffic.sessions_per_second = 10;
        config.traffic.duration = sim::SimDuration::seconds(5);
        config.drain = sim::SimDuration::seconds(10);
      })
      .axis(Axis::control_planes(
          "control plane", {ControlPlaneKind::kAltDrop, ControlPlaneKind::kPce}))
      .axis(Axis::integers("cache entries", {2, 8},
                           [](ExperimentConfig& config, std::uint64_t v) {
                             config.spec.cache_capacity = v;
                           }));
  return spec;
}

Runner tiny_runner() {
  Runner runner(tiny_sweep());
  runner.probe([](Experiment& experiment, const RunPoint&, Record& record) {
    const auto s = experiment.summary();
    record.set_int("sessions", s.sessions);
    record.set_int("drops", s.miss_drops);
    record.set_real("t_setup mean (ms)", s.t_setup_mean_ms);
    record.set_percent("loss rate", s.first_packet_loss_rate());
    record.set_bool("clean", s.miss_drops == 0);
  });
  return runner;
}

// ---------------------------------------------------------------------------
// Expansion
// ---------------------------------------------------------------------------

TEST(SweepSpec, CrossProductOrderFirstAxisSlowest) {
  const auto points = tiny_sweep().expand();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].series, "lisp-alt(drop) / 2");
  EXPECT_EQ(points[1].series, "lisp-alt(drop) / 8");
  EXPECT_EQ(points[2].series, "lisp-pce / 2");
  EXPECT_EQ(points[3].series, "lisp-pce / 8");
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }
  // Axis mutations actually landed in the configs.
  EXPECT_EQ(points[0].config.spec.kind, ControlPlaneKind::kAltDrop);
  EXPECT_EQ(points[0].config.spec.cache_capacity, 2u);
  EXPECT_EQ(points[3].config.spec.kind, ControlPlaneKind::kPce);
  EXPECT_EQ(points[3].config.spec.cache_capacity, 8u);
  // Control-plane axis applies the registry preset (ALT-drop pins kDrop).
  EXPECT_EQ(points[0].config.spec.miss_policy, lisp::MissPolicy::kDrop);
}

TEST(Axis, DuplicateLabelsThrow) {
  // 0.61 and 0.64 both render "0.6" at precision 1; pivot/table rows would
  // silently merge, so the axis refuses the spec.
  EXPECT_THROW(Axis::reals("alpha", {0.61, 0.64},
                           [](ExperimentConfig&, double) {}, /*precision=*/1),
               std::invalid_argument);
}

TEST(Runner, FilterMatchesResolvedControlPlaneName) {
  // The axis uses short labels ("pce"), but the registered name still
  // selects the points (the CLI passes names like "lisp-pce" through).
  auto spec = SweepSpec::steady_state();
  spec.base([](ExperimentConfig& config) {
        config.spec.domains = 4;
        config.traffic.sessions_per_second = 5;
        config.traffic.duration = sim::SimDuration::seconds(2);
        config.drain = sim::SimDuration::seconds(5);
      })
      .axis(Axis::control_planes(
          "control plane", {ControlPlaneKind::kAltDrop, ControlPlaneKind::kPce},
          {"alt", "pce"}));
  Runner runner(std::move(spec));
  RunOptions options;
  options.filter = "lisp-pce";  // not a substring of any series label
  const auto result = runner.run(options);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.points().front().config.spec.kind, ControlPlaneKind::kPce);
  EXPECT_EQ(result.points().front().series, "pce");
}

TEST(SweepSpec, DuplicateAxisNamesThrow) {
  auto spec = SweepSpec::steady_state();
  spec.axis(Axis::integers("cache", {2, 4},
                           [](ExperimentConfig&, std::uint64_t) {}));
  EXPECT_THROW(spec.axis(Axis::integers("cache", {16, 32},
                                        [](ExperimentConfig&, std::uint64_t) {})),
               std::invalid_argument);
}

TEST(SweepSpec, SharedSeedModeKeepsBaseSeed) {
  const auto points = tiny_sweep().expand();
  for (const auto& point : points) {
    EXPECT_EQ(point.seed, 7u);
    EXPECT_EQ(point.config.spec.seed, 7u);
  }
}

TEST(SweepSpec, PerPointSeedsAreStableUnderAxisReordering) {
  auto forward = tiny_sweep();
  forward.seed_mode(SeedMode::kPerPoint);
  // Same axes, declared in the opposite order.
  auto reversed = SweepSpec::steady_state();
  reversed.named("tiny")
      .base([](ExperimentConfig& config) {
        config.spec.domains = 4;
        config.spec.seed = 7;
        config.traffic.sessions_per_second = 10;
        config.traffic.duration = sim::SimDuration::seconds(5);
        config.drain = sim::SimDuration::seconds(10);
      })
      .axis(Axis::integers("cache entries", {2, 8},
                           [](ExperimentConfig& config, std::uint64_t v) {
                             config.spec.cache_capacity = v;
                           }))
      .axis(Axis::control_planes(
          "control plane", {ControlPlaneKind::kAltDrop, ControlPlaneKind::kPce}))
      .seed_mode(SeedMode::kPerPoint);

  const auto a = forward.expand();
  const auto b = reversed.expand();
  ASSERT_EQ(a.size(), b.size());
  // Points pair up by coordinate set, in a different order; each pair must
  // carry the same derived seed.
  for (const auto& pa : a) {
    bool matched = false;
    for (const auto& pb : b) {
      if (pb.config.spec.kind == pa.config.spec.kind &&
          pb.config.spec.cache_capacity == pa.config.spec.cache_capacity) {
        EXPECT_EQ(pa.seed, pb.seed) << pa.series;
        matched = true;
      }
    }
    EXPECT_TRUE(matched) << pa.series;
  }
  // Distinct points get distinct seeds, all different from the base seed.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NE(a[i].seed, 7u);
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_NE(a[i].seed, a[j].seed);
    }
  }
}

TEST(Rng, DeriveIsDrawCountIndependent) {
  sim::Rng a(42);
  sim::Rng b(42);
  (void)b.uniform();
  (void)b.uniform_int(0, 100);
  const auto da = a.derive(5);
  const auto db = b.derive(5);
  EXPECT_EQ(da.seed(), db.seed());
  EXPECT_NE(da.seed(), a.derive(6).seed());
  EXPECT_EQ(sim::Rng::derive_seed(42, 5), da.seed());
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

TEST(Runner, ParallelMatchesSerialByteForByte) {
  RunOptions serial;
  serial.jobs = 1;
  RunOptions parallel;
  parallel.jobs = 4;
  const auto a = tiny_runner().run(serial);
  const auto b = tiny_runner().run(parallel);
  ASSERT_EQ(a.records().size(), 4u);
  EXPECT_TRUE(a == b);
  // Belt and braces: the serialised artifacts are byte-identical too.
  std::ostringstream ja, jb, ca, cb;
  a.to_json(ja);
  b.to_json(jb);
  a.to_csv(ca);
  b.to_csv(cb);
  EXPECT_EQ(ja.str(), jb.str());
  EXPECT_EQ(ca.str(), cb.str());
}

TEST(Runner, CoordinatesLeadTheRecord) {
  RunOptions options;
  const auto result = tiny_runner().run(options);
  const auto& fields = result.records().front().fields();
  ASSERT_GE(fields.size(), 3u);
  EXPECT_EQ(fields[0].first, "control plane");
  EXPECT_EQ(fields[1].first, "cache entries");
  EXPECT_EQ(fields[2].first, "sessions");
  EXPECT_EQ(fields[0].second.as_text(), "lisp-alt(drop)");
  EXPECT_EQ(fields[1].second.as_int(), 2u);
}

TEST(Runner, FilterSelectsMatchingPoints) {
  RunOptions options;
  options.filter = "lisp-pce";
  const auto result = tiny_runner().run(options);
  ASSERT_EQ(result.size(), 2u);
  for (const auto& point : result.points()) {
    EXPECT_EQ(point.config.spec.kind, ControlPlaneKind::kPce);
    // Filtering keeps the point's expansion identity (index, seed).
    EXPECT_GE(point.index, 2u);
  }
}

TEST(Runner, StatefulProbeRunsPerPoint) {
  // A probe that records construction-time state: one instance per point.
  class CountingProbe final : public Probe {
   public:
    void on_configured(Experiment&, const RunPoint& point) override {
      configured_index_ = point.index;
    }
    void on_finished(Experiment&, const RunPoint& point, Record& record) override {
      record.set_int("probe saw", configured_index_);
      record.set_bool("consistent", configured_index_ == point.index);
    }

   private:
    std::size_t configured_index_ = ~0ull;
  };
  Runner runner(tiny_sweep());
  runner.probe_factory([] { return std::make_unique<CountingProbe>(); });
  RunOptions options;
  options.jobs = 4;
  const auto result = runner.run(options);
  for (std::size_t i = 0; i < result.size(); ++i) {
    const Field* consistent = result.records()[i].find("consistent");
    ASSERT_NE(consistent, nullptr);
    EXPECT_TRUE(consistent->as_bool()) << i;
    EXPECT_EQ(result.records()[i].find("probe saw")->as_int(), i);
  }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

TEST(ResultSet, FlatTableUsesFirstAppearanceColumnOrder) {
  const auto result = tiny_runner().run({});
  const auto table = result.table();
  ASSERT_GE(table.headers().size(), 4u);
  EXPECT_EQ(table.headers()[0], "control plane");
  EXPECT_EQ(table.headers()[1], "cache entries");
  EXPECT_EQ(table.rows(), 4u);
}

TEST(ResultSet, PivotGroupsRowsAndColumns) {
  const auto result = tiny_runner().run({});
  const auto table =
      result.pivot("cache entries", "control plane", {"drops", "sessions"});
  // Rows: 2 cache sizes.  Columns: row field + 2 planes x 2 value fields.
  EXPECT_EQ(table.rows(), 2u);
  ASSERT_EQ(table.headers().size(), 5u);
  EXPECT_EQ(table.headers()[0], "cache entries");
  EXPECT_EQ(table.headers()[1], "lisp-alt(drop) drops");
  EXPECT_EQ(table.headers()[2], "lisp-alt(drop) sessions");
  EXPECT_EQ(table.headers()[3], "lisp-pce drops");
  EXPECT_EQ(table.headers()[4], "lisp-pce sessions");
}

TEST(ResultSet, PivotOmitsColumnsNoRecordCarries) {
  const auto result = tiny_runner().run({});
  const auto table = result.pivot("cache entries", "control plane",
                                  {"drops", "no such field"});
  ASSERT_EQ(table.headers().size(), 3u);  // row field + one per plane
  EXPECT_EQ(table.headers()[1], "lisp-alt(drop)" + std::string(" drops"));
}

// ---------------------------------------------------------------------------
// JSON sink round-trip
// ---------------------------------------------------------------------------

/// Minimal JSON reader for the sink's known output shape (objects, arrays,
/// strings with escapes, numbers, booleans) — just enough to verify the
/// round trip without a JSON dependency.
class MiniJson {
 public:
  explicit MiniJson(std::string text) : text_(std::move(text)) {}

  /// Value of `"name": <scalar>` at the i-th occurrence of the key.
  std::string scalar_after(const std::string& key, std::size_t occurrence = 0) {
    const std::string needle = "\"" + key + "\":";
    std::size_t pos = 0;
    for (std::size_t i = 0; i <= occurrence; ++i) {
      pos = text_.find(needle, pos);
      if (pos == std::string::npos) return "<missing>";
      pos += needle.size();
    }
    while (pos < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos]))) ++pos;
    if (pos >= text_.size()) return "<missing>";
    if (text_[pos] == '"') return parse_string(pos);
    std::size_t end = pos;
    while (end < text_.size() &&
           std::string(",}]\n ").find(text_[end]) == std::string::npos) {
      ++end;
    }
    return text_.substr(pos, end - pos);
  }

 private:
  std::string parse_string(std::size_t pos) {
    std::string out;
    ++pos;  // opening quote
    while (pos < text_.size() && text_[pos] != '"') {
      if (text_[pos] == '\\' && pos + 1 < text_.size()) {
        ++pos;
        switch (text_[pos]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: out += text_[pos];
        }
      } else {
        out += text_[pos];
      }
      ++pos;
    }
    return out;
  }

  std::string text_;
};

TEST(ResultSet, JsonRoundTripsFieldNamesAndValues) {
  std::vector<RunPoint> points(1);
  points[0].index = 3;
  points[0].seed = 99;
  points[0].series = "pce / 8";
  Record record;
  record.set_text("control plane", "lisp-pce");
  record.set_int("drops", 42);
  record.set_real("t (ms)", 1.5);
  record.set_percent("share", 0.25);
  record.set_bool("clean", true);
  record.set_text("notes", "quote \" and, comma");
  ResultSet result("roundtrip", std::move(points), {record});

  std::ostringstream os;
  result.to_json(os);
  MiniJson json(os.str());
  EXPECT_EQ(json.scalar_after("name"), "roundtrip");
  EXPECT_EQ(json.scalar_after("index"), "3");
  EXPECT_EQ(json.scalar_after("seed"), "99");
  EXPECT_EQ(json.scalar_after("series"), "pce / 8");
  EXPECT_EQ(json.scalar_after("control plane"), "lisp-pce");
  EXPECT_EQ(json.scalar_after("drops"), "42");
  EXPECT_EQ(json.scalar_after("t (ms)"), "1.5");
  EXPECT_EQ(json.scalar_after("share"), "0.25");
  EXPECT_EQ(json.scalar_after("clean"), "true");
  EXPECT_EQ(json.scalar_after("notes"), "quote \" and, comma");
}

TEST(Field, CellRendering) {
  EXPECT_EQ(Field::integer(42).cell(), "42");
  EXPECT_EQ(Field::real(3.14159, 2).cell(), "3.14");
  EXPECT_EQ(Field::real(3.14159, 3).cell(), "3.142");
  EXPECT_EQ(Field::percent(0.5).cell(), "50.00%");
  EXPECT_EQ(Field::boolean(true).cell(), "yes");
  EXPECT_EQ(Field::text("x").cell(), "x");
}

TEST(Record, SetReplacesInPlace) {
  Record record;
  record.set_int("a", 1);
  record.set_int("b", 2);
  record.set_int("a", 3);  // overwrite keeps position
  ASSERT_EQ(record.fields().size(), 2u);
  EXPECT_EQ(record.fields()[0].first, "a");
  EXPECT_EQ(record.fields()[0].second.as_int(), 3u);
}

// ---------------------------------------------------------------------------
// Multi-seed replication
// ---------------------------------------------------------------------------

TEST(SweepSpec, ReplicationsExpandEachPointIntoSeedDerivedReplicas) {
  auto spec = tiny_sweep();
  spec.seed_mode(SeedMode::kPerPoint).replications(3);
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 12u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].group, i / 3);
    EXPECT_EQ(points[i].replica, i % 3);
    // Replicas share the series (and so the filter behaviour) but carry a
    // trailing "replica" coordinate.
    EXPECT_EQ(points[i].series, points[i - i % 3].series);
    ASSERT_FALSE(points[i].coordinates.empty());
    EXPECT_EQ(points[i].coordinates.back().first, "replica");
    EXPECT_EQ(points[i].coordinates.back().second.as_int(), i % 3);
  }
  // Replica 0 keeps the point seed; later replicas derive from it.
  const auto unreplicated = tiny_sweep().seed_mode(SeedMode::kPerPoint).expand();
  for (std::size_t g = 0; g < unreplicated.size(); ++g) {
    EXPECT_EQ(points[3 * g].seed, unreplicated[g].seed);
    EXPECT_EQ(points[3 * g + 1].seed,
              sim::Rng::derive_seed(unreplicated[g].seed, 1));
    EXPECT_EQ(points[3 * g + 2].seed,
              sim::Rng::derive_seed(unreplicated[g].seed, 2));
    EXPECT_NE(points[3 * g + 1].seed, points[3 * g].seed);
    EXPECT_EQ(points[3 * g + 1].config.dfz.internet.seed,
              points[3 * g + 1].seed);
  }
}

TEST(SweepSpec, ReplicationsOfOneIsTheIdentity) {
  const auto base = tiny_sweep().expand();
  auto spec = tiny_sweep();
  spec.replications(1);
  const auto same = spec.expand();
  ASSERT_EQ(same.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(same[i].seed, base[i].seed);
    EXPECT_EQ(same[i].series, base[i].series);
    EXPECT_EQ(same[i].coordinates.size(), base[i].coordinates.size());
  }
  EXPECT_THROW(spec.replications(0), std::invalid_argument);
}

TEST(SweepSpec, ReplicaAxisNameCollisionThrows) {
  auto spec = tiny_sweep();
  spec.axis(Axis::integers("replica", {1, 2},
                           [](ExperimentConfig&, std::uint64_t) {}))
      .replications(2);
  EXPECT_THROW(spec.expand(), std::invalid_argument);
}

/// A replicated sweep over a synthetic executor whose "metric" is a pure
/// function of the seed — aggregation math is then exactly checkable.
ResultSet replicated_result() {
  SweepSpec spec;
  spec.named("agg")
      .base([](ExperimentConfig& config) { config.spec.seed = 11; })
      .axis(Axis::integers("x", {1, 2},
                           [](ExperimentConfig&, std::uint64_t) {}))
      .seed_mode(SeedMode::kPerPoint)
      .replications(4);
  Runner runner(std::move(spec));
  runner.execute([](const RunPoint& point, Record& record) {
    record.set_int("value", point.seed % 97);
    record.set_real("half", static_cast<double>(point.seed % 97) / 2.0, 3);
    record.set_text("note", "n" + std::to_string(point.replica));
    if (point.replica == 0) record.set_int("only-once", 5);
  });
  return runner.run();
}

TEST(ResultSet, AggregateFoldsReplicasIntoSpreadColumns) {
  const ResultSet result = replicated_result();
  ASSERT_TRUE(result.replicated());
  ASSERT_EQ(result.size(), 8u);
  const ResultSet agg = result.aggregate();
  ASSERT_EQ(agg.size(), 2u);
  EXPECT_FALSE(agg.replicated());

  for (std::size_t g = 0; g < 2; ++g) {
    const Record& record = agg.records()[g];
    // Coordinates pass through, the replica index does not.
    ASSERT_NE(record.find("x"), nullptr);
    EXPECT_EQ(record.find("replica"), nullptr);
    ASSERT_NE(record.find("replicas"), nullptr);
    EXPECT_EQ(record.find("replicas")->as_int(), 4u);

    // Hand-computed spread over the four seed-derived values.
    double sum = 0.0, lo = 1e99, hi = -1e99;
    std::vector<double> values;
    for (std::size_t r = 0; r < 4; ++r) {
      const double v = static_cast<double>(
          result.records()[4 * g + r].find("value")->as_int());
      values.push_back(v);
      sum += v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double mean = sum / 4.0;
    double m2 = 0.0;
    for (const double v : values) m2 += (v - mean) * (v - mean);
    const double sd = std::sqrt(m2 / 3.0);

    ASSERT_NE(record.find("value mean"), nullptr);
    EXPECT_NEAR(record.find("value mean")->as_real(), mean, 1e-9);
    EXPECT_NEAR(record.find("value sd")->as_real(), sd, 1e-9);
    EXPECT_EQ(record.find("value min")->as_int(),
              static_cast<std::uint64_t>(lo));
    EXPECT_EQ(record.find("value max")->as_int(),
              static_cast<std::uint64_t>(hi));
    // Real metrics keep their precision; text metrics copy replica 0's.
    ASSERT_NE(record.find("half mean"), nullptr);
    EXPECT_NEAR(record.find("half mean")->as_real(), mean / 2.0, 1e-9);
    ASSERT_NE(record.find("note"), nullptr);
    EXPECT_EQ(record.find("note")->as_text(), "n0");
    // A field only some replicas carry aggregates over those that do.
    ASSERT_NE(record.find("only-once mean"), nullptr);
    EXPECT_NEAR(record.find("only-once mean")->as_real(), 5.0, 1e-9);
  }
}

TEST(ResultSet, AggregateIsIdentityWithoutReplicas) {
  Runner runner(tiny_sweep());
  runner.execute([](const RunPoint& point, Record& record) {
    record.set_int("v", point.index);
  });
  const ResultSet result = runner.run();
  EXPECT_FALSE(result.replicated());
  EXPECT_TRUE(result.aggregate() == result);
}

TEST(ResultSet, JsonCarriesAggregatesForReplicatedSets) {
  const ResultSet result = replicated_result();
  std::ostringstream os;
  result.to_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"aggregates\""), std::string::npos);
  EXPECT_NE(json.find("\"mean\""), std::string::npos);
  EXPECT_NE(json.find("\"sd\""), std::string::npos);
  EXPECT_NE(json.find("\"min\""), std::string::npos);
  EXPECT_NE(json.find("\"max\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": 4"), std::string::npos);
  // Coordinates are not error-barred.
  EXPECT_EQ(json.find("\"x\": {\"mean\""), std::string::npos);

  std::ostringstream plain;
  Runner runner(tiny_sweep());
  runner.execute([](const RunPoint&, Record& record) {
    record.set_int("v", 1);
  });
  runner.run().to_json(plain);
  EXPECT_EQ(plain.str().find("aggregates"), std::string::npos)
      << "unreplicated sinks must stay byte-compatible";
}

TEST(Runner, ReplicatedSweepIsJobCountInvariant) {
  auto make = [] {
    SweepSpec spec;
    spec.named("par")
        .base([](ExperimentConfig& config) { config.spec.seed = 3; })
        .axis(Axis::integers("x", {1, 2, 3},
                             [](ExperimentConfig&, std::uint64_t) {}))
        .seed_mode(SeedMode::kPerPoint)
        .replications(3);
    Runner runner(std::move(spec));
    runner.execute([](const RunPoint& point, Record& record) {
      record.set_int("value", point.seed % 1013);
    });
    return runner;
  };
  RunOptions serial;
  RunOptions parallel;
  parallel.jobs = 4;
  EXPECT_TRUE(make().run(serial) == make().run(parallel));
}

}  // namespace
}  // namespace lispcp::scenario
