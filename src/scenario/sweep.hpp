// sweep.hpp — the declarative experiment-sweep API.
//
// The paper's evaluation is a grid of comparative sweeps (control plane ×
// OWD × Zipf skew × cache size × topology size).  Instead of each bench
// hand-rolling a serial for-loop over copied ExperimentConfigs, a bench
// declares the parameter space once and hands it to a runner:
//
//   SweepSpec   — a base ExperimentConfig plus cross-product axes,
//                 expanded into an ordered vector of RunPoints with
//                 deterministic per-point seeds (sim::Rng::derive keyed by
//                 the point's axis coordinates — invariant under axis
//                 reordering and under the runner's thread count).
//   Runner      — executes the points, optionally on a thread pool
//                 (--jobs N).  Every point owns its Simulator/Internet, so
//                 the single-threaded simulation core is untouched; records
//                 land at the point's index, making the output independent
//                 of scheduling.  Measurement is expressed as Probes that
//                 write named fields into the point's Record — no post-hoc
//                 poking at internet() from bench code.
//   ResultSet   — the ordered records with typed fields, renderable as a
//                 metrics::Table (flat or pivoted) and serialisable to
//                 JSON/CSV sinks so CI can archive BENCH_*.json perf
//                 trajectories.
//
// See DESIGN.md §"Running sweeps" for the walkthrough.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "metrics/table.hpp"
#include "scenario/experiment.hpp"
#include "sim/failure.hpp"
#include "workload/traffic.hpp"

namespace lispcp::scenario {

// ---------------------------------------------------------------------------
// Fields and records
// ---------------------------------------------------------------------------

/// One typed cell of a record.  Knows both its table rendering (precision,
/// percent formatting — centralised here instead of per-bench snprintf
/// calls) and its raw JSON value.
class Field {
 public:
  enum class Kind { kInt, kReal, kPercent, kText, kBool };

  static Field integer(std::uint64_t v);
  static Field real(double v, int precision = 2);
  /// A fraction in [0, 1], rendered as "12.34%"; JSON carries the fraction.
  static Field percent(double fraction, int precision = 2);
  static Field text(std::string v);
  static Field boolean(bool v);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint64_t as_int() const noexcept { return int_; }
  [[nodiscard]] double as_real() const noexcept { return real_; }
  [[nodiscard]] const std::string& as_text() const noexcept { return text_; }
  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] int precision() const noexcept { return precision_; }

  /// The numeric value of an int/real/percent field (nan for text/bool);
  /// what replication aggregation averages over.
  [[nodiscard]] double numeric() const noexcept;

  /// The table-cell rendering ("42", "3.14", "12.34%", "yes").
  [[nodiscard]] std::string cell() const;
  /// The JSON value (42, 3.14, 0.1234, "text", true).
  void to_json(std::ostream& os) const;

  friend bool operator==(const Field& a, const Field& b) noexcept;

 private:
  Kind kind_ = Kind::kText;
  std::uint64_t int_ = 0;
  double real_ = 0.0;
  bool bool_ = false;
  int precision_ = 2;
  std::string text_;
};

/// Writes `s` as a JSON string literal (quoted, escaped) to `os`.
void json_escape(std::ostream& os, const std::string& s);

/// One sweep point's results: ordered named fields.  The runner seeds the
/// record with the point's axis coordinates; probes append metric fields.
class Record {
 public:
  /// Pre-sizes the field sink (records are built by appending; callers that
  /// know the coordinate/metric count skip the growth reallocations).
  void reserve(std::size_t fields) { fields_.reserve(fields); }

  void set(std::string name, Field value);
  void set_int(std::string name, std::uint64_t v) { set(std::move(name), Field::integer(v)); }
  void set_real(std::string name, double v, int precision = 2) {
    set(std::move(name), Field::real(v, precision));
  }
  void set_percent(std::string name, double fraction, int precision = 2) {
    set(std::move(name), Field::percent(fraction, precision));
  }
  void set_text(std::string name, std::string v) { set(std::move(name), Field::text(std::move(v))); }
  void set_bool(std::string name, bool v) { set(std::move(name), Field::boolean(v)); }

  [[nodiscard]] const Field* find(const std::string& name) const noexcept;
  [[nodiscard]] const std::vector<std::pair<std::string, Field>>& fields()
      const noexcept {
    return fields_;
  }

  friend bool operator==(const Record& a, const Record& b) noexcept {
    return a.fields_ == b.fields_;
  }

 private:
  std::vector<std::pair<std::string, Field>> fields_;
};

// ---------------------------------------------------------------------------
// Axes and the sweep spec
// ---------------------------------------------------------------------------

/// One named sweep dimension: an ordered list of points, each carrying a
/// display label, a typed coordinate value, and the config mutation it
/// applies.
class Axis {
 public:
  struct Point {
    std::string label;  ///< short display form ("pce", "8", "0.9")
    Field value;        ///< the coordinate recorded into the Record
    std::function<void(ExperimentConfig&)> apply;
  };

  Axis(std::string name, std::vector<Point> points);

  /// Control-plane axis: applies each kind's registry preset onto the
  /// point's spec (sets spec.kind plus the kind's preset defaults, e.g. the
  /// ALT variants' miss policies).  With no explicit list, sweeps the
  /// registry's comparison set — a newly registered system shows up in
  /// every comparative bench without touching it.  `labels`, when given,
  /// overrides the registered display names (index-aligned with `kinds`).
  static Axis control_planes(std::string name = "control plane");
  static Axis control_planes(std::string name,
                             std::vector<topo::ControlPlaneKind> kinds,
                             std::vector<std::string> labels = {});

  /// Integer-valued axis (cache sizes, replica counts, OWDs in ms...).
  static Axis integers(std::string name, std::vector<std::uint64_t> values,
                       std::function<void(ExperimentConfig&, std::uint64_t)> fn);
  /// Real-valued axis (Zipf alpha, rates); `precision` fixes the rendering.
  static Axis reals(std::string name, std::vector<double> values,
                    std::function<void(ExperimentConfig&, double)> fn,
                    int precision = 2);
  /// Catch-all labelled axis (ablation toggles, policies, cold/warm...).
  static Axis labeled(
      std::string name,
      std::vector<std::pair<std::string, std::function<void(ExperimentConfig&)>>>
          points);

  // -- Topology-size axes ---------------------------------------------------
  // First-class sweep dimensions over InternetSpec's shape knobs: every
  // point builds a differently sized Internet, so multi-topology studies
  // (scaling curves over sites, multihoming degree, host population) ride
  // the same Runner as the parameter sweeps.
  static Axis domains(std::vector<std::uint64_t> values,
                      std::string name = "domains");
  static Axis hosts_per_domain(std::vector<std::uint64_t> values,
                               std::string name = "hosts/domain");
  static Axis providers_per_domain(std::vector<std::uint64_t> values,
                                   std::string name = "providers/domain");

  /// Workload-engine axis (packet vs flow-aggregate, workload/traffic.hpp):
  /// the same scenario runs once per engine, so cross-mode parity is a
  /// first-class sweep dimension — check_bench.py's mode_parity guard pairs
  /// points whose coordinates differ only in this "mode" field.  Defaults
  /// to both engines.
  static Axis workload_modes(
      std::vector<workload::Mode> modes = {workload::Mode::kPacket,
                                           workload::Mode::kAggregate},
      std::string name = "mode");

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<Point>& points() const noexcept {
    return points_;
  }

 private:
  std::string name_;
  std::vector<Point> points_;
};

/// One expanded sweep point, ready to run.
struct RunPoint {
  std::size_t index = 0;       ///< position in expansion order
  std::uint64_t seed = 0;      ///< the seed config.spec.seed was set to
  std::string series;          ///< joined coordinate labels ("pce / 8")
  /// Replication group (the pre-replication point index) and the replica's
  /// position within it.  Without replications: group == index, replica 0.
  std::size_t group = 0;
  std::size_t replica = 0;
  /// Axis-name -> coordinate value, in axis declaration order.  The runner
  /// copies these into the record as its leading fields ("replica" is
  /// appended when the spec replicates).
  std::vector<std::pair<std::string, Field>> coordinates;
  ExperimentConfig config;
};

/// How per-point seeds are assigned.
enum class SeedMode {
  /// Every point runs the spec's base seed verbatim: identical workloads
  /// across points, the paired-comparison discipline of the comparative
  /// benches (control planes judged on the same arrival process).
  kShared,
  /// Each point's seed is sim::Rng::derive_seed(base seed, stream id) where
  /// the stream id hashes the point's (axis name, label) coordinates with
  /// an order-independent combine — reordering axes, filtering points, or
  /// changing the runner's job count never changes a point's seed.
  kPerPoint,
};

/// A declarative parameter space over ExperimentConfig.
class SweepSpec {
 public:
  SweepSpec() = default;
  explicit SweepSpec(ExperimentConfig base) : base_(std::move(base)) {}

  /// Canonical starting configs shared by the comparative benches (the
  /// former per-bench base_config() copies).  Cold-resolution: tiny cache
  /// and TTL so nearly every session resolves and the T_map term is
  /// visible.  Steady-state: moderate cache/TTL where hit ratios and drop
  /// behaviour differentiate the control planes.
  static SweepSpec cold_resolution();
  static SweepSpec steady_state();

  SweepSpec& named(std::string name);
  /// Mutates the base config (applied before any axis).
  SweepSpec& base(const std::function<void(ExperimentConfig&)>& fn);
  /// Adds a cross-product axis.  The first axis varies slowest (outermost
  /// loop of the equivalent nested for-loops).
  SweepSpec& axis(Axis a);
  /// Per-point adjustment applied after all axis mutations (e.g. a miss
  /// policy that depends on the control plane the axis just selected).
  SweepSpec& tweak(std::function<void(ExperimentConfig&)> fn);
  SweepSpec& seed_mode(SeedMode mode);
  /// Expands every point into `n` seed-derived replicas (multi-seed
  /// replication: error bars instead of single draws).  Replica 0 keeps
  /// the point's seed-mode seed, replica r > 0 runs
  /// sim::Rng::derive_seed(point seed, r) — so replications(1) is the
  /// identity and replica seeds are stable under axis reordering,
  /// filtering, and the runner's job count.  Records gain a trailing
  /// "replica" coordinate; ResultSet::aggregate() folds the replicas into
  /// mean/stddev/min/max columns.
  SweepSpec& replications(std::size_t n);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const ExperimentConfig& base_config() const noexcept {
    return base_;
  }

  /// Expands the axes into the ordered point vector.
  [[nodiscard]] std::vector<RunPoint> expand() const;

 private:
  /// Throws if an axis named `name` was already added.
  void require_fresh_name(const std::string& name) const;

  std::string name_ = "sweep";
  ExperimentConfig base_;
  std::vector<Axis> axes_;
  std::vector<std::function<void(ExperimentConfig&)>> tweaks_;
  SeedMode seed_mode_ = SeedMode::kShared;
  std::size_t replications_ = 1;
};

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

/// Per-point measurement hooks.  The runner constructs one probe instance
/// per point (via the registered factory), so stateful probes — open a link
/// window before the run, read it after — need no locking.
class Probe {
 public:
  virtual ~Probe() = default;
  /// After the Experiment (and its Internet) is constructed, before run().
  virtual void on_configured(Experiment& experiment, const RunPoint& point);
  /// After run(); write named metric fields into the record.
  virtual void on_finished(Experiment& experiment, const RunPoint& point,
                           Record& record) = 0;
};

/// Executes the point's ExperimentConfig::failure plan: schedules the link
/// outage (or renewal outage process) and, when the plan asks for it, arms
/// the domain's FailoverController — then reports the standard recovery
/// metrics ("link-down drops"; with a controller, "flows re-pushed",
/// "hellos sent" and, for one-shot outages, "detect ms" against the
/// analytic "bound ms"; for renewal processes, "outages").  Fields the plan
/// does not produce are simply absent, so mixed arms pivot cleanly.
class FailureProbe final : public Probe {
 public:
  void on_configured(Experiment& experiment, const RunPoint& point) override;
  void on_finished(Experiment& experiment, const RunPoint& point,
                   Record& record) override;

  /// The factory benches hand to Runner::probe_factory.
  static std::unique_ptr<Probe> make() { return std::make_unique<FailureProbe>(); }

 private:
  std::unique_ptr<sim::FailureSchedule> schedule_;
};

// ---------------------------------------------------------------------------
// Result set
// ---------------------------------------------------------------------------

/// The ordered records of one executed sweep.
class ResultSet {
 public:
  ResultSet() = default;
  ResultSet(std::string name, std::vector<RunPoint> points,
            std::vector<Record> records);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<RunPoint>& points() const noexcept {
    return points_;
  }
  [[nodiscard]] const std::vector<Record>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// True when the set carries multi-seed replicas (any point's replica
  /// index is non-zero).
  [[nodiscard]] bool replicated() const noexcept;

  /// Folds each replication group into one record: coordinate fields (and
  /// the "replica" index) pass through from replica 0, a "replicas" count
  /// is added, every numeric metric becomes four columns — "<name> mean",
  /// "<name> sd" (sample stddev), "<name> min", "<name> max" — and
  /// non-numeric metrics copy replica 0's value.  The identity when the
  /// set is not replicated.
  [[nodiscard]] ResultSet aggregate() const;

  /// Flat rendering: one row per record; columns are the union of field
  /// names in first-appearance order (missing fields render empty).
  [[nodiscard]] metrics::Table table() const;

  /// Pivoted rendering: one row per distinct `row_field` value, one column
  /// group per distinct `col_field` value.  Within a group, one column per
  /// requested value field that at least one record of that group carries
  /// (so asymmetric groups — extra PCE-only metrics — only add columns
  /// where they exist).  Headers are "<col> <field>", or just "<col>" when
  /// a single value field is requested.
  [[nodiscard]] metrics::Table pivot(
      const std::string& row_field, const std::string& col_field,
      const std::vector<std::string>& value_fields) const;

  /// JSON sink: {"name": ..., "points": [{"index", "seed", "series",
  /// "fields": {...}}, ...]}.  Field values keep their JSON types.  A
  /// replicated set additionally carries "aggregates": one entry per
  /// replication group with {"series", "group", "n", "fields": {name:
  /// {"mean", "sd", "min", "max"}}} — the error bars CI archives.
  void to_json(std::ostream& os) const;
  /// CSV sink (via metrics::Table::to_csv on the flat rendering).
  void to_csv(std::ostream& os) const;

  friend bool operator==(const ResultSet& a, const ResultSet& b) noexcept;

 private:
  std::string name_ = "sweep";
  std::vector<RunPoint> points_;
  std::vector<Record> records_;
};

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

struct RunOptions {
  /// Worker threads; each point owns its Simulator/Internet so points are
  /// embarrassingly parallel.  Records land at their point's index — output
  /// is byte-identical for any job count.
  std::size_t jobs = 1;
  /// When non-empty, only points whose series label contains this substring
  /// (compared case-insensitively, e.g. "pce" or "PCE") run.  Filtering
  /// never changes a surviving point's seed.
  std::string filter;
};

/// Executes a SweepSpec's points and collects the ResultSet.
class Runner {
 public:
  explicit Runner(SweepSpec spec) : spec_(std::move(spec)) {}

  /// Registers a stateless measurement: called after each point's run()
  /// with the finished experiment and the point's record.
  Runner& probe(std::function<void(Experiment&, const RunPoint&, Record&)> fn);
  /// Registers a stateful probe: the factory runs once per point.
  Runner& probe_factory(std::function<std::unique_ptr<Probe>()> factory);

  /// Replaces the default point execution (build an Experiment, run the
  /// workload, fire the probes) with a custom executor.  The adapter path
  /// for studies that build their own world instead of an Experiment —
  /// the DFZ/BGP studies of bench f2 (scenario/dfz_adapter.hpp).  The
  /// executor receives the expanded point (axis mutations applied) and
  /// writes metric fields into the record; coordinates are pre-seeded.
  /// Probes are not invoked on this path.
  Runner& execute(std::function<void(const RunPoint&, Record&)> executor);

  [[nodiscard]] const SweepSpec& spec() const noexcept { return spec_; }

  /// Runs all (filtered) points and returns their records in point order.
  [[nodiscard]] ResultSet run(const RunOptions& options = {}) const;

 private:
  /// Throws when an executor is already set (probes would never run).
  void require_no_executor() const;

  SweepSpec spec_;
  std::vector<std::function<std::unique_ptr<Probe>()>> probe_factories_;
  std::function<void(const RunPoint&, Record&)> executor_;
};

}  // namespace lispcp::scenario
