#include "scenario/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "mapping/mapping_system.hpp"
#include "metrics/histogram.hpp"
#include "sim/rng.hpp"

namespace lispcp::scenario {

namespace {

/// FNV-1a over a string: the coordinate-key hash feeding Rng::derive_seed.
std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string shortest_double(double v) {
  // JSON has no inf/nan literals; null keeps the artifact parseable.
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// ASCII lower-casing for the case-insensitive --filter match.
std::string ascii_lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Field
// ---------------------------------------------------------------------------

Field Field::integer(std::uint64_t v) {
  Field f;
  f.kind_ = Kind::kInt;
  f.int_ = v;
  return f;
}

Field Field::real(double v, int precision) {
  Field f;
  f.kind_ = Kind::kReal;
  f.real_ = v;
  f.precision_ = precision;
  return f;
}

Field Field::percent(double fraction, int precision) {
  Field f;
  f.kind_ = Kind::kPercent;
  f.real_ = fraction;
  f.precision_ = precision;
  return f;
}

Field Field::text(std::string v) {
  Field f;
  f.kind_ = Kind::kText;
  f.text_ = std::move(v);
  return f;
}

Field Field::boolean(bool v) {
  Field f;
  f.kind_ = Kind::kBool;
  f.bool_ = v;
  return f;
}

double Field::numeric() const noexcept {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kReal:
    case Kind::kPercent:
      return real_;
    case Kind::kBool:
    case Kind::kText:
      break;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::string Field::cell() const {
  switch (kind_) {
    case Kind::kInt:
      return metrics::Table::integer(int_);
    case Kind::kReal:
      return metrics::Table::num(real_, precision_);
    case Kind::kPercent:
      return metrics::Table::percent(real_, precision_);
    case Kind::kBool:
      return bool_ ? "yes" : "no";
    case Kind::kText:
      return text_;
  }
  return text_;
}

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void Field::to_json(std::ostream& os) const {
  switch (kind_) {
    case Kind::kInt:
      os << int_;
      return;
    case Kind::kReal:
    case Kind::kPercent:
      os << shortest_double(real_);
      return;
    case Kind::kBool:
      os << (bool_ ? "true" : "false");
      return;
    case Kind::kText:
      json_escape(os, text_);
      return;
  }
}

bool operator==(const Field& a, const Field& b) noexcept {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Field::Kind::kInt:
      return a.int_ == b.int_;
    case Field::Kind::kReal:
    case Field::Kind::kPercent:
      return a.real_ == b.real_ && a.precision_ == b.precision_;
    case Field::Kind::kBool:
      return a.bool_ == b.bool_;
    case Field::Kind::kText:
      return a.text_ == b.text_;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Record
// ---------------------------------------------------------------------------

void Record::set(std::string name, Field value) {
  for (auto& [existing, field] : fields_) {
    if (existing == name) {
      field = std::move(value);
      return;
    }
  }
  fields_.emplace_back(std::move(name), std::move(value));
}

const Field* Record::find(const std::string& name) const noexcept {
  for (const auto& [existing, field] : fields_) {
    if (existing == name) return &field;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Axis
// ---------------------------------------------------------------------------

Axis::Axis(std::string name, std::vector<Point> points)
    : name_(std::move(name)), points_(std::move(points)) {
  if (points_.empty()) {
    throw std::invalid_argument("Axis '" + name_ + "': no points");
  }
  // Labels key the rendered tables (pivot groups by them); two points that
  // format identically would silently merge there, so fail loudly instead.
  for (std::size_t i = 0; i < points_.size(); ++i) {
    for (std::size_t j = i + 1; j < points_.size(); ++j) {
      if (points_[i].label == points_[j].label) {
        throw std::invalid_argument("Axis '" + name_ +
                                    "': duplicate point label '" +
                                    points_[i].label +
                                    "' (raise the axis precision)");
      }
    }
  }
}

Axis Axis::control_planes(std::string name) {
  return control_planes(std::move(name),
                        mapping::MappingSystemFactory::instance().comparison_kinds());
}

Axis Axis::control_planes(std::string name,
                          std::vector<topo::ControlPlaneKind> kinds,
                          std::vector<std::string> labels) {
  if (!labels.empty() && labels.size() != kinds.size()) {
    throw std::invalid_argument("Axis::control_planes: labels/kinds mismatch");
  }
  std::vector<Point> points;
  points.reserve(kinds.size());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    const auto kind = kinds[i];
    std::string label = labels.empty() ? topo::to_string(kind) : labels[i];
    points.push_back(Point{
        label, Field::text(label), [kind](ExperimentConfig& config) {
          mapping::MappingSystemFactory::instance().apply_preset(kind,
                                                                 config.spec);
        }});
  }
  return Axis(std::move(name), std::move(points));
}

Axis Axis::integers(std::string name, std::vector<std::uint64_t> values,
                    std::function<void(ExperimentConfig&, std::uint64_t)> fn) {
  std::vector<Point> points;
  points.reserve(values.size());
  for (const auto v : values) {
    points.push_back(Point{metrics::Table::integer(v), Field::integer(v),
                           [fn, v](ExperimentConfig& config) { fn(config, v); }});
  }
  return Axis(std::move(name), std::move(points));
}

Axis Axis::reals(std::string name, std::vector<double> values,
                 std::function<void(ExperimentConfig&, double)> fn,
                 int precision) {
  std::vector<Point> points;
  points.reserve(values.size());
  for (const auto v : values) {
    points.push_back(Point{metrics::Table::num(v, precision),
                           Field::real(v, precision),
                           [fn, v](ExperimentConfig& config) { fn(config, v); }});
  }
  return Axis(std::move(name), std::move(points));
}

Axis Axis::labeled(
    std::string name,
    std::vector<std::pair<std::string, std::function<void(ExperimentConfig&)>>>
        points) {
  std::vector<Point> out;
  out.reserve(points.size());
  for (auto& [label, fn] : points) {
    out.push_back(Point{label, Field::text(label), std::move(fn)});
  }
  return Axis(std::move(name), std::move(out));
}

Axis Axis::domains(std::vector<std::uint64_t> values, std::string name) {
  return integers(std::move(name), std::move(values),
                  [](ExperimentConfig& config, std::uint64_t v) {
                    config.spec.domains = static_cast<std::size_t>(v);
                  });
}

Axis Axis::hosts_per_domain(std::vector<std::uint64_t> values,
                            std::string name) {
  return integers(std::move(name), std::move(values),
                  [](ExperimentConfig& config, std::uint64_t v) {
                    config.spec.hosts_per_domain = static_cast<std::size_t>(v);
                  });
}

Axis Axis::providers_per_domain(std::vector<std::uint64_t> values,
                                std::string name) {
  return integers(std::move(name), std::move(values),
                  [](ExperimentConfig& config, std::uint64_t v) {
                    config.spec.providers_per_domain =
                        static_cast<std::size_t>(v);
                  });
}

Axis Axis::workload_modes(std::vector<workload::Mode> modes,
                          std::string name) {
  std::vector<Point> points;
  points.reserve(modes.size());
  for (const auto mode : modes) {
    const std::string label = workload::to_string(mode);
    points.push_back(Point{label, Field::text(label),
                           [mode](ExperimentConfig& config) {
                             config.spec.workload_mode = mode;
                           }});
  }
  return Axis(std::move(name), std::move(points));
}

// ---------------------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------------------

SweepSpec SweepSpec::cold_resolution() {
  ExperimentConfig config;
  config.spec.domains = 12;
  config.spec.hosts_per_domain = 2;
  config.spec.providers_per_domain = 2;
  // Tiny cache and TTL: nearly every session resolves, making the mapping
  // resolution term visible.
  config.spec.cache_capacity = 2;
  config.spec.mapping_ttl_seconds = 5;
  config.spec.seed = 2;
  config.traffic.sessions_per_second = 20;
  config.traffic.duration = sim::SimDuration::seconds(30);
  config.traffic.zipf_alpha = 0.7;
  config.drain = sim::SimDuration::seconds(30);
  return SweepSpec(config);
}

SweepSpec SweepSpec::steady_state() {
  ExperimentConfig config;
  config.spec.domains = 16;
  config.spec.hosts_per_domain = 2;
  config.spec.providers_per_domain = 2;
  // Moderate cache/TTL: hit ratios and drop behaviour differentiate the
  // control planes instead of being forced by the configuration.
  config.spec.cache_capacity = 8;
  config.spec.mapping_ttl_seconds = 60;
  config.spec.seed = 8;
  config.traffic.sessions_per_second = 30;
  config.traffic.duration = sim::SimDuration::seconds(30);
  config.drain = sim::SimDuration::seconds(30);
  return SweepSpec(config);
}

SweepSpec& SweepSpec::named(std::string name) {
  name_ = std::move(name);
  return *this;
}

SweepSpec& SweepSpec::base(const std::function<void(ExperimentConfig&)>& fn) {
  fn(base_);
  return *this;
}

SweepSpec& SweepSpec::axis(Axis a) {
  require_fresh_name(a.name());
  axes_.push_back(std::move(a));
  return *this;
}

void SweepSpec::require_fresh_name(const std::string& name) const {
  // Axis names key record coordinates (Record::set overwrites by name) and
  // feed the per-point stream-id hash; a duplicate would silently drop the
  // first axis's coordinate and can collide derived seeds.
  for (const auto& existing : axes_) {
    if (existing.name() == name) {
      throw std::invalid_argument("SweepSpec: duplicate axis name '" + name +
                                  "'");
    }
  }
}

SweepSpec& SweepSpec::tweak(std::function<void(ExperimentConfig&)> fn) {
  tweaks_.push_back(std::move(fn));
  return *this;
}

SweepSpec& SweepSpec::seed_mode(SeedMode mode) {
  seed_mode_ = mode;
  return *this;
}

SweepSpec& SweepSpec::replications(std::size_t n) {
  if (n == 0) {
    throw std::invalid_argument("SweepSpec::replications: n must be >= 1");
  }
  replications_ = n;
  return *this;
}

std::vector<RunPoint> SweepSpec::expand() const {
  std::size_t total = 1;
  for (const auto& axis : axes_) total *= axis.points().size();
  // The replica coordinate would shadow (and its stream id collide with) an
  // axis of the same name.
  if (replications_ > 1) require_fresh_name("replica");

  std::vector<RunPoint> points;
  points.reserve(total * replications_);
  const std::size_t axis_count = axes_.size() + (replications_ > 1 ? 1 : 0);
  std::vector<std::size_t> radix(axes_.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    RunPoint point;
    point.coordinates.reserve(axis_count);
    point.group = index;
    point.config = base_;
    std::uint64_t stream_id = 0;
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      const auto& axis_point = axes_[a].points()[radix[a]];
      axis_point.apply(point.config);
      point.coordinates.emplace_back(axes_[a].name(), axis_point.value);
      if (!point.series.empty()) point.series += " / ";
      point.series += axis_point.label;
      // Order-independent combine (XOR of per-coordinate hashes): the
      // stream id is a function of the coordinate *set*, so reordering
      // axes never changes a point's seed.
      stream_id ^= sim::Rng::splitmix64(fnv1a(axes_[a].name()) ^
                                        sim::Rng::splitmix64(fnv1a(axis_point.label)));
    }
    for (const auto& fn : tweaks_) fn(point.config);
    if (seed_mode_ == SeedMode::kPerPoint) {
      point.config.spec.seed =
          sim::Rng::derive_seed(base_.spec.seed, stream_id);
      // The DFZ adapter path reads its own seed field; keep it in step so
      // per-point seeding means the same thing on both execution paths.
      point.config.dfz.internet.seed = point.config.spec.seed;
    }
    point.seed = point.config.spec.seed;
    // Multi-seed replication: replica 0 keeps the point's seeds, replica
    // r > 0 derives independent streams from them — pure functions of
    // (point seed, r), so unaffected by axis order, filtering, or jobs.
    // The DFZ topology seed derives from its own base, not from
    // spec.seed: the two families stay independently honest even when a
    // config sets one without the other (under kPerPoint they were
    // already equal, so the derived values coincide).
    for (std::size_t r = 0; r < replications_; ++r) {
      RunPoint replica = point;
      replica.index = points.size();
      replica.replica = r;
      if (r > 0) {
        replica.config.spec.seed =
            sim::Rng::derive_seed(point.config.spec.seed, r);
        replica.config.dfz.internet.seed =
            sim::Rng::derive_seed(point.config.dfz.internet.seed, r);
        replica.seed = replica.config.spec.seed;
      }
      if (replications_ > 1) {
        replica.coordinates.emplace_back("replica", Field::integer(r));
      }
      points.push_back(std::move(replica));
    }
    // Advance the mixed-radix counter, last axis fastest (so the first
    // axis is the outermost loop, matching the old hand-written nesting).
    for (std::size_t a = axes_.size(); a-- > 0;) {
      if (++radix[a] < axes_[a].points().size()) break;
      radix[a] = 0;
    }
  }
  return points;
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

void Probe::on_configured(Experiment& experiment, const RunPoint& point) {
  (void)experiment;
  (void)point;
}

void FailureProbe::on_configured(Experiment& experiment, const RunPoint& point) {
  const FailurePlan& plan = point.config.failure;
  auto& internet = experiment.internet();
  // Order matters for determinism: arm the monitors first, then schedule
  // the outage — the exact sequence the hand-written benches used.
  if (plan.arm_failover) {
    internet.arm_failover(plan.domain, plan.health);
  }
  if (!plan.enabled()) return;
  schedule_ = std::make_unique<sim::FailureSchedule>(internet.network());
  sim::Link& link = *internet.domain(plan.domain).provider_links.at(plan.link);
  switch (plan.mode) {
    case FailurePlan::Mode::kLinkOutage:
      schedule_->link_outage(link, plan.fail_at, plan.outage_duration);
      break;
    case FailurePlan::Mode::kRandomOutages:
      schedule_->random_outages(link, plan.until, plan.mtbf, plan.mttr,
                                sim::Rng(plan.process_seed));
      break;
    case FailurePlan::Mode::kNone:
      break;
  }
}

void FailureProbe::on_finished(Experiment& experiment, const RunPoint& point,
                               Record& record) {
  const FailurePlan& plan = point.config.failure;
  auto& internet = experiment.internet();
  record.set_int("link-down drops",
                 internet.network().counters().drops_link_down);
  if (plan.mode == FailurePlan::Mode::kRandomOutages) {
    record.set_int("outages", schedule_ ? schedule_->outages_injected() : 0);
  }
  if (!plan.arm_failover) return;
  const auto* controller = internet.domain(plan.domain).failover.get();
  if (controller == nullptr) return;
  record.set_int("flows re-pushed", controller->stats().flows_repushed);
  std::uint64_t hellos = 0;
  for (std::size_t i = 0; i < controller->monitor_count(); ++i) {
    hellos += controller->monitor(i).stats().hellos_sent;
  }
  record.set_int("hellos sent", hellos);
  // Detection latency is only well-defined for a permanent outage the
  // monitor actually noticed: after a restore last_transition_at() is the
  // up-transition, and before any detection it is still time zero.
  if (plan.mode == FailurePlan::Mode::kLinkOutage &&
      plan.outage_duration <= sim::SimDuration{} &&
      controller->monitor(plan.link).last_transition_at() > plan.fail_at) {
    record.set_real("bound ms", plan.detect_bound_ms(), 0);
    record.set_real(
        "detect ms",
        (controller->monitor(plan.link).last_transition_at() - plan.fail_at)
            .ms(),
        1);
  }
}

namespace {

/// Adapter wrapping a stateless on_finished lambda as a Probe.
class LambdaProbe final : public Probe {
 public:
  explicit LambdaProbe(
      std::function<void(Experiment&, const RunPoint&, Record&)> fn)
      : fn_(std::move(fn)) {}

  void on_finished(Experiment& experiment, const RunPoint& point,
                   Record& record) override {
    fn_(experiment, point, record);
  }

 private:
  std::function<void(Experiment&, const RunPoint&, Record&)> fn_;
};

}  // namespace

// ---------------------------------------------------------------------------
// ResultSet
// ---------------------------------------------------------------------------

namespace {

/// Record indices per replication group, groups in first-appearance order.
std::vector<std::vector<std::size_t>> replication_groups(
    const std::vector<RunPoint>& points) {
  std::vector<std::size_t> ids;
  std::vector<std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::size_t g = ids.size();
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (ids[k] == points[i].group) {
        g = k;
        break;
      }
    }
    if (g == ids.size()) {
      ids.push_back(points[i].group);
      members.emplace_back();
    }
    members[g].push_back(i);
  }
  return members;
}

bool is_coordinate_of(const RunPoint& point, const std::string& name) {
  for (const auto& [coordinate, value] : point.coordinates) {
    (void)value;
    if (coordinate == name) return true;
  }
  return false;
}

/// The spread of one metric over a group (replicas missing the field —
/// per-arm conditional metrics — are simply left out of the statistic;
/// count() reports how many actually contributed).
metrics::Summary metric_spread(const std::vector<Record>& records,
                                   const std::vector<std::size_t>& members,
                                   const std::string& name) {
  metrics::Summary stat;
  for (const std::size_t i : members) {
    const Field* field = records[i].find(name);
    if (field == nullptr) continue;
    const double v = field->numeric();
    if (!std::isnan(v)) stat.add(v);
  }
  return stat;
}

/// Metric names over a whole group in first-appearance order — the union,
/// not replica 0's set, so a conditional metric the lead run happened to
/// skip still aggregates.
std::vector<std::string> group_metric_names(
    const std::vector<Record>& records,
    const std::vector<std::size_t>& members, const RunPoint& lead) {
  std::vector<std::string> names;
  for (const std::size_t i : members) {
    for (const auto& [name, field] : records[i].fields()) {
      (void)field;
      if (name == "replica" || is_coordinate_of(lead, name)) continue;
      bool seen = false;
      for (const auto& known : names) {
        if (known == name) {
          seen = true;
          break;
        }
      }
      if (!seen) names.push_back(name);
    }
  }
  return names;
}

/// The field to take kind/precision (or a pass-through value) from: the
/// first replica of the group that carries it.
const Field* group_exemplar(const std::vector<Record>& records,
                            const std::vector<std::size_t>& members,
                            const std::string& name) {
  for (const std::size_t i : members) {
    if (const Field* field = records[i].find(name)) return field;
  }
  return nullptr;
}

}  // namespace

ResultSet::ResultSet(std::string name, std::vector<RunPoint> points,
                     std::vector<Record> records)
    : name_(std::move(name)),
      points_(std::move(points)),
      records_(std::move(records)) {
  if (points_.size() != records_.size()) {
    throw std::invalid_argument("ResultSet: points/records size mismatch");
  }
}

bool ResultSet::replicated() const noexcept {
  for (const RunPoint& point : points_) {
    if (point.replica != 0) return true;
  }
  return false;
}

ResultSet ResultSet::aggregate() const {
  if (!replicated()) return *this;
  const auto groups = replication_groups(points_);

  std::vector<RunPoint> points;
  std::vector<Record> records;
  points.reserve(groups.size());
  records.reserve(groups.size());
  for (const auto& members : groups) {
    const std::size_t lead = members.front();
    RunPoint point = points_[lead];
    point.index = points.size();
    std::erase_if(point.coordinates,
                  [](const auto& c) { return c.first == "replica"; });

    Record record;
    for (const auto& [name, field] : records_[lead].fields()) {
      if (is_coordinate_of(points_[lead], name) && name != "replica") {
        record.set(name, field);
      }
    }
    record.set_int("replicas", members.size());
    for (const std::string& name :
         group_metric_names(records_, members, points_[lead])) {
      const Field& field = *group_exemplar(records_, members, name);
      const double v = field.numeric();
      if (std::isnan(v)) {
        record.set(name, field);  // text/bool metric: nothing to average
        continue;
      }
      const auto stat = metric_spread(records_, members, name);
      const int precision = field.precision();
      switch (field.kind()) {
        case Field::Kind::kInt:
          record.set(name + " mean", Field::real(stat.mean(), 2));
          record.set(name + " sd", Field::real(stat.stddev(), 2));
          record.set(name + " min",
                     Field::integer(static_cast<std::uint64_t>(stat.min())));
          record.set(name + " max",
                     Field::integer(static_cast<std::uint64_t>(stat.max())));
          break;
        case Field::Kind::kPercent:
          record.set(name + " mean", Field::percent(stat.mean(), precision));
          record.set(name + " sd", Field::percent(stat.stddev(), precision));
          record.set(name + " min", Field::percent(stat.min(), precision));
          record.set(name + " max", Field::percent(stat.max(), precision));
          break;
        default:
          record.set(name + " mean", Field::real(stat.mean(), precision));
          record.set(name + " sd", Field::real(stat.stddev(), precision));
          record.set(name + " min", Field::real(stat.min(), precision));
          record.set(name + " max", Field::real(stat.max(), precision));
          break;
      }
    }
    points.push_back(std::move(point));
    records.push_back(std::move(record));
  }
  return ResultSet(name_, std::move(points), std::move(records));
}

metrics::Table ResultSet::table() const {
  std::vector<std::string> columns;
  for (const auto& record : records_) {
    for (const auto& [name, field] : record.fields()) {
      (void)field;
      bool known = false;
      for (const auto& column : columns) {
        if (column == name) {
          known = true;
          break;
        }
      }
      if (!known) columns.push_back(name);
    }
  }
  metrics::Table out(columns);
  for (const auto& record : records_) {
    std::vector<std::string> row;
    row.reserve(columns.size());
    for (const auto& column : columns) {
      const Field* field = record.find(column);
      row.push_back(field == nullptr ? "" : field->cell());
    }
    out.add_row(std::move(row));
  }
  return out;
}

metrics::Table ResultSet::pivot(
    const std::string& row_field, const std::string& col_field,
    const std::vector<std::string>& value_fields) const {
  // Distinct row/column labels in first-appearance order.
  std::vector<std::string> row_labels;
  std::vector<std::string> col_labels;
  auto remember = [](std::vector<std::string>& seen, const std::string& label) {
    for (const auto& s : seen) {
      if (s == label) return;
    }
    seen.push_back(label);
  };
  for (const auto& record : records_) {
    const Field* r = record.find(row_field);
    const Field* c = record.find(col_field);
    if (r != nullptr) remember(row_labels, r->cell());
    if (c != nullptr) remember(col_labels, c->cell());
  }

  // A (column label, value field) pair becomes a table column when at least
  // one record of that column group carries the field.
  struct PivotColumn {
    std::string header;
    std::string col_label;
    std::string value_field;
  };
  std::vector<PivotColumn> columns;
  for (const auto& col : col_labels) {
    for (const auto& vf : value_fields) {
      bool present = false;
      for (const auto& record : records_) {
        const Field* c = record.find(col_field);
        if (c != nullptr && c->cell() == col && record.find(vf) != nullptr) {
          present = true;
          break;
        }
      }
      if (!present) continue;
      columns.push_back(PivotColumn{
          value_fields.size() == 1 ? col : col + " " + vf, col, vf});
    }
  }

  std::vector<std::string> headers{row_field};
  for (const auto& column : columns) headers.push_back(column.header);
  metrics::Table out(std::move(headers));
  for (const auto& row : row_labels) {
    std::vector<std::string> cells{row};
    for (const auto& column : columns) {
      std::string cell;
      for (const auto& record : records_) {
        const Field* r = record.find(row_field);
        const Field* c = record.find(col_field);
        if (r == nullptr || c == nullptr) continue;
        if (r->cell() != row || c->cell() != column.col_label) continue;
        const Field* v = record.find(column.value_field);
        if (v != nullptr) cell = v->cell();
        break;
      }
      cells.push_back(std::move(cell));
    }
    out.add_row(std::move(cells));
  }
  return out;
}

void ResultSet::to_json(std::ostream& os) const {
  os << "{";
  json_escape(os, "name");
  os << ": ";
  json_escape(os, name_);
  os << ", ";
  json_escape(os, "points");
  os << ": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n  {";
    json_escape(os, "index");
    os << ": " << points_[i].index << ", ";
    json_escape(os, "seed");
    os << ": " << points_[i].seed << ", ";
    json_escape(os, "series");
    os << ": ";
    json_escape(os, points_[i].series);
    os << ", ";
    json_escape(os, "fields");
    os << ": {";
    bool first = true;
    for (const auto& [name, field] : records_[i].fields()) {
      if (!first) os << ", ";
      first = false;
      json_escape(os, name);
      os << ": ";
      field.to_json(os);
    }
    os << "}}";
  }
  os << "\n]";
  if (replicated()) {
    // Error bars: one entry per replication group, every numeric metric
    // summarised as mean/sd/min/max over its n replicas.
    os << ", ";
    json_escape(os, "aggregates");
    os << ": [";
    const auto groups = replication_groups(points_);
    bool first_group = true;
    for (const auto& members : groups) {
      const std::size_t lead = members.front();
      if (!first_group) os << ",";
      first_group = false;
      os << "\n  {";
      json_escape(os, "series");
      os << ": ";
      json_escape(os, points_[lead].series);
      os << ", ";
      json_escape(os, "group");
      os << ": " << points_[lead].group << ", ";
      json_escape(os, "n");
      os << ": " << members.size() << ", ";
      json_escape(os, "fields");
      os << ": {";
      bool first_field = true;
      for (const std::string& name :
           group_metric_names(records_, members, points_[lead])) {
        const Field* exemplar = group_exemplar(records_, members, name);
        if (exemplar == nullptr || std::isnan(exemplar->numeric())) continue;
        const auto stat = metric_spread(records_, members, name);
        if (!first_field) os << ", ";
        first_field = false;
        json_escape(os, name);
        // Per-field n: conditional metrics may be carried by fewer
        // replicas than the group holds.
        os << ": {\"mean\": " << shortest_double(stat.mean())
           << ", \"sd\": " << shortest_double(stat.stddev())
           << ", \"min\": " << shortest_double(stat.min())
           << ", \"max\": " << shortest_double(stat.max())
           << ", \"n\": " << stat.count() << "}";
      }
      os << "}}";
    }
    os << "\n]";
  }
  os << "}\n";
}

void ResultSet::to_csv(std::ostream& os) const { table().to_csv(os); }

bool operator==(const ResultSet& a, const ResultSet& b) noexcept {
  if (a.name_ != b.name_ || a.records_ != b.records_) return false;
  if (a.points_.size() != b.points_.size()) return false;
  for (std::size_t i = 0; i < a.points_.size(); ++i) {
    if (a.points_[i].index != b.points_[i].index ||
        a.points_[i].seed != b.points_[i].seed ||
        a.points_[i].series != b.points_[i].series) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

Runner& Runner::probe(
    std::function<void(Experiment&, const RunPoint&, Record&)> fn) {
  require_no_executor();
  probe_factories_.push_back([fn]() -> std::unique_ptr<Probe> {
    return std::make_unique<LambdaProbe>(fn);
  });
  return *this;
}

Runner& Runner::probe_factory(std::function<std::unique_ptr<Probe>()> factory) {
  require_no_executor();
  probe_factories_.push_back(std::move(factory));
  return *this;
}

Runner& Runner::execute(std::function<void(const RunPoint&, Record&)> executor) {
  // Probes only fire on the default Experiment path; mixing the two would
  // silently drop the probes' fields.
  if (!probe_factories_.empty()) {
    throw std::logic_error(
        "Runner::execute: probes are already registered; a custom executor "
        "replaces the probe path entirely");
  }
  executor_ = std::move(executor);
  return *this;
}

void Runner::require_no_executor() const {
  if (executor_) {
    throw std::logic_error(
        "Runner::probe: a custom executor is set; probes would never run");
  }
}

ResultSet Runner::run(const RunOptions& options) const {
  std::vector<RunPoint> points = spec_.expand();
  if (!options.filter.empty()) {
    const std::string needle = ascii_lower(options.filter);
    std::vector<RunPoint> kept;
    for (auto& point : points) {
      // Match the series label OR the point's resolved control-plane name
      // (both case-insensitively), so "--filter PCE" selects PCE points
      // even when the axis uses short labels or the plane is pinned in the
      // base config (single-point series have an empty series label and
      // match only this way).  On the executor path spec.kind is
      // meaningless (the study builds its own world), so only the series
      // label counts there.
      const bool kind_match =
          !executor_ && ascii_lower(topo::to_string(point.config.spec.kind))
                                .find(needle) != std::string::npos;
      if (ascii_lower(point.series).find(needle) != std::string::npos ||
          kind_match) {
        kept.push_back(std::move(point));
      }
    }
    points = std::move(kept);
  }

  std::vector<Record> records(points.size());
  std::vector<std::exception_ptr> errors(points.size());

  auto run_point = [&](std::size_t i) {
    try {
      Record record;
      record.reserve(points[i].coordinates.size() + 16);  // + typical metrics
      for (const auto& [name, value] : points[i].coordinates) {
        record.set(name, value);
      }
      if (executor_) {
        executor_(points[i], record);
      } else {
        std::vector<std::unique_ptr<Probe>> probes;
        probes.reserve(probe_factories_.size());
        for (const auto& factory : probe_factories_) probes.push_back(factory());
        Experiment experiment(points[i].config);
        for (auto& p : probes) p->on_configured(experiment, points[i]);
        experiment.run();
        for (auto& p : probes) p->on_finished(experiment, points[i], record);
      }
      records[i] = std::move(record);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  const std::size_t jobs =
      std::max<std::size_t>(1, std::min(options.jobs, points.size()));
  if (jobs <= 1) {
    for (std::size_t i = 0; i < points.size(); ++i) run_point(i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    for (std::size_t w = 0; w < jobs; ++w) {
      workers.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= points.size()) return;
          run_point(i);
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }

  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return ResultSet(spec_.name(), std::move(points), std::move(records));
}

}  // namespace lispcp::scenario
