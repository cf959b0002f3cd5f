// sweep.cpp — the sweep-planes workload: scenario::Runner with 4 pull
// workers executes a sweep of the registry's compared control planes x
// map-cache sizes x 2 replicas, the way the repo's benches run.  One
// operation is one sweep round (Runner::run over every point); a stateful
// probe times each point from the probe factory call to on_configured
// (the world build) and from there to on_finished (the run).
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "scenario/sweep.hpp"

namespace lispcp::benchmark {

namespace {

constexpr std::size_t kJobs = 4;

[[nodiscard]] scenario::SweepSpec make_spec(const Options& options) {
  scenario::SweepSpec spec;
  spec.named("sweep-planes")
      .base([&options](scenario::ExperimentConfig& config) {
        config.spec.domains = options.smoke ? 8 : 48;
        config.spec.hosts_per_domain = 2;
        config.spec.providers_per_domain = 2;
        config.spec.mapping_ttl_seconds = 60;
        config.spec.seed = options.seed;
        config.mode = scenario::TrafficMode::kAllToAll;
        config.traffic.sessions_per_second = options.smoke ? 50.0 : 150.0;
        config.traffic.duration =
            sim::SimDuration::seconds(options.smoke ? 2 : 10);
        config.traffic.zipf_alpha = 0.9;
        config.drain = sim::SimDuration::seconds(20);
      })
      .axis(scenario::Axis::control_planes())
      .axis(scenario::Axis::integers(
          "cache entries", {2, 8, 32, 128},
          [](scenario::ExperimentConfig& config, std::uint64_t entries) {
            config.spec.cache_capacity = entries;
          }))
      .replications(options.smoke ? 1 : 2);
  return spec;
}

/// What the probes of one round collected (written from pool threads).
struct RoundLog {
  std::mutex mu;  // guards everything below
  std::vector<double> build_s;
  std::vector<double> run_s;
  std::vector<double> build_cpu_s;
  /// Per pool thread: its CPU seconds when it last finished a point.  The
  /// pool's threads live for one Runner::run, so this is all it ran.
  std::map<std::thread::id, double> thread_cpu_s;
  LayerCounts layers;
  double sessions = 0.0;
};

class TimingProbe final : public scenario::Probe {
 public:
  TimingProbe(RoundLog& log, Tracer& tracer, int parent)
      : log_(log), tracer_(tracer), parent_(parent), created_(Clock::now()),
        created_cpu_(thread_cpu_s()) {}

  void on_configured(scenario::Experiment&, const scenario::RunPoint&) override {
    configured_ = Clock::now();
    configured_cpu_ = thread_cpu_s();
  }

  void on_finished(scenario::Experiment& experiment,
                   const scenario::RunPoint&, scenario::Record& record) override {
    const auto finished = Clock::now();
    const scenario::ExperimentSummary s = experiment.summary();
    record.set_int("sessions", s.sessions);
    record.set_int("established", s.established);
    record.set_int("miss events", s.miss_events);
    record.set_int("drops", s.miss_drops);
    record.set_real("t_setup p50 (ms)", s.t_setup_p50_ms, 4);
    record.set_real("t_setup p99 (ms)", s.t_setup_p99_ms, 4);
    const LayerCounts layers = read_layers(experiment.internet());

    const int point = tracer_.record("scenario.point", created_, finished, parent_);
    tracer_.record("scenario.Experiment.ctor", created_, configured_, point);
    tracer_.record("scenario.Experiment.run", configured_, finished, point);
    const double cpu = thread_cpu_s();
    const std::lock_guard<std::mutex> lock(log_.mu);
    log_.build_cpu_s.push_back(configured_cpu_ - created_cpu_);
    log_.thread_cpu_s[std::this_thread::get_id()] = cpu;
    log_.build_s.push_back(seconds_between(created_, configured_));
    log_.run_s.push_back(seconds_between(configured_, finished));
    log_.layers += layers;
    log_.sessions += static_cast<double>(s.sessions);
  }

 private:
  RoundLog& log_;
  Tracer& tracer_;
  int parent_;
  Clock::time_point created_;
  Clock::time_point configured_;
  double created_cpu_;
  double configured_cpu_ = 0.0;
};

}  // namespace

Outcome run_sweep(const Options& options, Tracer& tracer) {
  const scenario::SweepSpec spec = make_spec(options);
  const std::size_t expected_points = spec.expand().size();
  const std::size_t min_rounds = options.trace ? 4 : 3;

  Outcome out;
  // Per round: the sum of the points' builds in CPU seconds, and points
  // per CPU second of the busiest pool thread (the round's makespan with
  // the host's steal left out).
  std::vector<double> setup_s;
  std::vector<double> points_per_s;
  std::vector<double> busy_frac;
  std::vector<double> point_build_s;
  std::vector<double> point_run_s;
  std::vector<double> armed_s;
  std::vector<double> unarmed_s;
  std::vector<double> traced_run_s;
  LayerCounts layers;
  double sessions = 0.0;

  HostReference host;
  const auto start = Clock::now();
  for (std::size_t round = 0;
       !measuring_done(start, options.seconds, round, min_rounds); ++round) {
    tracer.set_op(static_cast<int>(round));
    // Pairs of rounds, one armed, alternating which goes first (packet.cpp).
    tracer.set_armed(options.trace && round % 2 != (round / 2) % 2);
    RoundLog log;
    scenario::ResultSet result;
    auto op_span = tracer.span("op.sweep_round");
    {
      auto call = tracer.span("scenario.Runner.run");
      scenario::Runner runner(spec);
      runner.probe_factory([&log, &tracer, parent = call.id()] {
        return std::make_unique<TimingProbe>(log, tracer, parent);
      });
      result = runner.run(scenario::RunOptions{kJobs, {}});
    }
    const double wall = op_span.stop();
    const bool armed = tracer.armed();
    tracer.set_armed(false);
    (armed ? armed_s : unarmed_s).push_back(wall);
    if (armed) {
      traced_run_s.insert(traced_run_s.end(), log.run_s.begin(), log.run_s.end());
    }

    double busy = 0.0;
    for (std::size_t i = 0; i < log.build_s.size(); ++i) {
      busy += log.build_s[i] + log.run_s[i];
    }
    double makespan_cpu_s = 0.0;
    for (const auto& [id, cpu] : log.thread_cpu_s) {
      makespan_cpu_s = std::max(makespan_cpu_s, cpu);
    }
    host.sample();
    setup_s.push_back(
        std::accumulate(log.build_cpu_s.begin(), log.build_cpu_s.end(), 0.0));
    points_per_s.push_back(static_cast<double>(result.size()) / makespan_cpu_s);
    busy_frac.push_back(busy / (static_cast<double>(kJobs) * wall));
    point_build_s.insert(point_build_s.end(), log.build_s.begin(), log.build_s.end());
    point_run_s.insert(point_run_s.end(), log.run_s.begin(), log.run_s.end());
    layers = log.layers;
    sessions = log.sessions;

    std::ostringstream json;
    result.to_json(json);
    Fnv1a h;
    h.text(json.str());
    if (round == 0) out.fingerprint = h.value();
    const std::string at = "sweep round " + std::to_string(round);
    out.check(h.value() == out.fingerprint,
              at + ": results differ from round 0 on identical inputs");
    out.check(result.size() == expected_points,
              at + ": expected " + std::to_string(expected_points) + " points");
  }

  if (!options.trace) {
    emit_end_to_end(out, host, HostScaling::kUnscaled, setup_s, points_per_s);
    return out;
  }
  const double main_recording_s = tracer.recording_s();

  Metrics& m = out.metrics;
  // The counters are one round's, summed over its points, so they pair with
  // one round's summed point run time.
  double traced_run_total = 0.0;
  for (double s : traced_run_s) traced_run_total += s;
  m.set("scenario.experiment_run_s", median(traced_run_s));
  put_packet_layers(m, layers, sessions,
                    traced_run_total / static_cast<double>(armed_s.size()));
  m.set("scenario.runner.point_build_s_p50", median(point_build_s));
  m.set("scenario.runner.point_run_s_p50", median(point_run_s));
  m.set("scenario.runner.point_run_s_max", quantile(point_run_s, 1.0));
  m.set("scenario.runner.busy_frac", median(busy_frac));
  m.set("host.reference_ms", median(host.samples()) * 1e3);
  m.set("trace.overhead_frac", trace_overhead(armed_s, unarmed_s));
  m.set("trace.record_frac",
        ratio(main_recording_s,
              std::accumulate(armed_s.begin(), armed_s.end(), 0.0)));
  m.set("trace.spans", static_cast<double>(tracer.spans().size()));
  return out;
}

}  // namespace lispcp::benchmark
