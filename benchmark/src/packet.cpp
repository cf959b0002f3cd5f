// packet.cpp — the Experiment workloads: packet-pce, packet-alt and
// aggregate-768.  One operation builds a fresh world (scenario::Experiment
// ctor, the set-up sample) and runs its open-loop Poisson arrival process
// plus drain (Experiment::run, the op sample).  Every operation runs the same
// seeded inputs, so every one is also an output check.
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "reference.hpp"
#include "scenario/experiment.hpp"

namespace lispcp::benchmark {

namespace {

using topo::ControlPlaneKind;

struct PacketWorkload {
  const char* name;
  ControlPlaneKind kind;
  workload::Mode mode;
  std::size_t domains;
  std::size_t cache_entries;
  double sessions_per_second;  ///< aggregate over all sending domains
  int arrival_seconds;         ///< simulated arrival window (plus 20 s drain)
  int epoch_ms;                ///< flow-aggregate epoch; unused in packet mode
};

// Sizes keep one operation well under a second, so a 10 s run holds ten or
// more operations and the medians shrug off a burst of host contention.
constexpr PacketWorkload kWorkloads[] = {
    {"packet-pce", ControlPlaneKind::kPce, workload::Mode::kPacket, 512, 8,
     2000.0, 2, 500},
    {"packet-alt", ControlPlaneKind::kAltQueue, workload::Mode::kPacket, 512, 8,
     2000.0, 2, 500},
    {"aggregate-768", ControlPlaneKind::kAltDrop, workload::Mode::kAggregate,
     768, 1024, 20000.0, 2, 100},
};

[[nodiscard]] const PacketWorkload& find_workload(const std::string& name) {
  for (const PacketWorkload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown packet workload " + name);
}

[[nodiscard]] scenario::ExperimentConfig make_config(const PacketWorkload& w,
                                                     const Options& options) {
  scenario::ExperimentConfig config;
  config.spec = topo::InternetSpec::preset(w.kind);
  config.spec.workload_mode = w.mode;
  config.spec.domains = options.smoke ? 16 : w.domains;
  config.spec.hosts_per_domain = 2;
  config.spec.providers_per_domain = 2;
  config.spec.cache_capacity = w.cache_entries;
  config.spec.mapping_ttl_seconds = 60;
  config.spec.seed = options.seed;
  config.mode = scenario::TrafficMode::kAllToAll;
  config.traffic.sessions_per_second =
      options.smoke ? 100.0 : w.sessions_per_second;
  config.traffic.duration =
      sim::SimDuration::seconds(options.smoke ? 2 : w.arrival_seconds);
  config.traffic.zipf_alpha = 0.9;
  config.traffic.aggregate_epoch = sim::SimDuration::millis(w.epoch_ms);
  config.drain = sim::SimDuration::seconds(20);
  return config;
}

void hash_summary(Fnv1a& h, const scenario::ExperimentSummary& s) {
  for (std::uint64_t v :
       {s.sessions, s.established, s.completed, s.dns_failures,
        s.connect_failures, s.syn_retransmissions,
        s.sessions_with_retransmission, s.miss_events, s.miss_drops,
        s.encapsulated}) {
    h.u64(v);
  }
  for (double v : {s.t_dns_mean_ms, s.t_dns_p95_ms, s.t_setup_mean_ms,
                   s.t_setup_p50_ms, s.t_setup_p95_ms, s.t_setup_p99_ms}) {
    h.f64(v);
  }
}

/// The per-workload output invariants that hold for every seed.
void check_invariants(Outcome& out, const PacketWorkload& w, int op,
                      const scenario::ExperimentSummary& s) {
  const std::string at = std::string(w.name) + " op " + std::to_string(op);
  out.check(s.sessions > 0, at + ": no sessions");
  if (w.kind == ControlPlaneKind::kPce) {
    out.check(s.miss_drops == 0, at + ": PCE dropped first packets");
    out.check(s.established == s.sessions,
              at + ": PCE left sessions unestablished");
  }
  if (w.kind == ControlPlaneKind::kAltQueue) {
    out.check(s.miss_drops == 0, at + ": alt-queue dropped packets");
  }
}

}  // namespace

Outcome run_packet(const Options& options, Tracer& tracer) {
  const PacketWorkload& w = find_workload(options.workload);
  const scenario::ExperimentConfig config = make_config(w, options);
  const std::size_t min_ops = options.trace ? 4 : 3;

  Outcome out;
  std::vector<double> setup_s;         // CPU seconds per Experiment ctor
  std::vector<double> sessions_per_s;  // per CPU second of Experiment::run
  std::vector<double> ctor_wall_s;
  std::vector<double> armed_op_s;
  std::vector<double> unarmed_op_s;
  std::vector<double> traced_run_s;
  LayerCounts layers;
  scenario::ExperimentSummary summary;

  HostReference host;
  const auto start = Clock::now();
  for (int op = 0; !measuring_done(start, options.seconds,
                                   static_cast<std::size_t>(op), min_ops);
       ++op) {
    tracer.set_op(op);
    // Pairs of operations, one armed: (unarmed, armed), then (armed,
    // unarmed), so a drift over the run cancels out of the overhead.
    tracer.set_armed(options.trace && op % 2 != (op / 2) % 2);
    std::unique_ptr<scenario::Experiment> experiment;
    double run_s = 0.0;
    auto op_span = tracer.span("op.experiment");
    const double cpu_start = thread_cpu_s();
    {
      auto span = tracer.span("scenario.Experiment.ctor");
      experiment = std::make_unique<scenario::Experiment>(config);
      ctor_wall_s.push_back(span.stop());
    }
    const double cpu_built = thread_cpu_s();
    {
      auto span = tracer.span("scenario.Experiment.run");
      summary = experiment->run();
      run_s = span.stop();
    }
    const double cpu_ran = thread_cpu_s();
    const double op_s = op_span.stop();
    const bool armed = tracer.armed();
    tracer.set_armed(false);

    host.sample();
    setup_s.push_back(cpu_built - cpu_start);
    sessions_per_s.push_back(static_cast<double>(summary.sessions) /
                             (cpu_ran - cpu_built));
    (armed ? armed_op_s : unarmed_op_s).push_back(op_s);
    if (armed) traced_run_s.push_back(run_s);

    layers = read_layers(experiment->internet());
    Fnv1a h;
    hash_summary(h, summary);
    layers.hash_into(h);
    if (op == 0) out.fingerprint = h.value();
    out.check(h.value() == out.fingerprint,
              std::string(w.name) + " op " + std::to_string(op) +
                  ": outputs differ from op 0 on identical inputs");
    check_invariants(out, w, op, summary);
  }

  if (!options.trace) {
    emit_end_to_end(out, host, HostScaling::kScaled, setup_s, sessions_per_s);
    return out;
  }
  const double main_recording_s = tracer.recording_s();

  // Trace-only probe, after the main phase: the standalone topology build,
  // which splits the Experiment ctor into its two halves.
  tracer.set_op(-1);
  tracer.set_armed(true);
  std::vector<double> internet_s;
  for (int i = 0; i < 3; ++i) {
    auto span = tracer.span("topo.Internet.ctor");
    topo::Internet internet(config.spec);
    internet_s.push_back(span.stop());
  }
  tracer.set_armed(false);

  Metrics& m = out.metrics;
  m.set("topo.internet_build_s", median(internet_s));
  m.set("scenario.traffic_build_s", median(ctor_wall_s) - median(internet_s));
  m.set("scenario.experiment_run_s", median(traced_run_s));
  put_packet_layers(m, layers, static_cast<double>(summary.sessions),
                    median(traced_run_s));
  m.set("host.reference_ms", median(host.samples()) * 1e3);
  m.set("trace.overhead_frac", trace_overhead(armed_op_s, unarmed_op_s));
  m.set("trace.record_frac",
        ratio(main_recording_s,
              std::accumulate(armed_op_s.begin(), armed_op_s.end(), 0.0)));
  m.set("trace.spans", static_cast<double>(tracer.spans().size()));
  return out;
}

}  // namespace lispcp::benchmark
