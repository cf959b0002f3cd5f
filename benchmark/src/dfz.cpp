// dfz.cpp — the dfz-churn workload: the BGP DFZ under the legacy
// scenario (every stub injects its /20).  Set-up builds the converged world
// through the public entry points — build_synthetic_internet, the BgpFabric
// ctor, one origination RouteDelta batch through apply(), and the storm's
// run_to_convergence() — several times.  The measured phase then drives
// make_flap_plan's flaps closed-loop, one client: each flap is a withdraw
// batch, convergence, the hold, an announce batch and convergence, and the
// next starts only once the last has settled.
#include <memory>
#include <numeric>
#include <string>

#include "common.hpp"
#include "reference.hpp"
#include "routing/dfz_study.hpp"

namespace lispcp::benchmark {

namespace {

using routing::AsNumber;
using routing::BgpFabric;
using routing::ChurnEvent;
using routing::RouteDelta;

constexpr std::size_t kShards = 8;
constexpr std::size_t kWorkers = 4;
/// Flaps hashed into the fingerprint; the measured phase runs at least
/// this many, and the trace-only W=1 probe replays exactly these.
constexpr std::size_t kFingerprintFlaps = 200;
constexpr std::size_t kSmokeFingerprintFlaps = 20;
/// Flaps the run_churn_plan cross-check replays.
constexpr std::size_t kPlanCheckFlaps = 100;
constexpr std::size_t kSmokePlanCheckFlaps = 10;

/// Per-call event budget.  run_to_convergence(max_events) compares the
/// budget with the engine's *lifetime* event count, so the default 50 M
/// throws "event budget exhausted" once a long soak has fired that many
/// events in total.  Passing events_processed() + budget bounds each call
/// instead.
constexpr std::uint64_t kEventBudget = 5'000'000;

sim::SimTime converge(BgpFabric& fabric) {
  return fabric.run_to_convergence(fabric.engine().events_processed() +
                                   kEventBudget);
}

[[nodiscard]] routing::SyntheticInternetConfig internet_config(
    const Options& options) {
  routing::SyntheticInternetConfig config;
  config.tier1_count = options.smoke ? 2 : 4;
  config.transit_count = options.smoke ? 4 : 10;
  config.stub_count = options.smoke ? 50 : 1000;
  config.providers_per_stub = 2;
  config.seed = options.seed;
  return config;
}

/// One converged DFZ.  The fabric holds a reference to the graph, so the
/// graph is declared first and destroyed last.
struct World {
  std::unique_ptr<routing::AsGraph> graph;
  std::unique_ptr<BgpFabric> fabric;
  std::vector<AsNumber> stubs;
  AsNumber tier1;
};

struct SetupSample {
  double graph_s = 0.0;
  double fabric_s = 0.0;
  double originate_s = 0.0;
  double converge_s = 0.0;
  std::uint64_t converge_events = 0;
  std::uint64_t updates = 0;  ///< storm totals
  std::uint64_t records = 0;
  std::uint64_t storm_fingerprint = 0;
  std::size_t tier1_rib = 0;
  std::size_t rib_entries = 0;

  [[nodiscard]] double total() const {
    return graph_s + fabric_s + originate_s + converge_s;
  }
};

[[nodiscard]] std::size_t total_rib_entries(const World& world) {
  std::size_t total = 0;
  for (AsNumber asn : world.graph->ases()) {
    total += world.fabric->speaker(asn).rib_size();
  }
  return total;
}

/// Builds and converges one world; fills `sample` with the phase timings
/// and the storm's fingerprint (per-AS RIB sizes plus the storm totals).
[[nodiscard]] World build_world(const routing::SyntheticInternetConfig& config,
                                std::size_t shards, std::size_t workers,
                                Tracer& tracer, SetupSample& sample) {
  World world;
  auto setup_span = tracer.span("op.dfz_setup");
  {
    auto span = tracer.span("routing.build_synthetic_internet");
    world.graph = std::make_unique<routing::AsGraph>(
        routing::build_synthetic_internet(config));
    sample.graph_s = span.stop();
  }
  world.stubs = world.graph->ases_of_tier(routing::AsTier::kStub);
  std::vector<AsNumber> providers =
      world.graph->ases_of_tier(routing::AsTier::kTier1);
  world.tier1 = providers.front();
  for (AsNumber transit : world.graph->ases_of_tier(routing::AsTier::kTransit)) {
    providers.push_back(transit);
  }

  routing::BgpConfig bgp;
  bgp.shards = shards;
  bgp.shard_workers = workers;
  bgp.expected_prefixes = providers.size() + world.stubs.size();
  {
    auto span = tracer.span("routing.BgpFabric.ctor");
    world.fabric = std::make_unique<BgpFabric>(*world.graph, bgp);
    sample.fabric_s = span.stop();
  }

  std::vector<RouteDelta> originations;
  originations.reserve(bgp.expected_prefixes);
  for (AsNumber provider : providers) {
    originations.push_back(
        RouteDelta::announce(provider, routing::provider_aggregate(provider)));
  }
  for (std::size_t i = 0; i < world.stubs.size(); ++i) {
    originations.push_back(RouteDelta::announce(
        world.stubs[i], routing::stub_site_prefixes(i, 1).front()));
  }
  {
    auto span = tracer.span("routing.BgpFabric.apply");
    world.fabric->apply(originations);
    sample.originate_s = span.stop();
  }
  sim::SimTime converged;
  {
    auto span = tracer.span("routing.BgpFabric.run_to_convergence");
    converged = converge(*world.fabric);
    sample.converge_s = span.stop();
  }
  setup_span.stop();

  sample.converge_events = world.fabric->last_run_events();
  sample.updates = world.fabric->total_updates_sent();
  sample.records = world.fabric->total_routes_announced() +
                   world.fabric->total_routes_withdrawn();
  sample.tier1_rib = world.fabric->speaker(world.tier1).rib_size();
  sample.rib_entries = total_rib_entries(world);
  Fnv1a h;
  for (AsNumber asn : world.graph->ases()) {
    h.u64(world.fabric->speaker(asn).rib_size());
  }
  h.u64(sample.updates);
  h.u64(sample.records);
  h.u64(static_cast<std::uint64_t>(converged.ns()));
  h.u64(sample.converge_events);
  sample.storm_fingerprint = h.value();
  return world;
}

/// What one flap cost, in the units run_churn_plan reports.
struct FlapMeasure {
  std::uint64_t updates = 0;
  std::uint64_t records = 0;
  std::uint64_t events = 0;
  double settle_ms = 0.0;
  double withdraw_s = 0.0;
  double announce_s = 0.0;
  double total_s = 0.0;

  [[nodiscard]] bool same_outputs(const FlapMeasure& o) const {
    return updates == o.updates && records == o.records &&
           events == o.events && settle_ms == o.settle_ms;
  }
};

/// Executes one whole-site flap closed-loop, exactly as run_churn_plan's
/// incremental mode does, timing each half.
[[nodiscard]] FlapMeasure flap(World& world, const ChurnEvent& event,
                               Tracer& tracer) {
  BgpFabric& fabric = *world.fabric;
  if (event.spacing > sim::SimDuration{}) fabric.advance(event.spacing);
  const std::uint64_t updates_before = fabric.total_updates_sent();
  const std::uint64_t records_before =
      fabric.total_routes_announced() + fabric.total_routes_withdrawn();
  const sim::SimTime t0 = fabric.now();
  const AsNumber subject = world.stubs.at(event.stub);
  const net::Ipv4Prefix prefix = routing::stub_site_prefixes(event.stub, 1).front();

  FlapMeasure m;
  auto op_span = tracer.span("op.flap");
  {
    auto span = tracer.span("flap.withdraw");
    {
      auto call = tracer.span("routing.BgpFabric.apply");
      fabric.apply({RouteDelta::withdraw(subject, prefix)});
    }
    {
      auto call = tracer.span("routing.BgpFabric.run_to_convergence");
      converge(fabric);
    }
    m.withdraw_s = span.stop();
  }
  m.events += fabric.last_run_events();
  fabric.advance(event.hold);
  {
    auto span = tracer.span("flap.announce");
    {
      auto call = tracer.span("routing.BgpFabric.apply");
      fabric.apply({RouteDelta::announce(subject, prefix)});
    }
    {
      auto call = tracer.span("routing.BgpFabric.run_to_convergence");
      converge(fabric);
    }
    m.announce_s = span.stop();
  }
  m.total_s = op_span.stop();
  m.events += fabric.last_run_events();
  m.updates = fabric.total_updates_sent() - updates_before;
  m.records = fabric.total_routes_announced() +
              fabric.total_routes_withdrawn() - records_before;
  m.settle_ms = ((fabric.now() - t0) - event.hold).ms();
  return m;
}

}  // namespace

Outcome run_dfz(const Options& options, Tracer& tracer) {
  const routing::SyntheticInternetConfig config = internet_config(options);
  const std::size_t setups = options.smoke ? 2 : 5;
  const std::size_t fingerprint_flaps =
      options.smoke ? kSmokeFingerprintFlaps : kFingerprintFlaps;

  Outcome out;
  HostReference host;
  tracer.set_armed(options.trace);
  std::vector<SetupSample> samples;
  // Process CPU seconds (every shard worker's) per set-up: the shard
  // workers block at the epoch barrier, so only their work counts, and
  // the host's steal does not.
  std::vector<double> setup_s;
  World world;
  for (std::size_t i = 0; i < setups; ++i) {
    tracer.set_op(-1 - static_cast<int>(i));
    world = World{};  // one world alive at a time
    samples.emplace_back();
    const double cpu_start = process_cpu_s();
    world = build_world(config, kShards, kWorkers, tracer, samples.back());
    setup_s.push_back(process_cpu_s() - cpu_start);
    host.sample();
    out.check(samples.back().storm_fingerprint == samples.front().storm_fingerprint,
              "dfz setup " + std::to_string(i) +
                  ": storm differs from setup 0 on identical inputs");
  }
  tracer.set_armed(false);
  const SetupSample& storm = samples.front();

  // Closed loop, one client: the next flap starts once the last settled.
  const routing::ChurnPlan plan = routing::make_flap_plan(
      20'000, world.stubs.size(), options.seed, sim::SimDuration::seconds(120),
      sim::SimDuration::seconds(30));
  // In a traced run every flap executes twice in a row, once armed and once
  // not, alternating which goes first: a flap restores every RIB, so the
  // pair is the same work and the two medians measure the tracing overhead.
  const std::size_t reps = options.trace ? 2 : 1;
  std::vector<FlapMeasure> flaps;  // the first execution of each plan event
  std::vector<FlapMeasure> runs;   // every execution
  std::vector<double> armed_s;
  std::vector<double> unarmed_s;
  // Flaps per process CPU second, per block of consecutive flaps; each
  // block is followed by a host-reference sample.
  const std::size_t block = fingerprint_flaps / 4;
  std::vector<double> block_flaps_per_s;
  double block_cpu_start = process_cpu_s();
  Fnv1a h;
  h.u64(storm.storm_fingerprint);
  const auto start = Clock::now();
  for (std::size_t i = 0; !measuring_done(start, options.seconds, i,
                                          fingerprint_flaps * reps);
       ++i) {
    const std::size_t e = i / reps;
    const bool armed = options.trace && i % 2 != e % 2;
    tracer.set_op(static_cast<int>(e));
    tracer.set_armed(armed);
    const FlapMeasure m = flap(world, plan.events[e % plan.events.size()], tracer);
    tracer.set_armed(false);
    (armed ? armed_s : unarmed_s).push_back(m.total_s);
    runs.push_back(m);
    if (runs.size() % block == 0) {
      block_flaps_per_s.push_back(static_cast<double>(block) /
                                  (process_cpu_s() - block_cpu_start));
      host.sample();
      block_cpu_start = process_cpu_s();
    }
    if (i % reps == 0) {
      flaps.push_back(m);
      if (e < fingerprint_flaps) {
        for (std::uint64_t v : {m.updates, m.records, m.events}) h.u64(v);
        h.f64(m.settle_ms);
      }
    } else {
      out.check(m.same_outputs(flaps.back()),
                "flap " + std::to_string(e) + " measured differently when repeated");
    }
    out.check(world.fabric->speaker(world.tier1).rib_size() == storm.tier1_rib &&
                  total_rib_entries(world) == storm.rib_entries,
              "flap " + std::to_string(e) + " did not restore the RIBs");
  }
  out.fingerprint = h.value();

  std::vector<double> flap_s;
  std::vector<double> withdraw_ms;
  std::vector<double> announce_ms;
  double flap_total_s = 0.0;
  double updates = 0.0;
  double records = 0.0;
  double events = 0.0;
  for (const FlapMeasure& m : runs) {
    flap_s.push_back(m.total_s);
    withdraw_ms.push_back(m.withdraw_s * 1e3);
    announce_ms.push_back(m.announce_s * 1e3);
    flap_total_s += m.total_s;
    updates += static_cast<double>(m.updates);
    records += static_cast<double>(m.records);
    events += static_cast<double>(m.events);
  }
  std::vector<double> graph_s;
  std::vector<double> fabric_s;
  std::vector<double> originate_s;
  std::vector<double> converge_s;
  for (const SetupSample& s : samples) {
    graph_s.push_back(s.graph_s);
    fabric_s.push_back(s.fabric_s);
    originate_s.push_back(s.originate_s);
    converge_s.push_back(s.converge_s);
  }
  if (!options.trace) {
    emit_end_to_end(out, host, HostScaling::kUnscaled, setup_s,
                    block_flaps_per_s);
    return out;
  }
  // Set-ups ran armed too, so they count with the armed flaps.
  double armed_total_s = std::accumulate(armed_s.begin(), armed_s.end(), 0.0);
  for (const SetupSample& s : samples) armed_total_s += s.total();
  const double record_frac = ratio(tracer.recording_s(), armed_total_s);

  Metrics& m = out.metrics;
  const double n = static_cast<double>(runs.size());
  m.set("routing.as_graph.build_s", median(graph_s));
  m.set("routing.bgp.fabric_build_s", median(fabric_s));
  m.set("routing.bgp.originate_apply_s", median(originate_s));
  m.set("routing.bgp.converge_s", median(converge_s));
  m.set("routing.bgp.converge_cold_s", storm.converge_s);
  m.set("routing.shard_engine.converge_events",
        static_cast<double>(storm.converge_events));
  m.set("routing.shard_engine.converge_ns_per_event",
        ratio(median(converge_s) * 1e9, static_cast<double>(storm.converge_events)));
  m.set("routing.bgp.converge_updates", static_cast<double>(storm.updates));
  m.set("routing.bgp.converge_route_records",
        static_cast<double>(storm.records));
  m.set("routing.flap.ms_p50", median(flap_s) * 1e3);
  m.set("routing.flap.withdraw_ms_p50", median(withdraw_ms));
  m.set("routing.flap.announce_ms_p50", median(announce_ms));
  m.set("routing.flap.ms_p99", quantile(flap_s, 0.99) * 1e3);
  m.set("routing.shard_engine.events_per_flap", ratio(events, n));
  m.set("routing.shard_engine.flap_ns_per_event",
        ratio(flap_total_s * 1e9, events));
  m.set("routing.bgp.updates_per_flap", ratio(updates, n));
  m.set("routing.bgp.records_per_flap", ratio(records, n));
  m.set("routing.attr_table.size",
        static_cast<double>(world.fabric->attrs().size()));
  m.set("routing.bgp.rib_entries", static_cast<double>(storm.rib_entries));
  m.set("host.reference_ms", median(host.samples()) * 1e3);
  m.set("trace.overhead_frac", trace_overhead(armed_s, unarmed_s));
  m.set("trace.record_frac", record_frac);

  // Trace-only probes, after the main phase so its timings stay comparable
  // with the untraced run.  Each rebuilds the world; one lives at a time.
  world = World{};
  tracer.set_armed(true);
  tracer.set_op(-100);

  // W=1 at K=8: same storm, same first flaps, one worker.
  SetupSample w1;
  world = build_world(config, kShards, 1, tracer, w1);
  out.check(w1.storm_fingerprint == storm.storm_fingerprint,
            "dfz storm differs between W=1 and W=4");
  std::vector<double> w1_flap_s;
  std::vector<double> w4_flap_s;
  for (std::size_t i = 0; i < fingerprint_flaps; ++i) {
    const FlapMeasure w1_flap = flap(world, plan.events[i], tracer);
    out.check(w1_flap.same_outputs(flaps[i]),
              "flap " + std::to_string(i) + " differs between W=1 and W=4");
    w1_flap_s.push_back(w1_flap.total_s);
    w4_flap_s.push_back(flaps[i].total_s);
  }
  world = World{};

  // K=1, W=1: the single-queue engine; its storm must match too.
  SetupSample k1;
  world = build_world(config, 1, 1, tracer, k1);
  out.check(k1.storm_fingerprint == storm.storm_fingerprint,
            "dfz storm differs between K=1 and K=8");
  world = World{};

  m.set("routing.shard_engine.converge_speedup_w4",
        ratio(w1.converge_s, median(converge_s)));
  m.set("routing.shard_engine.flap_speedup_w4",
        ratio(median(w1_flap_s), median(w4_flap_s)));
  m.set("routing.shard_engine.k8_overhead_w1",
        ratio(w1.converge_s, k1.converge_s));

  // The library's own churn runner must measure the same flaps identically.
  routing::DfzStudyConfig study;
  study.internet = config;
  study.bgp.shards = kShards;
  study.bgp.shard_workers = kWorkers;
  routing::ChurnPlan prefix;
  const std::size_t plan_check =
      options.smoke ? kSmokePlanCheckFlaps : kPlanCheckFlaps;
  prefix.events.assign(plan.events.begin(),
                       plan.events.begin() + static_cast<std::ptrdiff_t>(plan_check));
  routing::ChurnPlanResult reference;
  {
    auto span = tracer.span("routing.run_churn_plan");
    reference = routing::run_churn_plan(study, prefix);
  }
  tracer.set_armed(false);
  for (std::size_t i = 0; i < plan_check; ++i) {
    const routing::ChurnEventMeasure& r = reference.events.at(i);
    const FlapMeasure& ours = flaps[i];
    out.check(r.update_messages == ours.updates &&
                  r.route_records == ours.records &&
                  r.engine_events == ours.events &&
                  r.settle_ms == ours.settle_ms,
              "flap " + std::to_string(i) + " differs from run_churn_plan");
  }
  m.set("trace.spans", static_cast<double>(tracer.spans().size()));
  return out;
}

}  // namespace lispcp::benchmark
