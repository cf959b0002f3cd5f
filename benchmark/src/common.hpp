// common.hpp — the benchmark binary's measurement plumbing.
//
// Everything here sits *outside* the library: the benchmark times calls into
// public entry points (topo::Internet, scenario::Experiment, BgpFabric,
// scenario::Runner) and reads public counters.  Spans inside the library's
// event loops are not recorded.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lispcp::benchmark {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds the calling thread has run so far.  On a shared VM this
/// leaves out the time the host gave the thread's vCPU to another tenant
/// (steal), which wall time counts.
[[nodiscard]] double thread_cpu_s();
/// CPU seconds every thread of the process has run so far.
[[nodiscard]] double process_cpu_s();

/// FNV-1a over the bytes of every value fed to it: the output fingerprint
/// the goldens pin.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void text(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// The spans of one process, kept in memory and written as a Chrome trace
/// at exit.  Recording is armed per operation, so a traced run alternates
/// armed and unarmed operations and measures its own overhead.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start_s;  ///< since the tracer was created
    double end_s;
    int parent;      ///< index into spans(), -1 for a root
    int op;          ///< the measured operation the span belongs to
    int thread;
  };

  /// Stopwatch that records a span on stop() when its tracer is armed.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int parent);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { stop(); }

    /// Ends the span (idempotent); returns its duration in seconds.
    double stop();
    /// Span index children should name as parent (-1 when unarmed).
    [[nodiscard]] int id() const noexcept { return id_; }

   private:
    Tracer& tracer_;
    Clock::time_point start_;
    double duration_ = -1.0;
    int id_ = -1;
  };

  Tracer();

  /// Starts a span whose parent is the innermost open span on this thread,
  /// or `parent` when given (spans opened on pool threads name theirs).
  [[nodiscard]] Scope span(const char* name, int parent = kInnermost) {
    return Scope(*this, name, parent);
  }

  /// Records a finished interval when armed (for spans that open and close
  /// in different callbacks); returns its index, or -1.
  int record(const char* name, Clock::time_point start, Clock::time_point end,
             int parent);

  void set_armed(bool armed) noexcept { armed_ = armed; }
  [[nodiscard]] bool armed() const noexcept { return armed_; }
  void set_op(int op) noexcept { op_ = op; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Wall seconds spent inside the recording calls so far.
  [[nodiscard]] double recording_s() {
    const std::lock_guard<std::mutex> lock(mu_);
    return recording_s_;
  }

  /// Per span name: total self time, i.e. each span's duration minus the
  /// union of its children's intervals.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_times() const;

  /// Chrome-trace JSON ("X" events; args carry parent, op and workload).
  void write_chrome_trace(const std::string& path,
                          const std::string& workload) const;

  static constexpr int kInnermost = -2;

 private:
  int open(const char* name, int parent, Clock::time_point start);
  void close(int id, Clock::time_point end);

  Clock::time_point origin_;
  bool armed_ = false;
  int op_ = 0;
  std::mutex mu_;  // guards spans_ and recording_s_
  std::vector<Span> spans_;
  double recording_s_ = 0.0;
};

/// Named metric values, in emission order.  Names and units are declared in
/// BENCHMARK.json alone; benchmark/run.py attaches the units, rejects a name
/// it does not declare, and reports 0 for a declared per-layer metric of a
/// layer the workload does not exercise.
class Metrics {
 public:
  void set(std::string name, double value) {
    entries_.emplace_back(std::move(name), value);
  }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& entries()
      const noexcept {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

/// What one workload run reports back to main().
struct Outcome {
  std::uint64_t attempted = 0;  ///< output checks made
  std::uint64_t failed = 0;     ///< checks that did not hold
  std::vector<std::string> failures;
  std::uint64_t fingerprint = 0;  ///< FNV-1a of the deterministic outputs
  Metrics metrics;  ///< end-to-end when untraced, per-layer when traced
  /// The end-to-end timings before host-speed scaling, and the median
  /// reference time (shown, not judged).
  Metrics raw;

  /// Counts one output check; records `what` when it failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny sizes: checks the plumbing in seconds
  std::string trace_path;
};

// -- statistics --------------------------------------------------------------

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

class HostReference;

/// Whether the end-to-end timings are scaled to nominal host speed.
enum class HostScaling {
  /// Single-threaded workloads: the reference kernel (reference.hpp), also
  /// single-threaded, tracks their slowdowns.
  kScaled,
  /// Workloads whose work runs on 4 threads: a single-threaded kernel does
  /// not track them, and scaling by it widened their run-to-run spread.
  kUnscaled,
};

/// Emits the end-to-end metric set every workload reports into out.metrics:
/// the median set-up time and the median over measured blocks of work done
/// per second, both in CPU seconds of the measured threads (a shared VM's
/// steal does not count), scaled by the median of `host`'s samples when
/// `scaling` says so; and the process's peak RSS less `host`'s own memory.
/// The unscaled medians and the median reference time go to out.raw.
void emit_end_to_end(Outcome& out, const HostReference& host,
                     HostScaling scaling, const std::vector<double>& setup_s,
                     const std::vector<double>& block_work_per_s);

/// Tracing overhead: the median over pairs of (armed op time / unarmed op
/// time) - 1, where armed[i] and unarmed[i] ran back to back on the same
/// inputs.  Pairing cancels the host's drift over the run.
[[nodiscard]] double trace_overhead(const std::vector<double>& armed,
                                    const std::vector<double>& unarmed);

/// True once `seconds` have passed since `start` and at least `min_ops`
/// operations ran.
[[nodiscard]] inline bool measuring_done(Clock::time_point start,
                                         double seconds, std::size_t ops,
                                         std::size_t min_ops) {
  return ops >= min_ops && seconds_between(start, Clock::now()) >= seconds;
}

// -- workloads ---------------------------------------------------------------

/// Each workload arms `tracer` on one operation of each consecutive pair
/// when options.trace is set, and otherwise leaves it unarmed.
Outcome run_packet(const Options& options, Tracer& tracer);
Outcome run_dfz(const Options& options, Tracer& tracer);
Outcome run_sweep(const Options& options, Tracer& tracer);

}  // namespace lispcp::benchmark
