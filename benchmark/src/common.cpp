#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <stdexcept>

#include "reference.hpp"

namespace lispcp::benchmark {

namespace {

[[nodiscard]] double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Open armed spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

[[nodiscard]] int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

Tracer::Scope::Scope(Tracer& tracer, const char* name, int parent)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_.armed()) id_ = tracer_.open(name, parent, start_);
}

double Tracer::Scope::stop() {
  if (duration_ >= 0.0) return duration_;
  const auto end = Clock::now();
  duration_ = seconds_between(start_, end);
  if (id_ >= 0) tracer_.close(id_, end);
  return duration_;
}

Tracer::Tracer() : origin_(Clock::now()) {}

// Each recording call adds its own wall time to recording_s_: the work an
// armed operation does that an unarmed one skips.

int Tracer::open(const char* name, int parent, Clock::time_point start) {
  const auto entered = Clock::now();
  if (parent == kInnermost) parent = t_open.empty() ? -1 : t_open.back();
  const std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, seconds_between(origin_, start), -1.0, parent,
                        op_, thread_index()});
  t_open.push_back(id);
  recording_s_ += seconds_between(entered, Clock::now());
  return id;
}

int Tracer::record(const char* name, Clock::time_point start,
                   Clock::time_point end, int parent) {
  if (!armed_) return -1;
  const auto entered = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, seconds_between(origin_, start),
                        seconds_between(origin_, end), parent, op_,
                        thread_index()});
  recording_s_ += seconds_between(entered, Clock::now());
  return id;
}

void Tracer::close(int id, Clock::time_point end) {
  const auto entered = Clock::now();
  const auto it = std::find(t_open.rbegin(), t_open.rend(), id);
  if (it != t_open.rend()) t_open.erase(std::next(it).base());
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, end);
  recording_s_ += seconds_between(entered, Clock::now());
}

std::vector<std::pair<std::string, double>> Tracer::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_s,
                                                                   span.end_s);
    }
  }
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals: parallel children (sweep points on the
    // pool) overlap, and overlapped time must not be subtracted twice.
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    for (const auto& [start, end] : kids) {
      if (start > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = start;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    const Span& span = spans_[i];
    totals[span.name] += std::max(0.0, (span.end_s - span.start_s) - covered);
  }
  return {totals.begin(), totals.end()};
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& workload) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << std::setprecision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.thread
        << ", \"ts\": " << span.start_s * 1e6
        << ", \"dur\": " << (span.end_s - span.start_s) * 1e6
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent
        << ", \"op\": " << span.op << ", \"workload\": \"" << workload
        << "\"}}";
  }
  out << "\n], \"otherData\": {\"workload\": \"" << workload
      << "\", \"self_time_s\": {";
  const auto self = self_times();
  for (std::size_t i = 0; i < self.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << self[i].first
        << "\": " << self[i].second;
  }
  out << "}}}\n";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double trace_overhead(const std::vector<double>& armed,
                      const std::vector<double>& unarmed) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(armed.size(), unarmed.size()); ++i) {
    ratios.push_back(armed[i] / unarmed[i]);
  }
  return ratios.empty() ? 0.0 : median(ratios) - 1.0;
}

void emit_end_to_end(Outcome& out, const HostReference& host,
                     HostScaling scaling, const std::vector<double>& setup_s,
                     const std::vector<double>& block_work_per_s) {
  const double reference_s = median(host.samples());
  const bool scale = scaling == HostScaling::kScaled;
  out.metrics.set("setup_s", scale ? HostReference::scale_time(median(setup_s),
                                                               reference_s)
                                   : median(setup_s));
  out.metrics.set("work_per_s",
                  scale ? HostReference::scale_rate(median(block_work_per_s),
                                                    reference_s)
                        : median(block_work_per_s));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  out.metrics.set("peak_rss_mb", peak_mb - host.footprint_mb());
  out.raw.set("setup_s", median(setup_s));
  out.raw.set("work_per_s", median(block_work_per_s));
  out.raw.set("reference_ms", reference_s * 1e3);
}

}  // namespace lispcp::benchmark
