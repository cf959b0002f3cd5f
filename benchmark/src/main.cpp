// lispcp_benchmark — runs one benchmark workload in this process and prints
// one JSON line: the output checks, the fingerprint the goldens pin, and the
// metrics (end-to-end when untraced, per-layer when traced).
//
//   lispcp_benchmark --workload W [--seed S] [--seconds N] [--trace 0|1]
//                    [--trace-file PATH] [--smoke]
//
// benchmark/run.py builds this binary and is the intended entry point.
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>

#include "common.hpp"

namespace {

using lispcp::benchmark::Options;
using lispcp::benchmark::Outcome;
using lispcp::benchmark::Tracer;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "lispcp_benchmark: " << why
            << "\nusage: lispcp_benchmark --workload "
               "packet-pce|packet-alt|aggregate-768|dfz-churn|sweep-planes "
               "[--seed S] [--seconds N] [--trace 0|1] [--trace-file PATH] "
               "[--smoke]\n";
  std::exit(2);
}

[[nodiscard]] Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--trace-file") {
        options.trace_path = value();
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds >= 0.0)) usage("--seconds must be >= 0");
  return options;
}

void print_json_string(const std::string& s) {
  std::cout << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') std::cout << '\\';
    std::cout << c;
  }
  std::cout << '"';
}

void print_metrics(const lispcp::benchmark::Metrics& metrics) {
  std::cout << "{";
  const auto& entries = metrics.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) std::cout << ", ";
    print_json_string(entries[i].first);
    std::cout << ": " << entries[i].second;
  }
  std::cout << "}";
}

void print(const Options& options, const Outcome& out) {
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  std::cout << "{\"workload\": ";
  print_json_string(options.workload);
  std::cout << ", \"seed\": " << options.seed
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"smoke\": " << (options.smoke ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"fingerprint\": \""
            << std::hex << std::setw(16) << std::setfill('0') << out.fingerprint
            << std::dec << std::setfill(' ') << "\", \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    if (i != 0) std::cout << ", ";
    print_json_string(out.failures[i]);
  }
  std::cout << "], \"metrics\": ";
  print_metrics(out.metrics);
  std::cout << ", \"raw\": ";
  print_metrics(out.raw);
  std::cout << "}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Tracer tracer;
  try {
    Outcome out;
    if (options.workload == "dfz-churn") {
      out = lispcp::benchmark::run_dfz(options, tracer);
    } else if (options.workload == "sweep-planes") {
      out = lispcp::benchmark::run_sweep(options, tracer);
    } else {
      out = lispcp::benchmark::run_packet(options, tracer);
    }
    if (options.trace && !options.trace_path.empty()) {
      tracer.write_chrome_trace(options.trace_path, options.workload);
    }
    print(options, out);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "lispcp_benchmark: " << options.workload << ": " << e.what()
              << "\n";
    return 1;
  }
}
