// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload measure_loop|slot_rush|city_campaign --seed N
//             --seconds S [--trace 0|1] [--trace-out FILE] [--max-ops N]
//             [--workers N]
//
// Runs one workload through the public APIs of core, chain, marketplace,
// simnet, executor, vm and crypto and prints one JSON object: the build
// stamp, the attempted/failed counts, every output check, and the
// end-to-end metrics (untraced mode) or the per-layer metrics (traced
// mode). Exit code 0 = every check passed, 1 = a check failed, 2 = usage.
// perfbench/run.py builds this program and turns its report into the
// benchmark's result line; README.md documents the metrics.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? "," : "") + std::string("{\"name\":") + json_string(m.name) +
           ",\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) +
           ",\"note\":" + json_string(m.note) + "}";
  }
  return out + "]";
}

/// What the binary was built as. Timings from an unoptimised or
/// sanitized build are not reportable.
struct Stamp {
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string sanitizer;
  bool optimized = false;
  unsigned nproc = std::thread::hardware_concurrency();
  Stamp() {
#if defined(__OPTIMIZE__)
    optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__)
    sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
    sanitizer = "thread";
#endif
  }
  bool reportable() const { return optimized && sanitizer.empty(); }
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "measure_loop|slot_rush|city_campaign --seed N --seconds S "
               "[--trace 0|1] [--trace-out FILE] [--max-ops N] [--workers N]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      opts.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opts.seconds > 0))
        return usage("--seconds must be a positive number");
    } else if (!parse_u64(value, n)) {
      return usage((flag + " needs a non-negative integer").c_str());
    } else if (flag == "--seed") {
      opts.seed = n;
      have_seed = true;
    } else if (flag == "--trace" && n <= 1) {
      opts.trace = n == 1;
    } else if (flag == "--max-ops") {
      opts.max_ops = n;
    } else if (flag == "--workers" && n <= 64) {
      opts.workers = static_cast<unsigned>(n);
    } else {
      return usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");

  RunReport report;
  if (opts.workload == "measure_loop") {
    report = run_measure_loop(opts);
  } else if (opts.workload == "slot_rush") {
    report = run_slot_rush(opts);
  } else if (opts.workload == "city_campaign") {
    report = run_city_campaign(opts);
  } else {
    return usage(("unknown workload '" + opts.workload + "'").c_str());
  }

  const Stamp stamp;
  bool all_ok = true;
  std::string checks = "[";
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    all_ok = all_ok && report.checks[i].ok;
    checks += (i ? "," : "") + std::string("{\"name\":") +
              json_string(report.checks[i].name) +
              ",\"ok\":" + (report.checks[i].ok ? "true" : "false") + "}";
  }
  checks += "]";
  std::string facts = "{";
  bool first = true;
  for (const auto& [k, v] : report.facts) {
    facts += (first ? "" : ",") + json_string(k) + ":" + json_string(v);
    first = false;
  }
  facts += "}";

  std::string op_ms;
  for (std::size_t i = 0; i < report.op_ms.size(); ++i)
    op_ms += (i ? "," : "") + json_number(report.op_ms[i]);

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%s,"
      "\"stamp\":{\"build_type\":%s,\"sanitizer\":%s,\"optimized\":%s,"
      "\"nproc\":%u,\"reportable\":%s},"
      "\"attempted\":%llu,\"failed\":%llu,\"checks\":%s,\"facts\":%s,"
      "\"end_to_end\":%s,\"per_layer\":%s,\"op_ms\":[%s]}\n",
      json_string(opts.workload).c_str(),
      static_cast<unsigned long long>(opts.seed),
      json_number(opts.seconds).c_str(), opts.trace ? "true" : "false",
      json_string(stamp.build_type).c_str(),
      json_string(stamp.sanitizer).c_str(),
      stamp.optimized ? "true" : "false",
      stamp.nproc, stamp.reportable() ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), checks.c_str(),
      facts.c_str(), metrics_json(report.end_to_end).c_str(),
      metrics_json(report.per_layer).c_str(), op_ms.c_str());
  return all_ok && report.failed == 0 ? 0 : 1;
}
