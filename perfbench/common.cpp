#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <queue>

#include "apps/debuglets.hpp"
#include "core/system.hpp"
#include "crypto/schnorr.hpp"
#include "vm/interpreter.hpp"
#include "vm/validator.hpp"

namespace perfbench {

using namespace debuglet;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

volatile std::uint64_t g_burst_sink;

/// The reference burst (see Pace): 1,000 timed closures in a binary heap,
/// each owning a 64-byte payload; 7,500 times the earliest is copied out,
/// popped, run and replaced by a later one. Returns its wall time in ms.
double reference_burst_ms() {
  struct Event {
    std::uint64_t at;
    std::function<void()> run;
    bool operator<(const Event& other) const { return at > other.at; }
  };
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  {  // the heap is freed inside the timed region
    std::priority_queue<Event> queue;
    auto schedule = [&](std::uint64_t at, int i) {
      std::vector<std::uint8_t> payload(64, static_cast<std::uint8_t>(i));
      queue.push(Event{at, [&sum, payload] { sum += payload[7]; }});
    };
    for (int i = 0; i < 1000; ++i) schedule(next() % 100000, i);
    for (int i = 0; i < 7500; ++i) {
      Event e = queue.top();
      queue.pop();
      e.run();
      schedule(e.at + 1 + next() % 1000, i);
    }
  }
  const double ms = ms_between(t0, Clock::now());
  g_burst_sink = sum;
  return ms;
}

}  // namespace

void Pace::tick() {
  reference_burst_ms();  // warm-up, not timed
  bursts_ms_.push_back(reference_burst_ms());
}

double Pace::scale(double wall_ms) const {
  const std::size_t n = bursts_ms_.size();
  if (n < 2) return wall_ms;
  return wall_ms * kReferenceMs / (0.5 * (bursts_ms_[n - 2] + bursts_ms_[n - 1]));
}

double Pace::slowdown() const { return median(bursts_ms_) / kReferenceMs; }

Latency summarize_latency(std::vector<double> ms) {
  Latency out;
  out.samples = ms.size();
  if (ms.empty()) return out;
  std::sort(ms.begin(), ms.end());
  out.p50 = median(ms);
  const std::size_t n = ms.size();
  if (n >= 21) {
    // The 11th-largest value: exactly ten samples lie beyond it. Below 21
    // samples that rank falls under the median, so the tail is the max.
    out.tail = ms[n - 11];
    out.tail_percentile = 100.0 * static_cast<double>(n - 10) /
                          static_cast<double>(n);
  } else {
    out.tail = ms.back();
  }
  return out;
}

void report_end_to_end(RunReport& report, Ops ops, const std::string& op_name,
                       double peak_rss, const Pace& pace) {
  // The first operation warms caches and lazy state; it is checked like
  // every other but left out of the figures.
  if (ops.work.size() > 1) {
    ops.wall_ms.erase(ops.wall_ms.begin());
    ops.ref_ms.erase(ops.ref_ms.begin());
    ops.work.erase(ops.work.begin());
  }
  report.op_ms = ops.ref_ms;
  const Latency lat = summarize_latency(ops.ref_ms);
  char tail_note[160];
  if (lat.tail_percentile > 0)
    std::snprintf(tail_note, sizeof tail_note,
                  "p%.1f of %zu %s (10 samples beyond it)",
                  lat.tail_percentile, lat.samples, op_name.c_str());
  else
    std::snprintf(tail_note, sizeof tail_note,
                  "max of %zu %s (too few for ten beyond the tail)",
                  lat.samples, op_name.c_str());

  double wall_ms = 0.0;
  double ref_ms = 0.0;
  double work = 0.0;
  for (std::size_t i = 0; i < ops.work.size(); ++i) {
    wall_ms += ops.wall_ms[i];
    ref_ms += ops.ref_ms[i];
    work += ops.work[i];
  }
  const auto done = static_cast<std::uint64_t>(work);
  report.e2e("ops_per_s", ref_ms > 0 ? 1e3 * work / ref_ms : 0.0, "1/s",
             done, "work per second of timed operations, reference time");
  report.e2e("op_p50_ms", lat.p50, "ms", lat.samples,
             "median " + op_name + ", reference time");
  report.e2e("op_tail_ms", lat.tail, "ms", lat.samples, tail_note);
  report.e2e("peak_rss_mb", peak_rss, "MiB", 1);
  report.e2e("wall_ops_per_s", wall_ms > 0 ? 1e3 * work / wall_ms : 0.0,
             "1/s", done, "ops_per_s in wall time");
  char slowdown[32];
  std::snprintf(slowdown, sizeof slowdown, "%.3f", pace.slowdown());
  report.facts["machine_slowdown"] = slowdown;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int SpanRecorder::open(std::string name, std::uint64_t op) {
  Span span;
  span.name = std::move(name);
  span.start_ns = now_ns();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> SpanRecorder::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  return out;
}

bool SpanRecorder::nested() const {
  for (const Span& s : spans_) {
    if (s.end_ns < s.start_ns) return false;
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.op != p.op)
      return false;
  }
  return true;
}

double SpanRecorder::min_child_coverage(const std::string& root) const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  double lowest = 1.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 || s.name != root || s.end_ns <= s.start_ns) continue;
    lowest = std::min(lowest, static_cast<double>(covered[i]) /
                                  static_cast<double>(s.end_ns - s.start_ns));
  }
  return lowest;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double counter_total(const std::string& name) {
  double total = 0.0;
  for (const obs::MetricRow& row : obs::registry().snapshot())
    if (row.name == name && row.kind == obs::MetricRow::Kind::kCounter)
      total += row.value;
  return total;
}

void build_chain_worlds(std::uint64_t seed, unsigned count,
                        SetupTimes& times, Pace& pace,
                        std::unique_ptr<core::DebugletSystem>& system) {
  for (unsigned i = 0; i < count; ++i) {
    system.reset();  // one world at a time
    pace.tick();
    const auto t0 = Clock::now();
    simnet::Scenario scenario = simnet::build_chain_scenario(8, seed);
    const auto t1 = Clock::now();
    system = std::make_unique<core::DebugletSystem>(std::move(scenario),
                                                    core::SystemConfig{}, seed);
    const auto t2 = Clock::now();
    times.scenario_ms.push_back(ms_between(t0, t1));
    times.bootstrap_ms.push_back(ms_between(t1, t2));
    pace.tick();
    times.wall_s.push_back(ms_between(t0, t2) / 1e3);
    times.ref_s.push_back(pace.scale(ms_between(t0, t2)) / 1e3);
  }
}

void report_world_layers(RunReport& report, core::DebugletSystem& system) {
  const auto keys = system.executor_keys();
  report.layer("marketplace.calendar_slots",
               static_cast<double>(
                   system.marketplace().available_slots(keys.front()).size()),
               "count", 1, "slots of one executor after set-up");
  double named_bytes = 0.0;
  for (const auto& [key, entry] : system.chain().named_state())
    named_bytes += static_cast<double>(key.size() + entry.data.size());
  report.layer("chain.named_state_bytes", named_bytes, "bytes",
               system.chain().named_state().size(),
               "keys plus values of all named entries after set-up");
}

void report_setup(RunReport& report, const SetupTimes& times, bool layers) {
  report.e2e("setup_s", median(times.ref_s), "s", times.ref_s.size(),
             "median set-up of the run, reference time");
  report.e2e("wall_setup_s", median(times.wall_s), "s", times.wall_s.size(),
             "setup_s in wall time");
  if (!layers) return;
  if (!times.scenario_ms.empty())
    report.layer("simnet.scenario_build_ms", median(times.scenario_ms), "ms",
                 times.scenario_ms.size());
  if (!times.bootstrap_ms.empty())
    report.layer("core.system_bootstrap_ms", median(times.bootstrap_ms), "ms",
                 times.bootstrap_ms.size());
}

void report_crypto_layer(RunReport& report,
                         const std::vector<std::uint8_t>& message,
                         std::uint64_t seed) {
  const crypto::KeyPair key = crypto::KeyPair::from_seed(seed ^ 0xC0FFEEULL);
  const BytesView view(message.data(), message.size());
  constexpr int kReps = 15;
  std::vector<double> sign_us;
  std::vector<double> verify_us;
  bool all_ok = true;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    const crypto::Signature sig = key.sign(view);
    const auto t1 = Clock::now();
    all_ok = crypto::verify(key.public_key(), view, sig) && all_ok;
    const auto t2 = Clock::now();
    sign_us.push_back(ms_between(t0, t1) * 1e3);
    verify_us.push_back(ms_between(t1, t2) * 1e3);
  }
  report.layer("crypto.sign_us", median(sign_us), "us", sign_us.size(),
               std::to_string(message.size()) + "-byte signing message");
  report.layer("crypto.verify_us", median(verify_us), "us", verify_us.size());
  report.check(all_ok, "crypto: every signature over a workload "
                       "transaction verifies");
}

void report_quote_layer(
    RunReport& report, chain::Blockchain& chain,
    const std::vector<marketplace::LookupSlotArgs>& lookups) {
  std::vector<double> quote_ms;
  bool found = true;
  for (const marketplace::LookupSlotArgs& lookup : lookups) {
    const Bytes args = lookup.serialize();
    const auto t0 = Clock::now();
    auto view = chain.view(marketplace::kContractName, "LookupSlot",
                           BytesView(args.data(), args.size()));
    quote_ms.push_back(ms_between(t0, Clock::now()));
    auto quote = view ? marketplace::SlotQuote::parse(
                            BytesView(view->data(), view->size()))
                      : Result<marketplace::SlotQuote>(view.error());
    found = found && quote && quote->found;
  }
  report.layer("marketplace.quote_ms", median(quote_ms), "ms", quote_ms.size(),
               "LookupSlot view on the live calendar");
  report.check(found, "marketplace: every direct quote finds a slot");
}

void report_vm_layer(RunReport& report) {
  const Bytes client = apps::make_probe_client_debuglet().serialize();
  const Bytes server = apps::make_echo_server_debuglet().serialize();
  constexpr int kReps = 25;
  std::vector<double> load_us;
  bool all_ok = true;
  for (int i = 0; i < kReps; ++i) {
    for (const Bytes* wire : {&client, &server}) {
      const auto t0 = Clock::now();
      auto module = vm::Module::parse(BytesView(wire->data(), wire->size()));
      bool ok = module.ok() && vm::validate(*module).ok();
      if (ok) {
        // Stub host functions: the instance is created, never run.
        std::vector<vm::HostFunction> host;
        for (const std::string& name : module->host_imports)
          host.push_back(vm::HostFunction{
              name, 0,
              [](vm::Instance&, std::span<const std::int64_t>)
                  -> Result<std::int64_t> { return std::int64_t{0}; },
              false});
        ok = vm::Instance::create(std::move(*module), std::move(host)).ok();
      }
      load_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      all_ok = all_ok && ok;
    }
  }
  report.layer("vm.load_us", median(load_us), "us", load_us.size(),
               "parse+validate+create, probe client and echo server");
  report.check(all_ok, "vm: both Debuglets parse, validate and instantiate");
}

void report_histogram_layer(RunReport& report, const std::string& metric,
                            const std::string& histogram,
                            const std::string& unit, bool use_mean) {
  const obs::Histogram& h = obs::registry().histogram(histogram);
  report.layer(metric, use_mean ? h.mean() : h.p50(), unit, h.count(),
               std::string(use_mean ? "mean" : "p50") + " of program "
                                                         "histogram " +
                   histogram);
}

void report_trace_overhead(RunReport& report,
                           const std::vector<double>& traced_ms,
                           const std::vector<double>& untraced_ms) {
  const double traced = median(traced_ms);
  const double untraced = median(untraced_ms);
  report.layer("trace.overhead_ms", traced - untraced, "ms",
               traced_ms.size() + untraced_ms.size(),
               "median traced op minus median untraced op, interleaved");
  report.layer("trace.overhead_pct",
               untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0,
               "%", traced_ms.size() + untraced_ms.size());
}

void finish_trace(RunReport& report, const SpanRecorder& spans,
                  const Options& opts, const std::string& root,
                  double min_coverage) {
  report.check(spans.nested(), "trace: every span nests inside its parent");
  const double coverage = spans.min_child_coverage(root);
  report.layer("trace.span_coverage", coverage, "ratio",
               spans.durations_ms(root).size(),
               "lowest share of an operation covered by layer spans");
  if (min_coverage > 0) {
    char name[96];
    std::snprintf(name, sizeof name,
                  "trace: layer spans cover >= %.0f%% of each %s",
                  100.0 * min_coverage, root.c_str());
    report.check(coverage >= min_coverage, name);
  }
  report.facts["spans"] = std::to_string(spans.spans().size());
  if (!opts.trace_out.empty()) {
    const bool written = spans.write(opts.trace_out);
    report.check(written, "trace: span file written");
    if (written) report.facts["trace_file"] = opts.trace_out;
  }
}

}  // namespace perfbench
