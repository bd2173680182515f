// Shared pieces of the perfbench workloads: command-line options, the run
// report, wall-clock helpers and the span recorder of the traced mode.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "marketplace/types.hpp"
#include "obs/metrics.hpp"

namespace debuglet::core {
class DebugletSystem;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after this many operations even if time remains (0 = no cap).
  /// The smoke test uses it to make runs tiny and replayable.
  std::uint64_t max_ops = 0;
  /// slot_rush batch workers; 0 = min(4, nproc).
  unsigned workers = 0;
  /// Traced mode writes its spans here (empty = don't write).
  std::string trace_out;
};

/// Set-ups per run; setup_s is their median. Chain worlds are built half
/// before the timed phase and half after it; city_campaign runs at least
/// this many sessions.
constexpr unsigned kSetups = 6;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value; 0 marks a layer this workload does not
  /// exercise (its value is then 0 and means nothing).
  std::uint64_t samples = 0;
  std::string note;
};

struct Check {
  std::string name;
  bool ok = false;
};

/// Everything one run reports. main() renders it as one JSON object.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Check> checks;
  /// Facts about the run that are not metrics (counts, the final block
  /// root the smoke test compares across worker counts).
  std::map<std::string, std::string> facts;
  /// Wall time of every timed operation, in run order (ms).
  std::vector<double> op_ms;

  void check(bool ok, std::string name) {
    checks.push_back(Check{std::move(name), ok});
  }
  void e2e(std::string name, double value, std::string unit,
           std::uint64_t samples, std::string note = {}) {
    end_to_end.push_back(
        Metric{std::move(name), value, std::move(unit), samples,
               std::move(note)});
  }
  void layer(std::string name, double value, std::string unit,
             std::uint64_t samples, std::string note = {}) {
    per_layer.push_back(Metric{std::move(name), value, std::move(unit),
                               samples, std::move(note)});
  }
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Median of a sample (0 when empty).
double median(std::vector<double> v);

/// Burst time, in ms, that defines reference time (see Pace).
constexpr double kReferenceMs = 2.0;

/// Converts wall time into reference time. Shared machines drift in speed
/// by up to 1.6x, in phases of seconds to minutes, and a wall-clock figure
/// follows the drift. A fixed reference burst runs before and after each
/// timed interval: a binary heap of timed closures that own small heap
/// payloads, popped and refilled like a discrete-event queue. It is code
/// of this benchmark only, so no change to ../src moves it, and it slows
/// down with the machine as the workloads do. Each tick runs the burst
/// twice and times the second run, so the caches and allocator free lists
/// it uses are its own, whatever the workload left behind. An interval's
/// reference time is its wall time times kReferenceMs over the mean of the
/// bursts around it: the time it would have taken with the machine at the
/// speed where a burst takes kReferenceMs.
class Pace {
 public:
  /// Runs one burst. Call it before the first interval and after each one;
  /// adjacent intervals can share the burst between them.
  void tick();
  /// `wall_ms`, the interval between the last two bursts, in reference ms.
  double scale(double wall_ms) const;
  /// Median burst over kReferenceMs: 1 at the reference speed, 1.3 when
  /// the machine runs 30% slower.
  double slowdown() const;

 private:
  std::vector<double> bursts_ms_;
};

/// The latency summary the benchmark reports for an operation: the median
/// and the highest percentile that still has at least ten samples beyond
/// it (the 11th-largest value), with that percentile's rank.
struct Latency {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  // 0 when under 21 samples (tail = max)
  std::size_t samples = 0;
};
Latency summarize_latency(std::vector<double> ms);

/// The timed operations of a run: each one's wall time, reference time
/// (Pace) and the work it completed (measurements, purchases, probes).
struct Ops {
  std::vector<double> wall_ms;
  std::vector<double> ref_ms;
  std::vector<double> work;
  void add(double wall, double ref, double done) {
    wall_ms.push_back(wall);
    ref_ms.push_back(ref);
    work.push_back(done);
  }
};

/// Appends the end-to-end metrics measured on the timed operations:
/// ops_per_s, op_p50_ms and op_tail_ms in reference time, wall_ops_per_s,
/// and peak_rss_mb.
void report_end_to_end(RunReport& report, Ops ops, const std::string& op_name,
                       double peak_rss, const Pace& pace);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Peak RSS read once `ops` operations are done, so that the figure does
/// not depend on how many operations a run's time allowed (memory grows
/// with chain history). Runs that end earlier read it at the end.
class RssAfter {
 public:
  explicit RssAfter(std::uint64_t ops) : ops_(ops) {}
  void done(std::uint64_t ops) {
    if (ops == ops_) mb_ = peak_rss_mb();
  }
  double mb() const { return mb_ > 0 ? mb_ : peak_rss_mb(); }

 private:
  std::uint64_t ops_;
  double mb_ = 0.0;
};

/// One traced span: a call the benchmark made into a layer.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // steady clock, relative to the recorder epoch
  std::int64_t end_ns = 0;
  int parent = -1;            // index into the recorder's spans, -1 = root
  std::uint64_t op = 0;       // the operation (request) id it belongs to
};

/// Spans kept in memory and written once at exit. Only the traced mode
/// creates one; untraced runs never touch it.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span as a child of the innermost open span.
  int open(std::string name, std::uint64_t op);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span with this name.
  std::vector<double> durations_ms(const std::string& name) const;

  /// True when every child lies inside its parent's interval and shares
  /// its operation id.
  bool nested() const;

  /// Lowest share of a root span's wall time covered by its direct
  /// children, over all roots named `root` (1 when there are none).
  double min_child_coverage(const std::string& root) const;

  /// Writes {"spans":[...]} as JSON.
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the recorder is null (untraced operations).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t op)
      : recorder_(recorder),
        index_(recorder ? recorder->open(std::move(name), op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Sum of a counter over every label set in the active obs registry.
double counter_total(const std::string& name);

/// Times of each set-up a run made.
struct SetupTimes {
  std::vector<double> scenario_ms;   // wall; chain worlds only
  std::vector<double> bootstrap_ms;  // wall; chain worlds only
  std::vector<double> wall_s;
  std::vector<double> ref_s;         // reference time (Pace)
};

/// Builds the measure_loop / slot_rush world `count` times — an 8-AS chain
/// with the default SystemConfig (48 h / 20 s calendars) — leaving the
/// last one in `system` and appending each build's times. Runs call it
/// before and after their timed phase, so that setup_s, the median, is
/// taken across the run rather than from one moment of it.
void build_chain_worlds(std::uint64_t seed, unsigned count, SetupTimes& times,
                        Pace& pace,
                        std::unique_ptr<debuglet::core::DebugletSystem>& system);

/// Per-layer metrics of a freshly set-up world: calendar size and the
/// size of the chain's named state.
void report_world_layers(RunReport& report,
                         debuglet::core::DebugletSystem& system);

/// Reports setup_s (reference time) and wall_setup_s (end-to-end) and,
/// when `layers`, the two parts of a chain world's set-up.
void report_setup(RunReport& report, const SetupTimes& times, bool layers);

/// Times KeyPair::sign and crypto::verify over `message` (a real workload
/// transaction's signing bytes) and reports crypto.sign_us / verify_us.
void report_crypto_layer(RunReport& report, const std::vector<std::uint8_t>&
                                                message, std::uint64_t seed);

/// Times Blockchain::view(LookupSlot) — the marketplace quote — once per
/// lookup on the live calendar and reports marketplace.quote_ms.
void report_quote_layer(
    RunReport& report, debuglet::chain::Blockchain& chain,
    const std::vector<debuglet::marketplace::LookupSlotArgs>& lookups);

/// Times Module::parse + validate + Instance::create of the probe-client
/// and echo-server Debuglets and reports vm.load_us.
void report_vm_layer(RunReport& report);

/// Reports a per-layer metric read from a program histogram: its p50, or
/// its mean when `use_mean`.
void report_histogram_layer(RunReport& report, const std::string& metric,
                            const std::string& histogram,
                            const std::string& unit, bool use_mean);

/// The traced-mode bookkeeping shared by every workload: whether operation
/// `i` is traced (every other one), and the overhead metric from the
/// traced and untraced operation times.
inline bool traced_op(const Options& opts, std::uint64_t i) {
  return opts.trace && i % 2 == 0;
}
void report_trace_overhead(RunReport& report,
                           const std::vector<double>& traced_ms,
                           const std::vector<double>& untraced_ms);

/// Span checks of the traced mode (nesting; coverage of `root` by its
/// children of at least `min_coverage`), and the span file.
void finish_trace(RunReport& report, const SpanRecorder& spans,
                  const Options& opts, const std::string& root,
                  double min_coverage);

RunReport run_measure_loop(const Options& opts);
RunReport run_slot_rush(const Options& opts);
RunReport run_city_campaign(const Options& opts);

}  // namespace perfbench
