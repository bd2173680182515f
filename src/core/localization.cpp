#include "core/localization.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "telemetry/int_header.hpp"
#include "telemetry/path_evidence.hpp"

namespace debuglet::core {

std::string strategy_name(Strategy s) {
  switch (s) {
    case Strategy::kLinearSequential: return "linear-sequential";
    case Strategy::kBinarySearch: return "binary-search";
    case Strategy::kParallelSweep: return "parallel-sweep";
    case Strategy::kInband: return "inband";
  }
  return "unknown";
}

FaultLocalizer::FaultLocalizer(DebugletSystem& system, Initiator& initiator,
                               topology::AsPath path, FaultCriteria criteria,
                               net::Protocol protocol,
                               std::int64_t probes_per_measurement,
                               std::int64_t probe_interval_ms)
    : system_(system),
      initiator_(initiator),
      path_(std::move(path)),
      criteria_(criteria),
      protocol_(protocol),
      probes_(probes_per_measurement),
      interval_ms_(probe_interval_ms) {}

simnet::LinkIntegrityStats FaultLocalizer::segment_integrity(
    std::size_t from_hop, std::size_t to_hop) const {
  simnet::LinkIntegrityStats total;
  for (std::size_t i = from_hop; i < to_hop && i + 1 < path_.length(); ++i) {
    const topology::InterfaceKey a{path_.hops[i].asn, path_.hops[i].egress};
    const topology::InterfaceKey b{path_.hops[i + 1].asn,
                                   path_.hops[i + 1].ingress};
    total += system_.network().link_integrity(a, b);
    total += system_.network().link_integrity(b, a);
  }
  return total;
}

bool FaultLocalizer::is_faulty(std::size_t links_crossed,
                               const RttSummary& s) const {
  if (s.probes_answered == 0) return true;  // blackhole
  if (s.loss_rate() > criteria_.max_loss) return true;
  const double expected =
      criteria_.per_link_rtt_ms * static_cast<double>(links_crossed);
  return s.mean_ms > expected + criteria_.slack_ms;
}

Result<LocalizationStep> FaultLocalizer::measure_segment(std::size_t from_hop,
                                                         std::size_t to_hop) {
  if (from_hop >= to_hop || to_hop >= path_.length())
    return fail("measure_segment: bad hop range");
  // Client at the egress-facing border of from_hop, server at the
  // ingress-facing border of to_hop — the paper's executors A and D.
  const topology::InterfaceKey client_key{path_.hops[from_hop].asn,
                                          path_.hops[from_hop].egress};
  const topology::InterfaceKey server_key{path_.hops[to_hop].asn,
                                          path_.hops[to_hop].ingress};
  const SimTime segment_begin = system_.queue().now();
  const simnet::LinkIntegrityStats integrity_before =
      segment_integrity(from_hop, to_hop);
  ResilientRttRequest request;
  request.client_key = client_key;
  request.server_key = server_key;
  request.protocol = protocol_;
  request.probe_count = probes_;
  request.interval_ms = interval_ms_;
  request.earliest_start = segment_begin;
  request.retry = retry_;
  auto measured = initiator_.measure_rtt_resilient(request);
  if (!measured) return measured.error();
  auto summary = summarize_rtt(measured->outcome.client,
                               static_cast<std::size_t>(probes_));
  if (!summary) return summary.error();

  obs::registry().counter("core.localization.segments_measured").add();
  if (obs::tracer().enabled()) {
    obs::Span span;
    span.name = "segment " + client_key.to_string() + ".." +
                server_key.to_string();
    span.category = "localization";
    span.sim_begin = segment_begin;
    span.sim_end = system_.queue().now();
    obs::tracer().record(std::move(span));
  }

  LocalizationStep step;
  step.from_hop = from_hop;
  step.to_hop = to_hop;
  step.summary = *summary;
  step.faulty = is_faulty(to_hop - from_hop, *summary);
  step.measured_at = system_.queue().now();
  step.wire_integrity =
      segment_integrity(from_hop, to_hop) - integrity_before;
  if (evidence_collector_)
    step.evidence = evidence_collector_(step, client_key, server_key);
  return step;
}

LocalizationStep FaultLocalizer::tolerant_segment(std::size_t from_hop,
                                                  std::size_t to_hop,
                                                  LocalizationReport& report) {
  auto measured = measure_segment(from_hop, to_hop);
  if (measured) return *measured;
  LocalizationStep step;
  step.from_hop = from_hop;
  step.to_hop = to_hop;
  step.measured = false;
  step.failure = measured.error_message();
  step.measured_at = system_.queue().now();
  ++report.segments_unmeasured;
  report.notes.push_back("segment " + std::to_string(from_hop) + ".." +
                         std::to_string(to_hop) +
                         " unmeasured: " + step.failure);
  obs::registry().counter("core.localization.segments_unmeasured").add();
  return step;
}

void FaultLocalizer::binary_search_pass(LocalizationReport& report) {
  // Confirm the path is faulty end to end, then halve. When the
  // preferred midpoint's executors are dead, slide deterministically
  // to the nearest split that still divides (lo, hi); when none is
  // measurable the fault is bracketed to [lo, hi - 1].
  const std::size_t n = path_.length();
  auto attempt = [&](std::size_t from, std::size_t to) -> LocalizationStep {
    LocalizationStep step = tolerant_segment(from, to, report);
    report.steps.push_back(step);
    if (step.measured) ++report.measurements;
    return step;
  };
  LocalizationStep whole = attempt(0, n - 1);
  if (!whole.measured) {
    report.links_unresolved = n - 1;
    report.notes.push_back(
        "whole-path check impossible: no verdict on any link");
    return;
  }
  if (!whole.faulty) return;  // nothing to localize
  std::size_t lo = 0, hi = n - 1;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    // Candidate splits strictly inside (lo, hi), nearest-to-mid
    // first; ties prefer the right (deterministic order).
    std::vector<std::size_t> splits;
    for (std::size_t d = 0; d < hi - lo; ++d) {
      if (mid + d > lo && mid + d < hi) splits.push_back(mid + d);
      if (d > 0 && mid >= lo + d + 1 && mid - d < hi)
        splits.push_back(mid - d);
    }
    bool advanced = false;
    for (std::size_t m : splits) {
      LocalizationStep step = attempt(lo, m);
      if (!step.measured) continue;
      if (step.faulty)
        hi = m;
      else
        lo = m;
      advanced = true;
      break;
    }
    if (!advanced) break;  // no measurable split: bracket [lo, hi-1]
  }
  report.located = true;
  report.fault_link = lo;
  report.fault_link_hi = hi - 1;
  report.exact = (hi - lo == 1);
  if (!report.exact) {
    report.links_unresolved += hi - lo;
    report.notes.push_back("fault bracketed to links [" +
                           std::to_string(lo) + ", " +
                           std::to_string(hi - 1) + "]");
  }
}

bool FaultLocalizer::inband_pass(LocalizationReport& report) {
  simnet::SimulatedNetwork& network = system_.network();
  simnet::EventQueue& queue = system_.queue();
  const std::size_t n = path_.length();
  const std::size_t links = n - 1;
  if (links > telemetry::IntHeader::kMaxHopsLimit) {
    report.notes.push_back("in-band: path longer than the INT hop budget");
    return false;
  }

  // Collector at the destination AS; the probe originates at the source
  // AS's egress border router, like the paper's executor A. send() needs
  // only a valid source address, not an attached sender.
  struct Collector : simnet::Host {
    std::vector<simnet::Delivery> deliveries;
    void on_packet(const simnet::Delivery& d) override {
      deliveries.push_back(d);
    }
  } collector;
  const net::Ipv4Address collector_addr =
      network.allocate_host_address(path_.hops.back().asn);
  if (Status attached = network.attach_host(collector_addr, &collector);
      !attached) {
    report.notes.push_back("in-band: " + attached.error_message());
    return false;
  }
  const net::Ipv4Address source_addr = network.topology().address_of(
      {path_.hops.front().asn, path_.hops.front().egress});

  const bool was_enabled = network.int_enabled();
  network.set_int_enabled(true);

  // One probe round: a few redundant copies of the same INT probe, sent
  // together. A single intact arrival suffices; redundancy only covers
  // wire loss, not extra measurement rounds.
  const telemetry::IntHeader prototype =
      telemetry::IntHeader::reserve(static_cast<std::uint8_t>(links));
  constexpr int kProbesPerRound = 3;
  const SimTime round_sent_at = queue.now();
  int sent = 0;
  for (int p = 0; p < kProbesPerRound; ++p) {
    net::ProbeSpec spec;
    spec.protocol = protocol_ == net::Protocol::kRawIp
                        ? net::Protocol::kRawIp
                        : net::Protocol::kUdp;  // INT rides UDP or raw IP
    spec.source = source_addr;
    spec.destination = collector_addr;
    spec.source_port = static_cast<std::uint16_t>(45000 + p);
    spec.destination_port = 45100;
    spec.sequence = static_cast<std::uint16_t>(p);
    spec.payload = prototype.serialize();
    auto wire = net::build_probe(spec);
    if (!wire) continue;
    if (network.send(source_addr, std::move(*wire))) ++sent;
  }
  queue.run_until(queue.now() + duration::seconds(2));

  network.set_int_enabled(was_enabled);
  network.detach_host(collector_addr);

  // First delivery with intact, path-matching evidence wins; rejected
  // ones are counted by typed reason so chaos runs show WHY in-band
  // degraded instead of silently falling back.
  std::optional<telemetry::PathEvidence> evidence;
  std::size_t rejected = 0;
  for (const simnet::Delivery& d : collector.deliveries) {
    telemetry::IntParseError kind = telemetry::IntParseError::kNone;
    auto header = telemetry::IntHeader::parse(
        BytesView(d.packet.payload.data(), d.packet.payload.size()), &kind);
    if (!header) {
      obs::registry()
          .counter("telemetry.parse_rejected",
                   {{"reason", telemetry::int_parse_error_name(kind)}})
          .add();
      ++rejected;
      continue;
    }
    auto built =
        telemetry::PathEvidence::from_header(*header, path_, d.sent_at);
    if (!built) {
      obs::registry()
          .counter("telemetry.evidence_rejected")
          .add();
      report.notes.push_back("in-band evidence rejected: " +
                             built.error_message());
      ++rejected;
      continue;
    }
    evidence = std::move(*built);
    break;
  }
  if (!evidence) {
    report.notes.push_back(
        "in-band: no intact evidence (" + std::to_string(sent) +
        " probes, " + std::to_string(collector.deliveries.size()) +
        " delivered, " + std::to_string(rejected) +
        " rejected); falling back to binary search");
    obs::registry().counter("core.localization.inband_fallbacks").add();
    return false;
  }

  // Verdict from one round. The per-link RTT criterion halves into a
  // one-way budget.
  const double one_way_budget_ms =
      criteria_.per_link_rtt_ms / 2.0 + criteria_.slack_ms / 2.0;
  report.measurements = 1;
  LocalizationStep step;
  step.from_hop = 0;
  step.to_hop = n - 1;
  step.summary.probes_sent = static_cast<std::size_t>(sent);
  step.summary.probes_answered = collector.deliveries.size();
  step.measured_at = queue.now();
  step.summary.mean_ms =
      duration::to_ms(queue.now() - round_sent_at);  // round wall time

  std::vector<std::size_t> over = evidence->links_over(one_way_budget_ms);
  if (!over.empty()) {
    report.located = true;
    report.fault_link = over.front();
    report.fault_link_hi = over.back();
    report.exact = (over.size() == 1);
    if (!report.exact) {
      report.links_unresolved += over.size();
      report.notes.push_back("in-band: " + std::to_string(over.size()) +
                             " links over budget");
    }
  }
  step.faulty = report.located;
  if (report.located) {
    report.notes.push_back(
        "in-band: localized from one probe round, link " +
        std::to_string(report.fault_link) + " one-way " +
        std::to_string(
            evidence->link(report.fault_link).one_way_ms) +
        " ms (budget " + std::to_string(one_way_budget_ms) + " ms)");
  } else {
    report.notes.push_back("in-band: all links within one-way budget");
  }
  report.steps.push_back(std::move(step));
  obs::registry().counter("core.localization.inband_rounds").add();
  return true;
}

Result<LocalizationReport> FaultLocalizer::run(Strategy strategy) {
  LocalizationReport report;
  report.started = system_.queue().now();
  const chain::Mist spent_before = initiator_.total_spent();
  const std::size_t n = path_.length();
  if (n < 2) return fail("localization needs a path of at least 2 ASes");
  report.links_total = n - 1;

  // Every attempted segment lands in report.steps; only measured ones
  // count toward report.measurements (healthy runs: identical to before).
  auto attempt = [&](std::size_t from, std::size_t to) -> LocalizationStep {
    LocalizationStep step = tolerant_segment(from, to, report);
    report.steps.push_back(step);
    if (step.measured) ++report.measurements;
    return step;
  };

  switch (strategy) {
    case Strategy::kLinearSequential: {
      // Scan from the front. When a boundary's executors are dead, grow
      // the span past them until a surviving pair covers it; a faulty
      // widened span then only BRACKETS the fault.
      std::size_t cursor = 0;
      while (cursor + 1 < n) {
        std::size_t to = cursor + 1;
        LocalizationStep step = attempt(cursor, to);
        while (!step.measured && to + 1 < n) {
          ++to;
          step = attempt(cursor, to);
        }
        if (!step.measured) {
          // Ran off the end of the path: no surviving pair covers the
          // remaining links at all.
          report.links_unresolved += (n - 1) - cursor;
          report.notes.push_back(
              "links " + std::to_string(cursor) + ".." +
              std::to_string(n - 2) + " unresolved: no surviving pair");
          break;
        }
        if (step.faulty) {
          report.located = true;
          report.fault_link = cursor;
          report.fault_link_hi = to - 1;
          report.exact = (to == cursor + 1);
          if (!report.exact) {
            report.links_unresolved += to - cursor;
            report.notes.push_back(
                "fault bracketed to links [" + std::to_string(cursor) +
                ", " + std::to_string(to - 1) + "]");
          }
          break;
        }
        cursor = to;
      }
      break;
    }
    case Strategy::kParallelSweep: {
      // Purchase EVERY link measurement before awaiting any, so they all
      // land in the earliest windows their (disjoint) executor pairs
      // offer and run concurrently. Minimal time-to-locate, maximal cost —
      // the trade-off §VI-D says "may not address cost concerns".
      struct Pending {
        std::size_t link;
        MeasurementHandle handle;
        simnet::LinkIntegrityStats integrity_before;
      };
      std::vector<Pending> pending;
      for (std::size_t link = 0; link + 1 < n; ++link) {
        const topology::InterfaceKey client_key{path_.hops[link].asn,
                                                path_.hops[link].egress};
        const topology::InterfaceKey server_key{path_.hops[link + 1].asn,
                                                path_.hops[link + 1].ingress};
        auto handle = initiator_.purchase_rtt_measurement(
            client_key, server_key, protocol_, probes_, interval_ms_,
            system_.queue().now());
        if (!handle) return handle.error();
        pending.push_back(
            Pending{link, *handle, segment_integrity(link, link + 1)});
      }
      for (const Pending& p : pending) {
        auto fetch = [&]() -> Result<RttSummary> {
          auto outcome = initiator_.await_result(p.handle);
          if (!outcome) {
            initiator_.reclaim_available(p.handle);
            return outcome.error();
          }
          return summarize_rtt(outcome->client,
                               static_cast<std::size_t>(probes_));
        }();
        LocalizationStep step;
        step.from_hop = p.link;
        step.to_hop = p.link + 1;
        step.measured_at = system_.queue().now();
        if (!fetch) {
          // Other links were bought independently — keep sweeping, just
          // mark this one unresolvable.
          step.measured = false;
          step.failure = fetch.error_message();
          ++report.segments_unmeasured;
          ++report.links_unresolved;
          report.notes.push_back("link " + std::to_string(p.link) +
                                 " unmeasured: " + step.failure);
          obs::registry()
              .counter("core.localization.segments_unmeasured")
              .add();
          report.steps.push_back(step);
          continue;
        }
        step.summary = *fetch;
        step.faulty = is_faulty(1, *fetch);
        step.wire_integrity =
            segment_integrity(p.link, p.link + 1) - p.integrity_before;
        if (evidence_collector_) {
          const topology::InterfaceKey client_key{path_.hops[p.link].asn,
                                                  path_.hops[p.link].egress};
          const topology::InterfaceKey server_key{
              path_.hops[p.link + 1].asn, path_.hops[p.link + 1].ingress};
          step.evidence = evidence_collector_(step, client_key, server_key);
        }
        report.steps.push_back(step);
        ++report.measurements;
        if (step.faulty && !report.located) {
          report.located = true;
          report.fault_link = p.link;
          report.fault_link_hi = p.link;
        }
      }
      break;
    }
    case Strategy::kBinarySearch:
      binary_search_pass(report);
      break;
    case Strategy::kInband:
      // One probe round of in-band per-hop records. Any failure to obtain
      // intact evidence (damaged wire, truncated stack, unexpected path)
      // degrades to purchased binary search — never a wrong verdict.
      if (!inband_pass(report)) binary_search_pass(report);
      break;
  }

  if (discrimination_probe_) {
    // Counter-measurement pass: the segment verdicts above came from
    // executor-pair probes an adversary may have recognized and treated
    // kindly (§VI-E). Twin probes from non-executor vantages check whether
    // any on-path AS discriminates; a hit is reported, never fatal.
    auto twin = discrimination_probe_();
    if (!twin) {
      report.notes.push_back("discrimination probe failed: " +
                             twin.error_message());
    } else if (twin->detected) {
      report.discrimination = twin->suspects;
      char note[160];
      if (twin->named_as() != 0)
        std::snprintf(note, sizeof(note),
                      "AS%u discriminates against unrecognized traffic "
                      "(confidence %.3f) — fault hiding suspected",
                      twin->named_as(), twin->top_confidence());
      else
        std::snprintf(note, sizeof(note),
                      "path discriminates against unrecognized traffic "
                      "(confidence %.3f, not localized)",
                      twin->top_confidence());
      report.notes.push_back(note);
    }
  }

  report.finished = system_.queue().now();
  report.tokens_spent = initiator_.total_spent() - spent_before;
  obs::registry()
      .histogram("core.localization.measurements_per_run",
                 {{"strategy", strategy_name(strategy)}})
      .record(static_cast<double>(report.measurements));
  obs::registry()
      .histogram("core.localization.time_to_locate_s",
                 {{"strategy", strategy_name(strategy)}})
      .record(duration::to_ms(report.time_to_locate()) / 1000.0);
  return report;
}

Result<IntraAsDerivation> FaultLocalizer::derive_intra_as(std::size_t as_hop) {
  if (as_hop == 0 || as_hop + 1 >= path_.length())
    return fail("derive_intra_as: hop must be interior to the path");
  IntraAsDerivation out;
  // Whole segment: A (egress of the previous AS) .. D (ingress of the
  // next AS) — crossing the target AS as real inter-domain traffic.
  auto whole = measure_segment(as_hop - 1, as_hop + 1);
  if (!whole) return whole.error();
  out.whole = whole->summary;
  // Left link: A .. B.
  auto left = measure_segment(as_hop - 1, as_hop);
  if (!left) return left.error();
  out.left_link = left->summary;
  // Right link: C .. D.
  auto right = measure_segment(as_hop, as_hop + 1);
  if (!right) return right.error();
  out.right_link = right->summary;
  return out;
}

}  // namespace debuglet::core
