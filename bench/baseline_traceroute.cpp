// Baseline comparison: traceroute vs Debuglet for inter-domain fault
// localization (paper §II's critique of today's tools, quantified).
//
// Three controlled handicaps from the paper, each reproduced and measured:
//   1. "responding with ICMP TTL exceeded message is disabled or
//      rate-limited on many routers" — silent hops lose localization
//      coverage entirely;
//   2. "routers responding with ICMP TTL exceeded message process such
//      messages on the slow path" — per-hop RTTs carry control-plane bias
//      that data packets never experience;
//   3. ICMP-based probing (ping) rides the priority queues, so it misses
//      faults that only hit the data queues (Table I's mechanism) — here
//      an ICMP end-to-end measurement reports a healthy path while UDP
//      data suffers a 100 ms round-trip penalty.
//
// Debuglet measures the same fault with real data packets between
// executor pairs and localizes it exactly.
#include "bench_util.hpp"
#include "core/debuglet.hpp"
#include "simnet/hosts.hpp"

namespace {

using namespace debuglet;
using net::Protocol;

constexpr std::size_t kAses = 8;
constexpr double kHopMs = 5.0;
constexpr std::size_t kFaultLink = 5;  // AS6 -> AS7
constexpr double kFaultMs = 50.0;

}  // namespace

int main() {
  bench::banner("Baseline — traceroute vs Debuglet fault localization",
                "Debuglet (ICDCS'24), Section II");
  bench::ShapeChecks checks;

  core::DebugletSystem system(simnet::build_chain_scenario(kAses, 515,
                                                           kHopMs));
  auto& network = system.network();

  // The fault: +50 ms for UDP DATA only — a congested data queue whose
  // priority/control lanes are unaffected (Table I's mechanism).
  {
    auto* fwd = network.link_model(simnet::chain_egress(kFaultLink),
                                   simnet::chain_ingress(kFaultLink + 1));
    auto* rev = network.link_model(simnet::chain_ingress(kFaultLink + 1),
                                   simnet::chain_egress(kFaultLink));
    simnet::LinkConfig cfg = fwd->config();
    simnet::EpisodeSpec congestion;
    congestion.label = "data-queue congestion";
    congestion.on_mean_s = 1e9;
    congestion.off_mean_s = 1e-6;
    congestion.extra_delay_ms = kFaultMs;
    congestion.affects = {Protocol::kUdp, Protocol::kTcp};
    cfg.episodes = {congestion};
    // ICMP rides the priority/control queue on this link.
    cfg.policies[Protocol::kIcmp] = simnet::ProtocolPolicy{
        simnet::SelectionPolicy::kFixed, {0}, 1.0, /*priority=*/true};
    (void)network.configure_link_symmetric(simnet::chain_egress(kFaultLink),
                                           simnet::chain_ingress(kFaultLink + 1),
                                           cfg);
    (void)rev;
  }

  // Realistic router behaviour: some ASes mute or rate-limit ICMP.
  simnet::IcmpReplyPolicy muted;
  muted.time_exceeded_enabled = false;
  network.configure_icmp_policy(3, muted);
  simnet::IcmpReplyPolicy limited;
  limited.rate_limit_per_s = 1;
  network.configure_icmp_policy(5, limited);

  // --- Traceroute run -------------------------------------------------------
  const auto dst_addr = network.allocate_host_address(kAses);
  simnet::EchoServerHost destination(network, dst_addr);
  if (!network.attach_host(dst_addr, &destination)) return 2;
  const auto prober_addr = network.allocate_host_address(1);
  simnet::TracerouteConfig cfg;
  cfg.destination = dst_addr;
  cfg.max_ttl = static_cast<std::uint8_t>(kAses);
  cfg.probes_per_ttl = 5;
  simnet::TracerouteProber prober(network, prober_addr, cfg, 516);
  if (!network.attach_host(prober_addr, &prober)) return 2;
  prober.start();
  system.queue().run();

  const simnet::TracerouteReport& tr = prober.report();
  std::printf("\nTraceroute view (UDP probes, ICMP time-exceeded "
              "replies):\n");
  std::printf("%5s %-16s %10s %8s\n", "ttl", "responder", "rtt(ms)",
              "answers");
  double hop_delta_at_fault = 0.0;
  for (const simnet::TracerouteHop& hop : tr.hops) {
    if (hop.probes_sent == 0) continue;
    std::printf("%5u %-16s %10s %5zu/%u\n", hop.ttl,
                hop.responded ? hop.responder.to_string().c_str() : "*",
                hop.responded
                    ? std::to_string(hop.rtt_ms.mean()).substr(0, 6).c_str()
                    : "-",
                hop.rtt_ms.count(), hop.probes_sent);
  }
  // The traceroute "localization": per-hop RTT increments.
  // The fault sits between hop kFaultLink and kFaultLink+1.
  if (tr.hops[kFaultLink].responded && tr.hops[kFaultLink - 1].responded) {
    hop_delta_at_fault = tr.hops[kFaultLink].rtt_ms.mean() -
                         tr.hops[kFaultLink - 1].rtt_ms.mean();
  }
  std::printf("\nSilent hops: %.0f%%; RTT increment across the faulty link "
              "as seen by traceroute: %.1f ms\n",
              100.0 * tr.silent_hop_fraction(), hop_delta_at_fault);
  // Slow-path bias: hop 1's reply spent control-plane time that data never
  // sees (true data RTT to AS2's border is ~10.3 ms).
  const double hop1_bias =
      tr.hops[0].responded ? tr.hops[0].rtt_ms.mean() - 2 * kHopMs : 0.0;
  std::printf("Hop-1 slow-path bias: +%.1f ms over the data-plane RTT\n",
              hop1_bias);

  // --- Ping-style ICMP end-to-end view --------------------------------------
  // An ICMP measurement over the same path (priority queues): blind to the
  // data-plane fault.
  core::Initiator ping_initiator(system, 518, 2'000'000'000'000ULL);
  auto icmp_handle = ping_initiator.purchase_rtt_measurement(
      {1, 2}, {kAses, 1}, Protocol::kIcmp, 8, 100);
  if (!icmp_handle) return 2;
  auto icmp_outcome = ping_initiator.await_result(*icmp_handle);
  if (!icmp_outcome) {
    std::printf("icmp measurement failed: %s\n",
                icmp_outcome.error_message().c_str());
    return 2;
  }
  auto icmp_summary = core::summarize_rtt(icmp_outcome->client, 8);
  const double healthy_rtt = 2 * kHopMs * (kAses - 1) + 1.5;
  std::printf("\nICMP (ping-style) end-to-end RTT: %.1f ms — healthy "
              "baseline is %.1f ms: the fault is invisible to ICMP\n",
              icmp_summary->mean_ms, healthy_rtt);

  // --- Debuglet run ----------------------------------------------------------
  core::Initiator initiator(system, 517, 2'000'000'000'000ULL);
  auto path = network.topology().shortest_path(1, kAses);
  core::FaultCriteria criteria;
  criteria.per_link_rtt_ms = 2 * kHopMs + 0.5;
  criteria.slack_ms = 15.0;
  core::FaultLocalizer localizer(system, initiator, *path, criteria,
                                 Protocol::kUdp, 8, 100);
  auto report = localizer.run(core::Strategy::kBinarySearch);
  if (!report) {
    std::printf("debuglet localization failed: %s\n",
                report.error_message().c_str());
    return 2;
  }
  std::printf("\nDebuglet (real UDP data packets between executor pairs):\n");
  std::printf("  located: %s, link %zu (truth: %zu), %zu measurements\n",
              report->located ? "yes" : "no", report->fault_link, kFaultLink,
              report->measurements);
  double measured_fault = 0.0;
  for (const core::LocalizationStep& step : report->steps) {
    if (step.from_hop == kFaultLink && step.to_hop == kFaultLink + 1)
      measured_fault = step.summary.mean_ms - (2 * kHopMs);
  }
  if (measured_fault == 0.0) {
    // Binary search may not have measured the single link; measure it.
    auto step = localizer.measure_segment(kFaultLink, kFaultLink + 1);
    if (step) measured_fault = step->summary.mean_ms - (2 * kHopMs);
  }
  // The congestion hits both directions: 2 x 50 ms per round trip.
  std::printf("  measured fault magnitude: %.1f ms per RTT (truth: %.0f "
              "ms)\n",
              measured_fault, 2 * kFaultMs);

  checks.check(tr.silent_hop_fraction() > 0.0,
               "traceroute loses hops to disabled/rate-limited ICMP");
  checks.check(hop1_bias > 3.0,
               "traceroute hop RTTs carry slow-path bias data never sees");
  checks.check(icmp_summary->mean_ms < healthy_rtt + 10.0,
               "ICMP (ping) probing is blind to the data-plane fault");
  checks.check(report->located && report->fault_link == kFaultLink,
               "Debuglet localizes the faulty link exactly");
  checks.check(std::abs(measured_fault - 2 * kFaultMs) < 8.0,
               "Debuglet measures the data-plane fault magnitude");
  return checks.summary();
}
