// Ablation A4: centralized marketplace vs decentralized discovery
// (paper §VI-A "Alternative Channel for Discovering Executors").
//
// The marketplace integrates discovery, scheduling, verifiable publication
// and payment but is a single point of failure; the decentralized channel
// (executor addresses as route metadata) has no central party but gives up
// public verifiability. This bench measures delay-to-measurement for both
// flows on the same topology and tallies the qualitative trade-offs.
#include "bench_util.hpp"
#include "core/debuglet.hpp"

namespace {

using namespace debuglet;
using net::Protocol;

}  // namespace

int main() {
  bench::banner("Ablation A4 — marketplace vs decentralized discovery",
                "Debuglet (ICDCS'24), Section VI-A");
  bench::ShapeChecks checks;

  // --- Centralized: the full marketplace flow ------------------------------
  core::DebugletSystem system(simnet::build_chain_scenario(6, 606, 5.0));
  core::Initiator initiator(system, 607, 500'000'000'000ULL);
  const SimTime central_requested = system.queue().now();
  auto handle = initiator.purchase_rtt_measurement({1, 2}, {6, 1},
                                                   Protocol::kUdp, 5, 100);
  if (!handle) {
    std::printf("purchase failed: %s\n", handle.error_message().c_str());
    return 2;
  }
  auto central = initiator.await_result(*handle);
  if (!central) {
    std::printf("collect failed: %s\n", central.error_message().c_str());
    return 2;
  }
  const SimDuration central_delay =
      central->client.record.actual_start - central_requested;
  const bool central_verifiable = system.chain().verify_integrity();

  // --- Decentralized: gossip discovery + bilateral execution ---------------
  simnet::Scenario s = simnet::build_chain_scenario(6, 608, 5.0);
  executor::ExecutorService client_exec(*s.network, simnet::chain_egress(0),
                                        crypto::KeyPair::from_seed(61), {},
                                        71);
  executor::ExecutorService server_exec(*s.network, simnet::chain_ingress(5),
                                        crypto::KeyPair::from_seed(62), {},
                                        72);
  // Routing metadata has (long) converged before the fault occurs; at
  // fault time the initiator only pays a bilateral negotiation round trip
  // to the two executors before deployment.
  core::DiscoveryGossip gossip(*s.network, duration::milliseconds(50));
  gossip.originate_all();
  s.queue->run();
  if (!gossip.converged()) return 2;
  const SimTime decentral_requested = s.queue->now();
  auto adv = gossip.lookup(1, 6);
  if (!adv) return 2;

  // Bilateral negotiation: one request/response with each executor over
  // the same network path (~one path RTT), then direct deployment.
  auto path = s.network->topology().shortest_path(1, 6);
  auto negotiation_rtt =
      s.network->expected_path_delay_ms(*path, Protocol::kUdp);
  const SimTime start = decentral_requested +
                        duration::from_ms(2.0 * *negotiation_rtt);

  constexpr std::uint16_t kPort = 48000;
  apps::ProbeClientParams cp;
  cp.protocol = Protocol::kUdp;
  cp.server = server_exec.address();
  cp.server_port = kPort;
  cp.probe_count = 5;
  cp.interval_ms = 100;
  cp.recv_timeout_ms = 1000;
  executor::DebugletApp client_app;
  client_app.application_id = 1;
  client_app.module_bytes = apps::make_probe_client_debuglet().serialize();
  client_app.manifest = apps::client_manifest(
      Protocol::kUdp, server_exec.address(), 5, duration::seconds(30));
  client_app.parameters = cp.to_parameters();

  apps::EchoServerParams sp;
  sp.protocol = Protocol::kUdp;
  sp.idle_timeout_ms = 2000;
  executor::DebugletApp server_app;
  server_app.application_id = 2;
  server_app.module_bytes = apps::make_echo_server_debuglet().serialize();
  server_app.manifest = apps::server_manifest(
      Protocol::kUdp, client_exec.address(), 20, duration::seconds(30));
  server_app.parameters = sp.to_parameters();
  server_app.listen_port = kPort;

  std::optional<core::BilateralOutcome> bilateral;
  if (!core::run_bilateral(client_exec, server_exec, std::move(client_app),
                           std::move(server_app), start,
                           [&](const core::BilateralOutcome& o) {
                             bilateral = o;
                           }))
    return 2;
  s.queue->run();
  if (!bilateral) return 2;
  const SimDuration decentral_delay =
      bilateral->client.record.actual_start - decentral_requested;
  // Results are AS-signed but exist nowhere publicly.
  const bool bilateral_signed =
      executor::verify_certified(bilateral->client) &&
      executor::verify_certified(bilateral->server);

  std::printf("\n%-28s | %16s %16s\n", "property", "marketplace",
              "decentralized");
  std::printf("%.*s\n", 64,
              "----------------------------------------------------------------");
  std::printf("%-28s | %16s %16s\n", "delay-to-measurement",
              format_duration(central_delay).c_str(),
              format_duration(decentral_delay).c_str());
  std::printf("%-28s | %16s %16s\n", "publicly verifiable",
              central_verifiable ? "yes (on-chain)" : "no",
              "no (bilateral)");
  std::printf("%-28s | %16s %16s\n", "AS-signed results", "yes",
              bilateral_signed ? "yes" : "no");
  std::printf("%-28s | %16s %16s\n", "single point of failure",
              "yes (market)", "no");
  std::printf("%-28s | %16s %16s\n", "integrated payment", "yes (escrow)",
              "no (bilateral)");

  checks.check(decentral_delay < central_delay,
               "decentralized flow reacts faster (no chain critical path)");
  checks.check(central_delay < duration::seconds(1) &&
                   decentral_delay < duration::seconds(1),
               "both flows stay sub-second");
  checks.check(central_verifiable, "marketplace results publicly verifiable");
  checks.check(bilateral_signed,
               "bilateral results still carry AS signatures");
  return checks.summary();
}
