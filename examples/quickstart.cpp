// Quickstart: the full Debuglet lifecycle in ~100 lines.
//
//   1. Build a small inter-domain world (a 4-AS chain) with an executor at
//      every border router, all registered on the marketplace chain.
//   2. As an initiator, look up and purchase a pair of execution slots and
//      attach the probe-client / echo-server Debuglet bytecodes.
//   3. Let the simulation run: executors pull the applications from the
//      chain, run them in the DVM sandbox, and publish certified results.
//   4. Collect the results, verify the AS signatures, and print the RTTs.
//
// Run:  ./example_quickstart
#include <cstdio>

#include "core/debuglet.hpp"

using namespace debuglet;

int main() {
  std::printf("Debuglet quickstart\n===================\n\n");

  // 1. A 4-AS chain, 5 ms per inter-domain hop; executors deployed and
  //    registered on-chain automatically by DebugletSystem.
  core::DebugletSystem system(simnet::build_chain_scenario(4, /*seed=*/1,
                                                           /*hop_ms=*/5.0));
  std::printf("Topology: AS1 - AS2 - AS3 - AS4 (5 ms per link)\n");
  std::printf("Executors on-chain: %zu\n\n", system.executor_keys().size());

  // 2. A funded initiator purchases an RTT measurement between the egress
  //    border of AS1 and the ingress border of AS4: 20 UDP probes, one
  //    every 200 ms.
  core::Initiator initiator(system, /*seed=*/99,
                            /*funding=*/500'000'000'000ULL);
  auto handle = initiator.purchase_rtt_measurement(
      /*client_key=*/{1, 2}, /*server_key=*/{4, 1}, net::Protocol::kUdp,
      /*probe_count=*/20, /*interval_ms=*/200);
  if (!handle) {
    std::printf("purchase failed: %s\n", handle.error_message().c_str());
    return 1;
  }
  std::printf("Purchased measurement window [%s, %s] for %.4f SUI\n",
              format_time(handle->window_start).c_str(),
              format_time(handle->window_end).c_str(),
              chain::mist_to_sui(handle->price_paid));

  // 3. Run the world until the results publish.
  auto outcome = initiator.await_result(*handle);
  if (!outcome) {
    std::printf("collect failed: %s\n", outcome.error_message().c_str());
    return 1;
  }

  // 4. await_result() has already verified both AS signatures and the
  //    on-chain copies; show it explicitly anyway.
  const auto as1_key = system.as_public_key(1);
  std::printf("\nClient result certified by AS1: %s\n",
              executor::verify_certified(outcome->client, &*as1_key)
                  ? "signature OK"
                  : "SIGNATURE FAILED");
  std::printf("Chain integrity: %s\n",
              system.chain().verify_integrity() ? "OK" : "BROKEN");

  auto summary = core::summarize_rtt(outcome->client, 20);
  std::printf("\nMeasured AS1->AS4 segment (20 UDP probes):\n");
  std::printf("  answered : %zu/20 (loss %.1f%%)\n", summary->probes_answered,
              100.0 * summary->loss_rate());
  std::printf("  RTT      : mean %.2f ms, std %.2f ms, min %.2f, max %.2f\n",
              summary->mean_ms, summary->std_ms, summary->min_ms,
              summary->max_ms);
  std::printf("\nPer-probe samples:\n");
  auto samples = apps::decode_samples(BytesView(
      outcome->client.record.output.data(),
      outcome->client.record.output.size()));
  for (const auto& sample : *samples) {
    std::printf("  probe %2llu: %.3f ms\n",
                static_cast<unsigned long long>(sample.sequence),
                static_cast<double>(sample.delay_ns) / 1e6);
  }
  std::printf("\nExecutor earnings recorded on-chain; initiator spent %.4f "
              "SUI total (slots + gas).\n",
              chain::mist_to_sui(initiator.total_spent()));
  return 0;
}
