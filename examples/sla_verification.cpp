// SLA verification (paper §VI-B): a subscriber measures its provider's
// segment with Debuglets, publishes the certified results on-chain, and a
// third party (an arbiter) verifies them without trusting either side.
// The example also shows why cheating fails: results cannot be forged
// (wrong signature), re-signed (wrong AS key), re-reported (contract
// rejects double reports), or silently altered on-chain (hash links).
//
// Run:  ./example_sla_verification
#include <cstdio>

#include "core/debuglet.hpp"
#include "marketplace/contract.hpp"

using namespace debuglet;

int main() {
  std::printf("Debuglet SLA verification\n=========================\n\n");

  // AS1 is the subscriber's ISP; AS2 its provider; the SLA covers the
  // AS1-AS2 inter-domain link, promised at < 15 ms RTT / < 1% loss.
  core::DebugletSystem system(simnet::build_chain_scenario(3, 77, 5.0));
  core::Initiator subscriber(system, 78, 500'000'000'000ULL);

  // Tonight the provider's link is congested: +25 ms standing queue.
  simnet::FaultSpec congestion;
  congestion.extra_delay_ms = 25.0;
  congestion.start = 0;
  congestion.end = duration::hours(10);
  (void)system.network().inject_fault(simnet::chain_egress(0),
                                simnet::chain_ingress(1), congestion);

  auto handle = subscriber.purchase_rtt_measurement(
      {1, 2}, {2, 1}, net::Protocol::kUdp, 15, 200);
  if (!handle) {
    std::printf("purchase failed: %s\n", handle.error_message().c_str());
    return 1;
  }
  auto outcome = subscriber.await_result(*handle);
  if (!outcome) {
    std::printf("collect failed: %s\n", outcome.error_message().c_str());
    return 1;
  }

  auto summary = core::summarize_rtt(outcome->client, 15);
  const bool violated = summary->mean_ms > 15.0 || summary->loss_rate() > 0.01;
  std::printf("Measured provider segment: mean %.2f ms, loss %.1f%%\n",
              summary->mean_ms, 100.0 * summary->loss_rate());
  std::printf("SLA (<15 ms, <1%% loss): %s\n\n",
              violated ? "VIOLATED -> refund claim filed" : "met");

  // --- The arbiter's view: nothing but public data -------------------------
  std::printf("Arbiter verification:\n");
  const auto as1_pk = system.as_public_key(1);
  const bool sig_ok = executor::verify_certified(outcome->client, &*as1_pk);
  std::printf("  result signed by the hosting AS        : %s\n",
              sig_ok ? "yes" : "NO");
  std::printf("  blockchain hash links intact           : %s\n",
              system.chain().verify_integrity() ? "yes" : "NO");
  marketplace::LookupResultArgs lookup;
  lookup.application = handle->client_application;
  auto view = system.chain().view(marketplace::kContractName, "LookupResult",
                                  lookup.serialize());
  auto entry = marketplace::ResultEntry::parse(
      BytesView(view->data(), view->size()));
  std::printf("  result publicly retrievable on-chain   : %s (object %llu)\n",
              entry->found ? "yes" : "NO",
              static_cast<unsigned long long>(entry->result_object));

  // --- Cheating attempts ----------------------------------------------------
  std::printf("\nCheating attempts (all must fail):\n");

  // 1. The provider forges a rosier result and re-signs with its own key.
  executor::ResultRecord rosy = outcome->client.record;
  rosy.output.clear();
  const crypto::KeyPair provider_key = crypto::KeyPair::from_seed(666);
  executor::CertifiedResult forged = executor::certify(rosy, provider_key);
  std::printf("  forged result vs AS1's public key      : %s\n",
              executor::verify_certified(forged, &*as1_pk)
                  ? "ACCEPTED (bug!)"
                  : "rejected");

  // 2. The provider tampers with the record but keeps the old signature.
  executor::CertifiedResult tampered = outcome->client;
  tampered.record.output.clear();
  std::printf("  tampered record, original signature    : %s\n",
              executor::verify_certified(tampered) ? "ACCEPTED (bug!)"
                                                   : "rejected");

  // 3. The hosting AS tries to re-report a better result on-chain.
  auto agent = system.agent({1, 2});
  marketplace::ResultReadyArgs again;
  again.application = handle->client_application;
  again.result = executor::certify(rosy, (*agent)->operator_key())
                     .serialize();
  auto receipt = system.chain().submit(system.chain().make_transaction(
      (*agent)->operator_key(), marketplace::kContractName, "ResultReady",
      again.serialize()));
  std::printf("  double ResultReady on the contract     : %s (%s)\n",
              receipt->success ? "ACCEPTED (bug!)" : "rejected",
              receipt->error.c_str());
  return 0;
}
