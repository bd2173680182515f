// Writing your own Debuglet: "programmable" is the point of the paper.
//
// This example authors a custom measurement program in DVM assembly — an
// exception-reporting RTT watchdog that only records probes slower than a
// threshold (keeping on-chain result bytes, and therefore storage fees,
// minimal) — validates it, ships it through the marketplace with a
// matching manifest, and reads back the certified exception report.
//
// Run:  ./example_custom_debuglet
#include <cstdio>

#include "core/debuglet.hpp"
#include "vm/assembler.hpp"
#include "vm/validator.hpp"

using namespace debuglet;

// Parameters: 0=proto 1=server 2=port 3=count 4=interval_ms 5=timeout_ms
//             6=payload_len 7=threshold_ms
// Output: one (seq, rtt_ms) record per probe slower than the threshold.
static const char* kWatchdogSource = R"(
memory 8192
import dbg_param
import dbg_now
import dbg_send
import dbg_recv
import dbg_sleep
import dbg_output

func run_debuglet locals 5
; locals: 0=i  1=slow_count  2=t0  3=len  4=rtt_ms
top:
  local.get 0
  const 3
  call_host dbg_param
  ge_s
  jump_if done

  call_host dbg_now            ; t0 = now
  local.set 2

  const 1024                   ; payload[0..8) = seq
  local.get 0
  store64
  const 1024                   ; payload[8..16) = t0
  local.get 2
  store64 8

  const 0                      ; dbg_send(proto, server, port, buf, len)
  call_host dbg_param
  const 1
  call_host dbg_param
  const 2
  call_host dbg_param
  const 1024
  const 6
  call_host dbg_param
  call_host dbg_send
  drop

  const 0                      ; len = dbg_recv(proto, buf, cap, timeout)
  call_host dbg_param
  const 2048
  const 512
  const 5
  call_host dbg_param
  call_host dbg_recv
  local.set 3

  local.get 3                  ; timeout or runt reply -> next
  const 16
  lt_s
  jump_if next

  const 2048                   ; stale reply -> next
  load64
  local.get 0
  ne
  jump_if next

  call_host dbg_now            ; rtt_ms = (now - t0) / 1e6
  local.get 2
  sub
  const 1000000
  div_s
  local.set 4

  local.get 4                  ; fast probe -> not an exception
  const 7
  call_host dbg_param
  le_s
  jump_if next

  const 3072                   ; report (seq, rtt_ms)
  local.get 0
  store64
  const 3072
  local.get 4
  store64 8
  const 3072
  const 16
  call_host dbg_output
  drop
  local.get 1
  const 1
  add
  local.set 1

next:
  local.get 0
  const 1
  add
  local.set 0
  const 4
  call_host dbg_param
  call_host dbg_sleep
  drop
  jump top

done:
  local.get 1
  return
end
)";

int main() {
  std::printf("Custom Debuglet: RTT exception watchdog\n");
  std::printf("=======================================\n\n");

  // 1. Assemble and validate the custom program.
  auto module = vm::assemble(kWatchdogSource);
  if (!module) {
    std::printf("assembly failed: %s\n", module.error_message().c_str());
    return 1;
  }
  if (auto valid = vm::validate(*module); !valid) {
    std::printf("validation failed: %s\n", valid.error_message().c_str());
    return 1;
  }
  const Bytes bytecode = module->serialize();
  std::printf("Assembled watchdog: %zu instructions, %zu bytecode bytes\n",
              module->functions[0].code.size(), bytecode.size());

  // 2. A world with a TRANSIENT fault: +80 ms on the middle link between
  //    t=5s and t=12s. The watchdog should flag exactly the probes inside
  //    that window.
  core::DebugletSystem system(simnet::build_chain_scenario(4, 2121, 5.0));
  simnet::FaultSpec fault;
  fault.extra_delay_ms = 80.0;
  fault.start = duration::seconds(5);
  fault.end = duration::seconds(12);
  (void)system.network().inject_fault(simnet::chain_egress(1),
                                simnet::chain_ingress(2), fault);

  core::Initiator initiator(system, 2122, 500'000'000'000ULL);
  const auto& topo = system.network().topology();
  const net::Ipv4Address server_addr = topo.address_of({4, 1});

  // 3. Ship it through the marketplace with a matching manifest.
  constexpr std::int64_t kProbes = 40;
  constexpr std::uint16_t kPort = 46123;
  core::MeasurementRequest request;
  request.client_key = {1, 2};
  request.server_key = {4, 1};
  request.client_app.bytecode = bytecode;
  request.client_app.manifest =
      apps::client_manifest(net::Protocol::kUdp, server_addr, kProbes,
                            duration::seconds(60))
          .serialize();
  request.client_app.parameters = {
      static_cast<std::int64_t>(net::Protocol::kUdp),
      static_cast<std::int64_t>(server_addr.value),
      kPort,
      kProbes,
      /*interval_ms=*/500,
      /*timeout_ms=*/450,
      /*payload_len=*/16,
      /*threshold_ms=*/40};
  apps::EchoServerParams sp;
  sp.protocol = net::Protocol::kUdp;
  sp.idle_timeout_ms = 3000;
  request.server_app.bytecode = apps::make_echo_server_debuglet().serialize();
  request.server_app.manifest =
      apps::server_manifest(net::Protocol::kUdp,
                            topo.address_of({1, 2}), kProbes,
                            duration::seconds(60))
          .serialize();
  request.server_app.parameters = sp.to_parameters();
  request.server_app.listen_port = kPort;

  auto handle = initiator.purchase(request);
  if (!handle) {
    std::printf("purchase failed: %s\n", handle.error_message().c_str());
    return 1;
  }

  // The 40 x 500 ms watchdog runs past the slot window; await_result waits
  // up to the 60 s the manifests declare.
  auto outcome = initiator.await_result(*handle);
  if (!outcome) {
    std::printf("collect failed: %s\n", outcome.error_message().c_str());
    return 1;
  }

  // 4. The certified exception report.
  std::printf("\nWatchdog ran %lld probes (one per 500 ms), threshold 40 "
              "ms;\nfault window [5 s, 12 s) injected +80 ms.\n\n",
              static_cast<long long>(kProbes));
  std::printf("Exceptions reported on-chain (%zu bytes instead of %lld):\n",
              outcome->client.record.output.size(),
              static_cast<long long>(kProbes * 16));
  auto records = apps::decode_samples(BytesView(
      outcome->client.record.output.data(),
      outcome->client.record.output.size()));
  for (const auto& r : *records) {
    std::printf("  probe %2llu: %lld ms\n",
                static_cast<unsigned long long>(r.sequence),
                static_cast<long long>(r.delay_ns));  // watchdog reports ms
  }
  std::printf("\nSlow probes flagged: %lld (certified exit value)\n",
              static_cast<long long>(outcome->client.record.exit_value));
  std::printf("Result certified by AS1 and recorded on-chain: %s\n",
              executor::verify_certified(outcome->client) ? "yes" : "NO");
  return 0;
}
