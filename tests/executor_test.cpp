#include <gtest/gtest.h>

#include "apps/debuglets.hpp"
#include "executor/executor.hpp"
#include "simnet/scenarios.hpp"
#include "vm/assembler.hpp"

namespace debuglet::executor {
namespace {

using net::Protocol;

// --- Manifest --------------------------------------------------------------

TEST(Manifest, SerializeParseRoundTrip) {
  Manifest m;
  m.cpu_fuel = 123456;
  m.max_duration = duration::seconds(42);
  m.peak_memory = 8192;
  m.max_packets_sent = 10;
  m.max_packets_received = 20;
  m.allowed_addresses = {net::Ipv4Address(10, 0, 0, 1),
                         net::Ipv4Address(10, 0, 0, 2)};
  m.capabilities = {Capability::kUdp, Capability::kClock};
  const Bytes b = m.serialize();
  auto back = Manifest::parse(BytesView(b.data(), b.size()));
  ASSERT_TRUE(back.ok()) << back.error_message();
  EXPECT_EQ(*back, m);
}

TEST(Manifest, ParseRejectsTrailing) {
  Manifest m;
  Bytes b = m.serialize();
  b.push_back(0);
  EXPECT_FALSE(Manifest::parse(BytesView(b.data(), b.size())).ok());
}

TEST(Manifest, AddressAllowlist) {
  Manifest m;
  m.allowed_addresses = {net::Ipv4Address(1, 2, 3, 4)};
  EXPECT_TRUE(m.allows_address(net::Ipv4Address(1, 2, 3, 4)));
  EXPECT_FALSE(m.allows_address(net::Ipv4Address(1, 2, 3, 5)));
}

TEST(ManifestPolicy, EachLimitEnforced) {
  ExecutorPolicy policy;
  policy.max_cpu_fuel = 1000;
  policy.max_duration = duration::seconds(10);
  policy.max_memory = 4096;
  policy.max_packets = 100;
  policy.grantable = {Capability::kUdp, Capability::kClock};

  Manifest ok;
  ok.cpu_fuel = 1000;
  ok.max_duration = duration::seconds(10);
  ok.peak_memory = 4096;
  ok.max_packets_sent = 100;
  ok.max_packets_received = 100;
  ok.allowed_addresses = {net::Ipv4Address(1, 1, 1, 1)};
  ok.capabilities = {Capability::kUdp};
  EXPECT_TRUE(evaluate_manifest(ok, policy).ok());

  Manifest fuel = ok;
  fuel.cpu_fuel = 1001;
  EXPECT_FALSE(evaluate_manifest(fuel, policy).ok());
  Manifest dur = ok;
  dur.max_duration = duration::seconds(11);
  EXPECT_FALSE(evaluate_manifest(dur, policy).ok());
  Manifest mem = ok;
  mem.peak_memory = 4097;
  EXPECT_FALSE(evaluate_manifest(mem, policy).ok());
  Manifest pkts = ok;
  pkts.max_packets_sent = 101;
  EXPECT_FALSE(evaluate_manifest(pkts, policy).ok());
  Manifest cap = ok;
  cap.capabilities = {Capability::kTcp};
  EXPECT_FALSE(evaluate_manifest(cap, policy).ok());
  Manifest noaddr = ok;
  noaddr.allowed_addresses.clear();
  EXPECT_FALSE(evaluate_manifest(noaddr, policy).ok());
}

// --- ResultRecord / certification -------------------------------------------

ResultRecord sample_record() {
  ResultRecord r;
  r.application_id = 42;
  r.executor_key = {7, 2};
  r.scheduled_start = duration::seconds(1);
  r.actual_start = duration::seconds(1) + duration::milliseconds(10);
  r.end_time = duration::seconds(3);
  r.exit_value = 99;
  r.packets_sent = 10;
  r.packets_received = 9;
  r.fuel_used = 12345;
  r.output = bytes_of("measurement-output");
  return r;
}

TEST(ResultRecord, RoundTrip) {
  const ResultRecord r = sample_record();
  const Bytes b = r.serialize();
  auto back = ResultRecord::parse(BytesView(b.data(), b.size()));
  ASSERT_TRUE(back.ok()) << back.error_message();
  EXPECT_EQ(*back, r);
}

TEST(Certification, VerifiesAndDetectsTampering) {
  const crypto::KeyPair as_key = crypto::KeyPair::from_seed(5001);
  const CertifiedResult cert = certify(sample_record(), as_key);
  EXPECT_TRUE(verify_certified(cert));
  const crypto::PublicKey pk = as_key.public_key();
  EXPECT_TRUE(verify_certified(cert, &pk));

  // Tampering with the record invalidates the signature.
  CertifiedResult tampered = cert;
  tampered.record.exit_value = 0;
  EXPECT_FALSE(verify_certified(tampered));

  // A different AS key must not pass as the expected signer.
  const crypto::PublicKey other =
      crypto::KeyPair::from_seed(5002).public_key();
  EXPECT_FALSE(verify_certified(cert, &other));
}

TEST(Certification, SerializedRoundTrip) {
  const crypto::KeyPair as_key = crypto::KeyPair::from_seed(5003);
  const CertifiedResult cert = certify(sample_record(), as_key);
  const Bytes b = cert.serialize();
  auto back = CertifiedResult::parse(BytesView(b.data(), b.size()));
  ASSERT_TRUE(back.ok()) << back.error_message();
  EXPECT_TRUE(verify_certified(*back));
  EXPECT_EQ(back->record, cert.record);
}

// --- ExecutorService end-to-end ---------------------------------------------

struct World {
  simnet::Scenario scenario;
  std::unique_ptr<ExecutorService> client_exec;
  std::unique_ptr<ExecutorService> server_exec;
  crypto::KeyPair client_as_key = crypto::KeyPair::from_seed(1);
  crypto::KeyPair server_as_key = crypto::KeyPair::from_seed(2);
};

World make_world(std::size_t chain_len = 3, double hop_ms = 5.0) {
  World w{simnet::build_chain_scenario(chain_len, 2718, hop_ms), nullptr,
          nullptr};
  ExecutorConfig cfg;
  w.client_exec = std::make_unique<ExecutorService>(
      *w.scenario.network, simnet::chain_egress(0), w.client_as_key, cfg, 10);
  w.server_exec = std::make_unique<ExecutorService>(
      *w.scenario.network, simnet::chain_ingress(chain_len - 1),
      w.server_as_key, cfg, 20);
  return w;
}

DebugletApp make_client_app(const World& w, std::int64_t probes,
                            std::uint16_t server_port) {
  apps::ProbeClientParams params;
  params.protocol = Protocol::kUdp;
  params.server = w.server_exec->address();
  params.server_port = server_port;
  params.probe_count = probes;
  params.interval_ms = 100;
  params.recv_timeout_ms = 80;
  DebugletApp app;
  app.application_id = 1;
  app.module_bytes = apps::make_probe_client_debuglet().serialize();
  app.manifest = apps::client_manifest(Protocol::kUdp,
                                       w.server_exec->address(), probes,
                                       duration::seconds(60));
  app.parameters = params.to_parameters();
  return app;
}

DebugletApp make_server_app(const World& w, std::uint16_t port) {
  apps::EchoServerParams params;
  params.protocol = Protocol::kUdp;
  params.idle_timeout_ms = 3000;
  DebugletApp app;
  app.application_id = 2;
  app.module_bytes = apps::make_echo_server_debuglet().serialize();
  app.manifest = apps::server_manifest(Protocol::kUdp,
                                       w.client_exec->address(), 100,
                                       duration::seconds(60));
  app.parameters = params.to_parameters();
  app.listen_port = port;
  return app;
}

TEST(Executor, DebugletPairMeasuresRtt) {
  World w = make_world();
  constexpr std::uint16_t kPort = 45000;
  std::optional<CertifiedResult> client_result, server_result;

  ASSERT_TRUE(w.server_exec
                  ->deploy_and_schedule(
                      make_server_app(w, kPort), duration::seconds(1),
                      [&](const CertifiedResult& r) { server_result = r; })
                  .ok());
  ASSERT_TRUE(w.client_exec
                  ->deploy_and_schedule(
                      make_client_app(w, 20, kPort), duration::seconds(1),
                      [&](const CertifiedResult& r) { client_result = r; })
                  .ok());
  w.scenario.queue->run();

  ASSERT_TRUE(client_result.has_value());
  ASSERT_TRUE(server_result.has_value());
  EXPECT_FALSE(client_result->record.trapped)
      << client_result->record.trap_message;
  EXPECT_FALSE(server_result->record.trapped)
      << server_result->record.trap_message;
  EXPECT_EQ(client_result->record.exit_value, 20) << "all probes answered";
  EXPECT_EQ(client_result->record.packets_sent, 20u);
  EXPECT_EQ(client_result->record.packets_received, 20u);
  EXPECT_EQ(server_result->record.exit_value, 20);

  // Both results carry valid AS signatures.
  EXPECT_TRUE(verify_certified(*client_result));
  EXPECT_TRUE(verify_certified(*server_result));

  // RTT ≈ 2 hops x 5 ms x 2 directions + transit + sandbox I/O overheads.
  auto samples = apps::decode_samples(
      BytesView(client_result->record.output.data(),
                client_result->record.output.size()));
  ASSERT_TRUE(samples.ok()) << samples.error_message();
  ASSERT_EQ(samples->size(), 20u);
  RunningStats stats;
  for (const auto& s : *samples)
    stats.add(static_cast<double>(s.delay_ns) / 1e6);
  EXPECT_NEAR(stats.mean(), 20.0 + 0.3 + 4 * 0.08, 0.5);

  // Setup time (~10 ms) delays the actual start (paper §V-B).
  EXPECT_GE(client_result->record.actual_start,
            duration::seconds(1) + duration::milliseconds(9));
  EXPECT_LE(client_result->record.actual_start,
            duration::seconds(1) + duration::milliseconds(12));
}

TEST(Executor, ManifestPacketBudgetTerminates) {
  World w = make_world();
  constexpr std::uint16_t kPort = 45001;
  std::optional<CertifiedResult> client_result;
  ASSERT_TRUE(w.server_exec
                  ->deploy_and_schedule(make_server_app(w, kPort),
                                        duration::seconds(1),
                                        [](const CertifiedResult&) {})
                  .ok());
  DebugletApp client = make_client_app(w, 50, kPort);
  // Only 5 sends allowed although the program wants 50.
  client.manifest.max_packets_sent = 5;
  ASSERT_TRUE(w.client_exec
                  ->deploy_and_schedule(
                      std::move(client), duration::seconds(1),
                      [&](const CertifiedResult& r) { client_result = r; })
                  .ok());
  w.scenario.queue->run();
  ASSERT_TRUE(client_result.has_value());
  EXPECT_TRUE(client_result->record.trapped);
  EXPECT_NE(client_result->record.trap_message.find("budget"),
            std::string::npos);
  EXPECT_EQ(client_result->record.packets_sent, 5u);
}

TEST(Executor, ManifestAddressAllowlistEnforced) {
  World w = make_world();
  constexpr std::uint16_t kPort = 45002;
  std::optional<CertifiedResult> client_result;
  DebugletApp client = make_client_app(w, 5, kPort);
  // Allow only an unrelated address: the send must trap.
  client.manifest.allowed_addresses = {net::Ipv4Address(9, 9, 9, 9)};
  ASSERT_TRUE(w.client_exec
                  ->deploy_and_schedule(
                      std::move(client), duration::seconds(1),
                      [&](const CertifiedResult& r) { client_result = r; })
                  .ok());
  w.scenario.queue->run();
  ASSERT_TRUE(client_result.has_value());
  EXPECT_TRUE(client_result->record.trapped);
  EXPECT_NE(client_result->record.trap_message.find("allowlist"),
            std::string::npos);
}

TEST(Executor, MissingCapabilityRejectedAtCallTime) {
  World w = make_world();
  std::optional<CertifiedResult> result;
  DebugletApp app = make_client_app(w, 5, 45003);
  // Strip the UDP capability but keep clock/random.
  app.manifest.capabilities = {Capability::kClock, Capability::kRandom};
  ASSERT_TRUE(w.client_exec
                  ->deploy_and_schedule(
                      std::move(app), duration::seconds(1),
                      [&](const CertifiedResult& r) { result = r; })
                  .ok());
  w.scenario.queue->run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->record.trapped);
  EXPECT_NE(result->record.trap_message.find("capability"),
            std::string::npos);
}

TEST(Executor, DeployRejectsOversizedManifest) {
  World w = make_world();
  DebugletApp app = make_client_app(w, 5, 45004);
  app.manifest.cpu_fuel = 1ULL << 60;
  EXPECT_FALSE(w.client_exec->deploy(std::move(app)).ok());
}

TEST(Executor, DeployRejectsInvalidModule) {
  World w = make_world();
  DebugletApp app = make_client_app(w, 5, 45005);
  app.module_bytes = bytes_of("not a module");
  EXPECT_FALSE(w.client_exec->deploy(std::move(app)).ok());
}

TEST(Executor, DeployRejectsModuleWithoutEntry) {
  World w = make_world();
  auto module = vm::assemble(R"(
    func not_the_entry
      const 0
      return
    end
  )");
  ASSERT_TRUE(module.ok());
  DebugletApp app = make_client_app(w, 5, 45006);
  app.module_bytes = module->serialize();
  EXPECT_FALSE(w.client_exec->deploy(std::move(app)).ok());
}

TEST(Executor, PortConflictRejected) {
  World w = make_world();
  DebugletApp a = make_server_app(w, 45100);
  DebugletApp b = make_server_app(w, 45100);
  EXPECT_TRUE(w.server_exec->deploy(std::move(a)).ok());
  EXPECT_FALSE(w.server_exec->deploy(std::move(b)).ok());
}

TEST(Executor, RecvTimeoutReturnsMinusOne) {
  World w = make_world();
  // Client probing a port where no server listens: all recv time out.
  std::optional<CertifiedResult> result;
  ASSERT_TRUE(w.client_exec
                  ->deploy_and_schedule(
                      make_client_app(w, 5, 45200), duration::seconds(1),
                      [&](const CertifiedResult& r) { result = r; })
                  .ok());
  w.scenario.queue->run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->record.trapped) << result->record.trap_message;
  EXPECT_EQ(result->record.exit_value, 0) << "no probe answered";
  EXPECT_EQ(result->record.packets_sent, 5u);
  EXPECT_TRUE(result->record.output.empty());
}

TEST(Executor, DeadlineTerminatesLongSleeper) {
  World w = make_world();
  auto module = vm::assemble(R"(
    import dbg_sleep
    func run_debuglet
      const 100000
      call_host dbg_sleep
      drop
      const 7
      return
    end
  )");
  ASSERT_TRUE(module.ok()) << module.error_message();
  DebugletApp app;
  app.application_id = 77;
  app.module_bytes = module->serialize();
  app.manifest.max_duration = duration::seconds(2);
  app.manifest.capabilities = {};
  std::optional<CertifiedResult> result;
  ASSERT_TRUE(w.client_exec
                  ->deploy_and_schedule(
                      std::move(app), 0,
                      [&](const CertifiedResult& r) { result = r; })
                  .ok());
  w.scenario.queue->run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->record.trapped);
  EXPECT_NE(result->record.trap_message.find("deadline"), std::string::npos);
}

TEST(Executor, OutputBufferConventionWhenNoExplicitOutput) {
  World w = make_world();
  auto module = vm::assemble(R"(
    memory 8192
    buffer output_buffer 4096 16
    func run_debuglet
      const 4096
      const 4242
      store64
      const 0
      return
    end
  )");
  ASSERT_TRUE(module.ok()) << module.error_message();
  DebugletApp app;
  app.application_id = 88;
  app.module_bytes = module->serialize();
  std::optional<CertifiedResult> result;
  ASSERT_TRUE(w.client_exec
                  ->deploy_and_schedule(
                      std::move(app), 0,
                      [&](const CertifiedResult& r) { result = r; })
                  .ok());
  w.scenario.queue->run();
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->record.output.size(), 16u);
  BytesReader r(BytesView(result->record.output.data(), 8));
  EXPECT_EQ(*r.u64(), 4242u);
}

TEST(Executor, ActiveDeploymentsTracked) {
  World w = make_world();
  EXPECT_EQ(w.server_exec->active_deployments(), 0u);
  ASSERT_TRUE(w.server_exec
                  ->deploy_and_schedule(make_server_app(w, 45300),
                                        duration::seconds(1),
                                        [](const CertifiedResult&) {})
                  .ok());
  EXPECT_EQ(w.server_exec->active_deployments(), 1u);
  w.scenario.queue->run();
  EXPECT_EQ(w.server_exec->active_deployments(), 0u);
}

// A Debuglet that returns at once: it needs no capability.
DebugletApp make_idle_app(std::uint16_t port) {
  static const Bytes module = [] {
    auto m = vm::assemble(R"(
      func run_debuglet
        const 0
        return
      end
    )");
    EXPECT_TRUE(m.ok()) << m.error_message();
    return m.ok() ? m->serialize() : Bytes{};
  }();
  DebugletApp app;
  app.module_bytes = module;
  app.listen_port = port;
  return app;
}

TEST(Executor, CompletionCallbackRedeploysIntoTheFreedCapacityAndPort) {
  World w = make_world();
  ExecutorConfig one;
  one.max_concurrent_deployments = 1;
  ExecutorService exec(*w.scenario.network, simnet::chain_ingress(1),
                       w.server_as_key, one, 30);
  std::optional<Result<DeploymentId>> again;
  auto redeploy = [&](const CertifiedResult&) {
    again = exec.deploy(make_idle_app(45400));
  };
  ASSERT_TRUE(exec.deploy_and_schedule(make_idle_app(45400), 0, redeploy).ok());
  w.scenario.queue->run();
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->ok()) << again->error_message();
  EXPECT_EQ(exec.active_deployments(), 1u);
}

TEST(Executor, HaltAbandonsDeploymentsWithEventsInFlight) {
  World w = make_world();
  constexpr std::uint16_t kPort = 45500;
  std::optional<CertifiedResult> client_result;
  bool server_completed = false;
  ASSERT_TRUE(w.server_exec
                  ->deploy_and_schedule(
                      make_server_app(w, kPort), duration::seconds(1),
                      [&](const CertifiedResult&) { server_completed = true; })
                  .ok());
  ASSERT_TRUE(w.client_exec
                  ->deploy_and_schedule(
                      make_client_app(w, 20, kPort), duration::seconds(1),
                      [&](const CertifiedResult& r) { client_result = r; })
                  .ok());
  // Mid-run: the server waits in dbg_recv with a timeout queued, probes
  // and replies are on the wire.
  w.scenario.queue->run_until(duration::seconds(1) +
                              duration::milliseconds(550));
  ASSERT_EQ(w.server_exec->active_deployments(), 1u);
  w.server_exec->halt();
  w.server_exec->halt();  // idempotent
  EXPECT_EQ(w.server_exec->active_deployments(), 0u);
  w.scenario.queue->run();

  EXPECT_FALSE(server_completed) << "an abandoned deployment never reports";
  ASSERT_TRUE(client_result.has_value());
  EXPECT_FALSE(client_result->record.trapped)
      << client_result->record.trap_message;
  EXPECT_GT(client_result->record.exit_value, 0);
  EXPECT_LT(client_result->record.exit_value, 20);
  EXPECT_EQ(w.client_exec->active_deployments(), 0u);
}

// Records every packet delivered to its address.
struct Collector : simnet::Host {
  void on_packet(const simnet::Delivery& delivery) override {
    packets.push_back(delivery.packet);
  }
  std::vector<net::Packet> packets;
};

TEST(Executor, AutoPortsCycleAboveTheRendezvousRange) {
  World w = make_world();
  ExecutorConfig unlimited;
  unlimited.max_concurrent_deployments = 0;
  ExecutorService exec(*w.scenario.network, simnet::chain_ingress(1),
                       w.client_as_key, unlimited, 30);
  // Hand out each of the 15,536 ports in [50000, 65535] once, then free
  // them all.
  for (std::uint32_t port = 50000; port <= 65535; ++port)
    ASSERT_TRUE(exec.deploy(make_idle_app(0)).ok()) << port;
  exec.halt();
  ASSERT_TRUE(exec.revive().ok());
  // A live deployment holds the port the cycle comes back to.
  ASSERT_TRUE(exec.deploy(make_idle_app(50000)).ok());

  // The next client probes from the next free port of the range, not from
  // a port that wrapped past 65535 toward the initiators' rendezvous
  // ports. A collector in place of the server executor records its probe.
  w.server_exec->halt();
  Collector sink;
  ASSERT_TRUE(
      w.scenario.network->attach_host(w.server_exec->address(), &sink).ok());
  const CompletionCallback ignore = [](const CertifiedResult&) {};
  DebugletApp client = make_client_app(w, 1, 9);
  ASSERT_TRUE(exec.deploy_and_schedule(std::move(client), 0, ignore).ok());
  w.scenario.queue->run();
  ASSERT_EQ(sink.packets.size(), 1u);
  ASSERT_TRUE(sink.packets[0].udp.has_value());
  EXPECT_EQ(sink.packets[0].udp->source_port, 50001);
  w.scenario.network->detach_host(w.server_exec->address());
}

}  // namespace
}  // namespace debuglet::executor
