// Microbenchmarks of the network simulator: event-queue throughput, link
// traversal (the per-packet hot path), full packet transit across a chain,
// and probe round-trips — these bound how much simulated measurement a
// wall-clock second buys.
//
// The custom main() first runs the throughput report — a probe fleet on
// a 1000-AS ring — and writes BENCH_simnet_scale.json via bench::Report
// before handing over to google-benchmark (so CI's
// `--benchmark_filter=-.*` run still produces the report).
// DEBUGLET_BENCH_HOURS scales the probe volume; the report records the
// visible CPU count next to its figures, and a fingerprint of the run
// (events, replies, every RTT sample) that depends on no machine.
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "simnet/hosts.hpp"
#include "simnet/scenarios.hpp"
#include "util/rng.hpp"

namespace {

using namespace debuglet;
using namespace debuglet::simnet;
using net::Protocol;

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    std::uint64_t sum = 0;
    for (int i = 0; i < 10000; ++i)
      q.schedule_at(i * 7 % 1000, [&sum] { ++sum; });
    q.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueue);

void BM_LinkTraverse(benchmark::State& state) {
  LinkConfig cfg;
  cfg.propagation_ms = 10.0;
  cfg.routes = {{0.0, 1.0, 1.0}, {2.0, 1.0, 1.0}, {4.0, 1.0, 1.0}};
  cfg.policies[Protocol::kUdp] =
      ProtocolPolicy{SelectionPolicy::kPerPacket, {0, 1, 2}, 1.0, false};
  EpisodeSpec ep;
  ep.on_mean_s = 100.0;
  ep.off_mean_s = 300.0;
  ep.extra_delay_ms = 5.0;
  cfg.episodes = {ep};
  cfg.shift = {1000.0, 3.0};
  LinkModel link(cfg, Rng(1));
  SimTime t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(link.traverse(Protocol::kUdp, 42, t));
    t += duration::milliseconds(10);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinkTraverse);

void BM_PacketAcrossChain(benchmark::State& state) {
  Scenario s = build_chain_scenario(static_cast<std::size_t>(state.range(0)),
                                    7);
  struct Sink : Host {
    void on_packet(const Delivery&) override { ++count; }
    std::uint64_t count = 0;
  } sink;
  const auto dst = s.network->allocate_host_address(
      static_cast<topology::AsNumber>(state.range(0)));
  (void)s.network->attach_host(dst, &sink);
  const auto src = s.network->allocate_host_address(1);
  net::ProbeSpec spec;
  spec.protocol = Protocol::kUdp;
  spec.source = src;
  spec.destination = dst;
  spec.payload = bytes_of("bench");
  const Bytes wire = *net::build_probe(spec);
  for (auto _ : state) {
    (void)s.network->send(src, wire);
    s.queue->run();
  }
  benchmark::DoNotOptimize(sink.count);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PacketAcrossChain)->Arg(3)->Arg(10);

void BM_ProbeRoundTripsPerSecond(benchmark::State& state) {
  // How much simulated measurement fits in a wall-clock second: full
  // probe round-trips including echo replies across a city pair.
  for (auto _ : state) {
    Scenario s = build_city_scenario(9);
    const auto server_addr = s.network->allocate_host_address(london_as());
    EchoServerHost server(*s.network, server_addr);
    (void)s.network->attach_host(server_addr, &server);
    const auto client_addr =
        s.network->allocate_host_address(city_as("Frankfurt"));
    ProbeClientConfig cfg;
    cfg.server = server_addr;
    cfg.probe_count = 1000;
    cfg.interval = duration::milliseconds(100);
    ProbeClientHost client(*s.network, client_addr, cfg, 10);
    (void)s.network->attach_host(client_addr, &client);
    client.start();
    s.queue->run();
    benchmark::DoNotOptimize(client.report().sent.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000 * 4);
}
BENCHMARK(BM_ProbeRoundTripsPerSecond);

// --- Throughput report ------------------------------------------------------

struct ScaleRun {
  double wall_s = 0.0;
  std::size_t events = 0;
  std::uint64_t packets = 0;  // probe replies received across all clients
  std::uint64_t fingerprint = 0;
};

/// One splitmix64 output from state `x`.
std::uint64_t mix(std::uint64_t x) { return splitmix64(x); }

/// One full run of the scale workload: `pairs` probe-client/echo-server
/// pairs spread around an `ases`-AS ring, each client `span` hops from
/// its server, UDP only.
ScaleRun run_scale(std::size_t ases, std::size_t pairs, std::size_t span,
                   std::uint64_t probes) {
  Scenario s = build_internet_scenario(ases, 7, 5.0);
  std::vector<std::unique_ptr<EchoServerHost>> servers;
  std::vector<std::unique_ptr<ProbeClientHost>> clients;
  const std::size_t stride = ases / pairs;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto client_as =
        static_cast<topology::AsNumber>(1 + (i * stride) % ases);
    const auto server_as =
        static_cast<topology::AsNumber>(1 + (i * stride + span) % ases);
    const auto server_addr = s.network->allocate_host_address(server_as);
    servers.push_back(std::make_unique<EchoServerHost>(*s.network,
                                                       server_addr));
    (void)s.network->attach_host(server_addr, servers.back().get());
    const auto client_addr = s.network->allocate_host_address(client_as);
    ProbeClientConfig cfg;
    cfg.server = server_addr;
    cfg.probe_count = probes;
    cfg.interval = duration::milliseconds(200);
    cfg.protocols = {Protocol::kUdp};
    clients.push_back(std::make_unique<ProbeClientHost>(
        *s.network, client_addr, cfg, 100 + i));
    (void)s.network->attach_host(client_addr, clients.back().get());
  }
  for (auto& c : clients) c->start();
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t events = s.queue->run();
  const auto t1 = std::chrono::steady_clock::now();

  ScaleRun out;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.events = events;
  for (auto& c : clients)
    for (const auto& [protocol, n] : c->report().received) out.packets += n;
  // Everything the simulation decided, in client order: a change that
  // moves any event, reply or RTT sample moves the fingerprint.
  std::uint64_t fp = mix(events ^ mix(out.packets));
  for (auto& c : clients)
    for (const auto& [protocol, samples] : c->report().rtt_ms)
      for (const double rtt : samples.samples())
        fp = mix(fp ^ std::bit_cast<std::uint64_t>(rtt));
  out.fingerprint = fp;
  return out;
}

int scale_report() {
  bench::banner("Event queue: events/sec and packets/sec",
                "simulator scale substrate (1000-AS ring)");
  bench::Report report("simnet_scale");

  // DEBUGLET_BENCH_HOURS scales the probe volume (CI smoke uses 0.2 →
  // 40 probes/client; the committed baseline was taken at 1.0).
  const double scale = bench::env_scale("DEBUGLET_BENCH_HOURS", 1.0);
  const std::size_t kAses = 1000;
  const std::size_t kPairs = 50;
  const std::size_t kSpan = 7;
  const auto probes = static_cast<std::uint64_t>(
      std::max(8.0, 200.0 * scale));
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  report.metric("cpus", cpus);
  report.metric("probes_per_client", static_cast<double>(probes));

  // One ring run at DEBUGLET_BENCH_HOURS=0.2 takes ~0.03 s, too short to
  // time: repeat it until the timed runs add up to kMinWallS and report
  // their totals. Every repeat must decide the same events.
  constexpr double kMinWallS = 0.5;
  ScaleRun run;
  int repeats = 0;
  bool same_fingerprint = true;
  do {
    const ScaleRun one = run_scale(kAses, kPairs, kSpan, probes);
    if (repeats++ == 0) run.fingerprint = one.fingerprint;
    same_fingerprint = same_fingerprint && one.fingerprint == run.fingerprint;
    run.wall_s += one.wall_s;
    run.events += one.events;
    run.packets += one.packets;
  } while (run.wall_s < kMinWallS);
  const double events_per_s =
      run.wall_s > 0 ? static_cast<double>(run.events) / run.wall_s : 0;
  const double packets_per_s =
      run.wall_s > 0 ? static_cast<double>(run.packets) / run.wall_s : 0;
  report.metric("events_per_sec", events_per_s);
  report.metric("packets_per_sec", packets_per_s);
  report.metric("wall_s", run.wall_s);
  report.metric("repeats", repeats);
  std::printf("  %10.0f events/s  %8.0f packets/s  wall %.3fs over %d runs\n",
              events_per_s, packets_per_s, run.wall_s, repeats);
  // CI compares the fingerprint with the committed value at
  // DEBUGLET_BENCH_HOURS=0.2 (bench/baselines/simnet_scale.json).
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(run.fingerprint));
  report.metric("fingerprint", 1, {{"hex", hex}});
  std::printf("  fingerprint %s (events, replies, RTT samples)\n", hex);
  // CI gates events_per_sec against the committed baseline.
  report.check(run.events > 0, "the ring run processed events");
  report.check(run.packets > 0, "probe replies came back");
  report.check(same_fingerprint, "every repeat has the same fingerprint");
  return report.summary();
}

}  // namespace

int main(int argc, char** argv) {
  const int report_rc = scale_report();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return report_rc;
}
