// debuglet — command-line front end for the Debuglet system.
//
// Subcommands (all run on simulated worlds; everything is deterministic
// under --seed):
//
//   debuglet measure   --ases N --client AS#IF --server AS#IF
//                      [--proto udp|tcp|icmp|raw] [--probes N]
//                      [--interval MS] [--seal] [--seed S]
//       Purchase and run one marketplace measurement; print the certified,
//       verified results.
//
//   debuglet localize  --ases N --fault-link K [--fault-ms D]
//                      [--strategy linear|binary|parallel|inband] [--seed S]
//       Inject a fault and localize it with Debuglet-pair measurements
//       (inband: one INT probe round, falling back to binary search).
//
//   debuglet traceroute --ases N [--mute AS]... [--rate-limit AS]...
//                      [--seed S]
//       Run the traceroute baseline over the same kind of chain.
//
//   debuglet motivation [--city NAME] [--hours H] [--seed S]
//       Re-run the paper's §II protocol-differential experiment.
//
//   debuglet stats     [--ases N] [--probes N] [--interval MS] [--seed S]
//                      [--json [FILE]] [--csv [FILE]]
//       Run one measurement with metrics enabled and print every metric
//       the subsystems emitted; optionally export JSON lines / CSV.
//
//   debuglet stats --remote AS#IF [--partner AS#IF] [--ases N] [--seed S]
//       Purchase a stats-Debuglet pair, scrape the remote executor's
//       registry over the simulated network, and print the rows merged
//       under their remote_host label.
//
//   debuglet trace     [--ases N] [--fault-link K] [--seed S] [--out FILE]
//                      [--int]
//       Run a binary-search localization with span tracing enabled and
//       write a Chrome trace-event file of the run. With --int the
//       localization runs the in-band strategy instead and the per-hop
//       INT path records of one probe are printed.
//
//   debuglet chaos     [--ases N] [--fault-link K] [--fault-ms D]
//                      [--kill AS#IF]... [--crash AS#IF]...
//                      [--byzantine AS#IF] [--attempts N] [--seed S]
//                      [--link-corrupt PM] [--link-truncate PM]
//                      [--link-dup PM] [--link-reorder PM]
//                      [--link-flap-ms D] [--int] [--check-determinism]
//                      [--trace-out FILE]
//                      [--middlebox ASN:MODE[:SEVERITY]]...
//                      [--detect-discrimination]
//       Inject a link fault AND executor failures (killed agents, crashed
//       hosts, optionally a byzantine signer), then run a resilient
//       end-to-end measurement plus a degraded-mode localization. The
//       --link-* flags add wire-level chaos (per-mille rates) on every
//       directed chain link — bit corruption, truncation, duplication,
//       reordering, and a timed flap of the faulty link — and print a
//       fault matrix of injections vs. defenses. Exits 0 when the
//       measurement survives and the report brackets the injected link.
//       --int localizes with the in-band INT strategy (every-router
//       records; degrades to binary search when chaos destroys the
//       probe's record stack) and adds the telemetry.* counters to the
//       deterministic trace.
//       --middlebox installs an adversarial DPI middlebox inside an AS.
//       Modes: drop (per-mille discard of non-measurement classes),
//       delay (extra ms), mangle (per-mille payload bit flips), throttle
//       (packets/second budget), hide (fault hiding: ALL traffic suffers
//       SEVERITY ms + drops except recognized executor addresses and
//       probe signatures, which ride clean — the §VI-E adversary),
//       adaptive (hide plus an online learner: recurring measurement
//       signatures get promoted into the DPI table, so repeated identical
//       twins stop discriminating; SEVERITY sets the learning horizon in
//       sightings, default 8 — the arms-race adversary the randomized
//       twin generator + SPRT detector is built to beat).
//       --detect-discrimination runs the twin-probe counter-measurement
//       after localization: packet twins identical but for the port the
//       classifier keys on; per-class one-way delay, loss, and INT
//       residence name the discriminating AS. With a middlebox installed
//       in hide/delay/adaptive mode the verdict requires the detector to
//       name one of the middlebox ASes; with an honest network it
//       requires NO discrimination report. A named AS is additionally
//       reported to the on-chain reputation contract (the strike total
//       lands in the trace). --fault-ms 0 skips the link-fault
//       injection (the verdict then expects a clean localization).
//       --check-determinism replays the scenario with the same seed and
//       verifies the retry/failover/fault-matrix trace is bit-identical.
//       --trace-out writes the deterministic trace to FILE, so runs of two
//       builds can be byte-diffed.
//
//   debuglet chaos     --mass-purchase [N] [--pairs P] [--workers W]
//                      [--seed S] [--check-determinism] [--trace-out FILE]
//       Chain-side chaos: N initiators (default 10000) race to purchase
//       P executor pairs' single overlapping slot in ONE parallel batch
//       (docs/CHAIN.md). Exactly one purchase per pair may win; the trace
//       records every receipt, the winner map, escrow, token conservation
//       and the sealed block root — and contains no worker count or
//       timing, so CI byte-diffs it across --workers 1/2/4.
//       --check-determinism replays with the same seed and verifies the
//       trace is bit-identical.
//
//   debuglet asm FILE / debuglet disasm FILE
//       Assemble DVM assembly to a module file (FILE.dvm), or print the
//       assembly of a serialized module.
//
// Integer flags take whole base-10 integers (AS#IF keys too): a malformed
// value, or a --probes/--interval below 1, prints the error and exits 2.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "chain/chain.hpp"
#include "core/debuglet.hpp"
#include "marketplace/contract.hpp"
#include "obs/export.hpp"
#include "telemetry/int_header.hpp"
#include "telemetry/path_evidence.hpp"
#include "vm/assembler.hpp"
#include "vm/validator.hpp"

namespace {

using namespace debuglet;

// A malformed flag value; main() prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// All of `text` as a base-10 number of type T, or nullopt on junk, an
// empty string or overflow.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [at, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || at != end) return std::nullopt;
  return value;
}

// The lower bound of an integer flag that has none.
constexpr std::int64_t kAnyInt = std::numeric_limits<std::int64_t>::min();

// Minimal flag parser: --name value and --name (boolean) forms.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const std::string name = arg.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          values_[name].push_back(argv[++i]);
        } else {
          values_[name].push_back("");
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  std::string get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() || it->second.empty() || it->second[0].empty()
               ? fallback
               : it->second[0];
  }
  /// The flag's integer value, or `fallback` when it is absent or bare.
  /// Throws UsageError on junk or a value below `min`.
  std::int64_t get_int(const std::string& name, std::int64_t fallback,
                       std::int64_t min = kAnyInt) const {
    auto it = values_.find(name);
    if (it == values_.end() || it->second.empty() || it->second[0].empty())
      return fallback;
    return to_int(name, it->second[0], min);
  }
  bool has(const std::string& name) const { return values_.contains(name); }
  std::vector<std::string> get_all(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }
  std::vector<std::int64_t> get_ints(const std::string& name) const {
    std::vector<std::int64_t> out;
    auto it = values_.find(name);
    if (it == values_.end()) return out;
    for (const std::string& v : it->second)
      if (!v.empty()) out.push_back(to_int(name, v, kAnyInt));
    return out;
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  static std::int64_t to_int(const std::string& name, const std::string& text,
                             std::int64_t min) {
    const auto value = parse_whole<std::int64_t>(text);
    const std::string what = "--" + name + ": expected an integer";
    const std::string got = ", got '" + text + "'";
    if (!value) throw UsageError(what + got);
    if (*value < min)
      throw UsageError(what + " >= " + std::to_string(min) + got);
    return *value;
  }

  std::map<std::string, std::vector<std::string>> values_;
  std::vector<std::string> positional_;
};

Result<topology::InterfaceKey> parse_key(const std::string& text) {
  // "AS3#2" or "3#2".
  std::string_view s = text;
  if (s.starts_with("AS")) s.remove_prefix(2);
  const std::size_t hash = s.find('#');
  std::optional<topology::AsNumber> asn;
  std::optional<topology::InterfaceId> intf;
  if (hash != std::string_view::npos) {
    asn = parse_whole<topology::AsNumber>(s.substr(0, hash));
    intf = parse_whole<topology::InterfaceId>(s.substr(hash + 1));
  }
  if (!asn || !intf)
    return fail("expected AS#IF (e.g. 3#2), got '" + text + "'");
  return topology::InterfaceKey{*asn, *intf};
}

Result<net::Protocol> parse_protocol(const std::string& name) {
  if (name == "udp") return net::Protocol::kUdp;
  if (name == "tcp") return net::Protocol::kTcp;
  if (name == "icmp") return net::Protocol::kIcmp;
  if (name == "raw") return net::Protocol::kRawIp;
  return fail("unknown protocol '" + name + "'");
}

int cmd_measure(const Args& args) {
  const auto ases = static_cast<std::size_t>(args.get_int("ases", 4));
  auto client = parse_key(args.get("client", "1#2"));
  auto server = parse_key(
      args.get("server", "AS" + std::to_string(ases) + "#1"));
  auto protocol = parse_protocol(args.get("proto", "udp"));
  if (!client || !server || !protocol) {
    std::printf("error: %s%s%s\n", client.error_message().c_str(),
                server.error_message().c_str(),
                protocol.error_message().c_str());
    return 1;
  }
  const std::int64_t probes = args.get_int("probes", 10, 1);
  const std::int64_t interval = args.get_int("interval", 200, 1);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  core::DebugletSystem system(simnet::build_chain_scenario(ases, seed, 5.0));
  core::Initiator initiator(system, seed + 1, 500'000'000'000ULL);
  auto handle = initiator.purchase_rtt_measurement(
      *client, *server, *protocol, probes, interval, 0, args.has("seal"));
  if (!handle) {
    std::printf("purchase failed: %s\n", handle.error_message().c_str());
    return 1;
  }
  std::printf("purchased window [%s, %s] for %.4f SUI\n",
              format_time(handle->window_start).c_str(),
              format_time(handle->window_end).c_str(),
              chain::mist_to_sui(handle->price_paid));
  auto outcome = initiator.await_result(*handle);
  if (!outcome) {
    std::printf("collect failed: %s\n", outcome.error_message().c_str());
    return 1;
  }
  Bytes output = outcome->client.record.output;
  if (args.has("seal")) {
    auto opened = initiator.open_result(outcome->client);
    if (!opened) {
      std::printf("unseal failed: %s\n", opened.error_message().c_str());
      return 1;
    }
    std::printf("results were sealed on-chain (%zu bytes ciphertext)\n",
                output.size());
    output = *opened;
  }
  auto samples = apps::decode_samples(BytesView(output.data(), output.size()));
  if (!samples) {
    std::printf("decode failed: %s\n", samples.error_message().c_str());
    return 1;
  }
  RunningStats stats;
  for (const auto& s : *samples)
    stats.add(static_cast<double>(s.delay_ns) / 1e6);
  std::printf("%s %s -> %s: %zu/%lld answered, RTT mean %.2f ms, std %.2f "
              "ms\n",
              net::protocol_name(*protocol).c_str(),
              client->to_string().c_str(), server->to_string().c_str(),
              samples->size(), static_cast<long long>(probes), stats.mean(),
              stats.stddev());
  std::printf("certified by AS%u (verified), chain integrity %s\n",
              client->asn,
              system.chain().verify_integrity() ? "OK" : "BROKEN");
  return 0;
}

int cmd_localize(const Args& args) {
  const auto ases = static_cast<std::size_t>(args.get_int("ases", 10));
  const auto fault_link =
      static_cast<std::size_t>(args.get_int("fault-link", ases - 2));
  const double fault_ms =
      static_cast<double>(args.get_int("fault-ms", 60));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string strategy_name = args.get("strategy", "binary");
  core::Strategy strategy = core::Strategy::kBinarySearch;
  if (strategy_name == "linear")
    strategy = core::Strategy::kLinearSequential;
  else if (strategy_name == "parallel")
    strategy = core::Strategy::kParallelSweep;
  else if (strategy_name == "inband")
    strategy = core::Strategy::kInband;
  else if (strategy_name != "binary") {
    std::printf("unknown strategy '%s'\n", strategy_name.c_str());
    return 1;
  }
  if (fault_link + 1 >= ases) {
    std::printf("fault-link must be < %zu\n", ases - 1);
    return 1;
  }

  core::DebugletSystem system(simnet::build_chain_scenario(ases, seed, 5.0));
  simnet::FaultSpec fault;
  fault.extra_delay_ms = fault_ms;
  fault.start = 0;
  fault.end = duration::hours(100);
  (void)system.network().inject_fault(simnet::chain_egress(fault_link),
                                simnet::chain_ingress(fault_link + 1), fault);
  (void)system.network().inject_fault(simnet::chain_ingress(fault_link + 1),
                                simnet::chain_egress(fault_link), fault);

  core::Initiator initiator(system, seed + 1, 2'000'000'000'000ULL);
  auto path = system.network().topology().shortest_path(
      1, static_cast<topology::AsNumber>(ases));
  core::FaultCriteria criteria;
  criteria.per_link_rtt_ms = 10.5;
  criteria.slack_ms = 15.0;
  core::FaultLocalizer localizer(system, initiator, *path, criteria,
                                 net::Protocol::kUdp, 8, 100);
  auto report = localizer.run(strategy);
  if (!report) {
    std::printf("localization failed: %s\n", report.error_message().c_str());
    return 1;
  }
  for (const core::LocalizationStep& step : report->steps) {
    std::printf("  AS%u..AS%u: %7.2f ms, loss %4.1f%%  %s\n",
                path->hops[step.from_hop].asn, path->hops[step.to_hop].asn,
                step.summary.mean_ms, 100.0 * step.summary.loss_rate(),
                step.faulty ? "FAULTY" : "");
  }
  for (const std::string& note : report->notes)
    std::printf("  note: %s\n", note.c_str());
  if (report->located) {
    std::printf("fault on link AS%u - AS%u (injected after hop %zu)\n",
                path->hops[report->fault_link].asn,
                path->hops[report->fault_link + 1].asn, fault_link);
  } else {
    std::printf("no fault located\n");
  }
  std::printf("%zu measurements, %.4f SUI, time-to-locate %s\n",
              report->measurements, chain::mist_to_sui(report->tokens_spent),
              format_duration(report->time_to_locate()).c_str());
  return report->located && report->fault_link == fault_link ? 0 : 1;
}

int cmd_traceroute(const Args& args) {
  const auto ases = static_cast<std::size_t>(args.get_int("ases", 6));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  simnet::Scenario s = simnet::build_chain_scenario(ases, seed, 5.0);
  for (std::int64_t muted : args.get_ints("mute")) {
    simnet::IcmpReplyPolicy policy;
    policy.time_exceeded_enabled = false;
    s.network->configure_icmp_policy(
        static_cast<topology::AsNumber>(muted), policy);
  }
  for (std::int64_t limited : args.get_ints("rate-limit")) {
    simnet::IcmpReplyPolicy policy;
    policy.rate_limit_per_s = 1;
    s.network->configure_icmp_policy(
        static_cast<topology::AsNumber>(limited), policy);
  }

  const auto dst = s.network->allocate_host_address(
      static_cast<topology::AsNumber>(ases));
  simnet::EchoServerHost destination(*s.network, dst);
  if (!s.network->attach_host(dst, &destination)) return 1;
  const auto src = s.network->allocate_host_address(1);
  simnet::TracerouteConfig cfg;
  cfg.destination = dst;
  cfg.max_ttl = static_cast<std::uint8_t>(ases);
  simnet::TracerouteProber prober(*s.network, src, cfg, seed + 2);
  if (!s.network->attach_host(src, &prober)) return 1;
  prober.start();
  s.queue->run();
  std::printf("traceroute to %s, %u hops max\n", dst.to_string().c_str(),
              cfg.max_ttl);
  for (const simnet::TracerouteHop& hop : prober.report().hops) {
    if (hop.probes_sent == 0) continue;
    if (hop.responded) {
      std::printf("%3u  %-14s %7.3f ms (%zu/%u)\n", hop.ttl,
                  hop.responder.to_string().c_str(), hop.rtt_ms.mean(),
                  hop.rtt_ms.count(), hop.probes_sent);
    } else {
      std::printf("%3u  *\n", hop.ttl);
    }
  }
  return 0;
}

int cmd_motivation(const Args& args) {
  const std::string city = args.get("city", "NewYork");
  const double hours = static_cast<double>(args.get_int("hours", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2024));
  bool known = false;
  for (const std::string& name : simnet::city_names())
    known = known || name == city;
  if (!known) {
    std::printf("unknown city '%s'; options:", city.c_str());
    for (const std::string& name : simnet::city_names())
      std::printf(" %s", name.c_str());
    std::printf("\n");
    return 1;
  }
  simnet::Scenario s = simnet::build_city_scenario(seed);
  const auto server_addr =
      s.network->allocate_host_address(simnet::london_as());
  simnet::EchoServerHost server(*s.network, server_addr);
  if (!s.network->attach_host(server_addr, &server)) return 1;
  const auto client_addr =
      s.network->allocate_host_address(simnet::city_as(city));
  simnet::ProbeClientConfig cfg;
  cfg.server = server_addr;
  cfg.probe_count = static_cast<std::uint64_t>(hours * 3600.0);
  cfg.interval = duration::seconds(1);
  simnet::ProbeClientHost client(*s.network, client_addr, cfg, seed + 1);
  if (!s.network->attach_host(client_addr, &client)) return 1;
  client.start();
  s.queue->run();
  std::printf("%s <-> London, %.0f simulated hours:\n", city.c_str(), hours);
  std::printf("%-6s %9s %8s %9s\n", "proto", "mean(ms)", "std(ms)",
              "loss(pm)");
  for (net::Protocol p : net::kAllProtocols) {
    const auto& rtt = client.report().rtt_ms.at(p);
    std::printf("%-6s %9.2f %8.2f %9.2f\n", net::protocol_name(p).c_str(),
                rtt.mean(), rtt.stddev(), client.report().loss_per_mille(p));
  }
  return 0;
}

void print_metric_rows(const std::vector<obs::MetricRow>& rows) {
  for (const obs::MetricRow& row : rows) {
    const std::string name = row.name + obs::labels_to_string(row.labels);
    switch (row.kind) {
      case obs::MetricRow::Kind::kCounter:
        std::printf("  %-52s counter %14.0f\n", name.c_str(), row.value);
        break;
      case obs::MetricRow::Kind::kGauge:
        std::printf("  %-52s gauge   %14.2f  (max %.2f)\n", name.c_str(),
                    row.value, row.max);
        break;
      case obs::MetricRow::Kind::kHistogram:
        std::printf("  %-52s hist    count %-8llu mean %-10.3f p50 %-10.3f "
                    "p99 %-10.3f max %-10.3f\n",
                    name.c_str(), static_cast<unsigned long long>(row.count),
                    row.count ? row.sum / static_cast<double>(row.count) : 0.0,
                    row.p50, row.p99, row.max);
        break;
    }
  }
}

int cmd_stats_remote(const Args& args) {
  obs::set_enabled(true);
  const auto ases = static_cast<std::size_t>(args.get_int("ases", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  auto remote = parse_key(
      args.get("remote", "AS" + std::to_string(ases) + "#1"));
  auto partner = parse_key(args.get("partner", "1#2"));
  if (!remote || !partner) {
    std::printf("error: %s%s\n", remote.error_message().c_str(),
                partner.error_message().c_str());
    return 1;
  }

  core::DebugletSystem system(simnet::build_chain_scenario(ases, seed, 5.0));
  core::Initiator initiator(system, seed + 1, 500'000'000'000ULL);
  const auto scraper_addr = system.network().allocate_host_address(1);

  core::StatsPairRequest request;
  request.first_key = *remote;
  request.second_key = *partner;
  request.scraper_address = scraper_addr;
  auto deployment = core::purchase_stats_pair(initiator, system, request);
  if (!deployment) {
    std::printf("purchase failed: %s\n", deployment.error_message().c_str());
    return 1;
  }
  std::printf("stats pair deployed for window [%s, %s]; scraping %s:%u "
              "from %s\n",
              format_time(deployment->handle.window_start).c_str(),
              format_time(deployment->handle.window_end).c_str(),
              deployment->first_address.to_string().c_str(),
              deployment->first_port, scraper_addr.to_string().c_str());

  // Let the serving Debuglet boot (~10 ms sandbox setup after the window
  // opens), then scrape within its idle timeout.
  system.queue().run_until(deployment->handle.window_start +
                           duration::seconds(1));
  core::ScrapeConfig config;
  config.target = deployment->first_address;
  config.target_port = deployment->first_port;
  auto report = core::scrape_once(system, scraper_addr, config,
                                  system.queue().now() + duration::seconds(4));
  if (!report) {
    std::printf("scrape failed: %s\n", report.error_message().c_str());
    return 1;
  }

  obs::MetricsRegistry merged;
  if (auto s = obs::wire::merge_rows(merged, report->rows,
                                     deployment->first_address.to_string());
      !s) {
    std::printf("merge failed: %s\n", s.error_message().c_str());
    return 1;
  }
  std::printf("scraped %zu rows in %zu chunks (%zu requests, %zu retries)\n\n",
              report->rows.size(), report->chunks, report->requests_sent,
              report->retries);
  print_metric_rows(merged.snapshot());
  return 0;
}

int cmd_stats(const Args& args) {
  if (args.has("remote")) return cmd_stats_remote(args);
  // Metrics must be on BEFORE the world exists: instrumented objects cache
  // their handles (and the enabled flag) at construction.
  obs::set_enabled(true);
  const auto ases = static_cast<std::size_t>(args.get_int("ases", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::int64_t probes = args.get_int("probes", 10, 1);
  const std::int64_t interval = args.get_int("interval", 200, 1);

  core::DebugletSystem system(simnet::build_chain_scenario(ases, seed, 5.0));
  core::Initiator initiator(system, seed + 1, 500'000'000'000ULL);
  const topology::InterfaceKey client{1, 2};
  const topology::InterfaceKey server{static_cast<topology::AsNumber>(ases),
                                      1};
  auto handle = initiator.purchase_rtt_measurement(
      client, server, net::Protocol::kUdp, probes, interval, 0, false);
  if (!handle) {
    std::printf("purchase failed: %s\n", handle.error_message().c_str());
    return 1;
  }
  auto outcome = initiator.await_result(*handle);
  if (!outcome) {
    std::printf("collect failed: %s\n", outcome.error_message().c_str());
    return 1;
  }

  const std::vector<obs::MetricRow> rows = obs::registry().snapshot();
  std::printf("metrics after one %zu-AS measurement (seed %llu):\n\n", ases,
              static_cast<unsigned long long>(seed));
  print_metric_rows(rows);
  if (args.has("json")) {
    const std::string path = args.get("json", "debuglet_stats.jsonl");
    std::ofstream out(path);
    obs::write_metrics_jsonl(rows, out);
    std::printf("\nwrote %zu metrics to %s\n", rows.size(), path.c_str());
  }
  if (args.has("csv")) {
    const std::string path = args.get("csv", "debuglet_stats.csv");
    std::ofstream out(path);
    obs::write_metrics_csv(rows, out);
    std::printf("\nwrote %zu metrics to %s\n", rows.size(), path.c_str());
  }
  return 0;
}

// Sends one INT probe end to end over `path` and prints the per-hop
// records (the `trace --int` / example_int_path_trace view of a path).
void print_int_path_records(core::DebugletSystem& system,
                            const topology::AsPath& path) {
  simnet::SimulatedNetwork& network = system.network();
  struct Collector : simnet::Host {
    std::vector<simnet::Delivery> deliveries;
    void on_packet(const simnet::Delivery& d) override {
      deliveries.push_back(d);
    }
  } collector;
  const auto dst = network.allocate_host_address(path.hops.back().asn);
  if (!network.attach_host(dst, &collector)) return;
  const auto src = network.topology().address_of(
      {path.hops.front().asn, path.hops.front().egress});
  const bool was_enabled = network.int_enabled();
  network.set_int_enabled(true);

  net::ProbeSpec spec;
  spec.protocol = net::Protocol::kUdp;
  spec.source = src;
  spec.destination = dst;
  spec.source_port = 48000;
  spec.destination_port = 48001;
  spec.payload = telemetry::IntHeader::reserve(
                     static_cast<std::uint8_t>(path.length() - 1))
                     .serialize();
  auto wire = net::build_probe(spec);
  if (wire) (void)network.send(src, std::move(*wire));
  system.queue().run_until(system.queue().now() + duration::seconds(2));
  network.set_int_enabled(was_enabled);
  network.detach_host(dst);

  if (collector.deliveries.empty()) {
    std::printf("in-band trace probe was lost\n");
    return;
  }
  const simnet::Delivery& d = collector.deliveries.front();
  auto header = telemetry::IntHeader::parse(
      BytesView(d.packet.payload.data(), d.packet.payload.size()));
  if (!header) {
    std::printf("in-band trace unreadable: %s\n",
                header.error_message().c_str());
    return;
  }
  auto evidence = telemetry::PathEvidence::from_header(*header, path,
                                                       d.sent_at);
  if (!evidence) {
    std::printf("in-band trace rejected: %s\n",
                evidence.error_message().c_str());
    return;
  }
  std::printf("in-band path records (1 probe, %zu hops):\n",
              evidence->links());
  std::printf("  %-4s %-6s %-9s | %10s %10s %7s %7s %7s\n", "hop", "AS",
              "iface", "link(ms)", "resid(ms)", "queue", "drops", "faults");
  for (const telemetry::LinkObservation& o : evidence->observations()) {
    std::printf("  %-4zu %-6u %3u->%-5u | %10.3f %10.3f %7u %7u %7u\n",
                o.link, o.record.asn, o.record.ingress_interface,
                o.record.egress_interface, o.one_way_ms, o.residence_ms,
                o.record.queue_depth, o.record.drops_seen,
                o.record.wire_faults);
  }
}

int cmd_trace(const Args& args) {
  obs::set_enabled(true);
  obs::tracer().set_enabled(true);
  const auto ases = static_cast<std::size_t>(args.get_int("ases", 6));
  const auto fault_link =
      static_cast<std::size_t>(args.get_int("fault-link", ases - 2));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string out_path = args.get("out", "debuglet_trace.json");
  if (fault_link + 1 >= ases) {
    std::printf("fault-link must be < %zu\n", ases - 1);
    return 1;
  }

  core::DebugletSystem system(simnet::build_chain_scenario(ases, seed, 5.0));
  obs::tracer().set_sim_clock([&system] { return system.queue().now(); });
  simnet::FaultSpec fault;
  fault.extra_delay_ms = 60.0;
  fault.start = 0;
  fault.end = duration::hours(100);
  (void)system.network().inject_fault(simnet::chain_egress(fault_link),
                                simnet::chain_ingress(fault_link + 1), fault);
  (void)system.network().inject_fault(simnet::chain_ingress(fault_link + 1),
                                simnet::chain_egress(fault_link), fault);

  core::Initiator initiator(system, seed + 1, 2'000'000'000'000ULL);
  auto path = system.network().topology().shortest_path(
      1, static_cast<topology::AsNumber>(ases));
  core::FaultCriteria criteria;
  criteria.per_link_rtt_ms = 10.5;
  criteria.slack_ms = 15.0;
  core::FaultLocalizer localizer(system, initiator, *path, criteria,
                                 net::Protocol::kUdp, 8, 100);
  auto report = localizer.run(args.has("int") ? core::Strategy::kInband
                                              : core::Strategy::kBinarySearch);
  if (args.has("int")) print_int_path_records(system, *path);
  obs::tracer().set_sim_clock(nullptr);
  if (!report) {
    std::printf("localization failed: %s\n", report.error_message().c_str());
    return 1;
  }

  const std::vector<obs::Span> spans = obs::tracer().spans();
  std::ofstream out(out_path);
  if (!out) {
    std::printf("cannot write %s\n", out_path.c_str());
    return 1;
  }
  obs::write_chrome_trace(spans, out);
  std::printf("localized after %zu measurements; %zu spans (%zu dropped) "
              "-> %s\n",
              report->measurements, spans.size(), obs::tracer().dropped(),
              out_path.c_str());
  std::printf("open chrome://tracing or https://ui.perfetto.dev and load "
              "the file.\n");
  return 0;
}

struct ChaosParams {
  std::size_t ases = 8;
  std::size_t fault_link = 6;
  double fault_ms = 60.0;
  std::vector<topology::InterfaceKey> kills;
  std::vector<topology::InterfaceKey> crashes;
  std::vector<topology::InterfaceKey> byzantine;
  std::uint32_t attempts = 4;
  std::uint64_t seed = 1;
  // Wire-level chaos: per-mille fault rates installed on EVERY directed
  // chain link (zero = off). The flap, when set, takes down the injected
  // fault link's forward direction for its first N milliseconds.
  std::int64_t link_corrupt_pm = 0;
  std::int64_t link_truncate_pm = 0;
  std::int64_t link_dup_pm = 0;
  std::int64_t link_reorder_pm = 0;
  std::int64_t link_flap_ms = 0;
  /// Localize with the in-band INT strategy (falls back to binary search
  /// when chaos destroys the probe's record stack).
  bool int_mode = false;
  /// Adversarial middleboxes (--middlebox ASN:MODE[:SEVERITY]) and the
  /// twin-probe counter-measurement (--detect-discrimination).
  struct MiddleboxSpec {
    topology::AsNumber asn = 0;
    std::string mode;        // drop | delay | mangle | throttle | hide
    double severity = -1.0;  // mode-specific; < 0 = mode default
  };
  std::vector<MiddleboxSpec> middleboxes;
  bool detect_discrimination = false;

  bool link_faults() const {
    return link_corrupt_pm > 0 || link_truncate_pm > 0 || link_dup_pm > 0 ||
           link_reorder_pm > 0 || link_flap_ms > 0;
  }
};

struct ChaosOutcome {
  bool measurement_ok = false;
  bool bracketed = false;
  /// Twin-probe verdict (true when --detect-discrimination is off): the
  /// detector named a hide/delay middlebox AS, or — honest network —
  /// reported nothing.
  bool discrimination_ok = true;
  /// The deterministic retry/failover/localization trace (plus, under
  /// link chaos, the fault-matrix report): equal seeds must reproduce it
  /// bit for bit.
  std::string trace;
  /// This run's full metric snapshot (each run gets its own registry, so
  /// a determinism replay never double-counts).
  std::vector<obs::MetricRow> counters;
};

/// Sums one counter family (optionally one label value) out of a snapshot.
double counter_sum(const std::vector<obs::MetricRow>& rows,
                   const std::string& name, const std::string& label_key = "",
                   const std::string& label_value = "") {
  double total = 0.0;
  for (const obs::MetricRow& row : rows) {
    if (row.name != name) continue;
    if (!label_key.empty()) {
      bool match = false;
      for (const auto& [k, v] : row.labels)
        match = match || (k == label_key && v == label_value);
      if (!match) continue;
    }
    total += row.value;
  }
  return total;
}

ChaosOutcome run_chaos(const ChaosParams& p, bool verbose) {
  // Each run (first pass and determinism replay) counts into its own
  // registry; the snapshot rides out in the outcome.
  obs::ScopedRegistry scoped;
  ChaosOutcome out;
  core::DebugletSystem system(
      simnet::build_chain_scenario(p.ases, p.seed, 5.0));

  if (p.fault_ms > 0.0) {
    simnet::FaultSpec fault;
    fault.extra_delay_ms = p.fault_ms;
    fault.start = 0;
    fault.end = duration::hours(100);
    (void)system.network().inject_fault(
        simnet::chain_egress(p.fault_link),
        simnet::chain_ingress(p.fault_link + 1), fault);
    (void)system.network().inject_fault(
        simnet::chain_ingress(p.fault_link + 1),
        simnet::chain_egress(p.fault_link), fault);
  }

  if (p.link_faults()) {
    simnet::LinkFaultPlan plan;
    if (p.link_corrupt_pm > 0)
      plan.corrupt(static_cast<double>(p.link_corrupt_pm));
    if (p.link_truncate_pm > 0)
      plan.truncate(static_cast<double>(p.link_truncate_pm));
    if (p.link_dup_pm > 0)
      plan.duplicate(static_cast<double>(p.link_dup_pm), 2);
    if (p.link_reorder_pm > 0)
      plan.reorder(static_cast<double>(p.link_reorder_pm), 10.0);
    for (std::size_t i = 0; i + 1 < p.ases; ++i) {
      simnet::LinkFaultPlan directed = plan;
      if (p.link_flap_ms > 0 && i == p.fault_link)
        directed.flap(0, duration::milliseconds(p.link_flap_ms));
      (void)system.network().install_link_faults(
          simnet::chain_egress(i), simnet::chain_ingress(i + 1), directed);
      (void)system.network().install_link_faults(
          simnet::chain_ingress(i + 1), simnet::chain_egress(i), plan);
    }
  }

  for (const ChaosParams::MiddleboxSpec& spec : p.middleboxes) {
    simnet::MiddleboxPlan plan;
    simnet::ClassPolicy pol;
    if (spec.mode == "drop") {
      pol.drop_pm = spec.severity >= 0.0 ? spec.severity : 300.0;
      plan.policy_except_measurement(pol);
    } else if (spec.mode == "delay") {
      pol.extra_delay_ms = spec.severity >= 0.0 ? spec.severity : 25.0;
      plan.policy_except_measurement(pol);
    } else if (spec.mode == "mangle") {
      pol.mangle_pm = spec.severity >= 0.0 ? spec.severity : 120.0;
      plan.policy_except_measurement(pol);
    } else if (spec.mode == "throttle") {
      pol.throttle_pps = static_cast<std::uint32_t>(
          spec.severity >= 0.0 ? spec.severity : 40.0);
      plan.policy_except_measurement(pol);
    } else {  // hide/adaptive: everyone suffers except measurement gear
      // hide's SEVERITY is the delay in ms; adaptive keeps the default
      // delay and spends SEVERITY on the learning horizon instead.
      pol.extra_delay_ms =
          spec.mode == "hide" && spec.severity >= 0.0 ? spec.severity : 25.0;
      pol.drop_pm = 60.0;
      plan.policy_all(pol);
      plan.recognize_probe_signatures(true);
      const topology::Topology& topo = system.network().topology();
      for (std::size_t as = 1; as <= p.ases; ++as) {
        const auto asn = static_cast<topology::AsNumber>(as);
        plan.recognize(topo.address_of(topology::InterfaceKey{asn, 1}));
        plan.recognize(topo.address_of(topology::InterfaceKey{asn, 2}));
      }
      if (spec.mode == "adaptive") {
        // The arms-race adversary: hide, plus an online signature learner
        // promoting recurring measurement signatures into DPI verdicts.
        simnet::AdaptiveConfig adaptive;
        adaptive.enabled = true;
        if (spec.severity >= 1.0)
          adaptive.promote_after = static_cast<std::uint32_t>(spec.severity);
        plan.adaptive(adaptive);
      }
    }
    if (auto st = system.network().install_middlebox(spec.asn, plan); !st) {
      if (verbose)
        std::printf("--middlebox AS%u: %s\n", spec.asn,
                    st.error_message().c_str());
    }
  }

  for (const topology::InterfaceKey& key : p.kills) {
    if (auto agent = system.agent(key)) (*agent)->kill();
  }
  for (const topology::InterfaceKey& key : p.crashes) {
    simnet::HostFaultPlan plan;
    plan.crash(0, duration::hours(100));
    (void)system.network().install_host_faults(key, plan);
  }
  for (const topology::InterfaceKey& key : p.byzantine) {
    if (auto agent = system.agent(key))
      (*agent)->set_byzantine_mode(core::ByzantineMode::kBadSignature);
  }

  core::Initiator initiator(system, p.seed + 1, 2'000'000'000'000ULL);

  core::ResilientRttRequest request;
  request.client_key = topology::InterfaceKey{1, 2};
  request.server_key = topology::InterfaceKey{
      static_cast<topology::AsNumber>(p.ases), 1};
  request.probe_count = 8;
  request.interval_ms = 100;
  request.retry.max_attempts = p.attempts;
  auto rm = initiator.measure_rtt_resilient(request);
  if (rm) {
    out.measurement_ok = true;
    auto summary = core::summarize_rtt(rm->outcome.client, 8);
    if (verbose) {
      std::printf("end-to-end measurement survived: %u attempt(s), %u "
                  "failover(s), %u byzantine rejection(s)\n",
                  rm->attempts, rm->failovers, rm->byzantine_rejections);
      if (summary)
        std::printf("  RTT mean %.2f ms over %zu/%zu probes\n",
                    summary->mean_ms, summary->probes_answered,
                    summary->probes_sent);
      if (!rm->incidents.empty())
        std::printf("%s\n", rm->trace().c_str());
    }
    out.trace += rm->trace();
  } else {
    if (verbose)
      std::printf("end-to-end measurement failed: %s\n",
                  rm.error_message().c_str());
    out.trace += "measurement failed: " + rm.error_message();
  }
  out.trace += "\n";

  auto path = system.network().topology().shortest_path(
      1, static_cast<topology::AsNumber>(p.ases));
  core::FaultCriteria criteria;
  criteria.per_link_rtt_ms = 10.5;
  criteria.slack_ms = 15.0;
  // Under wire chaos, corruption-induced drops hit EVERY segment — loss
  // stops discriminating (one lost probe out of eight is already 12.5%).
  // Let delay carry the verdict and only flag catastrophic loss.
  if (p.link_faults()) criteria.max_loss = 0.5;
  core::FaultLocalizer localizer(system, initiator, *path, criteria,
                                 net::Protocol::kUdp, 8, 100);
  core::FaultLocalizer::Resilience resilience;
  resilience.retry.max_attempts = p.attempts;
  localizer.set_resilience(resilience);
  std::optional<core::DiscriminationReport> twin_report;
  if (p.detect_discrimination) {
    localizer.set_discrimination_probe(
        [&]() -> Result<core::DiscriminationReport> {
          // INT on for the twin rounds (same transient idiom as the
          // in-band strategy): per-hop residence is what lets the
          // detector NAME the discriminating AS instead of only proving
          // discrimination exists.
          const bool was_enabled = system.network().int_enabled();
          system.network().set_int_enabled(true);
          core::DiscriminationDetector detector(
              system.network(), 1,
              static_cast<topology::AsNumber>(p.ases), p.seed + 77);
          auto twins = detector.run();
          system.network().set_int_enabled(was_enabled);
          if (twins) twin_report = *twins;
          return twins;
        });
  }
  auto report = localizer.run(p.int_mode ? core::Strategy::kInband
                                         : core::Strategy::kLinearSequential);
  if (!report) {
    if (verbose)
      std::printf("localization failed: %s\n",
                  report.error_message().c_str());
    out.trace += "localization failed: " + report.error_message();
    out.counters = obs::registry().snapshot();
    return out;
  }
  if (verbose) {
    for (const core::LocalizationStep& step : report->steps) {
      if (step.measured) {
        std::printf("  AS%u..AS%u: %7.2f ms, loss %4.1f%%  %s\n",
                    path->hops[step.from_hop].asn,
                    path->hops[step.to_hop].asn, step.summary.mean_ms,
                    100.0 * step.summary.loss_rate(),
                    step.faulty ? "FAULTY" : "");
        if (step.wire_integrity.total() > 0)
          std::printf("      wire faults while measuring: %llu corrupt, "
                      "%llu truncated, %llu duplicated, %llu reordered, "
                      "%llu flap-dropped\n",
                      static_cast<unsigned long long>(
                          step.wire_integrity.corrupted),
                      static_cast<unsigned long long>(
                          step.wire_integrity.truncated),
                      static_cast<unsigned long long>(
                          step.wire_integrity.duplicated),
                      static_cast<unsigned long long>(
                          step.wire_integrity.reordered),
                      static_cast<unsigned long long>(
                          step.wire_integrity.flap_dropped));
      } else {
        std::printf("  AS%u..AS%u: unmeasured (%s)\n",
                    path->hops[step.from_hop].asn,
                    path->hops[step.to_hop].asn, step.failure.c_str());
      }
    }
    for (const std::string& note : report->notes)
      std::printf("  note: %s\n", note.c_str());
  }
  // Per-segment delivery-integrity evidence is part of the deterministic
  // trace: equal seeds must injure the same segments identically.
  for (const core::LocalizationStep& step : report->steps) {
    if (!step.measured || step.wire_integrity.total() == 0) continue;
    out.trace += "segment " + std::to_string(step.from_hop) + ".." +
                 std::to_string(step.to_hop) + " wire-faults " +
                 std::to_string(step.wire_integrity.corrupted) + "c/" +
                 std::to_string(step.wire_integrity.truncated) + "t/" +
                 std::to_string(step.wire_integrity.duplicated) + "d/" +
                 std::to_string(step.wire_integrity.reordered) + "r/" +
                 std::to_string(step.wire_integrity.flap_dropped) + "f\n";
  }
  // With no injected fault (--fault-ms 0) the expectation inverts: an
  // honest localization must come back clean.
  out.bracketed = p.fault_ms > 0.0
                      ? report->located && report->fault_link <= p.fault_link &&
                            p.fault_link <= report->fault_link_hi
                      : !report->located;
  if (report->located) {
    out.trace += "fault in links [" + std::to_string(report->fault_link) +
                 ", " + std::to_string(report->fault_link_hi) + "] (" +
                 report->confidence() + ")";
    if (verbose)
      std::printf("fault in links [%zu, %zu] — %s, coverage %.0f%% "
                  "(injected at link %zu)\n",
                  report->fault_link, report->fault_link_hi,
                  report->confidence(), 100.0 * report->coverage(),
                  p.fault_link);
  } else {
    out.trace += "no fault located (" + std::string(report->confidence()) +
                 ")";
    if (verbose) std::printf("no fault located\n");
  }
  for (const std::string& note : report->notes) out.trace += "\n" + note;

  if (twin_report) {
    // The twin-probe report is deterministic sample statistics — part of
    // the replayed trace.
    out.trace += "\ntwin-probe report:\n" + twin_report->trace();
    if (verbose)
      std::printf("\ntwin-probe report:\n%s", twin_report->trace().c_str());
    if (twin_report->detected && twin_report->named_as() != 0) {
      // Accountability: file the verdict on chain. The strike record is
      // committed state, so the count below is deterministic and part of
      // the replayed trace.
      auto record = initiator.report_discrimination(
          twin_report->named_as(), twin_report->top_confidence(),
          twin_report->rounds_used,
          twin_report->suspects.empty() ? ""
                                        : twin_report->suspects.front().detail);
      if (record) {
        out.trace += "reputation: AS" +
                     std::to_string(twin_report->named_as()) + " strikes " +
                     std::to_string(record->strikes) + " (confidence " +
                     std::to_string(record->max_confidence_permille) +
                     "/1000)\n";
        if (verbose)
          std::printf("reputation: AS%u now carries %u on-chain strike(s)\n",
                      twin_report->named_as(), record->strikes);
      } else {
        out.trace += "reputation report failed: " + record.error_message() +
                     "\n";
      }
    }
  }
  for (const ChaosParams::MiddleboxSpec& spec : p.middleboxes) {
    // Ground truth of what the adversary actually did, to correlate with
    // what the detector inferred.
    const simnet::MiddleboxStats st =
        system.network().middlebox_stats(spec.asn);
    out.trace += "middlebox AS" + std::to_string(spec.asn) + " (" +
                 spec.mode + "): inspected " + std::to_string(st.inspected()) +
                 ", dropped " + std::to_string(st.dropped) +
                 ", deprioritized " + std::to_string(st.deprioritized) +
                 ", mangled " + std::to_string(st.mangled) + ", throttled " +
                 std::to_string(st.throttled) + ", exempted " +
                 std::to_string(st.exempted) + "\n";
    if (spec.mode == "adaptive") {
      // The learner's ground truth (how much it saw, learned and applied)
      // is part of the deterministic trace too.
      out.trace += "  adaptive: learned " +
                   std::to_string(st.signatures_learned) + ", promoted " +
                   std::to_string(st.signatures_promoted) + ", matched " +
                   std::to_string(st.adaptive_matched) + ", flows " +
                   std::to_string(st.flows_tracked) + " (evicted " +
                   std::to_string(st.flows_evicted) + ")\n";
    }
  }

  if (p.detect_discrimination) {
    // Hide/delay middleboxes leave the delay signature the detector keys
    // on; the verdict demands it names one of them. Drop/mangle/throttle
    // boxes may or may not cross the confidence bar (their report stays
    // informational), and an honest network must produce NO report.
    bool expect_named = false;
    for (const ChaosParams::MiddleboxSpec& spec : p.middleboxes)
      expect_named |= spec.mode == "hide" || spec.mode == "delay" ||
                      spec.mode == "adaptive";
    if (!twin_report) {
      out.discrimination_ok = false;
    } else if (expect_named) {
      bool named_middlebox = false;
      for (const ChaosParams::MiddleboxSpec& spec : p.middleboxes)
        named_middlebox |= twin_report->named_as() == spec.asn;
      out.discrimination_ok = twin_report->detected && named_middlebox;
    } else if (p.middleboxes.empty()) {
      out.discrimination_ok = !twin_report->detected;
    }
  }

  out.counters = obs::registry().snapshot();
  if (p.int_mode) {
    // The in-band round's outcome is part of the deterministic trace:
    // equal seeds must push, reject, and fall back identically.
    const auto n = [&](const char* name) {
      return std::to_string(
          static_cast<long long>(counter_sum(out.counters, name)));
    };
    out.trace += "\nint: pushes " + n("telemetry.int_pushes") +
                 ", truncations " + n("telemetry.int_truncations") +
                 ", parse-rejected " + n("telemetry.parse_rejected") +
                 ", evidence-rejected " + n("telemetry.evidence_rejected") +
                 ", inband-rounds " + n("core.localization.inband_rounds") +
                 ", fallbacks " + n("core.localization.inband_fallbacks");
  }
  if (p.link_faults()) {
    // Fault matrix: what the wire injected vs. what each defense caught.
    // Counter values are deterministic, so this is part of the trace too.
    const auto n = [&](const char* name, const char* k = "",
                       const char* v = "") {
      return std::to_string(
          static_cast<long long>(counter_sum(out.counters, name, k, v)));
    };
    out.trace += "\nfault matrix:";
    out.trace += "\n  corrupt: injected " +
                 n("simnet.wire_faults", "kind", "corrupt") +
                 ", checksum-rejected " + n("net.parse_rejected") +
                 ", scrape-digest-rejected " + n("core.scrape_chunks_corrupt") +
                 ", re-requested " + n("core.scrape_chunks_rereq") +
                 ", outliers dropped " + n("core.probe_outliers_dropped");
    out.trace += "\n  truncate: injected " +
                 n("simnet.wire_faults", "kind", "truncate");
    out.trace += "\n  duplicate: injected " +
                 n("simnet.wire_faults", "kind", "duplicate") +
                 ", probe dups dropped " + n("core.probe_duplicates_dropped") +
                 ", scrape dups absorbed " +
                 n("core.scrape_chunks_duplicate");
    out.trace += "\n  reorder: injected " +
                 n("simnet.wire_faults", "kind", "reorder");
    out.trace += "\n  flap: dropped " +
                 n("simnet.wire_faults", "kind", "flap_drop") + ", retries " +
                 n("core.retry.retries");
  }
  return out;
}

// --- Mass-purchase chaos: N initiators race for P pairs' slots --------------

struct MassPurchaseOutcome {
  std::string trace;  // worker-count-invariant determinism artifact
  bool one_winner_per_pair = false;
  bool conserved = false;
  bool intact = false;
};

/// Runs the whole scenario on a fresh chain: setup batch (register 2*P
/// executors and their single slot), then ONE batch of N purchase
/// transactions — all initiators racing for P overlapping windows —
/// executed at `workers` worker threads. The trace must depend only on
/// the seed (docs/CHAIN.md's determinism contract), never on `workers`.
MassPurchaseOutcome run_mass_purchase(std::size_t initiators,
                                      std::size_t pairs, unsigned workers,
                                      std::uint64_t seed) {
  using chain::Mist;
  MassPurchaseOutcome out;
  chain::Blockchain bc;
  (void)bc.register_contract(
      std::make_unique<marketplace::MarketplaceContract>());

  const Mist kPrice = 500'000'000;
  const chain::BatchOptions opts{workers};
  std::vector<crypto::KeyPair> operators;
  std::vector<topology::InterfaceKey> keys;
  Mist minted = 0;
  std::vector<chain::Address> accounts;
  for (std::size_t i = 0; i < 2 * pairs; ++i) {
    operators.push_back(
        crypto::KeyPair::from_seed(seed ^ (0xE5ULL << 32) ^ i));
    keys.push_back(topology::InterfaceKey{
        static_cast<topology::AsNumber>(100 + i), 1});
    accounts.push_back(chain::Address::of(operators.back().public_key()));
    bc.mint(accounts.back(), 1'000'000'000'000ULL);
    minted += 1'000'000'000'000ULL;
  }
  std::vector<chain::Transaction> setup;
  for (std::size_t i = 0; i < 2 * pairs; ++i) {
    marketplace::RegisterExecutorArgs reg{keys[i]};
    setup.push_back(bc.make_transaction_with_nonce(
        operators[i], 0, marketplace::kContractName, "RegisterExecutor",
        reg.serialize(), 0, 1'000'000'000,
        marketplace::access_register_executor(keys[i])));
  }
  for (std::size_t i = 0; i < 2 * pairs; ++i) {
    marketplace::TimeSlot slot;
    slot.start = 1000;
    slot.end = 2000;
    slot.price = kPrice;
    marketplace::RegisterTimeSlotArgs slots{keys[i], {slot}};
    setup.push_back(bc.make_transaction_with_nonce(
        operators[i], 1, marketplace::kContractName, "RegisterTimeSlot",
        slots.serialize(), 0, 1'000'000'000,
        marketplace::access_register_time_slot(keys[i])));
  }
  Mist burned = 0;
  for (const auto& r : bc.submit_batch(setup, opts)) {
    if (!r.ok() || !r->success) {
      out.trace += "setup failed: " +
                   (r.ok() ? r->error : r.error_message()) + "\n";
      return out;
    }
    burned += r->gas_charged;
  }

  std::vector<chain::Transaction> race;
  race.reserve(initiators);
  for (std::size_t j = 0; j < initiators; ++j) {
    auto key = crypto::KeyPair::from_seed(seed ^ (0x171ULL << 40) ^ j);
    accounts.push_back(chain::Address::of(key.public_key()));
    bc.mint(accounts.back(), 100'000'000'000ULL);
    minted += 100'000'000'000ULL;
    const std::size_t p = j % pairs;
    marketplace::PurchaseSlotArgs args;
    args.client_key = keys[2 * p];
    args.server_key = keys[2 * p + 1];
    args.client_slot.start = args.server_slot.start = 1000;
    args.client_slot.end = args.server_slot.end = 2000;
    args.client_slot.price = args.server_slot.price = kPrice;
    args.client_app.bytecode = bytes_of("debuglet-" + std::to_string(j));
    args.client_app.manifest = bytes_of("manifest");
    args.server_app = args.client_app;
    race.push_back(bc.make_transaction_with_nonce(
        key, 0, marketplace::kContractName, "PurchaseSlot", args.serialize(),
        2 * kPrice, 1'000'000'000,
        marketplace::access_purchase_slot(args.client_key,
                                          args.server_key)));
  }
  const auto results = bc.submit_batch(race, opts);

  std::vector<std::size_t> winners(pairs, 0);
  for (std::size_t j = 0; j < results.size(); ++j) {
    const auto& r = results[j];
    const std::string line = "tx " + std::to_string(j) + " pair " +
                             std::to_string(j % pairs) + ": ";
    if (!r.ok()) {
      out.trace += line + "reject " + r.error_message() + "\n";
      continue;
    }
    burned += r->gas_charged;
    if (r->success) {
      ++winners[j % pairs];
      auto receipt = marketplace::PurchaseReceipt::parse(
          BytesView(r->return_value.data(), r->return_value.size()));
      out.trace += line + "ok apps=" +
                   (receipt.ok()
                        ? std::to_string(receipt->client_application) + "," +
                              std::to_string(receipt->server_application)
                        : "?") +
                   "\n";
    } else {
      out.trace += line + "fail " + r->error + "\n";
    }
  }
  out.one_winner_per_pair = true;
  out.trace += "winners:";
  for (std::size_t p = 0; p < pairs; ++p) {
    out.trace += " " + std::to_string(winners[p]);
    if (winners[p] != 1) out.one_winner_per_pair = false;
  }
  out.trace += "\n";

  Mist held = bc.escrow_balance(marketplace::kContractName);
  out.trace += "escrow: " + std::to_string(held) + "\n";
  for (const auto& account : accounts) held += bc.balance(account);
  out.conserved = minted == held + burned;
  out.trace += "minted: " + std::to_string(minted) + " held: " +
               std::to_string(held) + " burned: " + std::to_string(burned) +
               "\n";
  out.intact = bc.verify_integrity();
  const chain::Block& tip = bc.block(bc.height() - 1);
  out.trace += "tip: " + tip.transactions_root.hex() + "\n";
  out.trace += std::string("integrity: ") + (out.intact ? "ok" : "BAD") +
               "\n";
  return out;
}

int cmd_mass_purchase(const Args& args) {
  const auto initiators =
      static_cast<std::size_t>(args.get_int("mass-purchase", 10000));
  const auto pairs = static_cast<std::size_t>(args.get_int("pairs", 16));
  const auto workers = static_cast<unsigned>(args.get_int("workers", 4));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (pairs == 0 || initiators < pairs) {
    std::printf("--mass-purchase needs at least one initiator per pair\n");
    return 1;
  }
  std::printf("mass purchase: %zu initiators racing for %zu executor pairs "
              "(%u workers, seed %llu)\n",
              initiators, pairs, workers,
              static_cast<unsigned long long>(seed));

  MassPurchaseOutcome first =
      run_mass_purchase(initiators, pairs, workers, seed);
  std::printf("  one winner per slot pair: %s\n",
              first.one_winner_per_pair ? "yes" : "NO");
  std::printf("  tokens conserved:         %s\n",
              first.conserved ? "yes" : "NO");
  std::printf("  chain integrity:          %s\n", first.intact ? "ok" : "BAD");

  bool deterministic = true;
  if (args.has("check-determinism")) {
    MassPurchaseOutcome second =
        run_mass_purchase(initiators, pairs, workers, seed);
    deterministic = first.trace == second.trace;
    std::printf("\ndeterminism check: %s\n",
                deterministic ? "traces identical" : "TRACES DIVERGED");
  }
  if (const std::string out_path = args.get("trace-out", "");
      !out_path.empty()) {
    // The file is the cross-worker determinism artifact: CI runs the same
    // seed at several --workers values and byte-diffs the outputs.
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::printf("cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << first.trace;
    std::printf("trace written to %s\n", out_path.c_str());
  }
  const bool ok = first.one_winner_per_pair && first.conserved &&
                  first.intact && deterministic;
  std::printf("\nchaos verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int cmd_chaos(const Args& args) {
  if (args.has("mass-purchase")) return cmd_mass_purchase(args);
  obs::set_enabled(true);
  ChaosParams p;
  p.ases = static_cast<std::size_t>(args.get_int("ases", 8));
  p.fault_link = static_cast<std::size_t>(
      args.get_int("fault-link", static_cast<std::int64_t>(p.ases) - 2));
  p.fault_ms = static_cast<double>(args.get_int("fault-ms", 60));
  p.attempts = static_cast<std::uint32_t>(args.get_int("attempts", 4));
  p.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (p.fault_link + 1 >= p.ases) {
    std::printf("fault-link must be < %zu\n", p.ases - 1);
    return 1;
  }
  auto parse_keys = [&](const char* flag,
                        std::vector<topology::InterfaceKey>& into) -> bool {
    for (const std::string& text : args.get_all(flag)) {
      if (text.empty()) continue;
      auto key = parse_key(text);
      if (!key) {
        std::printf("--%s: %s\n", flag, key.error_message().c_str());
        return false;
      }
      into.push_back(*key);
    }
    return true;
  };
  if (!parse_keys("kill", p.kills) || !parse_keys("crash", p.crashes) ||
      !parse_keys("byzantine", p.byzantine))
    return 1;
  p.link_corrupt_pm = args.get_int("link-corrupt", 0);
  p.link_truncate_pm = args.get_int("link-truncate", 0);
  p.link_dup_pm = args.get_int("link-dup", 0);
  p.link_reorder_pm = args.get_int("link-reorder", 0);
  p.link_flap_ms = args.get_int("link-flap-ms", 0);
  p.int_mode = args.has("int");
  p.detect_discrimination = args.has("detect-discrimination");
  for (const std::string& text : args.get_all("middlebox")) {
    if (text.empty()) continue;
    ChaosParams::MiddleboxSpec spec;
    const std::size_t c1 = text.find(':');
    const auto asn = parse_whole<topology::AsNumber>(text.substr(0, c1));
    if (c1 == std::string::npos || !asn) {
      std::printf("--middlebox: expected ASN:MODE[:SEVERITY], got '%s'\n",
                  text.c_str());
      return 1;
    }
    const std::size_t c2 = text.find(':', c1 + 1);
    spec.asn = *asn;
    spec.mode = c2 == std::string::npos
                    ? text.substr(c1 + 1)
                    : text.substr(c1 + 1, c2 - c1 - 1);
    if (c2 != std::string::npos)
      spec.severity = std::atof(text.substr(c2 + 1).c_str());
    if (spec.mode != "drop" && spec.mode != "delay" && spec.mode != "mangle" &&
        spec.mode != "throttle" && spec.mode != "hide" &&
        spec.mode != "adaptive") {
      std::printf("--middlebox: unknown mode '%s' (drop|delay|mangle|"
                  "throttle|hide|adaptive)\n",
                  spec.mode.c_str());
      return 1;
    }
    if (spec.asn == 0 || spec.asn > p.ases) {
      std::printf("--middlebox: AS%u is not on the chain (1..%zu)\n", spec.asn,
                  p.ases);
      return 1;
    }
    p.middleboxes.push_back(std::move(spec));
  }
  if (p.kills.empty() && p.crashes.empty() && p.byzantine.empty() &&
      !p.link_faults() && p.middleboxes.empty() &&
      !p.detect_discrimination) {
    // Default chaos: the AS on the near side of the faulty link goes
    // completely dark (both border executors killed), so localization
    // must bracket the fault from the surviving neighbours.
    const auto dark = static_cast<topology::AsNumber>(p.fault_link + 1);
    p.kills.push_back(topology::InterfaceKey{dark, 1});
    p.kills.push_back(topology::InterfaceKey{dark, 2});
    std::printf("no chaos flags given; defaulting to --kill AS%u#1 "
                "--kill AS%u#2\n",
                dark, dark);
  }

  ChaosOutcome first = run_chaos(p, /*verbose=*/true);

  std::printf("\nchaos counters:\n");
  std::vector<obs::MetricRow> interesting;
  for (const obs::MetricRow& row : first.counters) {
    if (row.name.rfind("core.retry", 0) == 0 ||
        row.name.rfind("core.measurement", 0) == 0 ||
        row.name.rfind("core.executor_down", 0) == 0 ||
        row.name.rfind("core.results_rejected", 0) == 0 ||
        row.name.rfind("core.byzantine", 0) == 0 ||
        row.name.rfind("core.agent_", 0) == 0 ||
        row.name.rfind("core.localization", 0) == 0 ||
        row.name.rfind("core.probe_", 0) == 0 ||
        row.name.rfind("core.scrape_chunks", 0) == 0 ||
        row.name.rfind("net.parse_rejected", 0) == 0 ||
        row.name.rfind("net.ttl_expired", 0) == 0 ||
        row.name.rfind("telemetry.", 0) == 0 ||
        row.name.rfind("simnet.host_fault", 0) == 0 ||
        row.name.rfind("simnet.wire_faults", 0) == 0 ||
        row.name.rfind("simnet.middlebox", 0) == 0 ||
        row.name.rfind("executor.deployments_abandoned", 0) == 0)
      interesting.push_back(row);
  }
  print_metric_rows(interesting);
  if (const std::size_t at = first.trace.find("\nfault matrix:");
      at != std::string::npos) {
    std::printf("%s\n", first.trace.substr(at).c_str());
  }

  bool deterministic = true;
  if (args.has("check-determinism")) {
    ChaosOutcome second = run_chaos(p, /*verbose=*/false);
    deterministic = first.trace == second.trace;
    std::printf("\ndeterminism check: %s\n",
                deterministic ? "traces identical" : "TRACES DIVERGED");
  }
  if (const std::string out_path = args.get("trace-out", "");
      !out_path.empty()) {
    // The file is the determinism artifact: the same seed on two builds
    // must produce byte-identical files.
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::printf("cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << first.trace << "\n";
    std::printf("trace written to %s\n", out_path.c_str());
  }
  if (p.detect_discrimination)
    std::printf("\ndiscrimination check: %s\n",
                first.discrimination_ok ? "as expected" : "WRONG VERDICT");
  const bool ok = first.measurement_ok && first.bracketed &&
                  first.discrimination_ok && deterministic;
  std::printf("\nchaos verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int cmd_asm(const Args& args) {
  if (args.positional().empty()) {
    std::printf("usage: debuglet asm FILE\n");
    return 1;
  }
  const std::string path = args.positional()[0];
  std::ifstream in(path);
  if (!in) {
    std::printf("cannot open %s\n", path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto module = vm::assemble(buffer.str());
  if (!module) {
    std::printf("assembly error: %s\n", module.error_message().c_str());
    return 1;
  }
  if (auto valid = vm::validate(*module); !valid) {
    std::printf("validation error: %s\n", valid.error_message().c_str());
    return 1;
  }
  const Bytes wire = module->serialize();
  const std::string out_path = path + ".dvm";
  std::ofstream out(out_path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(wire.data()),
            static_cast<std::streamsize>(wire.size()));
  std::printf("wrote %s (%zu bytes, %zu functions)\n", out_path.c_str(),
              wire.size(), module->functions.size());
  return 0;
}

int cmd_disasm(const Args& args) {
  if (args.positional().empty()) {
    std::printf("usage: debuglet disasm FILE\n");
    return 1;
  }
  std::ifstream in(args.positional()[0], std::ios::binary);
  if (!in) {
    std::printf("cannot open %s\n", args.positional()[0].c_str());
    return 1;
  }
  Bytes wire((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  auto module = vm::Module::parse(BytesView(wire.data(), wire.size()));
  if (!module) {
    std::printf("parse error: %s\n", module.error_message().c_str());
    return 1;
  }
  std::printf("%s", vm::disassemble(*module).c_str());
  return 0;
}

void usage() {
  std::printf(
      "debuglet — programmable, verifiable inter-domain telemetry "
      "(simulated)\n\n"
      "usage: debuglet <command> [flags]\n\n"
      "commands:\n"
      "  measure     purchase and run one marketplace measurement\n"
      "  localize    inject a fault into a chain topology and localize it\n"
      "  traceroute  run the traceroute baseline\n"
      "  motivation  the paper's Section II protocol comparison\n"
      "  stats       run a measurement with metrics on; print/export them\n"
      "              (--remote AS#IF scrapes a remote executor's registry\n"
      "              over the simulated network instead)\n"
      "  trace       run a localization with tracing on; dump a Chrome\n"
      "              trace (chrome://tracing / Perfetto) of the run\n"
      "  chaos       kill/crash executors on a faulty path, then run a\n"
      "              resilient measurement and a degraded localization\n"
      "              (--link-corrupt/--link-truncate/--link-dup/\n"
      "              --link-reorder/--link-flap-ms add wire-level chaos;\n"
      "              --int localizes via in-band INT records)\n"
      "  asm FILE    assemble DVM assembly into FILE.dvm\n"
      "  disasm FILE print the assembly of a serialized module\n\n"
      "run a command with no flags for sensible defaults; see tools/\n"
      "debuglet_cli.cpp header for every flag.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  const std::string command = argv[1];
  const Args args(argc, argv);
  try {
    if (command == "measure") return cmd_measure(args);
    if (command == "localize") return cmd_localize(args);
    if (command == "traceroute") return cmd_traceroute(args);
    if (command == "motivation") return cmd_motivation(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "chaos") return cmd_chaos(args);
    if (command == "asm") return cmd_asm(args);
    if (command == "disasm") return cmd_disasm(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage();
  return command == "help" || command == "--help" ? 0 : 1;
}
