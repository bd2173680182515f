// debuglet — command-line front end for the Debuglet system.
//
// Every command runs on a simulated world and is deterministic under
// --seed. `debuglet help` lists the commands and `debuglet <command>
// --help` lists a command's flags with their defaults and bounds; the
// flags exist only as the typed Args reads each command makes below.
// docs/ROBUSTNESS.md describes the chaos flags.
#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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
#include <type_traits>
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

// A usage mistake; main() prints "error: " and the message on stderr and
// exits 2, before any world is built.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// All of `text` as a number of type T, or nullopt on junk, an empty
// string or overflow.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [at, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || at != end) return std::nullopt;
  return value;
}

std::string join(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& word : words)
    out += (out.empty() ? "" : "|") + word;
  return out;
}

// The probe train's run budget is probes x interval in int64 nanoseconds,
// and executors stop any run after 10 minutes.
constexpr std::int64_t kMaxProbes = 100'000;
constexpr std::int64_t kMaxIntervalMs = 600'000;

// An adversarial DPI middlebox inside one AS (--middlebox).
struct MiddleboxSpec {
  topology::AsNumber asn = 0;
  std::string mode;
  double severity = -1.0;  // mode-specific; < 0 = mode default
};
const std::vector<std::string> kMiddleboxModes = {
    "drop", "delay", "mangle", "throttle", "hide", "adaptive"};

// A command's flags. A flag exists only as the typed read that uses it:
// the read records the flag's form, default and bounds, and throws
// UsageError on a flag given twice, a value flag given bare, a value after
// a switch, or a bad value. A command makes all its reads, then calls
// finish(), which rejects every given flag no read declared and every
// stray argument. A token starting with "--" is never a value.
class Args {
 public:
  Args(int argc, char** argv) : command_(argv[1]) {
    for (int i = 2; i < argc; ++i) {
      const std::string_view token = argv[i];
      if (!token.starts_with("--")) {
        positional_.emplace_back(token);
        continue;
      }
      std::optional<std::string> value;
      if (i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--"))
        value = argv[++i];
      given_[std::string(token.substr(2))].push_back(std::move(value));
    }
  }

  /// An integer in [min, max]; `fallback` when absent.
  template <typename T = std::int64_t>
  T get_int(const std::string& name, std::type_identity_t<T> fallback,
            std::type_identity_t<T> min = std::numeric_limits<T>::min(),
            std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
    const auto text = one(name, "N", "default " + std::to_string(fallback) +
                                         bounds(min, max));
    return text ? to_int(name, *text, min, max) : fallback;
  }
  /// An integer in [min, max] whose value may be left out: nullopt when
  /// absent, `bare` when given without a value.
  template <typename T>
  std::optional<T> get_int_opt(const std::string& name, T bare, T min) {
    const auto text =
        one(name, "[N]", "off; bare " + std::to_string(bare) + bounds(min),
            std::to_string(bare));
    if (!text) return std::nullopt;
    return to_int(name, *text, min, std::numeric_limits<T>::max());
  }
  /// Every value of a repeatable integer flag, each in [min, max].
  template <typename T>
  std::vector<T> get_ints(const std::string& name, T min, T max) {
    std::vector<T> out;
    for (const std::string& text : many(name, "N", bounds(min, max)))
      out.push_back(to_int(name, text, min, max));
    return out;
  }

  /// A border interface (AS#IF) of the `ases`-AS chain; `fallback` when
  /// absent.
  topology::InterfaceKey get_key(const std::string& name,
                                 topology::InterfaceKey fallback,
                                 std::size_t ases) {
    const auto text = one(name, "AS#IF", "default " + fallback.to_string());
    return text ? to_key(name, *text, ases) : fallback;
  }
  /// A border interface whose value may be left out: nullopt when absent,
  /// `bare` when given without a value.
  std::optional<topology::InterfaceKey> get_key_opt(
      const std::string& name, topology::InterfaceKey bare, std::size_t ases) {
    const auto text = one(name, "[AS#IF]", "off; bare " + bare.to_string(),
                          bare.to_string());
    if (!text) return std::nullopt;
    return to_key(name, *text, ases);
  }
  /// Every value of a repeatable border-interface flag.
  std::vector<topology::InterfaceKey> get_keys(const std::string& name,
                                               std::size_t ases) {
    std::vector<topology::InterfaceKey> out;
    for (const std::string& text : many(name, "AS#IF", ""))
      out.push_back(to_key(name, text, ases));
    return out;
  }

  /// The index in `choices` of the flag's value; `fallback` when absent.
  std::size_t get_choice(const std::string& name, const std::string& fallback,
                         const std::vector<std::string>& choices) {
    const auto text = one(name, join(choices), "default " + fallback);
    return choose(name, text.value_or(fallback), choices);
  }

  /// A file path; `fallback` when absent ("" = none).
  std::string get_path(const std::string& name, const std::string& fallback) {
    return one(name, "FILE", fallback.empty() ? "off" : "default " + fallback)
        .value_or(fallback);
  }
  /// A file path that may be left out: nullopt when absent, `bare` when
  /// given without a value.
  std::optional<std::string> get_path_opt(const std::string& name,
                                          const std::string& bare) {
    return one(name, "[FILE]", "off; bare " + bare, bare);
  }

  /// Whether a switch was given. A switch takes no value.
  bool get_switch(const std::string& name) {
    const auto& uses = declare(name, "", "switch");
    if (uses.size() > 1) throw bad(name, "given twice");
    if (!uses.empty() && uses[0])
      throw bad(name, "takes no value, got '" + *uses[0] + "'");
    return !uses.empty();
  }

  /// Every ASN:MODE[:SEVERITY] value of a repeatable middlebox flag: an
  /// ASN of the `ases`-AS chain, one of kMiddleboxModes, and a number
  /// >= 0.
  std::vector<MiddleboxSpec> get_middleboxes(const std::string& name,
                                             std::size_t ases) {
    std::vector<MiddleboxSpec> out;
    for (const std::string& text :
         many(name, "ASN:MODE[:SEVERITY]", "; MODE " + join(kMiddleboxModes))) {
      const std::size_t c1 = text.find(':');
      if (c1 == std::string::npos)
        throw bad(name, "expected ASN:MODE[:SEVERITY], got '" + text + "'");
      const std::size_t c2 = text.find(':', c1 + 1);
      MiddleboxSpec spec;
      spec.asn = static_cast<topology::AsNumber>(
          to_int<std::size_t>(name, text.substr(0, c1), 1, ases));
      // Up to the second colon, or to the end when there is none.
      spec.mode = kMiddleboxModes[choose(
          name, text.substr(c1 + 1, c2 - c1 - 1), kMiddleboxModes)];
      if (c2 != std::string::npos) {
        const std::string severity = text.substr(c2 + 1);
        const auto value = parse_whole<double>(severity);
        if (!value || !std::isfinite(*value) || *value < 0.0)
          throw bad(name, "expected a SEVERITY >= 0, got '" + severity + "'");
        spec.severity = *value;
      }
      out.push_back(std::move(spec));
    }
    return out;
  }

  /// The next positional argument, shown as `form`; finish() fails when it
  /// is missing.
  std::string get_positional(const std::string& form) {
    wanted_.push_back(form);
    return wanted_.size() <= positional_.size()
               ? positional_[wanted_.size() - 1]
               : "";
  }

  /// Ends the reads. With --help, prints every flag read so far and exits
  /// 0; otherwise rejects given flags no read declared and positional
  /// arguments no read took.
  void finish() {
    if (get_switch("help")) {
      std::string line = "usage: debuglet " + command_;
      for (const std::string& form : wanted_) line += " " + form;
      std::printf("%s [flags]\n", line.c_str());
      for (const auto& [flag, note] : help_)
        std::printf("  %-28s %s\n", flag.c_str(), note.c_str());
      std::exit(0);
    }
    for (const auto& [name, uses] : given_) {
      if (!declared_.contains(name))
        throw UsageError("--" + name + ": no such flag for 'debuglet " +
                         command_ + "' (see 'debuglet " + command_ +
                         " --help')");
    }
    if (positional_.size() < wanted_.size())
      throw UsageError("expected " + wanted_[positional_.size()]);
    if (positional_.size() > wanted_.size())
      throw UsageError("unexpected argument '" + positional_[wanted_.size()] +
                       "'");
  }

 private:
  using Uses = std::vector<std::optional<std::string>>;

  static UsageError bad(const std::string& name, const std::string& what) {
    return UsageError("--" + name + ": " + what);
  }

  // Records the flag for finish() and --help; returns its uses in order,
  // nullopt for one without a value.
  const Uses& declare(const std::string& name, const std::string& form,
                      const std::string& note) {
    declared_.insert(name);
    help_.emplace_back("--" + name + (form.empty() ? "" : " " + form), note);
    static const Uses kAbsent;
    const auto it = given_.find(name);
    return it == given_.end() ? kAbsent : it->second;
  }
  // The value of a flag given at most once; nullopt when absent. Given
  // bare it reads as `bare`, which only optional-value flags set.
  std::optional<std::string> one(const std::string& name,
                                 const std::string& form,
                                 const std::string& note,
                                 std::optional<std::string> bare = {}) {
    const Uses& uses = declare(name, form, note);
    if (uses.empty()) return std::nullopt;
    if (uses.size() > 1) throw bad(name, "given twice");
    if (!uses[0] && !bare) throw bad(name, "expected a value");
    return uses[0] ? uses[0] : bare;
  }
  // Every value of a repeatable flag; `note` extends "repeatable".
  std::vector<std::string> many(const std::string& name,
                                const std::string& form,
                                const std::string& note) {
    std::vector<std::string> out;
    for (const auto& use : declare(name, form + "...", "repeatable" + note)) {
      if (!use) throw bad(name, "expected a value");
      out.push_back(*use);
    }
    return out;
  }

  template <typename T>
  static std::string bounds(T min, T max = std::numeric_limits<T>::max()) {
    const bool low = min != std::numeric_limits<T>::min();
    const bool high = max != std::numeric_limits<T>::max();
    if (low && high)
      return ", " + std::to_string(min) + ".." + std::to_string(max);
    if (low) return ", >= " + std::to_string(min);
    if (high) return ", <= " + std::to_string(max);
    return "";
  }

  template <typename T>
  static T to_int(const std::string& name, const std::string& text, T min,
                  T max) {
    const std::optional<T> value = parse_whole<T>(text);
    const std::string got = ", got '" + text + "'";
    // A well-formed integer that T cannot hold is out of range, not junk.
    const std::size_t sign = text.starts_with('-') ? 1 : 0;
    if (!value && (text.size() == sign ||
                   text.find_first_not_of("0123456789", sign) !=
                       std::string::npos))
      throw bad(name, "expected an integer" + got);
    if (value ? *value < min : text.starts_with('-'))
      throw bad(name, "expected an integer >= " + std::to_string(min) + got);
    if (!value || *value > max)
      throw bad(name, "expected an integer <= " + std::to_string(max) + got);
    return *value;
  }

  static std::size_t choose(const std::string& name, const std::string& text,
                            const std::vector<std::string>& choices) {
    const auto at = std::find(choices.begin(), choices.end(), text);
    if (at == choices.end())
      throw bad(name, "expected one of " + join(choices) + ", got '" + text +
                          "'");
    return static_cast<std::size_t>(at - choices.begin());
  }

  // "AS3#2" or "3#2", naming a border interface of the `ases`-AS chain:
  // AS1#2, ASk#1 and ASk#2 for 1 < k < ases, and AS<ases>#1.
  static topology::InterfaceKey to_key(const std::string& name,
                                       const std::string& text,
                                       std::size_t ases) {
    std::string_view s = text;
    if (s.starts_with("AS")) s.remove_prefix(2);
    const std::size_t hash = s.find('#');
    const auto asn = parse_whole<std::size_t>(s.substr(0, hash));
    const auto intf =
        hash == std::string_view::npos
            ? std::nullopt
            : parse_whole<topology::InterfaceId>(s.substr(hash + 1));
    if (!asn || !intf)
      throw bad(name, "expected AS#IF (e.g. 3#2), got '" + text + "'");
    if (*asn < 1 || *asn > ases || *intf < 1 || *intf > 2 ||
        (*asn == 1 && *intf == 1) || (*asn == ases && *intf == 2))
      throw bad(name, "expected a border interface of the " +
                          std::to_string(ases) + "-AS chain (AS1#2 .. AS" +
                          std::to_string(ases) + "#1), got '" + text + "'");
    return {static_cast<topology::AsNumber>(*asn), *intf};
  }

  std::string command_;
  std::map<std::string, Uses> given_;
  std::vector<std::string> positional_;
  std::set<std::string> declared_;
  std::vector<std::pair<std::string, std::string>> help_;
  std::vector<std::string> wanted_;  // positional forms read so far
};

// Prints "<what>: <error>" when `result` failed, and says whether it did.
template <typename T>
bool failed(const Result<T>& result, const char* what) {
  if (result) return false;
  std::printf("%s: %s\n", what, result.error_message().c_str());
  return true;
}
// Prints "cannot <verb> <path>" when `file` did not open, and says whether
// it did not.
bool failed(const std::ios& file, const char* verb, const std::string& path) {
  if (file) return false;
  std::printf("cannot %s %s\n", verb, path.c_str());
  return true;
}

// The world of localize, trace and chaos: a chain of `ases` ASes whose
// link `fault_link` carries a symmetric `fault_ms` delay fault (none at
// 0 ms), a funded initiator, and the 1 -> N path to localize on.
struct FaultWorld {
  FaultWorld(std::size_t ases, std::size_t fault_link, double fault_ms,
             std::uint64_t seed)
      : system(simnet::build_chain_scenario(ases, seed, 5.0)),
        initiator(system, seed + 1, 2'000'000'000'000ULL),
        path(*system.network().topology().shortest_path(
            1, static_cast<topology::AsNumber>(ases))) {
    if (fault_ms <= 0.0) return;
    simnet::FaultSpec fault;
    fault.extra_delay_ms = fault_ms;
    fault.end = duration::hours(100);
    const auto near = simnet::chain_egress(fault_link);
    const auto far = simnet::chain_ingress(fault_link + 1);
    (void)system.network().inject_fault(near, far, fault);
    (void)system.network().inject_fault(far, near, fault);
  }

  /// A localizer over `path`: UDP segments of 8 probes 100 ms apart, each
  /// faulty past 10.5 ms per link plus 15 ms, or past `max_loss` loss.
  core::FaultLocalizer localizer(
      double max_loss = core::FaultCriteria{}.max_loss) {
    core::FaultCriteria criteria;
    criteria.per_link_rtt_ms = 10.5;
    criteria.slack_ms = 15.0;
    criteria.max_loss = max_loss;
    return core::FaultLocalizer(system, initiator, path, criteria,
                                net::Protocol::kUdp, 8, 100);
  }

  core::DebugletSystem system;
  core::Initiator initiator;
  topology::AsPath path;
};

int cmd_measure(Args& args) {
  constexpr net::Protocol kProtocols[] = {
      net::Protocol::kUdp, net::Protocol::kTcp, net::Protocol::kIcmp,
      net::Protocol::kRawIp};
  const auto ases = args.get_int<std::size_t>("ases", 4, 2);
  const auto client = args.get_key("client", {1, 2}, ases);
  const auto server = args.get_key(
      "server", {static_cast<topology::AsNumber>(ases), 1}, ases);
  const net::Protocol protocol = kProtocols[args.get_choice(
      "proto", "udp", {"udp", "tcp", "icmp", "raw"})];
  const std::int64_t probes = args.get_int("probes", 10, 1, kMaxProbes);
  const std::int64_t interval =
      args.get_int("interval", 200, 1, kMaxIntervalMs);
  const bool seal = args.get_switch("seal");
  const auto seed = args.get_int<std::uint64_t>("seed", 1);
  args.finish();

  core::DebugletSystem system(simnet::build_chain_scenario(ases, seed, 5.0));
  core::Initiator initiator(system, seed + 1, 500'000'000'000ULL);
  auto handle = initiator.purchase_rtt_measurement(
      client, server, protocol, probes, interval, 0, seal);
  if (failed(handle, "purchase failed")) return 1;
  std::printf("purchased window [%s, %s] for %.4f SUI\n",
              format_time(handle->window_start).c_str(),
              format_time(handle->window_end).c_str(),
              chain::mist_to_sui(handle->price_paid));
  auto outcome = initiator.await_result(*handle);
  if (failed(outcome, "collect failed")) return 1;
  Bytes output = outcome->client.record.output;
  if (seal) {
    auto opened = initiator.open_result(outcome->client);
    if (failed(opened, "unseal failed")) return 1;
    std::printf("results were sealed on-chain (%zu bytes ciphertext)\n",
                output.size());
    output = *opened;
  }
  auto samples = apps::decode_samples(BytesView(output.data(), output.size()));
  if (failed(samples, "decode failed")) return 1;
  RunningStats stats;
  for (const auto& s : *samples)
    stats.add(static_cast<double>(s.delay_ns) / 1e6);
  std::printf("%s %s -> %s: %zu/%lld answered, RTT mean %.2f ms, std %.2f "
              "ms\n",
              net::protocol_name(protocol).c_str(),
              client.to_string().c_str(), server.to_string().c_str(),
              samples->size(), static_cast<long long>(probes), stats.mean(),
              stats.stddev());
  std::printf("certified by AS%u (verified), chain integrity %s\n",
              client.asn,
              system.chain().verify_integrity() ? "OK" : "BROKEN");
  return 0;
}

int cmd_localize(Args& args) {
  constexpr core::Strategy kStrategies[] = {
      core::Strategy::kBinarySearch, core::Strategy::kLinearSequential,
      core::Strategy::kParallelSweep, core::Strategy::kInband};
  const auto ases = args.get_int<std::size_t>("ases", 10, 2);
  const auto fault_link =
      args.get_int<std::size_t>("fault-link", ases - 2, 0, ases - 2);
  const std::int64_t fault_ms = args.get_int("fault-ms", 60, 0);
  const core::Strategy strategy = kStrategies[args.get_choice(
      "strategy", "binary", {"binary", "linear", "parallel", "inband"})];
  const auto seed = args.get_int<std::uint64_t>("seed", 1);
  args.finish();

  FaultWorld world(ases, fault_link, static_cast<double>(fault_ms), seed);
  const topology::AsPath& path = world.path;
  core::FaultLocalizer localizer = world.localizer();
  auto report = localizer.run(strategy);
  if (failed(report, "localization failed")) return 1;
  for (const core::LocalizationStep& step : report->steps) {
    std::printf("  AS%u..AS%u: %7.2f ms, loss %4.1f%%  %s\n",
                path.hops[step.from_hop].asn, path.hops[step.to_hop].asn,
                step.summary.mean_ms, 100.0 * step.summary.loss_rate(),
                step.faulty ? "FAULTY" : "");
  }
  for (const std::string& note : report->notes)
    std::printf("  note: %s\n", note.c_str());
  if (report->located) {
    std::printf("fault on link AS%u - AS%u (injected after hop %zu)\n",
                path.hops[report->fault_link].asn,
                path.hops[report->fault_link + 1].asn, fault_link);
  } else {
    std::printf("no fault located\n");
  }
  std::printf("%zu measurements, %.4f SUI, time-to-locate %s\n",
              report->measurements, chain::mist_to_sui(report->tokens_spent),
              format_duration(report->time_to_locate()).c_str());
  return report->located && report->fault_link == fault_link ? 0 : 1;
}

int cmd_traceroute(Args& args) {
  // The TTL limit is a uint8_t.
  const auto ases = args.get_int<std::size_t>("ases", 6, 2, 255);
  const auto seed = args.get_int<std::uint64_t>("seed", 1);
  const auto muted = args.get_ints<std::size_t>("mute", 1, ases);
  const auto limited = args.get_ints<std::size_t>("rate-limit", 1, ases);
  args.finish();

  simnet::Scenario s = simnet::build_chain_scenario(ases, seed, 5.0);
  simnet::IcmpReplyPolicy mute;
  mute.time_exceeded_enabled = false;
  simnet::IcmpReplyPolicy limit;
  limit.rate_limit_per_s = 1;
  for (const std::size_t as : muted)
    s.network->configure_icmp_policy(static_cast<topology::AsNumber>(as), mute);
  for (const std::size_t as : limited)
    s.network->configure_icmp_policy(static_cast<topology::AsNumber>(as),
                                     limit);

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

int cmd_motivation(Args& args) {
  const std::string city = simnet::city_names()[args.get_choice(
      "city", "NewYork", simnet::city_names())];
  const double hours = static_cast<double>(args.get_int("hours", 4, 1));
  const auto seed = args.get_int<std::uint64_t>("seed", 2024);
  args.finish();

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

int cmd_stats_remote(Args& args, std::size_t ases, std::uint64_t seed,
                     topology::InterfaceKey remote) {
  const auto partner = args.get_key("partner", {1, 2}, ases);
  args.finish();

  obs::set_enabled(true);
  core::DebugletSystem system(simnet::build_chain_scenario(ases, seed, 5.0));
  core::Initiator initiator(system, seed + 1, 500'000'000'000ULL);
  const auto scraper_addr = system.network().allocate_host_address(1);

  core::StatsPairRequest request;
  request.first_key = remote;
  request.second_key = partner;
  request.scraper_address = scraper_addr;
  auto deployment = core::purchase_stats_pair(initiator, system, request);
  if (failed(deployment, "purchase failed")) return 1;
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
  if (failed(report, "scrape failed")) return 1;

  obs::MetricsRegistry merged;
  if (failed(obs::wire::merge_rows(merged, report->rows,
                                   deployment->first_address.to_string()),
             "merge failed"))
    return 1;
  std::printf("scraped %zu rows in %zu chunks (%zu requests, %zu retries)\n\n",
              report->rows.size(), report->chunks, report->requests_sent,
              report->retries);
  print_metric_rows(merged.snapshot());
  return 0;
}

int cmd_stats(Args& args) {
  const auto ases = args.get_int<std::size_t>("ases", 4, 2);
  const auto seed = args.get_int<std::uint64_t>("seed", 1);
  if (const auto remote = args.get_key_opt(
          "remote", {static_cast<topology::AsNumber>(ases), 1}, ases))
    return cmd_stats_remote(args, ases, seed, *remote);
  const std::int64_t probes = args.get_int("probes", 10, 1, kMaxProbes);
  const std::int64_t interval =
      args.get_int("interval", 200, 1, kMaxIntervalMs);
  const auto json = args.get_path_opt("json", "debuglet_stats.jsonl");
  const auto csv = args.get_path_opt("csv", "debuglet_stats.csv");
  args.finish();

  // Metrics must be on BEFORE the world exists: instrumented objects cache
  // their handles (and the enabled flag) at construction.
  obs::set_enabled(true);
  core::DebugletSystem system(simnet::build_chain_scenario(ases, seed, 5.0));
  core::Initiator initiator(system, seed + 1, 500'000'000'000ULL);
  const topology::InterfaceKey client{1, 2};
  const topology::InterfaceKey server{static_cast<topology::AsNumber>(ases),
                                      1};
  auto handle = initiator.purchase_rtt_measurement(
      client, server, net::Protocol::kUdp, probes, interval, 0, false);
  if (failed(handle, "purchase failed")) return 1;
  auto outcome = initiator.await_result(*handle);
  if (failed(outcome, "collect failed")) return 1;

  const std::vector<obs::MetricRow> rows = obs::registry().snapshot();
  std::printf("metrics after one %zu-AS measurement (seed %llu):\n\n", ases,
              static_cast<unsigned long long>(seed));
  print_metric_rows(rows);
  if (json) {
    std::ofstream out(*json);
    obs::write_metrics_jsonl(rows, out);
    std::printf("\nwrote %zu metrics to %s\n", rows.size(), json->c_str());
  }
  if (csv) {
    std::ofstream out(*csv);
    obs::write_metrics_csv(rows, out);
    std::printf("\nwrote %zu metrics to %s\n", rows.size(), csv->c_str());
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
  if (failed(header, "in-band trace unreadable")) return;
  auto evidence = telemetry::PathEvidence::from_header(*header, path,
                                                       d.sent_at);
  if (failed(evidence, "in-band trace rejected")) return;
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

int cmd_trace(Args& args) {
  const auto ases = args.get_int<std::size_t>("ases", 6, 2);
  const auto fault_link =
      args.get_int<std::size_t>("fault-link", ases - 2, 0, ases - 2);
  const auto seed = args.get_int<std::uint64_t>("seed", 1);
  const std::string out_path = args.get_path("out", "debuglet_trace.json");
  const bool int_mode = args.get_switch("int");
  args.finish();

  obs::set_enabled(true);
  obs::tracer().set_enabled(true);
  FaultWorld world(ases, fault_link, 60.0, seed);
  obs::tracer().set_sim_clock([&world] { return world.system.queue().now(); });
  core::FaultLocalizer localizer = world.localizer();
  auto report = localizer.run(int_mode ? core::Strategy::kInband
                                       : core::Strategy::kBinarySearch);
  if (int_mode) print_int_path_records(world.system, world.path);
  obs::tracer().set_sim_clock(nullptr);
  if (failed(report, "localization failed")) return 1;

  const std::vector<obs::Span> spans = obs::tracer().spans();
  std::ofstream out(out_path);
  if (failed(out, "write", out_path)) return 1;
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
  std::size_t ases = 0;
  std::size_t fault_link = 0;
  double fault_ms = 0.0;
  std::vector<topology::InterfaceKey> kills;
  std::vector<topology::InterfaceKey> crashes;
  std::vector<topology::InterfaceKey> byzantine;
  std::uint32_t attempts = 0;
  std::uint64_t seed = 0;
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
  /// Adversarial middleboxes and the twin-probe counter-measurement
  /// (--detect-discrimination).
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
    if (row.name == name &&
        (label_key.empty() ||
         std::find(row.labels.begin(), row.labels.end(),
                   std::pair(label_key, label_value)) != row.labels.end()))
      total += row.value;
  }
  return total;
}

ChaosOutcome run_chaos(const ChaosParams& p, bool verbose) {
  // Each run (first pass and determinism replay) counts into its own
  // registry; the snapshot rides out in the outcome.
  obs::ScopedRegistry scoped;
  ChaosOutcome out;
  FaultWorld world(p.ases, p.fault_link, p.fault_ms, p.seed);
  core::DebugletSystem& system = world.system;
  core::Initiator& initiator = world.initiator;

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

  for (const MiddleboxSpec& spec : p.middleboxes) {
    simnet::MiddleboxPlan plan;
    simnet::ClassPolicy pol;
    const auto severity = [&](double fallback) {
      return spec.severity >= 0.0 ? spec.severity : fallback;
    };
    if (spec.mode == "drop") pol.drop_pm = severity(300.0);
    if (spec.mode == "delay") pol.extra_delay_ms = severity(25.0);
    if (spec.mode == "mangle") pol.mangle_pm = severity(120.0);
    if (spec.mode == "throttle")
      pol.throttle_pps = static_cast<std::uint32_t>(severity(40.0));
    if (spec.mode != "hide" && spec.mode != "adaptive") {
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

  for (const topology::InterfaceKey& key : p.kills)
    if (auto agent = system.agent(key)) (*agent)->kill();
  for (const topology::InterfaceKey& key : p.crashes) {
    simnet::HostFaultPlan plan;
    plan.crash(0, duration::hours(100));
    (void)system.network().install_host_faults(key, plan);
  }
  for (const topology::InterfaceKey& key : p.byzantine)
    if (auto agent = system.agent(key))
      (*agent)->set_byzantine_mode(core::ByzantineMode::kBadSignature);

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

  // Under wire chaos, corruption-induced drops hit EVERY segment — loss
  // stops discriminating (one lost probe out of eight is already 12.5%).
  // Let delay carry the verdict and only flag catastrophic loss.
  core::FaultLocalizer localizer = p.link_faults() ? world.localizer(0.5)
                                                   : world.localizer();
  const topology::AsPath& path = world.path;
  core::RetryPolicy retry;
  retry.max_attempts = p.attempts;
  localizer.set_resilience(retry);
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
                    path.hops[step.from_hop].asn,
                    path.hops[step.to_hop].asn, step.summary.mean_ms,
                    100.0 * step.summary.loss_rate(),
                    step.faulty ? "FAULTY" : "");
        const simnet::LinkIntegrityStats& w = step.wire_integrity;
        if (w.total() > 0)
          std::printf("      wire faults while measuring: %" PRIu64
                      " corrupt, %" PRIu64 " truncated, %" PRIu64
                      " duplicated, %" PRIu64 " reordered, %" PRIu64
                      " flap-dropped\n",
                      w.corrupted, w.truncated, w.duplicated, w.reordered,
                      w.flap_dropped);
      } else {
        std::printf("  AS%u..AS%u: unmeasured (%s)\n",
                    path.hops[step.from_hop].asn,
                    path.hops[step.to_hop].asn, step.failure.c_str());
      }
    }
    for (const std::string& note : report->notes)
      std::printf("  note: %s\n", note.c_str());
  }
  // Per-segment delivery-integrity evidence is part of the deterministic
  // trace: equal seeds must injure the same segments identically.
  for (const core::LocalizationStep& step : report->steps) {
    const simnet::LinkIntegrityStats& w = step.wire_integrity;
    if (!step.measured || w.total() == 0) continue;
    out.trace += "segment " + std::to_string(step.from_hop) + ".." +
                 std::to_string(step.to_hop) + " wire-faults " +
                 std::to_string(w.corrupted) + "c/" +
                 std::to_string(w.truncated) + "t/" +
                 std::to_string(w.duplicated) + "d/" +
                 std::to_string(w.reordered) + "r/" +
                 std::to_string(w.flap_dropped) + "f\n";
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
  for (const MiddleboxSpec& spec : p.middleboxes) {
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
    for (const MiddleboxSpec& spec : p.middleboxes)
      expect_named |= spec.mode == "hide" || spec.mode == "delay" ||
                      spec.mode == "adaptive";
    if (!twin_report) {
      out.discrimination_ok = false;
    } else if (expect_named) {
      bool named_middlebox = false;
      for (const MiddleboxSpec& spec : p.middleboxes)
        named_middlebox |= twin_report->named_as() == spec.asn;
      out.discrimination_ok = twin_report->detected && named_middlebox;
    } else if (p.middleboxes.empty()) {
      out.discrimination_ok = !twin_report->detected;
    }
  }

  out.counters = obs::registry().snapshot();
  const auto n = [&](const char* name, const char* k = "", const char* v = "") {
    return std::to_string(
        static_cast<long long>(counter_sum(out.counters, name, k, v)));
  };
  if (p.int_mode) {
    // The in-band round's outcome is part of the deterministic trace:
    // equal seeds must push, reject, and fall back identically.
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
    marketplace::RegisterTimeSlotArgs slots{keys[i], {{slot, 1}}};
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

// --check-determinism and --trace-out of both chaos modes: when `check` is
// set, replays the run and compares its trace with `trace`; then writes
// `trace` to `trace_out` unless that is empty. Returns whether the traces
// matched (true without a replay), or nullopt when the file cannot be
// written.
template <typename Replay>
std::optional<bool> replay_and_write(const std::string& trace, bool check,
                                     const Replay& replay,
                                     const std::string& trace_out) {
  bool deterministic = true;
  if (check) {
    deterministic = trace == replay();
    std::printf("\ndeterminism check: %s\n",
                deterministic ? "traces identical" : "TRACES DIVERGED");
  }
  if (!trace_out.empty()) {
    // The file is the determinism artifact: runs of two builds, or of one
    // seed at several --workers values, must produce byte-identical files.
    std::ofstream out(trace_out, std::ios::binary);
    if (failed(out, "write", trace_out)) return std::nullopt;
    out << trace;
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return deterministic;
}

int cmd_mass_purchase(Args& args, std::size_t initiators) {
  const auto pairs = args.get_int<std::size_t>("pairs", 16, 1);
  const auto workers = args.get_int<unsigned>("workers", 4, 1);
  const auto seed = args.get_int<std::uint64_t>("seed", 1);
  const bool check = args.get_switch("check-determinism");
  const std::string trace_out = args.get_path("trace-out", "");
  args.finish();
  if (initiators < pairs)
    throw UsageError("--mass-purchase: expected an integer >= " +
                     std::to_string(pairs) +
                     " (one initiator per pair), got '" +
                     std::to_string(initiators) + "'");

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

  const std::optional<bool> deterministic = replay_and_write(
      first.trace, check,
      [&] { return run_mass_purchase(initiators, pairs, workers, seed).trace; },
      trace_out);
  if (!deterministic) return 1;
  const bool ok = first.one_winner_per_pair && first.conserved &&
                  first.intact && *deterministic;
  std::printf("\nchaos verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int cmd_chaos(Args& args) {
  if (const auto initiators =
          args.get_int_opt<std::size_t>("mass-purchase", 10000, 1))
    return cmd_mass_purchase(args, *initiators);
  ChaosParams p;
  p.ases = args.get_int<std::size_t>("ases", 8, 2);
  p.fault_link =
      args.get_int<std::size_t>("fault-link", p.ases - 2, 0, p.ases - 2);
  p.fault_ms = static_cast<double>(args.get_int("fault-ms", 60, 0));
  p.kills = args.get_keys("kill", p.ases);
  p.crashes = args.get_keys("crash", p.ases);
  p.byzantine = args.get_keys("byzantine", p.ases);
  p.attempts = args.get_int<std::uint32_t>("attempts", 4, 1);
  p.seed = args.get_int<std::uint64_t>("seed", 1);
  p.link_corrupt_pm = args.get_int("link-corrupt", 0, 0, 1000);
  p.link_truncate_pm = args.get_int("link-truncate", 0, 0, 1000);
  p.link_dup_pm = args.get_int("link-dup", 0, 0, 1000);
  p.link_reorder_pm = args.get_int("link-reorder", 0, 0, 1000);
  p.link_flap_ms = args.get_int("link-flap-ms", 0, 0);
  p.int_mode = args.get_switch("int");
  p.middleboxes = args.get_middleboxes("middlebox", p.ases);
  p.detect_discrimination = args.get_switch("detect-discrimination");
  const bool check = args.get_switch("check-determinism");
  const std::string trace_out = args.get_path("trace-out", "");
  args.finish();

  obs::set_enabled(true);
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
  // The metric families the chaos summary prints, by name prefix.
  constexpr std::string_view kChaosCounters[] = {
      "core.retry",           "core.measurement",
      "core.executor_down",   "core.results_rejected",
      "core.byzantine",       "core.agent_",
      "core.localization",    "core.probe_",
      "core.scrape_chunks",   "net.parse_rejected",
      "net.ttl_expired",      "telemetry.",
      "simnet.host_fault",    "simnet.wire_faults",
      "simnet.middlebox",     "executor.deployments_abandoned"};
  std::vector<obs::MetricRow> interesting;
  for (const obs::MetricRow& row : first.counters) {
    const auto in_family = [&](std::string_view prefix) {
      return row.name.starts_with(prefix);
    };
    if (std::any_of(std::begin(kChaosCounters), std::end(kChaosCounters),
                    in_family))
      interesting.push_back(row);
  }
  print_metric_rows(interesting);
  if (const std::size_t at = first.trace.find("\nfault matrix:");
      at != std::string::npos) {
    std::printf("%s\n", first.trace.substr(at).c_str());
  }

  const std::optional<bool> deterministic = replay_and_write(
      first.trace + "\n", check,
      [&] { return run_chaos(p, /*verbose=*/false).trace + "\n"; },
      trace_out);
  if (!deterministic) return 1;
  if (p.detect_discrimination)
    std::printf("\ndiscrimination check: %s\n",
                first.discrimination_ok ? "as expected" : "WRONG VERDICT");
  const bool ok = first.measurement_ok && first.bracketed &&
                  first.discrimination_ok && *deterministic;
  std::printf("\nchaos verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int cmd_asm(Args& args) {
  const std::string path = args.get_positional("FILE");
  args.finish();
  std::ifstream in(path);
  if (failed(in, "open", path)) return 1;
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto module = vm::assemble(buffer.str());
  if (failed(module, "assembly error") ||
      failed(vm::validate(*module), "validation error"))
    return 1;
  const Bytes wire = module->serialize();
  const std::string out_path = path + ".dvm";
  std::ofstream out(out_path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(wire.data()),
            static_cast<std::streamsize>(wire.size()));
  std::printf("wrote %s (%zu bytes, %zu functions)\n", out_path.c_str(),
              wire.size(), module->functions.size());
  return 0;
}

int cmd_disasm(Args& args) {
  const std::string path = args.get_positional("FILE");
  args.finish();
  std::ifstream in(path, std::ios::binary);
  if (failed(in, "open", path)) return 1;
  Bytes wire((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  auto module = vm::Module::parse(BytesView(wire.data(), wire.size()));
  if (failed(module, "parse error")) return 1;
  std::printf("%s", vm::disassemble(*module).c_str());
  return 0;
}

void usage() {
  std::printf(
      "debuglet — programmable, verifiable inter-domain telemetry "
      "(simulated)\n\n"
      "usage: debuglet <command> [flags]; 'debuglet <command> --help' lists\n"
      "a command's flags with their defaults and bounds. An invalid or\n"
      "unknown flag exits 2.\n\n"
      "  measure     purchase and run one marketplace measurement\n"
      "  localize    inject a fault into a chain topology and localize it\n"
      "  traceroute  run the traceroute baseline\n"
      "  motivation  the paper's Section II protocol comparison\n"
      "  stats       run a measurement with metrics on; print/export them\n"
      "  trace       run a localization with tracing on; dump a Chrome trace\n"
      "  chaos       fault executors, links and middleboxes, then measure and\n"
      "              localize anyway (docs/ROBUSTNESS.md)\n"
      "  asm FILE    assemble DVM assembly into FILE.dvm\n"
      "  disasm FILE print the assembly of a serialized module\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc < 2 ? "" : argv[1];
  if (command == "help" || command == "--help") {
    usage();
    return 0;
  }
  const std::map<std::string, int (*)(Args&)> commands = {
      {"measure", cmd_measure},       {"localize", cmd_localize},
      {"traceroute", cmd_traceroute}, {"motivation", cmd_motivation},
      {"stats", cmd_stats},           {"trace", cmd_trace},
      {"chaos", cmd_chaos},           {"asm", cmd_asm},
      {"disasm", cmd_disasm}};
  try {
    const auto it = commands.find(command);
    if (it == commands.end())
      throw UsageError((command.empty() ? "no command"
                                        : "unknown command '" + command + "'") +
                       " (see 'debuglet help')");
    Args args(argc, argv);
    return it->second(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
