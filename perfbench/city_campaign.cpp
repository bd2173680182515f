// city_campaign: the §II / Table I probe campaign. Each session builds the
// calibrated city world, attaches a native EchoServerHost in London and a
// ProbeClientHost in one of the six remote cities, and probes with UDP,
// TCP, ICMP and raw IP at 1 probe/s per protocol for a fixed number of
// simulated hours; sessions rotate through the cities. Almost all simnet
// and net work — no chain, crypto, marketplace or DVM — so it is the
// control that control-plane optimisations must leave unchanged.
#include <cmath>

#include "common.hpp"
#include "simnet/hosts.hpp"
#include "simnet/scenarios.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace debuglet;
using namespace debuglet::simnet;
using net::Protocol;

namespace {

/// Base seed of the calibrated Table I worlds; city i uses base + 101 i.
constexpr std::uint64_t kTable1Seed = 20240514;
/// Simulated hours per session: the calibrated worlds fail the NewYork UDP
/// mean check at 4 h and pass every check at 8 h.
constexpr unsigned kHours = 8;

/// Table I shape checks for one city session (the table1_protocol_rtt
/// bench's checks). Returns the failed check descriptions.
std::vector<std::string> table1_failures(const std::string& city,
                                         const ProbeReport& r) {
  std::vector<std::string> failed;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) failed.push_back(city + ": " + what);
  };
  auto mean = [&](Protocol p) { return r.rtt_ms.at(p).mean(); };
  auto stddev = [&](Protocol p) { return r.rtt_ms.at(p).stddev(); };
  auto loss = [&](Protocol p) { return r.loss_per_mille(p); };
  for (Protocol p : net::kAllProtocols) {
    const PaperCityRow paper = paper_table1(city, p);
    check(std::abs(mean(p) - paper.mean_ms) <
              std::max(1.5, 0.02 * paper.mean_ms),
          net::protocol_name(p) + " mean within 2% of the paper");
  }
  if (city == "Frankfurt") {
    check(mean(Protocol::kIcmp) < mean(Protocol::kUdp) &&
              mean(Protocol::kIcmp) < mean(Protocol::kRawIp),
          "ICMP priority queue gives the lowest RTT");
    check(stddev(Protocol::kIcmp) < stddev(Protocol::kUdp),
          "ICMP tightest distribution");
  }
  if (city == "NewYork") {
    check(mean(Protocol::kUdp) < mean(Protocol::kIcmp) &&
              mean(Protocol::kTcp) < mean(Protocol::kRawIp),
          "UDP/TCP below ICMP/raw-IP");
    check(loss(Protocol::kTcp) > 2.0 * loss(Protocol::kUdp),
          "TCP loss dominates");
    check(loss(Protocol::kUdp) > 3.0 && loss(Protocol::kIcmp) < 1.0,
          "congestion hits UDP, spares ICMP");
  }
  if (city == "Bangalore") {
    check(stddev(Protocol::kUdp) > stddev(Protocol::kIcmp) &&
              stddev(Protocol::kUdp) > stddev(Protocol::kRawIp),
          "UDP has the widest spread");
    check(mean(Protocol::kTcp) - mean(Protocol::kIcmp) > 8.0,
          "TCP pinned to a distinctly slower route");
  }
  if (city == "SanFrancisco") {
    check(stddev(Protocol::kUdp) < 2.0 && stddev(Protocol::kTcp) < 2.0,
          "everything stable");
    check(loss(Protocol::kTcp) > 1.0, "only TCP shows loss");
  }
  return failed;
}

}  // namespace

RunReport run_city_campaign(const Options& opts) {
  RunReport report;
  const std::vector<std::string>& cities = city_names();

  SpanRecorder spans;
  SetupTimes setup;
  Pace pace;
  Ops slices;  // one per simulated hour; work = probes sent
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<std::string> failures;
  std::uint64_t probes = 0;
  std::uint64_t traced_probes = 0;
  std::uint64_t sessions = 0;
  std::uint64_t failed_sessions = 0;
  double busy_s = 0.0;
  double traced_busy_s = 0.0;
  double traced_events = 0.0;  // obs counters, summed over traced hours
  double traced_sent = 0.0;
  double traced_delivered = 0.0;
  Rng seeds(opts.seed ^ 0xC17Eu);
  RssAfter rss(6);  // one session per city
  std::vector<std::size_t> order(cities.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[seeds.next_below(i)]);
  // Session s probes from the s-th city of the seeded order. The run
  // measures whole sessions until the time is up, and at least kSetups of
  // them so that setup_s is always a median.
  for (std::uint64_t s = 0;; ++s) {
    if (s >= kSetups &&
        (busy_s >= opts.seconds || (opts.max_ops && s >= opts.max_ops)))
      break;
    const std::size_t city_index = order[s % order.size()];
    const std::string& city = cities[city_index];
    // The world is the calibrated Table I world of this city (the seeds of
    // the table1_protocol_rtt bench); the benchmark seed picks the city
    // order and the hosts' seeds.
    const std::uint64_t world_seed = kTable1Seed + 101 * city_index;
    const std::uint64_t host_seed = seeds.next_u64();
    // Traced mode builds every world with obs on, so that its handles are
    // live, and then traces every other hour (see below).
    if (opts.trace) obs::set_enabled(true);

    // Set-up: the calibrated world and its two hosts.
    pace.tick();
    const auto t0 = Clock::now();
    Scenario world = build_city_scenario(world_seed);
    const auto server_addr = world.network->allocate_host_address(london_as());
    EchoServerHost server(*world.network, server_addr, 0, 0.0, host_seed);
    const auto client_addr =
        world.network->allocate_host_address(city_as(city));
    ProbeClientConfig cfg;
    cfg.server = server_addr;
    cfg.probe_count = std::uint64_t{kHours} * 3600;
    cfg.interval = duration::seconds(1);
    cfg.equalized_length = 64;
    ProbeClientHost client(*world.network, client_addr, cfg, host_seed + 1);
    const bool attached =
        world.network->attach_host(server_addr, &server).ok() &&
        world.network->attach_host(client_addr, &client).ok();
    const double setup_ms = ms_between(t0, Clock::now());
    pace.tick();  // also the burst before the first hour
    setup.wall_s.push_back(setup_ms / 1e3);
    setup.ref_s.push_back(pace.scale(setup_ms) / 1e3);
    if (!attached) {
      ++failed_sessions;
      failures.push_back(city + ": host attach failed");
      continue;
    }
    if (opts.trace) obs::registry().reset_values();
    client.start();

    // Timed: one operation per simulated hour; the last one also drains
    // the replies still in flight. Traced mode alternates traced and
    // untraced hours, and flips the parity every round of the six cities,
    // so every city and every hour of a session is seen both ways.
    std::vector<double> hour_ms;
    std::vector<double> hour_ref_ms;
    double session_traced_s = 0.0;
    unsigned session_traced_hours = 0;
    for (unsigned h = 1; h <= kHours; ++h) {
      const SimTime until = duration::hours(h) +
                            (h == kHours ? duration::seconds(10) : 0);
      const std::uint64_t op = s * 1000 + h;
      const bool traced = traced_op(opts, s / cities.size() + h);
      if (opts.trace) obs::set_enabled(traced);
      const auto a = Clock::now();
      {
        ScopedSpan root(traced ? &spans : nullptr, "campaign.hour", op);
        ScopedSpan span(traced ? &spans : nullptr, "simnet.run_until", op);
        world.queue->run_until(until);
      }
      const double ms = ms_between(a, Clock::now());
      pace.tick();
      hour_ms.push_back(ms);
      hour_ref_ms.push_back(pace.scale(ms));
      (traced ? traced_ms : untraced_ms).push_back(ms);
      busy_s += ms / 1e3;
      if (traced) {
        session_traced_s += ms / 1e3;
        ++session_traced_hours;
      }
    }
    if (opts.trace) obs::set_enabled(false);

    const ProbeReport& r = client.report();
    std::uint64_t sent = 0;
    for (const auto& [proto, n] : r.sent) sent += n;
    probes += sent;
    // Probes go out at a fixed rate, so each hour sends an equal share.
    for (unsigned h = 0; h < kHours; ++h)
      slices.add(hour_ms[h], hour_ref_ms[h],
                 static_cast<double>(sent) / kHours);
    ++sessions;
    rss.done(sessions);
    auto failed = table1_failures(city, r);
    if (!failed.empty()) ++failed_sessions;
    failures.insert(failures.end(), failed.begin(), failed.end());

    if (opts.trace) {
      traced_probes += sent * session_traced_hours / kHours;
      traced_busy_s += session_traced_s;
      traced_events += counter_total("simnet.event_queue.events");
      traced_sent += counter_total("simnet.packets_sent");
      traced_delivered += counter_total("simnet.packets_delivered");
    }
  }

  report.attempted = probes;
  report.failed = 0;  // a lost probe is calibrated loss, not a failure
  report.facts["sessions"] = std::to_string(sessions);
  report_end_to_end(report, std::move(slices), "simulated city-hours",
                    rss.mb(), pace);
  report_setup(report, setup, false);
  report.check(sessions > 0 && failed_sessions == 0,
               "city_campaign: every session passes the Table I shape "
               "checks at " +
                   std::to_string(kHours) + " simulated hours");
  for (std::size_t i = 0; i < failures.size() && i < 5; ++i)
    report.facts["failure_" + std::to_string(i)] = failures[i];

  if (!opts.trace) return report;

  // --- Per-layer metrics (traced mode) -------------------------------------
  report.layer("simnet.scenario_build_ms", median(setup.wall_s) * 1e3, "ms",
               setup.wall_s.size(), "city world plus two hosts");
  const auto d = spans.durations_ms("simnet.run_until");
  report.layer("simnet.run_until_ms", median(d), "ms", d.size(),
               "median span per simulated hour");
  report.layer("simnet.events",
               traced_probes ? traced_events / static_cast<double>(traced_probes)
                             : 0.0,
               "count", traced_probes, "events per probe");
  report.layer("simnet.events_per_s",
               traced_busy_s > 0 ? traced_events / traced_busy_s : 0.0, "1/s",
               static_cast<std::uint64_t>(traced_events));
  report.layer("simnet.delivered_ratio",
               traced_sent > 0 ? traced_delivered / traced_sent : 0.0, "ratio",
               static_cast<std::uint64_t>(traced_sent));
  report_trace_overhead(report, traced_ms, untraced_ms);
  finish_trace(report, spans, opts, "campaign.hour", 0.9);
  return report;
}

}  // namespace perfbench
