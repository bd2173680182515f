// Event-queue determinism contract: the (time, id) order with
// context-derived ids, the cross-domain clamp, a randomized differential
// test against a plain reference scheduler, and scenario traces under
// faults and middleboxes that must not depend on how a run is sliced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "simnet/hosts.hpp"
#include "simnet/middlebox.hpp"
#include "simnet/scenarios.hpp"
#include "util/rng.hpp"

namespace debuglet::simnet {
namespace {

using net::Protocol;

// Equal-time events scheduled from one context fire in scheduling order,
// whatever their domains.
TEST(EventOrder, EqualTimestampsFireInSchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i)
    q.schedule_on(1 + i % 2, 50, [&order, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));

  // Children of one event keep their scheduling order too.
  order.clear();
  q.schedule_at(q.now(), [&] {
    for (int i = 0; i < 5; ++i)
      q.schedule_after(0, [&order, i] { order.push_back(i); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Scheduling onto another domain costs at least the lookahead; staying on
// the current domain does not.
TEST(EventOrder, CrossDomainSchedulesAreClampedToLookahead) {
  EventQueue q;
  q.note_link_floor(duration::milliseconds(4));
  q.note_link_floor(duration::milliseconds(2));  // the smallest floor wins
  ASSERT_EQ(q.lookahead(), duration::milliseconds(1));
  SimTime same = -1, cross = -1, root = -1;
  q.schedule_on(3, duration::milliseconds(10), [&] {
    EXPECT_EQ(q.current_domain(), 3u);
    q.schedule_after(0, [&] { same = q.now(); });
    q.schedule_on(4, q.now(), [&] { cross = q.now(); });
  });
  // Outside dispatch the current domain is the control domain, so a root
  // event on AS 5 is clamped to now() + lookahead as well.
  q.schedule_on(5, 0, [&] { root = q.now(); });
  q.run();
  EXPECT_EQ(same, duration::milliseconds(10));
  EXPECT_EQ(cross, duration::milliseconds(11));
  EXPECT_EQ(root, duration::milliseconds(1));
  EXPECT_EQ(q.current_domain(), EventQueue::kControlDomain);
}

// --- Randomized differential test against a reference scheduler -----------

constexpr SimDuration kFloor = duration::milliseconds(2);  // lookahead 1 ms
constexpr int kMaxDepth = 8;

/// The event-id mixing function: one splitmix64 output from state `x`.
std::uint64_t mix(std::uint64_t x) { return splitmix64(x); }

enum class Kind { kAfter, kAtPast, kOn };

/// One child an event schedules when it fires. The program is a pure
/// function of (seed, label), so both schedulers see the same one.
struct Spawn {
  Kind kind;
  std::uint32_t domain;  // kOn only
  SimDuration delay;
  std::uint64_t label;
};

std::vector<Spawn> children_of(std::uint64_t seed, std::uint64_t label,
                               int depth) {
  std::vector<Spawn> out;
  if (depth >= kMaxDepth) return out;
  Rng rng(seed ^ mix(label));
  const std::uint64_t n = rng.next_below(4);
  for (std::uint64_t k = 0; k < n; ++k) {
    Spawn s;
    s.kind = static_cast<Kind>(rng.next_below(3));
    s.domain = static_cast<std::uint32_t>(rng.next_below(4));
    // Coarse delays make equal timestamps common.
    s.delay = duration::milliseconds(rng.next_below(4));
    s.label = mix(label + k + 1);
    out.push_back(s);
  }
  return out;
}

struct Root {
  std::uint32_t domain;
  SimTime at;
  std::uint64_t label;
};

std::vector<Root> roots_of(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Root> roots;
  for (std::uint64_t i = 0; i < 16; ++i) {
    Root r;
    r.domain = static_cast<std::uint32_t>(rng.next_below(4));
    r.at = duration::milliseconds(rng.next_below(5));
    r.label = mix(seed * 1000 + i);
    roots.push_back(r);
  }
  return roots;
}

/// (label, time, domain) of every fired event, in firing order.
using Firing = std::tuple<std::uint64_t, SimTime, std::uint32_t>;

/// Drives the program through EventQueue. `slice` > 0 runs it as a series
/// of run_until calls instead of one run().
std::vector<Firing> queue_order(std::uint64_t seed, SimDuration slice) {
  EventQueue q;
  q.note_link_floor(kFloor);
  std::vector<Firing> fired;
  std::function<void(std::uint64_t, int)> fire = [&](std::uint64_t label,
                                                     int depth) {
    fired.emplace_back(label, q.now(), q.current_domain());
    for (const Spawn& s : children_of(seed, label, depth)) {
      auto next = [&fire, label = s.label, depth] { fire(label, depth + 1); };
      switch (s.kind) {
        case Kind::kAfter:
          q.schedule_after(s.delay, next);
          break;
        case Kind::kAtPast:  // lands before now() and is clamped to it
          q.schedule_at(q.now() + s.delay - duration::milliseconds(2), next);
          break;
        case Kind::kOn:
          q.schedule_on(s.domain, q.now() + s.delay, next);
          break;
      }
    }
  };
  for (const Root& r : roots_of(seed))
    q.schedule_on(r.domain, r.at, [&fire, label = r.label] { fire(label, 0); });
  if (slice > 0) {
    while (!q.empty()) q.run_until(q.now() + slice);
  } else {
    q.run();
  }
  return fired;
}

/// The same program on the simplest possible scheduler: a flat list,
/// scanned for the minimum (time, id) before every step, with the ids and
/// clamps written out from the contract in docs/SIMNET.md.
std::vector<Firing> reference_order(std::uint64_t seed) {
  struct Pending {
    SimTime at;
    std::uint64_t id;
    std::uint32_t domain;
    std::uint64_t label;
    int depth;
  };
  const SimDuration lookahead = kFloor / 2;
  std::vector<Pending> pending;
  std::uint64_t root_seq = 0;
  for (const Root& r : roots_of(seed)) {
    SimTime at = r.at;
    if (r.domain != EventQueue::kControlDomain)
      at = std::max(at, SimTime{0} + lookahead);
    pending.push_back(Pending{at, root_seq++ << 20, r.domain, r.label, 0});
  }
  std::vector<Firing> fired;
  while (!pending.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
      if (std::tie(pending[i].at, pending[i].id) <
          std::tie(pending[best].at, pending[best].id))
        best = i;
    }
    const Pending ev = pending[best];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
    fired.emplace_back(ev.label, ev.at, ev.domain);
    std::uint64_t child = 0;
    for (const Spawn& s : children_of(seed, ev.label, ev.depth)) {
      std::uint32_t domain = ev.domain;
      SimTime at = ev.at + s.delay;
      if (s.kind == Kind::kAtPast) at -= duration::milliseconds(2);
      if (s.kind == Kind::kOn) domain = s.domain;
      at = std::max(at, ev.at);
      if (domain != ev.domain) at = std::max(at, ev.at + lookahead);
      const std::uint64_t id = (mix(ev.id) << 20) | child++;
      pending.push_back(Pending{at, id, domain, s.label, ev.depth + 1});
    }
  }
  return fired;
}

TEST(EventOrder, MatchesReferenceSchedulerOnRandomPrograms) {
  std::size_t total = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const std::vector<Firing> expected = reference_order(seed);
    total += expected.size();
    EXPECT_EQ(queue_order(seed, 0), expected) << "seed " << seed;
    EXPECT_EQ(queue_order(seed, duration::microseconds(700)), expected)
        << "sliced, seed " << seed;
  }
  // The programs are big enough to exercise deep heaps and many ties.
  EXPECT_GT(total, 5000u);
}

// --- Scenario traces ---------------------------------------------------------

/// Runs the queue to exhaustion, in one run() or in `slice`-sized
/// run_until steps, and returns the events processed.
std::size_t drain(EventQueue& q, SimDuration slice) {
  if (slice == 0) return q.run();
  std::size_t events = 0;
  while (!q.empty()) events += q.run_until(q.now() + slice);
  return events;
}

/// Per-client received counts and the exact RTT sample streams, formatted
/// so a mismatch prints usefully.
std::string client_trace(
    const std::vector<std::unique_ptr<ProbeClientHost>>& clients) {
  std::string trace;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const ProbeReport& r = clients[i]->report();
    trace += "client " + std::to_string(i) + ":";
    for (const auto& [protocol, n] : r.received)
      trace += " recv=" + std::to_string(n);
    for (const auto& [protocol, set] : r.rtt_ms) {
      trace += " [";
      for (double sample : set.samples()) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g,", sample);
        trace += buf;
      }
      trace += "]";
    }
    trace += "\n";
  }
  return trace;
}

/// One deterministic trace of a faulted ring scenario: a host fault window
/// on one link and a lossy, duplicating wire on another.
std::string faulted_ring_trace(SimDuration slice) {
  Scenario s = build_internet_scenario(24, 11, 4.0);

  FaultSpec fault;
  fault.extra_delay_ms = 40.0;
  fault.start = duration::milliseconds(300);
  fault.end = duration::milliseconds(1500);
  EXPECT_TRUE(s.network->inject_fault(chain_egress(4), chain_ingress(5),
                                      fault));
  LinkFaultPlan wire;
  wire.corrupt(30.0);
  wire.duplicate(30.0, 2);
  EXPECT_TRUE(s.network->install_link_faults(chain_egress(9),
                                             chain_ingress(10), wire));

  std::vector<std::unique_ptr<EchoServerHost>> servers;
  std::vector<std::unique_ptr<ProbeClientHost>> clients;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto server_as =
        static_cast<topology::AsNumber>(1 + (i * 4 + 6) % 24);
    const auto client_as = static_cast<topology::AsNumber>(1 + (i * 4) % 24);
    const auto server_addr = s.network->allocate_host_address(server_as);
    servers.push_back(
        std::make_unique<EchoServerHost>(*s.network, server_addr));
    EXPECT_TRUE(s.network->attach_host(server_addr, servers.back().get()));
    ProbeClientConfig cfg;
    cfg.server = server_addr;
    cfg.probe_count = 20;
    cfg.interval = duration::milliseconds(100);
    cfg.protocols = {Protocol::kUdp, Protocol::kIcmp};
    const auto client_addr = s.network->allocate_host_address(client_as);
    clients.push_back(std::make_unique<ProbeClientHost>(
        *s.network, client_addr, cfg, 42 + i));
    EXPECT_TRUE(s.network->attach_host(client_addr, clients.back().get()));
  }
  for (auto& c : clients) c->start();
  const std::size_t events = drain(*s.queue, slice);
  return client_trace(clients) + "events " + std::to_string(events);
}

// A faulted multi-host scenario produces the same trace on every run, and
// slicing the run into run_until steps changes nothing.
TEST(ScenarioTrace, FaultedRingIsRepeatableAndSliceInvariant) {
  const std::string baseline = faulted_ring_trace(0);
  EXPECT_EQ(faulted_ring_trace(0), baseline);
  EXPECT_EQ(faulted_ring_trace(duration::milliseconds(37)), baseline);
}

/// Sink for the data-class flows below: records arrival order, times and
/// a payload digest so middlebox mangling shows up in the trace.
class RecordingSinkHost : public Host {
 public:
  void on_packet(const Delivery& delivery) override {
    std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a
    for (std::uint8_t b : delivery.packet.payload) {
      digest ^= b;
      digest *= 1099511628211ULL;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, " %lld:%016llx",
                  static_cast<long long>(delivery.received_at),
                  static_cast<unsigned long long>(digest));
    log_ += buf;
  }
  const std::string& log() const { return log_; }

 private:
  std::string log_;
};

/// Adversarial-middlebox trace: a DPI chaos box on one AS, a fault-hiding
/// box on another, measurement-class probe rounds AND data-class flows
/// (high-entropy payloads) crossing both. The per-copy middlebox RNG
/// draws, extra queueing delays, mangle damage and ground-truth stats all
/// land in the trace.
std::string middlebox_ring_trace(SimDuration slice) {
  Scenario s = build_internet_scenario(24, 19, 4.0);

  ClassPolicy chaos;
  chaos.drop_pm = 80.0;
  chaos.extra_delay_ms = 6.0;
  chaos.delay_jitter_ms = 1.5;
  chaos.mangle_pm = 60.0;
  MiddleboxPlan dpi;
  dpi.policy_all(chaos);
  EXPECT_TRUE(s.network->install_middlebox(3, dpi).ok());

  ClassPolicy slow_lane;
  slow_lane.extra_delay_ms = 20.0;
  slow_lane.drop_pm = 100.0;
  MiddleboxPlan hider;
  hider.policy_all(slow_lane).recognize_probe_signatures(true);
  EXPECT_TRUE(s.network->install_middlebox(10, hider).ok());

  std::vector<std::unique_ptr<EchoServerHost>> servers;
  std::vector<std::unique_ptr<ProbeClientHost>> clients;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto server_as =
        static_cast<topology::AsNumber>(1 + (i * 6 + 11) % 24);
    const auto client_as = static_cast<topology::AsNumber>(1 + (i * 6) % 24);
    const auto server_addr = s.network->allocate_host_address(server_as);
    servers.push_back(
        std::make_unique<EchoServerHost>(*s.network, server_addr));
    EXPECT_TRUE(s.network->attach_host(server_addr, servers.back().get()));
    ProbeClientConfig cfg;
    cfg.server = server_addr;
    cfg.probe_count = 15;
    cfg.interval = duration::milliseconds(100);
    cfg.protocols = {Protocol::kUdp, Protocol::kIcmp};
    const auto client_addr = s.network->allocate_host_address(client_as);
    clients.push_back(std::make_unique<ProbeClientHost>(
        *s.network, client_addr, cfg, 71 + i));
    EXPECT_TRUE(s.network->attach_host(client_addr, clients.back().get()));
  }

  // Two data-class flows with high-entropy payloads (classified kOther,
  // so the chaos box rolls drop/delay/mangle dice for every packet and
  // the hider parks them in its slow lane).
  std::vector<std::unique_ptr<RecordingSinkHost>> sinks;
  Rng payload_rng(909);
  for (std::size_t f = 0; f < 2; ++f) {
    const auto src_as = static_cast<topology::AsNumber>(2 + f * 12);
    const auto dst_as = static_cast<topology::AsNumber>(14 + f * 8);
    const auto src = s.network->allocate_host_address(src_as);
    const auto dst = s.network->allocate_host_address(dst_as);
    sinks.push_back(std::make_unique<RecordingSinkHost>());
    EXPECT_TRUE(s.network->attach_host(dst, sinks.back().get()));
    for (int n = 0; n < 25; ++n) {
      net::ProbeSpec spec;
      spec.source = src;
      spec.destination = dst;
      spec.source_port = 51000;
      spec.destination_port = 27101;
      spec.sequence = static_cast<std::uint16_t>(n);
      spec.payload.resize(96);
      for (std::uint8_t& b : spec.payload)
        b = static_cast<std::uint8_t>(payload_rng.next_u64() & 0xFF);
      auto wire = net::build_probe(spec);
      EXPECT_TRUE(wire.ok());
      s.queue->schedule_on(s.network->domain_of(src),
                           duration::milliseconds(40 * (n + 1)),
                           [&s, src, wire = *wire] {
                             (void)s.network->send(src, wire);
                           });
    }
  }

  for (auto& c : clients) c->start();
  const std::size_t events = drain(*s.queue, slice);

  std::string trace = client_trace(clients);
  for (std::size_t f = 0; f < sinks.size(); ++f)
    trace += "flow " + std::to_string(f) + ":" + sinks[f]->log() + "\n";
  for (topology::AsNumber asn : {3u, 10u}) {
    const MiddleboxStats st = s.network->middlebox_stats(asn);
    trace += "mb AS" + std::to_string(asn) + ": " +
             std::to_string(st.inspected()) + "/" +
             std::to_string(st.dropped) + "/" +
             std::to_string(st.deprioritized) + "/" +
             std::to_string(st.mangled) + "/" +
             std::to_string(st.exempted) + "\n";
  }
  return trace + "events " + std::to_string(events);
}

// The same contract for the adversarial-middlebox layer: DPI
// classification, policy dice, hiding exemptions and mangle damage.
TEST(ScenarioTrace, MiddleboxRingIsRepeatableAndSliceInvariant) {
  const std::string baseline = middlebox_ring_trace(0);
  // The boxes saw traffic at all (otherwise this test proves nothing).
  EXPECT_NE(baseline.find("mb AS3"), std::string::npos);
  EXPECT_EQ(baseline.find("mb AS3: 0/"), std::string::npos);
  EXPECT_EQ(middlebox_ring_trace(0), baseline);
  EXPECT_EQ(middlebox_ring_trace(duration::milliseconds(37)), baseline);
}

}  // namespace
}  // namespace debuglet::simnet
