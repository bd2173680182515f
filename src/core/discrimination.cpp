#include "core/discrimination.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "telemetry/int_header.hpp"
#include "util/rng.hpp"
#include "util/sprt.hpp"

namespace debuglet::core {

namespace {

constexpr std::uint64_t kTwinPayloadSalt = 0x7719A3ULL;
constexpr std::uint64_t kTwinPacingSalt = 0x7719B4ULL;
constexpr std::uint64_t kTwinPortSalt = 0x7719C5ULL;

// The detector's calibration.
constexpr SimDuration kInterval = duration::milliseconds(50);
// The one bit the twins differ in: a destination port inside the classic
// measurement ranges vs. an unremarkable ephemeral port.
constexpr std::uint16_t kProbePort = 40021;
constexpr std::uint16_t kDataPort = 27101;
// Identical high-entropy payload tail carried by both twins.
constexpr std::size_t kPayloadTailBytes = 48;
// INT budget when the network forwards with telemetry enabled.
constexpr std::uint8_t kIntMaxHops = 12;
// Detection bar: an SPRT arm accepts discrimination AND the top
// confidence is at/above this. A delivered twin pair is evidence of delay
// discrimination when the data twin trails by at least kMinEffectMs.
constexpr double kConfidenceThreshold = 0.8;
constexpr double kMinEffectMs = 1.0;
// Sequential round bounds: never decide before kMinRounds, give up at
// kMaxRounds.
constexpr std::uint64_t kMinRounds = 8;
constexpr std::uint64_t kMaxRounds = 64;
// Wald error bounds: false-accusation rate <= alpha, missed detection
// <= beta.
constexpr double kAlpha = 0.01;
constexpr double kBeta = 0.05;
// Bernoulli design points: P(round shows a >= kMinEffectMs delay gap)
// under honest (p0) vs discriminating (p1) treatment, and P(a discordant
// loss pair hits the data twin) under discrimination (the honest null is
// 0.5 by symmetry).
constexpr double kDelayP0 = 0.05;
constexpr double kDelayP1 = 0.9;
constexpr double kLossP1 = 0.95;
// Extra rounds granted after the first H1 so prefix evidence can firm up
// before the run stops.
constexpr std::uint64_t kGraceRounds = 8;

// Maps a nonnegative separation score into [0, 1); 4.0 is the score at
// which confidence crosses 0.5. Genuine fault hiding scores far higher.
double score_to_confidence(double score) {
  return score <= 0.0 ? 0.0 : score / (score + 4.0);
}

// Maps an SPRT log-likelihood ratio into [0, 1): an LLR at Wald's H1
// bound (log((1-beta)/alpha), ~4.55 at the defaults) maps to ~0.99.
double llr_confidence(double llr) {
  return llr <= 0.0 ? 0.0 : 1.0 - std::exp(-llr);
}

// Welch-style separation between two sample sets (positive = b slower).
// The standard error is floored at 0.05 ms so jitter-free scenarios
// (sample variance exactly zero) yield a large finite score rather than a
// division by zero.
double separation_score(const SampleSet& a, const SampleSet& b) {
  if (a.count() < 2 || b.count() < 2) return 0.0;
  const double var_a = a.stddev() * a.stddev();
  const double var_b = b.stddev() * b.stddev();
  double se = std::sqrt(var_a / static_cast<double>(a.count()) +
                        var_b / static_cast<double>(b.count()));
  se = std::max(se, 0.05);
  return (b.mean() - a.mean()) / se;
}

double mean_or_zero(const SampleSet& s) { return s.empty() ? 0.0 : s.mean(); }

// An ephemeral source port outside every fingerprinted range, drawn from
// the detector's own seeded RNG (fixed constants would collide across
// detectors and hand the adversary a free invariant).
std::uint16_t ephemeral_source_port(Rng& rng) {
  return static_cast<std::uint16_t>(51000 + rng.next_below(10000));
}

/// Delivery record of one twin round at one collector.
struct RoundOutcome {
  bool probe = false;
  bool data = false;
  double probe_ms = 0.0;
  double data_ms = 0.0;
};

// Receiving twin endpoint: tallies per-class one-way delay and, when the
// payload still carries an intact INT stack, per-AS residence and drop
// snapshots. It also records which twin of each round arrived (the probe
// sequence rides in IP identification).
class TwinCollector final : public simnet::Host {
 public:
  TwinCollector(std::uint16_t probe_port, std::uint16_t data_port,
                TwinClassSummary& probe_like, TwinClassSummary& data_like,
                std::vector<RoundOutcome>& rounds)
      : probe_port_(probe_port),
        data_port_(data_port),
        probe_like_(probe_like),
        data_like_(data_like),
        rounds_(rounds) {}

  void on_packet(const simnet::Delivery& delivery) override {
    if (!delivery.packet.udp) return;
    const std::uint16_t port = delivery.packet.udp->destination_port;
    const bool is_probe = port == probe_port_;
    if (!is_probe && port != data_port_) return;
    TwinClassSummary& summary = is_probe ? probe_like_ : data_like_;
    summary.received += 1;
    const double one_way_ms =
        duration::to_ms(delivery.received_at - delivery.sent_at);
    summary.one_way_ms.add(one_way_ms);
    record_residence(delivery, summary);
    const std::uint16_t seq = delivery.packet.ip.identification;
    if (seq < rounds_.size()) {
      RoundOutcome& o = rounds_[seq];
      if (is_probe) {
        o.probe = true;
        o.probe_ms = one_way_ms;
      } else {
        o.data = true;
        o.data_ms = one_way_ms;
      }
    }
  }

 private:
  static void record_residence(const simnet::Delivery& delivery,
                               TwinClassSummary& summary) {
    const Bytes& payload = delivery.packet.payload;
    const BytesView view(payload.data(), payload.size());
    if (!telemetry::IntHeader::looks_like_int(view)) return;
    auto header = telemetry::IntHeader::parse(view);
    if (!header) return;  // mangled in flight; the damage shows elsewhere
    for (const telemetry::HopRecord& rec : header->records()) {
      summary.residence_ms[rec.asn].add(
          static_cast<double>(rec.egress_ns - rec.ingress_ns) / 1e6);
      std::uint32_t& seen = summary.drops_seen[rec.asn];
      seen = std::max(seen, rec.drops_seen);
    }
  }

  std::uint16_t probe_port_;
  std::uint16_t data_port_;
  TwinClassSummary& probe_like_;
  TwinClassSummary& data_like_;
  std::vector<RoundOutcome>& rounds_;
};

/// Loss evidence that compounds with (or substitutes for) the residence
/// evidence: where the missing twins most likely died and how sure.
struct LossSignal {
  bool significant = false;
  topology::AsNumber loss_as = 0;
  double confidence = 0.0;
  std::string detail;  // appended to the matching suspect's detail
};

topology::AsNumber max_drop_as(const TwinClassSummary& data_like) {
  topology::AsNumber loss_as = 0;
  std::uint32_t max_drops = 0;
  for (const auto& [asn, drops] : data_like.drops_seen) {
    if (drops > max_drops) {
      max_drops = drops;
      loss_as = asn;
    }
  }
  return loss_as;
}

// Residence-stack suspects: one per AS with samples in both arms; the
// loss signal compounds into its AS (independent evidence).
void build_residence_suspects(DiscriminationReport& report,
                              const LossSignal& loss) {
  char buf[192];
  for (const auto& [asn, data_set] : report.data_like.residence_ms) {
    auto it = report.probe_like.residence_ms.find(asn);
    if (it == report.probe_like.residence_ms.end()) continue;
    const SampleSet& probe_set = it->second;
    DiscriminationEvidence ev;
    ev.asn = asn;
    ev.residence_delta_ms = mean_or_zero(data_set) - mean_or_zero(probe_set);
    ev.score = separation_score(probe_set, data_set);
    ev.confidence = score_to_confidence(ev.score);
    std::snprintf(buf, sizeof(buf),
                  "residence data %.3f ms vs probe %.3f ms, n=%zu/%zu",
                  mean_or_zero(data_set), mean_or_zero(probe_set),
                  data_set.count(), probe_set.count());
    ev.detail = buf;
    if (loss.significant && asn == loss.loss_as) {
      ev.confidence = 1.0 - (1.0 - ev.confidence) * (1.0 - loss.confidence);
      ev.detail += loss.detail;
    }
    report.suspects.push_back(std::move(ev));
  }
}

void sort_suspects(DiscriminationReport& report) {
  std::sort(report.suspects.begin(), report.suspects.end(),
            [](const DiscriminationEvidence& a,
               const DiscriminationEvidence& b) {
              if (a.confidence != b.confidence)
                return a.confidence > b.confidence;
              return a.asn < b.asn;
            });
}

void count_decision(const DiscriminationReport& report) {
  obs::MetricsRegistry& reg = obs::registry();
  reg.counter("core.discrimination.runs").add();
  reg.counter("core.discrimination.rounds").add(report.rounds_used);
  reg.counter("core.discrimination.decisions", {{"outcome", report.decision}})
      .add();
}

}  // namespace

std::string DiscriminationReport::trace() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "twins: probe-like %llu/%llu mean %.3f ms | data-like "
                "%llu/%llu mean %.3f ms | delta %.3f ms loss-gap %.4f\n",
                static_cast<unsigned long long>(probe_like.received),
                static_cast<unsigned long long>(probe_like.sent),
                mean_or_zero(probe_like.one_way_ms),
                static_cast<unsigned long long>(data_like.received),
                static_cast<unsigned long long>(data_like.sent),
                mean_or_zero(data_like.one_way_ms), delay_delta_ms,
                loss_delta);
  out += line;
  std::snprintf(line, sizeof(line),
                "rounds: %llu decision %s delay-llr %.2f loss-llr %.2f\n",
                static_cast<unsigned long long>(rounds_used),
                decision.empty() ? "none" : decision.c_str(), delay_llr,
                loss_llr);
  out += line;
  for (const DiscriminationEvidence& ev : suspects) {
    if (ev.asn == 0)
      std::snprintf(line, sizeof(line),
                    "  end-to-end: confidence %.3f delta %.3f ms score %.2f "
                    "(%s)\n",
                    ev.confidence, ev.residence_delta_ms, ev.score,
                    ev.detail.c_str());
    else
      std::snprintf(line, sizeof(line),
                    "  AS%u: confidence %.3f residence-delta %.3f ms score "
                    "%.2f (%s)\n",
                    ev.asn, ev.confidence, ev.residence_delta_ms, ev.score,
                    ev.detail.c_str());
    out += line;
  }
  if (detected && !suspects.empty() && suspects.front().asn != 0)
    std::snprintf(line, sizeof(line),
                  "discrimination: AS%u named (confidence %.3f)\n",
                  suspects.front().asn, suspects.front().confidence);
  else if (detected)
    std::snprintf(line, sizeof(line),
                  "discrimination: detected end-to-end, not localized "
                  "(confidence %.3f)\n",
                  top_confidence());
  else
    std::snprintf(line, sizeof(line),
                  "discrimination: none (top confidence %.3f)\n",
                  top_confidence());
  out += line;
  return out;
}

DiscriminationDetector::DiscriminationDetector(
    simnet::SimulatedNetwork& network, topology::AsNumber client_as,
    topology::AsNumber server_as, std::uint64_t seed, bool randomize_twins)
    : network_(network),
      client_as_(client_as),
      server_as_(server_as),
      seed_(seed),
      randomize_twins_(randomize_twins) {}

Result<DiscriminationReport> DiscriminationDetector::run() {
  using Decision = Sprt::Decision;
  DiscriminationReport report;
  const net::Ipv4Address client = network_.allocate_host_address(client_as_);

  // One collector per observation point. Without INT, every intermediate
  // path AS gets its own twin stream (the prefix scan that localizes
  // loss-only discrimination); the final collector is always last.
  struct Target {
    Target()
        : delay(kDelayP0, kDelayP1, kAlpha, kBeta),
          loss(0.5, kLossP1, kAlpha, kBeta) {}
    topology::AsNumber asn = 0;
    bool is_final = false;
    net::Ipv4Address addr;
    TwinClassSummary local_probe;  // used by prefix targets only
    TwinClassSummary local_data;
    TwinClassSummary* probe_like = nullptr;
    TwinClassSummary* data_like = nullptr;
    std::vector<RoundOutcome> rounds;
    std::unique_ptr<TwinCollector> sink;
    Sprt delay;
    Sprt loss;
  };
  std::vector<std::unique_ptr<Target>> targets;

  auto add_target = [&](topology::AsNumber asn,
                        bool is_final) -> Result<bool> {
    auto t = std::make_unique<Target>();
    t->asn = asn;
    t->is_final = is_final;
    t->addr = network_.allocate_host_address(asn);
    t->probe_like = is_final ? &report.probe_like : &t->local_probe;
    t->data_like = is_final ? &report.data_like : &t->local_data;
    t->rounds.resize(kMaxRounds);
    t->sink = std::make_unique<TwinCollector>(
        kProbePort, kDataPort, *t->probe_like, *t->data_like, t->rounds);
    if (auto attached = network_.attach_host(t->addr, t->sink.get());
        !attached)
      return fail("discrimination: " + attached.error_message());
    targets.push_back(std::move(t));
    return true;
  };
  auto detach_all = [&]() {
    for (const auto& t : targets) network_.detach_host(t->addr);
  };

  if (!network_.int_enabled()) {
    if (auto path = network_.topology().shortest_path(client_as_, server_as_);
        path.ok() && path->length() > 2) {
      for (std::size_t i = 1; i + 1 < path->length(); ++i) {
        if (auto added = add_target(path->hops[i].asn, false); !added) {
          detach_all();
          return fail(added.error_message());
        }
      }
    }
  }
  if (auto added = add_target(server_as_, true); !added) {
    detach_all();
    return fail(added.error_message());
  }
  Target& fin = *targets.back();

  // Randomized mode draws from mode-distinct streams: a randomized run
  // must never replay the ports/payloads an earlier static run with the
  // same seed already taught a learning middlebox (the first randomized
  // round would otherwise collide with the promoted static signature).
  const std::uint64_t mode_salt = randomize_twins_ ? 0x52414E44ULL << 24 : 0;
  Rng payload_rng = Rng(seed_).fork(kTwinPayloadSalt ^ mode_salt);
  Rng pacing_rng = Rng(seed_).fork(kTwinPacingSalt ^ mode_salt);
  Rng port_rng = Rng(seed_).fork(kTwinPortSalt ^ mode_salt);
  const std::uint32_t domain = network_.domain_of(client);
  const SimTime start = network_.now();

  std::uint16_t source_port = ephemeral_source_port(port_rng);
  Bytes static_tail;
  bool h1_seen = false;
  std::uint64_t first_h1_round = 0;
  std::uint64_t rounds_done = 0;
  bool stopped_early = false;

  for (std::uint64_t r = 0; r < kMaxRounds; ++r) {
    // Randomized twins defeat the learning middlebox: a fresh source
    // port and payload tail every round keeps the signature novel, and
    // pacing jitter drawn from an app-like (exponential) mimicry profile
    // breaks the metronome. Static twins reuse everything — the learnable
    // baseline the arms-race tests need.
    if (randomize_twins_ && r > 0)
      source_port = ephemeral_source_port(port_rng);
    Bytes payload;
    if (network_.int_enabled())
      payload = telemetry::IntHeader::reserve(kIntMaxHops).serialize();
    const std::size_t base = payload.size();
    if (randomize_twins_) {
      payload.resize(base + kPayloadTailBytes);
      for (std::size_t i = base; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(payload_rng.next_u64() & 0xFF);
    } else {
      if (static_tail.empty()) {
        static_tail.resize(kPayloadTailBytes);
        for (std::uint8_t& b : static_tail)
          b = static_cast<std::uint8_t>(payload_rng.next_u64() & 0xFF);
      }
      payload.insert(payload.end(), static_tail.begin(), static_tail.end());
    }

    SimTime at = start + kInterval * static_cast<SimDuration>(r + 1);
    if (randomize_twins_) {
      const double mean_ms = duration::to_ms(kInterval) / 6.0;
      const SimDuration jitter = std::min<SimDuration>(
          duration::from_ms(pacing_rng.exponential(mean_ms)), kInterval / 2);
      at += jitter;
    }
    // Rounds run to completion before the next is scheduled, so never
    // schedule into the past.
    at = std::max<SimTime>(at, network_.now() + 1);

    std::vector<std::pair<Bytes, std::uint64_t*>> sends;
    const bool probe_first = (r % 2) == 0;
    for (const auto& t : targets) {
      net::ProbeSpec spec;
      spec.protocol = net::Protocol::kUdp;
      spec.source = client;
      spec.destination = t->addr;
      spec.source_port = source_port;
      spec.sequence = static_cast<std::uint16_t>(r);
      spec.payload = payload;
      spec.destination_port = kProbePort;
      auto probe_wire = net::build_probe(spec);
      spec.destination_port = kDataPort;
      auto data_wire = net::build_probe(spec);
      if (!probe_wire || !data_wire) {
        detach_all();
        return fail("discrimination: " +
                    (probe_wire ? data_wire : probe_wire).error_message());
      }
      if (probe_first) {
        sends.emplace_back(std::move(*probe_wire), &t->probe_like->sent);
        sends.emplace_back(std::move(*data_wire), &t->data_like->sent);
      } else {
        sends.emplace_back(std::move(*data_wire), &t->data_like->sent);
        sends.emplace_back(std::move(*probe_wire), &t->probe_like->sent);
      }
    }
    network_.queue().schedule_on(
        domain, at, [this, client, batch = std::move(sends)]() mutable {
          for (auto& [wire, sent] : batch)
            if (network_.send(client, std::move(wire))) *sent += 1;
        });
    network_.queue().run();
    rounds_done = r + 1;

    // Feed the per-target SPRTs: a delivered pair is a delay observation
    // (did the data twin trail by at least min_effect?), a discordant
    // pair is a loss observation (did the loss hit the data twin?).
    for (const auto& t : targets) {
      const RoundOutcome& o = t->rounds[r];
      if (o.probe && o.data)
        t->delay.observe(o.data_ms - o.probe_ms >= kMinEffectMs);
      else if (o.probe != o.data)
        t->loss.observe(!o.data);
    }

    if (rounds_done < kMinRounds) continue;
    const bool delay_h1 = fin.delay.decision() == Decision::kAcceptH1;
    const bool loss_h1 = fin.loss.decision() == Decision::kAcceptH1;
    if (delay_h1 || loss_h1) {
      if (!h1_seen) {
        h1_seen = true;
        first_h1_round = rounds_done;
      }
      // With INT the residence stacks localize; without it, wait (within
      // the grace budget) for a prefix to confirm so the naming holds.
      bool named = network_.int_enabled() || targets.size() == 1;
      for (std::size_t i = 0; !named && i + 1 < targets.size(); ++i) {
        const Target& t = *targets[i];
        named = (delay_h1 && t.delay.decision() == Decision::kAcceptH1) ||
                (loss_h1 && t.loss.decision() == Decision::kAcceptH1);
      }
      if (named || rounds_done - first_h1_round >= kGraceRounds) {
        stopped_early = true;
        break;
      }
    } else {
      const bool delay_resolved =
          fin.delay.decision() != Decision::kContinue;
      const bool loss_quiet =
          fin.loss.decision() == Decision::kAcceptH0 ||
          fin.loss.observations() == 0;
      if (delay_resolved && loss_quiet) {
        stopped_early = true;
        break;
      }
    }
  }
  detach_all();

  // --- Analysis. ---
  const bool delay_h1 = fin.delay.decision() == Decision::kAcceptH1;
  const bool loss_h1 = fin.loss.decision() == Decision::kAcceptH1;
  const bool h1 = delay_h1 || loss_h1;
  report.rounds_used = rounds_done;
  report.delay_llr = fin.delay.llr();
  report.loss_llr = fin.loss.llr();
  if (delay_h1 && loss_h1)
    report.decision = "h1-both";
  else if (delay_h1)
    report.decision = "h1-delay";
  else if (loss_h1)
    report.decision = "h1-loss";
  else
    report.decision = stopped_early ? "h0" : "exhausted";
  report.delay_delta_ms = mean_or_zero(report.data_like.one_way_ms) -
                          mean_or_zero(report.probe_like.one_way_ms);
  report.loss_delta =
      report.data_like.loss_rate() - report.probe_like.loss_rate();

  LossSignal loss;
  loss.significant = loss_h1;
  loss.loss_as = max_drop_as(report.data_like);
  if (loss.significant) {
    loss.confidence = llr_confidence(fin.loss.llr());
    char buf[64];
    std::snprintf(buf, sizeof(buf), "; loss sprt llr=%.2f", fin.loss.llr());
    loss.detail = buf;
  }

  build_residence_suspects(report, loss);

  // Prefix localization: the target nearest the client whose fired arm
  // carries at least half the decision bound names the AS — everything
  // before it tested clean, so the discrimination enters there.
  if (report.suspects.empty() && h1 && targets.size() > 1) {
    char buf[128];
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const Target& t = *targets[i];
      const bool delay_hit =
          delay_h1 && t.delay.llr() >= t.delay.upper_bound() / 2.0;
      const bool loss_hit =
          loss_h1 && t.loss.llr() >= t.loss.upper_bound() / 2.0;
      if (!delay_hit && !loss_hit) continue;
      DiscriminationEvidence ev;
      ev.asn = t.asn;
      ev.score = std::max(delay_hit ? t.delay.llr() : 0.0,
                          loss_hit ? t.loss.llr() : 0.0);
      ev.confidence = llr_confidence(ev.score);
      const double here = mean_or_zero(t.data_like->one_way_ms) -
                          mean_or_zero(t.probe_like->one_way_ms);
      const double before =
          i == 0 ? 0.0
                 : mean_or_zero(targets[i - 1]->data_like->one_way_ms) -
                       mean_or_zero(targets[i - 1]->probe_like->one_way_ms);
      ev.residence_delta_ms = here - before;
      std::snprintf(buf, sizeof(buf),
                    "prefix sprt %s llr=%.2f over %llu rounds",
                    delay_hit && loss_hit ? "delay+loss"
                    : delay_hit          ? "delay"
                                         : "loss",
                    ev.score,
                    static_cast<unsigned long long>(rounds_done));
      ev.detail = buf;
      report.suspects.push_back(std::move(ev));
      break;  // the first (closest) crossing is the accusation
    }
  }

  if (report.suspects.empty() &&
      (!report.probe_like.one_way_ms.empty() ||
       !report.data_like.one_way_ms.empty())) {
    DiscriminationEvidence ev;
    ev.asn = 0;
    ev.residence_delta_ms = report.delay_delta_ms;
    ev.score = std::max(fin.delay.llr(), fin.loss.llr());
    ev.confidence = h1 ? llr_confidence(ev.score) : 0.0;
    ev.detail = "one-way delay, no INT or prefix evidence";
    report.suspects.push_back(std::move(ev));
  }

  sort_suspects(report);
  report.detected = h1 && report.top_confidence() >= kConfidenceThreshold;
  count_decision(report);
  return report;
}

}  // namespace debuglet::core
