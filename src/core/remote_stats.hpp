// Remote telemetry scraping (telemetry-about-telemetry).
//
// The paper's executors serve *measurement* results; this module lets a
// scenario observe the executors themselves the way a real Debuglet
// customer would: a stats Debuglet (apps::make_stats_debuglet) deployed
// into a purchased slot serves its host's metrics registry over the
// simulated network, and a RemoteScraper — an ordinary simnet::Host in any
// AS — fetches the snapshot chunk by chunk (obs/wire), with windowed
// outstanding requests, per-chunk retries, and timeouts all driven by the
// deterministic event queue.
//
// Scrape protocol (request/response over UDP or TCP):
//   request : 8 bytes — the chunk index, u64 LE
//   response: one obs::wire chunk message
// A chunk-0 request makes the stats Debuglet freeze a fresh snapshot, so
// the scraper always requests chunk 0 first, learns the chunk count from
// its header, then fans out over the remaining chunks.
//
// Scraped rows merge into a local registry under a `remote_host` label
// (obs::wire::merge_rows) so local and remote metrics never collide.
#pragma once

#include <functional>
#include <string>

#include "core/initiator.hpp"
#include "obs/wire.hpp"

namespace debuglet::core {

/// How a RemoteScraper conducts one scrape. Requests go over UDP, at most
/// four chunks outstanding once the count is known; each attempt waits a
/// flat 500 ms for its response.
struct ScrapeConfig {
  net::Ipv4Address target;        // the serving executor's address
  std::uint16_t target_port = 0;  // the stats Debuglet's listen port
  /// Attempts per chunk, the first included.
  std::uint32_t max_attempts = 6;
};

/// Outcome of one scrape.
struct ScrapeReport {
  bool complete = false;
  std::string error;  // set when the scrape gave up
  std::size_t chunks = 0;
  std::size_t requests_sent = 0;
  std::size_t retries = 0;
  /// Responses that failed chunk parsing (in-flight corruption caught by
  /// the per-chunk digest) — each one triggers an immediate re-request of
  /// the oldest outstanding chunk instead of waiting out its timeout.
  std::size_t corrupt_rejected = 0;
  /// Redundant retransmissions of chunks already held (duplicated frames
  /// or crossed retries); the assembler absorbs them.
  std::size_t duplicate_chunks = 0;
  SimTime started = 0;
  SimTime finished = 0;
  std::vector<obs::MetricRow> rows;  // the decoded remote snapshot
};

/// Fetches one registry snapshot from a remote stats Debuglet. The caller
/// attaches the scraper at its address (simnet convention), calls start(),
/// and drives the event queue; progress and failure both land in report().
class RemoteScraper : public simnet::Host {
 public:
  using DoneCallback = std::function<void(const ScrapeReport&)>;

  RemoteScraper(simnet::SimulatedNetwork& network, net::Ipv4Address address,
                ScrapeConfig config);

  /// Begins the scrape at the queue's current time. `on_done` (optional)
  /// fires once, in simulated time, when the scrape completes or gives up.
  void start(DoneCallback on_done = nullptr);

  void on_packet(const simnet::Delivery& delivery) override;

  /// True once the scrape finished (successfully or not).
  bool finished() const { return finished_; }
  const ScrapeReport& report() const { return report_; }
  net::Ipv4Address address() const { return address_; }

 private:
  void request_chunk(std::uint16_t index);
  void rerequest_oldest_pending();
  void fill_window();
  void fail_scrape(const std::string& reason);
  void complete_scrape();

  simnet::SimulatedNetwork& network_;
  net::Ipv4Address address_;
  ScrapeConfig config_;
  obs::wire::SnapshotAssembler assembler_;
  ScrapeReport report_;
  DoneCallback on_done_;
  bool started_ = false;
  bool finished_ = false;
  std::uint16_t source_port_ = 47000;
  std::uint16_t next_to_request_ = 0;  // cursor once the count is known
  std::map<std::uint16_t, std::uint64_t> pending_;  // index -> timeout token
  std::map<std::uint16_t, std::uint32_t> attempts_;
  std::uint64_t next_token_ = 1;
  RetryObs retry_obs_;
};

/// A purchased pair of stats Debuglets. The marketplace only trades slot
/// pairs, so a stats purchase deploys one serving Debuglet at each of two
/// executors; scrape whichever end (or both) the scenario cares about.
struct StatsDeployment {
  MeasurementHandle handle;
  net::Ipv4Address first_address;   // the two serving executors
  net::Ipv4Address second_address;
  std::uint16_t first_port = 0;     // their stats listen ports
  std::uint16_t second_port = 0;
};

/// Everything needed to purchase a stats pair.
struct StatsPairRequest {
  topology::InterfaceKey first_key;
  topology::InterfaceKey second_key;
  /// The scraper's address — the only peer the manifests allow.
  net::Ipv4Address scraper_address;
};

/// Purchases the earliest slot pair and deploys stats Debuglets at both
/// executors (steps 1–3 of §IV-A, with telemetry servers as the cargo),
/// listening on ports 45000 and 45001, each serving up to 256 UDP
/// requests within 60 s.
Result<StatsDeployment> purchase_stats_pair(Initiator& initiator,
                                            DebugletSystem& system,
                                            const StatsPairRequest& request);

/// Convenience: attach a scraper at `scraper_address`, scrape `config`'s
/// target, and drive the event queue until the scrape finishes or
/// `deadline` passes. Fails if the scrape gave up or the deadline hit.
Result<ScrapeReport> scrape_once(DebugletSystem& system,
                                 net::Ipv4Address scraper_address,
                                 const ScrapeConfig& config,
                                 SimTime deadline);

}  // namespace debuglet::core
