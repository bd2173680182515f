#include "core/remote_stats.hpp"

#include "util/log.hpp"

namespace debuglet::core {

RemoteScraper::RemoteScraper(simnet::SimulatedNetwork& network,
                             net::Ipv4Address address, ScrapeConfig config)
    : network_(network),
      address_(address),
      config_(config),
      retry_rng_(config.retry_seed),
      retry_obs_("scrape_chunk") {}

void RemoteScraper::start(DoneCallback on_done) {
  if (started_) return;
  started_ = true;
  on_done_ = std::move(on_done);
  report_.started = network_.now();
  assembler_.reset();
  // Chunk 0 first: its header carries the chunk count, and requesting it
  // makes the stats Debuglet freeze a fresh snapshot for this session.
  request_chunk(0);
}

void RemoteScraper::request_chunk(std::uint16_t index) {
  BytesWriter w;
  w.u64(index);
  net::ProbeSpec spec;
  spec.protocol = config_.protocol;
  spec.source = address_;
  spec.destination = config_.target;
  spec.source_port = source_port_;
  spec.destination_port = config_.target_port;
  spec.sequence = index;
  spec.payload = w.take();
  auto wire = net::build_probe(spec);
  if (!wire) {
    fail_scrape("request build: " + wire.error_message());
    return;
  }
  ++report_.requests_sent;
  const std::uint32_t attempt = ++attempts_[index];
  retry_obs_.attempt();
  const std::uint64_t token = next_token_++;
  pending_[index] = token;
  if (auto s = network_.send(address_, std::move(*wire)); !s) {
    fail_scrape("request send: " + s.error_message());
    return;
  }
  // The policy's backoff before attempt k doubles as attempt k-1's
  // response timeout; give up once max_attempts is exhausted. The timer
  // is homed on the scraper host's domain, where deliveries (on_packet)
  // run too.
  const SimDuration timeout =
      config_.retry.delay_before(attempt + 1, retry_rng_);
  network_.queue().schedule_on(
      network_.domain_of(address_), network_.now() + timeout,
      [this, index, token, timeout] {
    if (finished_) return;
    auto it = pending_.find(index);
    if (it == pending_.end() || it->second != token) return;
    pending_.erase(it);
    if (attempts_[index] >= config_.retry.max_attempts) {
      retry_obs_.gave_up();
      fail_scrape("chunk " + std::to_string(index) + " timed out after " +
                  std::to_string(attempts_[index]) + " attempts");
      return;
    }
    ++report_.retries;
    retry_obs_.retry(timeout);
    request_chunk(index);
  });
}

void RemoteScraper::rerequest_oldest_pending() {
  if (pending_.empty()) return;
  const std::uint16_t index = pending_.begin()->first;
  // The shared RetryPolicy still governs the budget: once this index has
  // burned its attempts, leave the timeout timer to declare failure.
  if (attempts_[index] >= config_.retry.max_attempts) return;
  pending_.erase(index);  // invalidates the old timer's token match
  ++report_.retries;
  retry_obs_.retry(0);
  obs::registry().counter("core.scrape_chunks_rereq").add();
  request_chunk(index);
}

void RemoteScraper::fill_window() {
  // The cursor visits each index exactly once (the timeout timer owns
  // re-requests), so everything between it and the window is missing.
  const std::size_t expected = assembler_.expected_chunks();
  while (pending_.size() < config_.window && next_to_request_ < expected) {
    request_chunk(next_to_request_++);
    if (finished_) return;  // a send failure ended the scrape
  }
}

void RemoteScraper::on_packet(const simnet::Delivery& delivery) {
  if (finished_ || !started_) return;
  const net::Packet& packet = delivery.packet;
  if (packet.protocol != config_.protocol) return;
  if (!(packet.ip.source == config_.target)) return;
  std::uint16_t destination_port = 0;
  if (packet.udp) destination_port = packet.udp->destination_port;
  if (packet.tcp) destination_port = packet.tcp->destination_port;
  if (packet.icmp) destination_port = packet.icmp->identifier;
  if (destination_port != source_port_) return;

  const BytesView payload(packet.payload.data(), packet.payload.size());
  auto chunk = obs::wire::parse_chunk(payload);
  if (!chunk) {
    // The per-chunk digest caught in-flight damage. The response carries
    // no usable index, so re-request the oldest outstanding chunk — the
    // one most likely to have produced this response — instead of waiting
    // out its full timeout.
    ++report_.corrupt_rejected;
    obs::registry().counter("core.scrape_chunks_corrupt").add();
    DEBUGLET_LOG(kDebug, "scrape")
        << "discarding corrupt response: " << chunk.error_message();
    rerequest_oldest_pending();
    return;
  }
  if (assembler_.has_chunk(chunk->index)) {
    // Redundant retransmission (a duplicated frame, or a retry crossing
    // its answer): note it and let the assembler verify it matches.
    ++report_.duplicate_chunks;
    obs::registry().counter("core.scrape_chunks_duplicate").add();
  }
  if (auto s = assembler_.add_chunk(payload); !s) {
    // A rejected chunk 0 usually means the server re-froze the snapshot
    // (a retried chunk-0 request): restart collection on the new snapshot
    // rather than mixing two. Any other mismatch just gets dropped — the
    // retry timer re-requests what's still missing.
    if (chunk->index != 0) {
      DEBUGLET_LOG(kDebug, "scrape")
          << "chunk rejected: " << s.error_message();
      return;
    }
    assembler_.reset();
    next_to_request_ = 0;
    pending_.clear();
    if (!assembler_.add_chunk(payload)) return;
  }
  pending_.erase(chunk->index);
  if (next_to_request_ == 0) next_to_request_ = 1;  // past chunk 0
  if (assembler_.complete()) {
    complete_scrape();
    return;
  }
  fill_window();
}

void RemoteScraper::complete_scrape() {
  auto rows = assembler_.finish();
  if (!rows) {
    fail_scrape("reassembly: " + rows.error_message());
    return;
  }
  finished_ = true;
  report_.complete = true;
  report_.chunks = assembler_.expected_chunks();
  report_.finished = network_.now();
  report_.rows = std::move(*rows);
  obs::registry().counter("core.scrapes_completed").add();
  if (on_done_) on_done_(report_);
}

void RemoteScraper::fail_scrape(const std::string& reason) {
  if (finished_) return;
  finished_ = true;
  report_.complete = false;
  report_.error = reason;
  report_.finished = network_.now();
  obs::registry().counter("core.scrapes_failed").add();
  if (on_done_) on_done_(report_);
}

Status RemoteScraper::merge_into(obs::MetricsRegistry& target,
                                 std::string label) const {
  if (!report_.complete)
    return fail("scrape incomplete" +
                (report_.error.empty() ? std::string()
                                       : ": " + report_.error));
  if (label.empty()) label = config_.target.to_string();
  return obs::wire::merge_rows(target, report_.rows, label);
}

Result<StatsDeployment> purchase_stats_pair(Initiator& initiator,
                                            DebugletSystem& system,
                                            const StatsPairRequest& request) {
  const auto& topo = system.network().topology();

  MeasurementRequest purchase;
  purchase.client_key = request.first_key;
  purchase.server_key = request.second_key;
  purchase.earliest_start = request.earliest_start;

  const Bytes bytecode = apps::make_stats_debuglet().serialize();
  const Bytes manifest =
      apps::stats_manifest(request.params.protocol, request.scraper_address,
                           request.request_budget, request.serve_budget)
          .serialize();
  purchase.client_app.bytecode = bytecode;
  purchase.client_app.manifest = manifest;
  purchase.client_app.parameters = request.params.to_parameters();
  purchase.client_app.listen_port = request.first_port;
  purchase.server_app.bytecode = bytecode;
  purchase.server_app.manifest = manifest;
  purchase.server_app.parameters = request.params.to_parameters();
  purchase.server_app.listen_port = request.second_port;

  auto handle = initiator.purchase(purchase);
  if (!handle) return handle.error();

  StatsDeployment out;
  out.handle = *handle;
  out.first_address = topo.address_of(request.first_key);
  out.second_address = topo.address_of(request.second_key);
  out.first_port = request.first_port;
  out.second_port = request.second_port;
  return out;
}

Result<ScrapeReport> scrape_once(DebugletSystem& system,
                                 net::Ipv4Address scraper_address,
                                 const ScrapeConfig& config,
                                 SimTime deadline) {
  RemoteScraper scraper(system.network(), scraper_address, config);
  if (auto s = system.network().attach_host(scraper_address, &scraper); !s)
    return s.error();
  scraper.start();
  simnet::EventQueue& queue = system.queue();
  while (!scraper.finished() && queue.now() < deadline && !queue.empty())
    queue.run_until(std::min(deadline, queue.now() + duration::seconds(1)));
  system.network().detach_host(scraper_address);
  if (!scraper.finished())
    return fail("scrape did not finish before the deadline");
  if (!scraper.report().complete)
    return fail("scrape failed: " + scraper.report().error);
  return scraper.report();
}

}  // namespace debuglet::core
