#include "core/initiator.hpp"

#include <algorithm>
#include <map>

#include "crypto/box.hpp"
#include "util/stats.hpp"

namespace debuglet::core {

const char* collect_error_name(CollectErrorKind kind) {
  switch (kind) {
    case CollectErrorKind::kNone: return "ok";
    case CollectErrorKind::kNotPublished: return "not-published";
    case CollectErrorKind::kVerificationFailed: return "verification-failed";
    case CollectErrorKind::kOther: return "other";
  }
  return "unknown";
}

namespace {

const char* incident_kind_name(MeasurementIncident::Kind kind) {
  using Kind = MeasurementIncident::Kind;
  switch (kind) {
    case Kind::kPurchaseFailed: return "purchase-failed";
    case Kind::kResultMissing: return "result-missing";
    case Kind::kVerificationRejected: return "verification-rejected";
    case Kind::kReclaimed: return "reclaimed";
    case Kind::kFailover: return "failover";
    case Kind::kBackoff: return "backoff";
    case Kind::kAllProbesLost: return "all-probes-lost";
  }
  return "unknown";
}

// collect()'s error shape: the outcome, or the first failing side's
// message, client first (matches purchase order).
Result<MeasurementOutcome> first_failure(CollectProbe probe) {
  if (probe.ok()) return std::move(*probe.outcome);
  const CollectSide& side =
      probe.client.error != CollectErrorKind::kNone ? probe.client
                                                    : probe.server;
  return fail(side.message);
}

}  // namespace

std::string MeasurementIncident::to_string() const {
  std::string out = "attempt " + std::to_string(attempt) + " " +
                    incident_kind_name(kind) + " " + client_key.to_string() +
                    ".." + server_key.to_string();
  if (!detail.empty()) out += ": " + detail;
  return out;
}

std::string ResilientMeasurement::trace() const {
  std::string out;
  for (const MeasurementIncident& incident : incidents) {
    out += incident.to_string();
    out += '\n';
  }
  return out;
}

SampleFilterResult filter_probe_samples(
    std::vector<apps::MeasurementSample> samples) {
  SampleFilterResult out;

  // Dedup by sequence, keeping the smallest RTT per sequence: the first
  // arrival of a duplicated echo carries the true clock delta; each later
  // copy adds its duplication delay on top.
  std::map<std::uint64_t, std::int64_t> best;
  for (const apps::MeasurementSample& s : samples) {
    auto [it, inserted] = best.try_emplace(s.sequence, s.delay_ns);
    if (!inserted) {
      ++out.duplicates_dropped;
      it->second = std::min(it->second, s.delay_ns);
    }
  }

  // Corrupted timestamps produce RTTs no network could: negative, or far
  // beyond the batch median. A genuine fault delays every probe, moving
  // the median with them — so real faults pass while damage is dropped.
  std::vector<double> rtts;
  rtts.reserve(best.size());
  for (const auto& [seq, delay_ns] : best)
    if (delay_ns > 0) rtts.push_back(static_cast<double>(delay_ns));
  std::sort(rtts.begin(), rtts.end());
  const double median =
      rtts.empty() ? 0.0
                   : (rtts.size() % 2 == 1
                          ? rtts[rtts.size() / 2]
                          : 0.5 * (rtts[rtts.size() / 2 - 1] +
                                   rtts[rtts.size() / 2]));
  const double cutoff = median * kRttOutlierFactor;
  for (const auto& [seq, delay_ns] : best) {
    const bool damaged =
        delay_ns <= 0 ||
        (rtts.size() >= 3 && static_cast<double>(delay_ns) > cutoff);
    if (damaged) {
      ++out.outliers_dropped;
      continue;
    }
    out.kept.push_back(apps::MeasurementSample{seq, delay_ns});
  }
  return out;
}

Result<RttSummary> summarize_rtt(const executor::CertifiedResult& client,
                                 std::size_t probes_sent) {
  auto samples = apps::decode_samples(
      BytesView(client.record.output.data(), client.record.output.size()));
  if (!samples) return samples.error();
  SampleFilterResult filtered = filter_probe_samples(std::move(*samples));
  if (filtered.duplicates_dropped > 0)
    obs::registry()
        .counter("core.probe_duplicates_dropped")
        .add(filtered.duplicates_dropped);
  if (filtered.outliers_dropped > 0)
    obs::registry()
        .counter("core.probe_outliers_dropped")
        .add(filtered.outliers_dropped);
  RttSummary out;
  out.probes_sent = probes_sent;
  out.probes_answered = filtered.kept.size();
  out.duplicates_dropped = filtered.duplicates_dropped;
  out.outliers_dropped = filtered.outliers_dropped;
  RunningStats stats;
  for (const apps::MeasurementSample& s : filtered.kept)
    stats.add(static_cast<double>(s.delay_ns) / 1e6);
  out.mean_ms = stats.mean();
  out.std_ms = stats.stddev();
  out.min_ms = stats.min();
  out.max_ms = stats.max();
  return out;
}

Initiator::Initiator(DebugletSystem& system, std::uint64_t seed,
                     chain::Mist funding)
    : system_(system),
      key_(crypto::KeyPair::from_seed(seed)),
      chaos_rng_(Rng(seed).fork(0xC4A05)) {
  system_.chain().mint(address(), funding);
  obs::MetricsRegistry& reg = obs::registry();
  obs_.purchased = &reg.counter("core.measurements_purchased");
  obs_.collected = &reg.counter("core.results_collected");
  obs_.spent = &reg.counter("core.tokens_spent_mist");
  obs_.verification_rejected = &reg.counter("core.results_rejected");
  obs_.executor_down = &reg.counter("core.executor_down_detected");
  obs_.failovers = &reg.counter("core.measurement_failovers");
  obs_.measurements_abandoned = &reg.counter("core.measurements_abandoned");
}

Result<Bytes> Initiator::open_result(
    const executor::CertifiedResult& result) const {
  return crypto::open_box(key_, BytesView(result.record.output.data(),
                                          result.record.output.size()));
}

Status Initiator::reclaim_one(chain::ObjectId application,
                              chain::Mist& rebate) {
  chain::Blockchain& chain = system_.chain();
  const chain::Mist before = chain.balance(address());
  marketplace::ReclaimApplicationArgs args;
  args.application = application;
  auto receipt = chain.submit(chain.make_transaction(
      key_, marketplace::kContractName, "ReclaimApplication",
      args.serialize(), 0, 1'000'000'000,
      marketplace::access_reclaim_application(application)));
  if (!receipt) return receipt.error();
  if (!receipt->success) return fail("ReclaimApplication: " + receipt->error);
  total_spent_ += receipt->gas_charged;
  obs_.spent->add(receipt->gas_charged);
  // Balance delta = rebate - gas.
  rebate += chain.balance(address()) + receipt->gas_charged - before;
  return ok_status();
}

Result<chain::Mist> Initiator::reclaim(const MeasurementHandle& handle) {
  chain::Mist total_rebate = 0;
  for (chain::ObjectId application :
       {handle.client_application, handle.server_application}) {
    if (auto s = reclaim_one(application, total_rebate); !s) return s.error();
  }
  return total_rebate;
}

chain::Mist Initiator::reclaim_available(const MeasurementHandle& handle) {
  chain::Mist total_rebate = 0;
  for (chain::ObjectId application :
       {handle.client_application, handle.server_application}) {
    // The contract refuses to reclaim before a result reported; reclaim
    // what it allows and leave the rest locked until the executor (maybe)
    // comes back.
    (void)reclaim_one(application, total_rebate);
  }
  return total_rebate;
}

Result<MeasurementHandle> Initiator::purchase(
    const MeasurementRequest& request) {
  chain::Blockchain& chain = system_.chain();

  // Step 1: LookupSlot.
  marketplace::LookupSlotArgs lookup;
  lookup.client_key = request.client_key;
  lookup.server_key = request.server_key;
  lookup.cores = request.cores;
  lookup.memory_bytes = request.memory_bytes;
  lookup.bandwidth_bps = request.bandwidth_bps;
  lookup.earliest_start =
      std::max(request.earliest_start,
               system_.queue().now() + chain::kFinalityLatency);
  auto lookup_receipt = chain.submit(chain.make_transaction(
      key_, marketplace::kContractName, "LookupSlot", lookup.serialize(), 0,
      1'000'000'000,
      marketplace::access_lookup_slot(request.client_key,
                                      request.server_key)));
  if (!lookup_receipt) return lookup_receipt.error();
  if (!lookup_receipt->success)
    return fail("LookupSlot: " + lookup_receipt->error);
  total_spent_ += lookup_receipt->gas_charged;
  obs_.spent->add(lookup_receipt->gas_charged);
  auto quote = marketplace::SlotQuote::parse(
      BytesView(lookup_receipt->return_value.data(),
                lookup_receipt->return_value.size()));
  if (!quote) return quote.error();
  if (!quote->found)
    return fail("no common execution slot for " +
                request.client_key.to_string() + " / " +
                request.server_key.to_string());

  // Step 2: PurchaseSlot with the bytecode and embedded tokens.
  marketplace::PurchaseSlotArgs purchase;
  purchase.client_key = request.client_key;
  purchase.server_key = request.server_key;
  purchase.client_slot = quote->client_slot;
  purchase.server_slot = quote->server_slot;
  purchase.client_app = request.client_app;
  purchase.server_app = request.server_app;
  if (request.seal_results) {
    const Bytes pk = key_.public_key().to_bytes();
    purchase.client_app.seal_output_for = pk;
    purchase.server_app.seal_output_for = pk;
  }
  auto purchase_receipt = chain.submit(chain.make_transaction(
      key_, marketplace::kContractName, "PurchaseSlot", purchase.serialize(),
      quote->total_price, 1'000'000'000,
      marketplace::access_purchase_slot(request.client_key,
                                        request.server_key)));
  if (!purchase_receipt) return purchase_receipt.error();
  if (!purchase_receipt->success)
    return fail("PurchaseSlot: " + purchase_receipt->error);
  total_spent_ += purchase_receipt->gas_charged + quote->total_price;
  obs_.spent->add(purchase_receipt->gas_charged + quote->total_price);
  obs_.purchased->add();
  auto receipt = marketplace::PurchaseReceipt::parse(
      BytesView(purchase_receipt->return_value.data(),
                purchase_receipt->return_value.size()));
  if (!receipt) return receipt.error();

  MeasurementHandle handle;
  handle.client_application = receipt->client_application;
  handle.server_application = receipt->server_application;
  handle.client_key = request.client_key;
  handle.server_key = request.server_key;
  handle.window_start = receipt->window_start;
  handle.window_end = receipt->window_end;
  handle.run_deadline = receipt->window_start;
  for (const marketplace::ApplicationPayload* app :
       {&request.client_app, &request.server_app}) {
    // An unparsable manifest never runs (the executor rejects it).
    auto manifest = executor::Manifest::parse(
        BytesView(app->manifest.data(), app->manifest.size()));
    if (manifest)
      handle.run_deadline = std::max(
          handle.run_deadline, receipt->window_start + manifest->max_duration);
  }
  handle.price_paid = quote->total_price;
  return handle;
}

Initiator::FetchOutcome Initiator::fetch_result(chain::ObjectId application,
                                                topology::InterfaceKey key) {
  FetchOutcome out;
  auto failed = [&out](CollectErrorKind kind,
                       std::string message) -> FetchOutcome& {
    out.error = kind;
    // Prefix with the kind name so even the flattened collect() string is
    // unambiguous — but code should branch on the enum, not this text.
    out.message =
        std::string(collect_error_name(kind)) + ": " + std::move(message);
    return out;
  };

  marketplace::LookupResultArgs args;
  args.application = application;
  auto view = system_.chain().view(marketplace::kContractName, "LookupResult",
                                   args.serialize());
  if (!view)
    return failed(CollectErrorKind::kOther, view.error_message());
  auto entry =
      marketplace::ResultEntry::parse(BytesView(view->data(), view->size()));
  if (!entry)
    return failed(CollectErrorKind::kOther, entry.error_message());
  if (!entry->found)
    return failed(CollectErrorKind::kNotPublished,
                  "result for application " + std::to_string(application) +
                      " not yet published");
  // Everything past this point is a published-but-unacceptable result:
  // waiting longer cannot fix it, only a retry against a different
  // executor can — hence kVerificationFailed, not kOther.
  auto certified = executor::CertifiedResult::parse(
      BytesView(entry->result.data(), entry->result.size()));
  if (!certified)
    return failed(CollectErrorKind::kVerificationFailed,
                  "undecodable certified result: " +
                      certified.error_message());

  // Verify: the signature must check out AND belong to the AS that hosts
  // the executor the application was assigned to.
  auto expected = system_.as_public_key(key.asn);
  if (!expected)
    return failed(CollectErrorKind::kOther, expected.error_message());
  if (!executor::verify_certified(*certified, &*expected))
    return failed(CollectErrorKind::kVerificationFailed,
                  "result for application " + std::to_string(application) +
                      " failed certification check");
  if (!(certified->record.executor_key == key))
    return failed(CollectErrorKind::kVerificationFailed,
                  "result reports wrong executor key");
  out.result = std::move(*certified);
  return out;
}

CollectProbe Initiator::try_collect(const MeasurementHandle& handle) {
  CollectProbe probe;
  FetchOutcome client = fetch_result(handle.client_application,
                                     handle.client_key);
  FetchOutcome server = fetch_result(handle.server_application,
                                     handle.server_key);
  probe.client = CollectSide{client.error, client.message};
  probe.server = CollectSide{server.error, server.message};
  if (probe.any(CollectErrorKind::kVerificationFailed))
    obs_.verification_rejected->add();
  if (client.result && server.result) {
    probe.outcome = MeasurementOutcome{std::move(*client.result),
                                       std::move(*server.result)};
    obs_.collected->add();
  }
  return probe;
}

Result<MeasurementOutcome> Initiator::collect(
    const MeasurementHandle& handle) {
  return first_failure(try_collect(handle));
}

CollectProbe Initiator::await_probe(const MeasurementHandle& handle) {
  simnet::EventQueue& queue = system_.queue();
  // Collect a grace past the window, then step a grace at a time: at least
  // once, and on until the executors must have stopped a run that
  // outlasts its window.
  const SimTime give_up = std::max(handle.window_end + 2 * kResultGrace,
                                   handle.run_deadline + kResultGrace);
  queue.run_until(handle.window_end + kResultGrace);
  CollectProbe probe = try_collect(handle);
  while (!probe.ok() && probe.any(CollectErrorKind::kNotPublished) &&
         queue.now() < give_up) {
    queue.run_until(std::min(queue.now() + kResultGrace, give_up));
    probe = try_collect(handle);
  }
  return probe;
}

Result<MeasurementOutcome> Initiator::await_result(
    const MeasurementHandle& handle) {
  return first_failure(await_probe(handle));
}

Result<MeasurementHandle> Initiator::purchase_rtt_measurement(
    topology::InterfaceKey client_key, topology::InterfaceKey server_key,
    net::Protocol protocol, std::int64_t probe_count, std::int64_t interval_ms,
    SimTime earliest_start, bool seal_results) {
  const auto& topo = system_.network().topology();
  const net::Ipv4Address client_addr = topo.address_of(client_key);
  const net::Ipv4Address server_addr = topo.address_of(server_key);

  // The probe loop awaits each reply (or its timeout) before pacing the
  // next probe, so the receive timeout may exceed the interval without
  // risking sequence confusion; it just needs to cover any plausible RTT.
  const std::int64_t recv_timeout_ms = interval_ms + 1000;
  // The echo server must come up before the client starts probing and stay
  // alive for the whole run; budget for every probe timing out.
  const SimDuration run_budget =
      duration::milliseconds(interval_ms + recv_timeout_ms) *
          (probe_count + 2) +
      duration::seconds(5);

  apps::ProbeClientParams client_params;
  client_params.protocol = protocol;
  client_params.server = server_addr;
  client_params.probe_count = probe_count;
  client_params.interval_ms = interval_ms;
  client_params.recv_timeout_ms = recv_timeout_ms;

  apps::EchoServerParams server_params;
  server_params.protocol = protocol;
  server_params.max_echoes = 0;
  server_params.idle_timeout_ms = interval_ms * 3 + 2000;

  MeasurementRequest request;
  request.client_key = client_key;
  request.server_key = server_key;
  request.earliest_start = earliest_start;
  request.seal_results = seal_results;
  request.client_app.bytecode = apps::make_probe_client_debuglet().serialize();
  request.client_app.manifest =
      apps::client_manifest(protocol, server_addr, probe_count, run_budget)
          .serialize();
  request.server_app.bytecode = apps::make_echo_server_debuglet().serialize();
  request.server_app.manifest =
      apps::server_manifest(protocol, client_addr, probe_count, run_budget)
          .serialize();

  // Rendezvous: the initiator picks the server's listen port up front and
  // aims the client at it; the executor binds the server deployment to it.
  const std::uint16_t rendezvous = next_rendezvous_port_++;
  if (next_rendezvous_port_ >= 49000) next_rendezvous_port_ = 40000;
  client_params.server_port = rendezvous;
  request.server_app.listen_port = rendezvous;
  request.client_app.parameters = client_params.to_parameters();
  request.server_app.parameters = server_params.to_parameters();
  return purchase(request);
}

Result<ResilientMeasurement> Initiator::measure_rtt_resilient(
    const ResilientRttRequest& request) {
  using Kind = MeasurementIncident::Kind;
  if (request.retry.max_attempts == 0)
    return fail("measure_rtt_resilient: max_attempts must be >= 1");
  simnet::EventQueue& queue = system_.queue();
  const auto& topo = system_.network().topology();

  // The candidate rings, tried in order and wrapping when a side's
  // executor fails: the primary first, then the other border interfaces
  // of the same AS. The endpoints of a measurement never traverse their
  // own AS interior, so an alternate interface of the same AS measures
  // the same segment.
  auto candidates_for = [&](topology::InterfaceKey primary) {
    std::vector<topology::InterfaceKey> out{primary};
    for (topology::InterfaceId intf : topo.interfaces_of(primary.asn))
      if (intf != primary.interface)
        out.push_back(topology::InterfaceKey{primary.asn, intf});
    return out;
  };
  const std::vector<topology::InterfaceKey> client_candidates =
      candidates_for(request.client_key);
  const std::vector<topology::InterfaceKey> server_candidates =
      candidates_for(request.server_key);

  ResilientMeasurement rm;
  std::size_t ci = 0;
  std::size_t si = 0;
  auto note = [&](Kind kind, std::uint32_t attempt, std::string detail) {
    MeasurementIncident incident;
    incident.kind = kind;
    incident.attempt = attempt;
    incident.client_key = client_candidates[ci];
    incident.server_key = server_candidates[si];
    incident.detail = std::move(detail);
    rm.incidents.push_back(std::move(incident));
  };
  auto fail_over = [&](bool client_side, bool server_side,
                       std::uint32_t attempt) {
    bool moved = false;
    if (client_side && client_candidates.size() > 1) {
      ci = (ci + 1) % client_candidates.size();
      moved = true;
    }
    if (server_side && server_candidates.size() > 1) {
      si = (si + 1) % server_candidates.size();
      moved = true;
    }
    if (moved) {
      ++rm.failovers;
      obs_.failovers->add();
      note(Kind::kFailover, attempt,
           "next pair " + client_candidates[ci].to_string() + ".." +
               server_candidates[si].to_string());
    }
  };
  RetryObs retry_obs("resilient_rtt");

  for (std::uint32_t attempt = 1; attempt <= request.retry.max_attempts;
       ++attempt) {
    retry_obs.attempt();
    rm.attempts = attempt;
    if (attempt > 1) {
      const SimDuration backoff =
          request.retry.delay_before(attempt, chaos_rng_);
      note(Kind::kBackoff, attempt, format_duration(backoff));
      retry_obs.retry(backoff);
      queue.run_until(queue.now() + backoff);
    }

    auto handle = purchase_rtt_measurement(
        client_candidates[ci], server_candidates[si], request.protocol,
        request.probe_count, request.interval_ms,
        std::max(request.earliest_start, queue.now()),
        /*seal_results=*/false);
    if (!handle) {
      note(Kind::kPurchaseFailed, attempt, handle.error_message());
      // A pair that cannot even trade a slot: rotate both sides.
      fail_over(true, true, attempt);
      continue;
    }

    CollectProbe probe = await_probe(*handle);
    if (probe.ok()) {
      rm.outcome = std::move(*probe.outcome);
      rm.handle = *handle;
      rm.client_key = client_candidates[ci];
      rm.server_key = server_candidates[si];
      return rm;
    }

    for (const CollectSide* side : {&probe.client, &probe.server}) {
      if (side->error == CollectErrorKind::kNone) continue;
      if (side->error == CollectErrorKind::kVerificationFailed) {
        ++rm.byzantine_rejections;
        note(Kind::kVerificationRejected, attempt, side->message);
      } else {
        // kNotPublished when the wait gave up (or an infrastructure
        // error): treat the executor as down.
        obs_.executor_down->add();
        note(Kind::kResultMissing, attempt, side->message);
      }
    }
    const chain::Mist rebate = reclaim_available(*handle);
    if (rebate > 0) {
      rm.reclaimed += rebate;
      note(Kind::kReclaimed, attempt, std::to_string(rebate) + " mist");
    }
    fail_over(probe.client.error != CollectErrorKind::kNone,
              probe.server.error != CollectErrorKind::kNone, attempt);
  }

  obs_.measurements_abandoned->add();
  retry_obs.gave_up();
  return fail("resilient measurement abandoned after " +
              std::to_string(request.retry.max_attempts) + " attempts");
}

Result<marketplace::ReputationRecord> Initiator::report_discrimination(
    topology::AsNumber asn, double confidence, std::uint64_t rounds_used,
    const std::string& detail) {
  marketplace::ReportArgs args;
  args.asn = asn;
  const double permille = confidence * 1000.0;
  args.confidence_permille =
      permille <= 0.0 ? 0
                      : static_cast<std::uint32_t>(
                            permille >= 1000.0 ? 1000.0 : permille);
  args.rounds_used = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(rounds_used, 0xFFFFFFFFULL));
  args.detail = detail;
  chain::Blockchain& chain = system_.chain();
  auto receipt = chain.submit(chain.make_transaction(
      key_, marketplace::kReputationContractName, "Report", args.serialize(),
      0, 1'000'000'000, marketplace::access_report(asn, address())));
  if (!receipt) return receipt.error();
  if (!receipt->success) return fail(receipt->error);
  return marketplace::ReputationRecord::parse(
      BytesView(receipt->return_value.data(), receipt->return_value.size()));
}

}  // namespace debuglet::core
