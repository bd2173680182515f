#include "marketplace/reputation.hpp"

#include <algorithm>

namespace debuglet::marketplace {

namespace {

std::string as_key(topology::AsNumber asn) {
  return "as/" + std::to_string(asn);
}

// Per-(AS, reporter) dedup marker. The reporter is rendered as the hex of
// its address digest, so the key is stable across runs and worker counts.
std::string reporter_key(topology::AsNumber asn,
                         const chain::Address& reporter) {
  return "rep/" + std::to_string(asn) + "/" + reporter.digest.hex();
}

}  // namespace

Bytes ReputationRecord::serialize() const {
  BytesWriter w;
  w.u32(strikes);
  w.u32(reports);
  w.u32(max_confidence_permille);
  w.i64(last_reported_at);
  return w.take();
}

Result<ReputationRecord> ReputationRecord::parse(BytesView data) {
  BytesReader r(data);
  ReputationRecord out;
  auto strikes = r.u32();
  if (!strikes) return strikes.error();
  out.strikes = *strikes;
  auto reports = r.u32();
  if (!reports) return reports.error();
  out.reports = *reports;
  auto confidence = r.u32();
  if (!confidence) return confidence.error();
  out.max_confidence_permille = *confidence;
  auto at = r.i64();
  if (!at) return at.error();
  out.last_reported_at = *at;
  return out;
}

Bytes ReportArgs::serialize() const {
  BytesWriter w;
  w.u32(asn);
  w.u32(confidence_permille);
  w.u32(rounds_used);
  w.str(detail);
  return w.take();
}

Result<ReportArgs> ReportArgs::parse(BytesView data) {
  BytesReader r(data);
  ReportArgs out;
  auto asn = r.u32();
  if (!asn) return asn.error();
  out.asn = *asn;
  auto confidence = r.u32();
  if (!confidence) return confidence.error();
  out.confidence_permille = *confidence;
  auto rounds = r.u32();
  if (!rounds) return rounds.error();
  out.rounds_used = *rounds;
  auto detail = r.str();
  if (!detail) return detail.error();
  out.detail = std::move(*detail);
  return out;
}

chain::AccessSet access_report(topology::AsNumber asn,
                               const chain::Address& reporter) {
  chain::AccessSet access;
  access.add_write(
      chain::named_access_key(kReputationContractName, as_key(asn)));
  access.add_write(chain::named_access_key(kReputationContractName,
                                           reporter_key(asn, reporter)));
  return access;
}

std::string reputation_as_key(topology::AsNumber asn) { return as_key(asn); }

std::uint32_t reputation_penalty_percent(std::uint32_t strikes) {
  return std::min<std::uint32_t>(strikes * 10, 50);
}

chain::Mist apply_reputation_penalty(chain::Mist price,
                                     std::uint32_t strikes) {
  const std::uint32_t penalty = reputation_penalty_percent(strikes);
  return price - price * penalty / 100;
}

ReputationContract::ReputationContract() {
  obs::MetricsRegistry& reg = obs::registry();
  obs_.strikes_recorded = &reg.counter("reputation.strikes_recorded");
  obs_.reports_deduped = &reg.counter("reputation.reports_deduped");
}

Result<Bytes> ReputationContract::call(chain::CallContext& context,
                                       const std::string& function,
                                       BytesView arguments) {
  if (function == "Report") return report(context, arguments);
  return fail("unknown function '" + function + "'");
}

Result<Bytes> ReputationContract::report(chain::CallContext& ctx,
                                         BytesView args) {
  auto parsed = ReportArgs::parse(args);
  if (!parsed) return parsed.error();
  if (parsed->asn == 0) return fail("cannot report AS 0");
  const std::uint32_t confidence =
      std::min<std::uint32_t>(parsed->confidence_permille, 1000);

  ReputationRecord record;
  if (auto existing = ctx.read_named(as_key(parsed->asn)); existing) {
    auto decoded =
        ReputationRecord::parse(BytesView(existing->data(), existing->size()));
    if (!decoded) return decoded.error();
    record = *decoded;
  }
  record.reports += 1;
  record.max_confidence_permille =
      std::max(record.max_confidence_permille, confidence);
  record.last_reported_at = ctx.timestamp();

  const std::string dedup = reporter_key(parsed->asn, ctx.sender());
  const bool duplicate = static_cast<bool>(ctx.read_named(dedup));
  if (!duplicate) {
    record.strikes += 1;
    if (auto s = ctx.write_named(dedup, Bytes{1}); !s) return s.error();
  }
  if (auto s = ctx.write_named(as_key(parsed->asn), record.serialize()); !s)
    return s.error();

  if (duplicate) {
    obs_.reports_deduped->add();
  } else {
    obs_.strikes_recorded->add();
    ctx.emit_event(kEventReputationStrike, std::to_string(parsed->asn),
                   record.serialize());
  }
  return record.serialize();
}

}  // namespace debuglet::marketplace
