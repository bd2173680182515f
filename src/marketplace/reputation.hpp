// Reputation-backed accountability for discrimination evidence.
//
// Twin-probe detection (core/discrimination.hpp) produces a verdict the
// initiator alone can see. This contract makes the verdict consequential:
// initiators submit DiscriminationEvidence-derived reports on chain, each
// distinct reporter adds one STRIKE against the implicated AS, and the
// marketplace reads the strike count when quoting/purchasing slots — an
// implicated executor's slots are price-penalized (the buyer pays, and
// the executor collects, a discounted price), so repeated discrimination
// bleeds revenue instead of passing silently.
//
// State, all chain-managed (the contract is stateless and re-entrant):
//   strike records : named entry "as/<asn>"             -> ReputationRecord
//   reporter dedup : named entry "rep/<asn>/<reporter>" -> marker
//
// The per-reporter dedup key makes Report idempotent per (AS, reporter):
// re-running the same detection and re-reporting it does not inflate the
// strike count, while independent initiators each add weight. Reports
// against DIFFERENT ASes touch disjoint keys and parallelize under
// Blockchain::submit_batch; reports against the same AS conflict on
// "as/<asn>" and serialize — exactly the ordering the strike counter
// needs to stay deterministic across worker counts.
#pragma once

#include "chain/chain.hpp"
#include "obs/metrics.hpp"
#include "topology/topology.hpp"

namespace debuglet::marketplace {

inline constexpr const char* kReputationContractName = "reputation";

/// Strike state of one AS (the value under "as/<asn>").
struct ReputationRecord {
  /// Distinct reporters that filed confirmed discrimination evidence.
  std::uint32_t strikes = 0;
  /// Total reports received, duplicates included (audit trail).
  std::uint32_t reports = 0;
  /// Highest confidence (permille, 0..1000) any report carried.
  std::uint32_t max_confidence_permille = 0;
  /// Chain timestamp of the most recent accepted report.
  SimTime last_reported_at = 0;
  Bytes serialize() const;
  static Result<ReputationRecord> parse(BytesView data);
};

/// Report(asn, evidence digest): one strike from the calling address.
struct ReportArgs {
  topology::AsNumber asn = 0;
  /// Detector confidence in permille (0..1000), clamped on write.
  std::uint32_t confidence_permille = 0;
  /// Rounds the sequential test needed (telemetry, stored as max seen).
  std::uint32_t rounds_used = 0;
  /// Free-form evidence line (e.g. the suspect's detail string).
  std::string detail;
  Bytes serialize() const;
  static Result<ReportArgs> parse(BytesView data);
};

/// Declared access set: Report writes the AS record plus its own
/// (AS, reporter) dedup marker.
chain::AccessSet access_report(topology::AsNumber asn,
                               const chain::Address& reporter);

/// The named key (within this contract's namespace) holding the strike
/// record of `asn` — exposed so other contracts can declare cross-contract
/// reads via chain::named_access_key(kReputationContractName, ...).
std::string reputation_as_key(topology::AsNumber asn);

/// Price penalty in percent for an executor whose AS carries `strikes`
/// strikes: 10% per strike, capped at 50%. Pure helper shared by the
/// marketplace quote/purchase paths and their tests.
std::uint32_t reputation_penalty_percent(std::uint32_t strikes);

/// `price` after the strike penalty (rounds down; never below zero).
chain::Mist apply_reputation_penalty(chain::Mist price, std::uint32_t strikes);

class ReputationContract : public chain::Contract {
 public:
  ReputationContract();

  std::string name() const override { return kReputationContractName; }

  Result<Bytes> call(chain::CallContext& context, const std::string& function,
                     BytesView arguments) override;

 private:
  Result<Bytes> report(chain::CallContext& ctx, BytesView args);

  struct ObsHandles {
    obs::Counter* strikes_recorded = nullptr;
    obs::Counter* reports_deduped = nullptr;
  };
  ObsHandles obs_;
};

/// Event emitted on every accepted (non-duplicate) strike; the argument is
/// the implicated AS number rendered in decimal.
inline constexpr const char* kEventReputationStrike = "ReputationStrike";

}  // namespace debuglet::marketplace
