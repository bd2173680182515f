// Wire types of the Debuglet marketplace contract (paper §IV-C).
//
// The contract trades executor time slots: ASes register executors and
// their available slots (the IaaS model), initiators look up and purchase
// pairs of slots, attach Debuglet bytecode, and collect certified results.
// These structs are the serialized arguments/returns of its entry points.
#pragma once

#include <vector>

#include "chain/chain.hpp"
#include "topology/topology.hpp"
#include "util/time.hpp"

namespace debuglet::marketplace {

/// An executor time slot: the 5-tuple from the paper's ExecutionSlotsMap —
/// (1) CPU cores, (2) memory, (3) bandwidth, (4) start/end time, (5) price.
struct TimeSlot {
  std::uint32_t cores = 1;
  std::uint64_t memory_bytes = 1 << 20;
  std::uint64_t bandwidth_bps = 10'000'000;
  SimTime start = 0;
  SimTime end = 0;
  chain::Mist price = 0;

  bool operator==(const TimeSlot&) const = default;

  /// True if this slot satisfies a resource request over [start,end).
  bool accommodates(std::uint32_t want_cores, std::uint64_t want_memory,
                    std::uint64_t want_bandwidth) const {
    return cores >= want_cores && memory_bytes >= want_memory &&
           bandwidth_bps >= want_bandwidth;
  }
};

/// `count` back-to-back slots with the same length, resources and price,
/// the form RegisterTimeSlot carries and the calendar stores. Run arithmetic
/// is unsigned, so a slot spanning most of the SimTime range (length up to
/// 2^64 - 1) is still exact.
struct SlotRun {
  TimeSlot first;
  std::uint32_t count = 0;

  bool operator==(const SlotRun&) const = default;

  /// Length of every slot in the run.
  std::uint64_t length() const;
  SimTime start() const { return first.start; }
  /// End of the last slot.
  SimTime end() const { return slot(count).start; }
  /// The k-th slot; slot(count) is the slot that would continue the run.
  TimeSlot slot(std::uint64_t k) const;
  /// Index of the slot holding time `t`. Precondition: start() <= t < end().
  std::uint64_t index_at(SimTime t) const;
};

void write_key(BytesWriter& w, topology::InterfaceKey key);
Result<topology::InterfaceKey> read_key(BytesReader& r);
void write_slot(BytesWriter& w, const TimeSlot& slot);
Result<TimeSlot> read_slot(BytesReader& r);

inline constexpr std::size_t kRunBytes = 48;  // write_slot's 44 + count
/// Fails unless `run` has a slot, of positive length, and ends in SimTime.
Status check_run(const SlotRun& run);
/// The run codec of RegisterTimeSlot and of the stored calendar.
void write_run(BytesWriter& w, const SlotRun& run);
Result<SlotRun> read_run(BytesReader& r);  // applies check_run

/// RegisterExecutor(⟨AS, intf⟩).
struct RegisterExecutorArgs {
  topology::InterfaceKey key;
  Bytes serialize() const;
  static Result<RegisterExecutorArgs> parse(BytesView data);
};

/// RegisterTimeSlot(⟨AS, intf⟩, runs): runs in any order, at most 65,536
/// slots in all, each run passing check_run.
struct RegisterTimeSlotArgs {
  topology::InterfaceKey key;
  std::vector<SlotRun> runs;
  Bytes serialize() const;
  static Result<RegisterTimeSlotArgs> parse(BytesView data);
};

/// LookupSlot(client ⟨AS,intf⟩, server ⟨AS,intf⟩, resources).
struct LookupSlotArgs {
  topology::InterfaceKey client_key;
  topology::InterfaceKey server_key;
  std::uint32_t cores = 1;
  std::uint64_t memory_bytes = 64 * 1024;
  std::uint64_t bandwidth_bps = 1'000'000;
  SimTime earliest_start = 0;  // don't return slots starting before this
  Bytes serialize() const;
  static Result<LookupSlotArgs> parse(BytesView data);
};

/// LookupSlot return: the first time window both executors can host, and
/// the price to pay. When the reputation contract carries strikes against
/// an executor's AS (confirmed discrimination reports), that side's slot
/// price is penalized — `total_price` is what the buyer actually pays,
/// `list_price` what the executors asked for.
struct SlotQuote {
  bool found = false;
  TimeSlot client_slot;
  TimeSlot server_slot;
  SimTime window_start = 0;  // max of the two slot starts
  SimTime window_end = 0;    // min of the two slot ends
  chain::Mist total_price = 0;  // after reputation penalties
  chain::Mist list_price = 0;   // sum of the raw slot prices
  /// On-chain strike counts of the two executors' ASes at quote time.
  std::uint32_t client_strikes = 0;
  std::uint32_t server_strikes = 0;
  Bytes serialize() const;
  static Result<SlotQuote> parse(BytesView data);
};

/// One side of a purchase: the bytecode + manifest + parameters to deploy.
struct ApplicationPayload {
  Bytes bytecode;               // serialized DVM module
  Bytes manifest;               // serialized executor::Manifest
  std::vector<std::int64_t> parameters;
  /// Rendezvous port the deployment listens on (0 = executor-assigned).
  /// Initiators set this on the server side so the client knows where to
  /// aim before either application has been deployed.
  std::uint16_t listen_port = 0;
  /// When non-empty: the initiator's 32-byte public key. The executor
  /// seals the measurement output for this key before certification, so
  /// the published result is unreadable by third parties (paper §IV-C's
  /// private-results option).
  Bytes seal_output_for;
  Bytes serialize() const;
  static Result<ApplicationPayload> parse(BytesView data);
};

/// PurchaseSlot(client key/slot/app, server key/slot/app); tokens ride on
/// the transaction's attached_tokens.
struct PurchaseSlotArgs {
  topology::InterfaceKey client_key;
  topology::InterfaceKey server_key;
  TimeSlot client_slot;
  TimeSlot server_slot;
  ApplicationPayload client_app;
  ApplicationPayload server_app;
  Bytes serialize() const;
  static Result<PurchaseSlotArgs> parse(BytesView data);
};

/// PurchaseSlot return: the two application object IDs.
struct PurchaseReceipt {
  chain::ObjectId client_application = 0;
  chain::ObjectId server_application = 0;
  SimTime window_start = 0;
  SimTime window_end = 0;
  Bytes serialize() const;
  static Result<PurchaseReceipt> parse(BytesView data);
};

/// The stored application object (what the chain charges storage for).
/// It carries the assigned executor's account address and whether (and
/// where) its result was reported, so ResultReady and ReclaimApplication
/// touch only this one object — which is what lets transactions against
/// different applications run in parallel (docs/CHAIN.md). The result
/// itself lives in its own object (ResultEntry).
struct ApplicationObject {
  topology::InterfaceKey executor_key;  // where it must run
  std::uint8_t role = 0;                // 0 = client, 1 = server
  SimTime window_start = 0;
  SimTime window_end = 0;
  chain::Mist embedded_tokens = 0;      // paid to the executor on completion
  ApplicationPayload payload;
  chain::Address executor_address;      // the account paid on ResultReady
  bool reported = false;                // result state, set by ResultReady
  SimTime reported_at = 0;
  chain::ObjectId result_object = 0;    // holds the certified result
  Bytes serialize() const;
  static Result<ApplicationObject> parse(BytesView data);
};

/// ReclaimApplication(application object id): after the result has been
/// reported, the initiator frees the (large) application object and
/// receives its storage rebate — the mechanism behind Table II's
/// "storage rebate is refunded after the stored data is freed".
struct ReclaimApplicationArgs {
  chain::ObjectId application = 0;
  Bytes serialize() const;
  static Result<ReclaimApplicationArgs> parse(BytesView data);
};

/// ResultReady(application object id, result bytes).
struct ResultReadyArgs {
  chain::ObjectId application = 0;
  Bytes result;  // serialized executor::CertifiedResult
  Bytes serialize() const;
  static Result<ResultReadyArgs> parse(BytesView data);
};

/// LookupResult(application object id) → result object + metadata.
struct LookupResultArgs {
  chain::ObjectId application = 0;
  Bytes serialize() const;
  static Result<LookupResultArgs> parse(BytesView data);
};

/// LookupResult return: the result object, when it was reported, and the
/// certified result read from that object. The named index "result/<app>"
/// stores the same struct with `result` empty, so the bytes live once.
struct ResultEntry {
  bool found = false;
  chain::ObjectId result_object = 0;
  SimTime reported_at = 0;
  Bytes result;  // serialized executor::CertifiedResult
  Bytes serialize() const;
  static Result<ResultEntry> parse(BytesView data);
};

/// Event names emitted by the contract.
inline constexpr const char* kEventExecutorRegistered = "ExecutorRegistered";
inline constexpr const char* kEventDebugletDeployed = "DebugletDeployed";
inline constexpr const char* kEventResultReady = "ResultReady";

}  // namespace debuglet::marketplace
