// The Debuglet marketplace smart contract (paper §IV-C).
//
// State (names follow the paper), all of it chain-managed so the contract
// itself is stateless and re-entrant — conflict-free calls execute
// concurrently under Blockchain::submit_batch:
//   ExecutorAddressMap : named entry  "exec/⟨AS#intf⟩"  -> executor address
//   ExecutionSlotsMap  : named entry  "slots/⟨AS#intf⟩" -> slot calendar:
//                        sorted runs of back-to-back slots with equal
//                        length, resources and price, each stored as its
//                        first slot plus a count: the form RegisterTimeSlot
//                        carries, so no entry point expands a run
//                        (marketplace/calendar.hpp gives their costs).
//   ApplicationsMap    : named entry  "apps/⟨ck⟩|⟨sk⟩"  -> application ids
//   ResultsMap         : named entry  "result/⟨app⟩"    -> {result object
//                        id, reported_at}; the certified result bytes live
//                        once, in the result object ResultReady creates
//                        and charges for. The index outlives the
//                        application (ReclaimApplication frees only that).
//   application state  : the ApplicationObject itself (executor address,
//                        embedded tokens, reported flag, result object
//                        id) — so ResultReady and Reclaim touch one owned
//                        object and parallelize across applications.
//
// Entry points: RegisterExecutor, RegisterTimeSlot, LookupSlot,
// PurchaseSlot, ResultReady, ReclaimApplication, LookupResult.
// PurchaseSlot escrows the attached tokens inside the created application
// objects; ResultReady pays them out to the reporting executor and emits
// an event for the initiator.
//
// The access_* helpers build the declared read/write sets callers attach
// to their transactions (chain/access.hpp): slots of different executors
// never conflict, so purchases against disjoint executor pairs — and all
// ResultReady calls for distinct applications — run in parallel.
#pragma once

#include "marketplace/types.hpp"
#include "obs/metrics.hpp"

namespace debuglet::marketplace {

inline constexpr const char* kContractName = "debuglet_marketplace";

/// Declared access sets for each entry point, ready to pass to
/// Blockchain::make_transaction. Omitting them (the default empty set)
/// still works — the transaction then runs in exclusive mode and
/// serializes its whole batch.
chain::AccessSet access_register_executor(topology::InterfaceKey key);
chain::AccessSet access_register_time_slot(topology::InterfaceKey key);
chain::AccessSet access_lookup_slot(topology::InterfaceKey client_key,
                                    topology::InterfaceKey server_key);
chain::AccessSet access_purchase_slot(topology::InterfaceKey client_key,
                                      topology::InterfaceKey server_key);
chain::AccessSet access_result_ready(chain::ObjectId application);
chain::AccessSet access_reclaim_application(chain::ObjectId application);

class MarketplaceContract : public chain::Contract {
 public:
  MarketplaceContract();

  std::string name() const override { return kContractName; }

  Result<Bytes> call(chain::CallContext& context, const std::string& function,
                     BytesView arguments) override;

  void attach(chain::Blockchain& chain) override { chain_ = &chain; }

  // Inspection helpers used by tests and reports (not contract entry
  // points; committed state only, reads only).
  std::size_t registered_executors() const;
  std::vector<TimeSlot> available_slots(topology::InterfaceKey key) const;
  std::vector<chain::ObjectId> applications_for(
      topology::InterfaceKey client_key, topology::InterfaceKey server_key)
      const;

 private:
  Result<Bytes> register_executor(chain::CallContext& ctx, BytesView args);
  Result<Bytes> register_time_slot(chain::CallContext& ctx, BytesView args);
  Result<Bytes> lookup_slot(chain::CallContext& ctx, BytesView args);
  Result<Bytes> purchase_slot(chain::CallContext& ctx, BytesView args);
  Result<Bytes> result_ready(chain::CallContext& ctx, BytesView args);
  Result<Bytes> reclaim_application(chain::CallContext& ctx, BytesView args);
  Result<Bytes> lookup_result(chain::CallContext& ctx, BytesView args);

  SlotQuote quote(chain::CallContext& ctx, const LookupSlotArgs& query) const;

  const chain::Blockchain* chain_ = nullptr;  // set by attach()
  // Observability handles cached at construction (no-ops while disabled).
  // Counters only — atomics, safe to bump from scheduler worker threads.
  struct ObsHandles {
    obs::Counter* executors_registered = nullptr;
    obs::Counter* slots_registered = nullptr;
    obs::Counter* slots_purchased = nullptr;
    obs::Counter* results_reported = nullptr;
    obs::Counter* escrow_volume = nullptr;     // MIST embedded at purchase
    obs::Histogram* result_latency_ms = nullptr;  // report vs. window end
  };
  ObsHandles obs_;
};

}  // namespace debuglet::marketplace
