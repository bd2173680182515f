// An executor's slot calendar: the stored value of one ExecutionSlotsMap
// entry ("slots/⟨AS#intf⟩", paper §IV-C), a sorted list of runs (SlotRun,
// marketplace/types.hpp). The registered 48 h horizon of 20 s slots (8,640
// slots) is one run, 52 bytes with the run count. Runs never overlap, and
// neighbouring runs that could form one run are merged (drop_ended regroups
// what remove leaves at the run cap), so the stored bytes depend only on the
// set of available slots. Every store drops the slots that have ended.
//
// Cost, for n runs: a lookup walks both calendars once, O(n); a purchase
// finds its slot by binary search, O(log n), and splits that run;
// registration sorts old and new runs together, O(n log n), expanding no slot.
#pragma once

#include <vector>

#include "marketplace/types.hpp"

namespace debuglet::marketplace {

class SlotCalendar {
 public:
  /// Parses a stored calendar; rejects runs that read_run rejects, and
  /// runs that are unsorted or overlapping.
  static Result<SlotCalendar> decode(BytesView data);
  Bytes encode() const;

  const std::vector<SlotRun>& runs() const { return runs_; }
  /// Every available slot, sorted by start.
  std::vector<TimeSlot> slots() const;

  /// RegisterTimeSlot: adds `added`, in any order, to the calendar of
  /// executor `key`. Fails with the contract's error (and leaves the
  /// calendar unchanged) when a run fails check_run or two would overlap.
  Status add(const std::vector<SlotRun>& added, topology::InterfaceKey key);

  /// PurchaseSlot: removes `slot` by splitting its run. Returns false, and
  /// changes nothing, when the slot is not available exactly as given
  /// (times, resources and price).
  bool remove(const TimeSlot& slot);

  /// Before every store: drops the slots that end at or before `now`, keeps
  /// the one under way (it still sells) and regroups the runs.
  void drop_ended(SimTime now);

 private:
  void regroup();  // joins each run to the run it continues
  std::vector<SlotRun> runs_;
};

/// LookupSlot's answer: the earliest time at or after
/// `query.earliest_start` covered by a client slot and a server slot that
/// both accommodate the query's resources, with each side's price penalized
/// by its AS's on-chain strikes (apply_reputation_penalty).
SlotQuote quote_calendars(const SlotCalendar& client,
                          const SlotCalendar& server,
                          const LookupSlotArgs& query,
                          std::uint32_t client_strikes,
                          std::uint32_t server_strikes);

}  // namespace debuglet::marketplace
