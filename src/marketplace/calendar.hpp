// An executor's slot calendar in run-length form: the stored value of one
// ExecutionSlotsMap entry ("slots/⟨AS#intf⟩", paper §IV-C).
//
// A calendar is a sorted list of runs. A run is `count` back-to-back slots
// with the same length, resources and price, stored as its first slot plus
// the count: an executor's registered 48 h horizon of 20 s slots (8,640
// slots) is one run, 52 bytes with the run count. Runs never overlap, and
// neighbouring runs that could form one run are always merged, so the
// stored bytes depend only on the set of available slots.
//
// Cost: a lookup walks both calendars once, O(runs); a purchase finds its
// slot by binary search, O(log runs), and splits that run; registration
// expands, merges and re-compresses, O(slots log slots).
#pragma once

#include <vector>

#include "marketplace/types.hpp"

namespace debuglet::marketplace {

/// `count` back-to-back slots: slot k is `first` shifted by k lengths.
/// Run arithmetic is unsigned, so a slot spanning most of the SimTime range
/// (length up to 2^64 - 1) is still exact.
struct SlotRun {
  TimeSlot first;
  std::uint32_t count = 0;

  /// Length of every slot in the run.
  std::uint64_t length() const;
  SimTime start() const { return first.start; }
  /// End of the last slot.
  SimTime end() const;
  /// The k-th slot. Precondition: k < count.
  TimeSlot slot(std::uint64_t k) const;
};

class SlotCalendar {
 public:
  /// Parses a stored calendar; rejects runs that are empty, overflow
  /// SimTime, or are unsorted or overlapping.
  static Result<SlotCalendar> decode(BytesView data);
  Bytes encode() const;

  const std::vector<SlotRun>& runs() const { return runs_; }
  /// Every available slot, sorted by start.
  std::vector<TimeSlot> slots() const;

  /// RegisterTimeSlot: adds `added` to the calendar of executor `key`. Fails
  /// with the contract's error (and leaves the calendar unchanged) when a
  /// slot has a non-positive duration or two slots would overlap.
  Status add(const std::vector<TimeSlot>& added, topology::InterfaceKey key);

  /// PurchaseSlot: removes `slot` by splitting its run. Returns false, and
  /// changes nothing, when the slot is not available exactly as given
  /// (times, resources and price).
  bool remove(const TimeSlot& slot);

 private:
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
