// Test-only reference for the marketplace slot calendar
// (marketplace/calendar.hpp): an executor's slots as one flat sorted list,
// with linear find/erase, and the nested-loop quote that compares every
// client slot with every server slot. Registered runs are expanded into
// their slots, so keep their counts small. Differential tests run the same
// operations on both and compare every observable.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "marketplace/reputation.hpp"
#include "marketplace/types.hpp"

namespace debuglet::marketplace::oracle {

struct FlatCalendar {
  std::vector<TimeSlot> slots;  // sorted by start, non-overlapping

  /// RegisterTimeSlot's checks, error strings and merge, slot by slot.
  Status add(const std::vector<SlotRun>& added, topology::InterfaceKey key) {
    for (const SlotRun& run : added) {
      if (run.count == 0) return fail("empty slot run");
      if (run.first.end <= run.first.start)
        return fail("slot with non-positive duration");
      const __int128 length =
          static_cast<__int128>(run.first.end) - run.first.start;
      if (run.first.start + run.count * length >
          std::numeric_limits<SimTime>::max())
        return fail("slot run ends past the time range");
    }
    std::vector<TimeSlot> list = slots;
    for (const SlotRun& run : added) {
      const __int128 length =
          static_cast<__int128>(run.first.end) - run.first.start;
      for (std::uint32_t k = 0; k < run.count; ++k) {
        TimeSlot slot = run.first;
        slot.start = static_cast<SimTime>(run.first.start + k * length);
        slot.end = static_cast<SimTime>(run.first.start + (k + 1) * length);
        list.push_back(slot);
      }
    }
    std::sort(list.begin(), list.end(),
              [](const TimeSlot& a, const TimeSlot& b) {
                return a.start != b.start ? a.start < b.start : a.end < b.end;
              });
    for (std::size_t i = 0; i + 1 < list.size(); ++i) {
      if (list[i].end > list[i + 1].start)
        return fail("overlapping time slots for " + key.to_string());
    }
    slots = std::move(list);
    return ok_status();
  }

  bool remove(const TimeSlot& slot) {
    auto it = std::find(slots.begin(), slots.end(), slot);
    if (it == slots.end()) return false;
    slots.erase(it);
    return true;
  }
};

/// LookupSlot over every (client slot, server slot) pair: the earliest
/// nonempty common window with sufficient resources on both sides.
inline SlotQuote nested_loop_quote(const FlatCalendar& client,
                                   const FlatCalendar& server,
                                   const LookupSlotArgs& q,
                                   std::uint32_t client_strikes,
                                   std::uint32_t server_strikes) {
  SlotQuote out;
  out.client_strikes = client_strikes;
  out.server_strikes = server_strikes;
  for (const TimeSlot& cs : client.slots) {
    if (!cs.accommodates(q.cores, q.memory_bytes, q.bandwidth_bps)) continue;
    if (cs.end <= q.earliest_start) continue;
    for (const TimeSlot& ss : server.slots) {
      if (!ss.accommodates(q.cores, q.memory_bytes, q.bandwidth_bps)) continue;
      if (ss.end <= q.earliest_start) continue;
      const SimTime start = std::max({cs.start, ss.start, q.earliest_start});
      const SimTime end = std::min(cs.end, ss.end);
      if (start >= end) continue;
      if (!out.found || start < out.window_start) {
        out.found = true;
        out.client_slot = cs;
        out.server_slot = ss;
        out.window_start = start;
        out.window_end = end;
        out.list_price = cs.price + ss.price;
        out.total_price = apply_reputation_penalty(cs.price, client_strikes) +
                          apply_reputation_penalty(ss.price, server_strikes);
      }
    }
  }
  return out;
}

}  // namespace debuglet::marketplace::oracle
