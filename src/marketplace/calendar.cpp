#include "marketplace/calendar.hpp"

#include <algorithm>
#include <limits>

#include "marketplace/reputation.hpp"

namespace debuglet::marketplace {

Result<SlotCalendar> SlotCalendar::decode(BytesView data) {
  BytesReader r(data);
  auto count = r.u32();
  if (!count) return count.error();
  SlotCalendar out;
  out.runs_.reserve(std::min<std::size_t>(*count, r.remaining() / kRunBytes));
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto run = read_run(r);
    if (!run) return run.error();
    if (!out.runs_.empty() && out.runs_.back().end() > run->start())
      return fail("slot calendar: runs out of order");
    out.runs_.push_back(*run);
  }
  if (!r.exhausted()) return fail("slot calendar: trailing bytes");
  return out;
}

Bytes SlotCalendar::encode() const {
  BytesWriter w;
  w.u32(static_cast<std::uint32_t>(runs_.size()));
  for (const SlotRun& run : runs_) write_run(w, run);
  return w.take();
}

std::vector<TimeSlot> SlotCalendar::slots() const {
  std::size_t total = 0;
  for (const SlotRun& run : runs_) total += run.count;
  std::vector<TimeSlot> out;
  out.reserve(total);
  for (const SlotRun& run : runs_)
    for (std::uint32_t k = 0; k < run.count; ++k) out.push_back(run.slot(k));
  return out;
}

Status SlotCalendar::add(const std::vector<SlotRun>& added,
                         topology::InterfaceKey key) {
  for (const SlotRun& run : added) {
    if (auto s = check_run(run); !s) return s;
  }
  std::vector<SlotRun> list = runs_;
  list.insert(list.end(), added.begin(), added.end());
  std::sort(list.begin(), list.end(), [](const SlotRun& a, const SlotRun& b) {
    return a.start() < b.start();
  });
  // Slots must be non-overlapping per the paper's ExecutionSlotsMap. A run
  // has no gaps, so two slots overlap only if two neighbouring runs do.
  for (std::size_t i = 0; i + 1 < list.size(); ++i) {
    if (list[i].end() > list[i + 1].start())
      return fail("overlapping time slots for " + key.to_string());
  }
  // A run that continues the last one joins it. A run holds at most 2^32 - 1
  // slots, and the rest starts the next run, as appending slot by slot would.
  runs_.clear();
  for (SlotRun run : list) {
    if (!runs_.empty() && run.first == runs_.back().slot(runs_.back().count)) {
      SlotRun& last = runs_.back();
      const std::uint32_t joined = std::min(
          std::numeric_limits<std::uint32_t>::max() - last.count, run.count);
      last.count += joined;
      if (joined == run.count) continue;
      run = SlotRun{run.slot(joined), run.count - joined};
    }
    runs_.push_back(run);
  }
  return ok_status();
}

bool SlotCalendar::remove(const TimeSlot& slot) {
  // The last run starting at or before the slot is the only candidate.
  auto it = std::upper_bound(
      runs_.begin(), runs_.end(), slot.start,
      [](SimTime t, const SlotRun& run) { return t < run.start(); });
  if (it == runs_.begin()) return false;
  --it;
  if (slot.start >= it->end()) return false;
  const std::uint64_t k = it->index_at(slot.start);
  if (!(it->slot(k) == slot)) return false;
  const std::uint64_t after = it->count - k - 1;
  // The pieces stay maximal runs, as the whole run was, except the tail of a
  // full run (2^32 - 1 slots), which could take slots from the next run.
  if (k == 0 && after == 0) {
    runs_.erase(it);
  } else if (k == 0) {
    *it = SlotRun{it->slot(1), static_cast<std::uint32_t>(after)};
  } else if (after == 0) {
    it->count = static_cast<std::uint32_t>(k);
  } else {
    const SlotRun tail{it->slot(k + 1), static_cast<std::uint32_t>(after)};
    it->count = static_cast<std::uint32_t>(k);
    runs_.insert(it + 1, tail);
  }
  return true;
}

SlotQuote quote_calendars(const SlotCalendar& client,
                          const SlotCalendar& server,
                          const LookupSlotArgs& query,
                          std::uint32_t client_strikes,
                          std::uint32_t server_strikes) {
  SlotQuote out;
  out.client_strikes = client_strikes;
  out.server_strikes = server_strikes;
  const auto usable = [&](const SlotRun& run) {
    return run.first.accommodates(query.cores, query.memory_bytes,
                                  query.bandwidth_bps) &&
           run.end() > query.earliest_start;
  };
  const std::vector<SlotRun>& cs = client.runs();
  const std::vector<SlotRun>& ss = server.runs();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < cs.size() && j < ss.size()) {
    if (!usable(cs[i])) {
      ++i;
      continue;
    }
    if (!usable(ss[j])) {
      ++j;
      continue;
    }
    const SlotRun& c = cs[i];
    const SlotRun& s = ss[j];
    // A run has no gaps, so two runs first overlap at the later start.
    const SimTime at = std::max({c.start(), s.start(), query.earliest_start});
    if (at < c.end() && at < s.end()) {
      out.found = true;
      out.client_slot = c.slot(c.index_at(at));
      out.server_slot = s.slot(s.index_at(at));
      out.window_start = at;
      out.window_end = std::min(out.client_slot.end, out.server_slot.end);
      out.list_price = out.client_slot.price + out.server_slot.price;
      // Reputation penalty: each implicated side sells at a discount (10%
      // per strike, capped at 50%) — the accountability teeth of the
      // discrimination detector's on-chain reports.
      out.total_price =
          apply_reputation_penalty(out.client_slot.price, client_strikes) +
          apply_reputation_penalty(out.server_slot.price, server_strikes);
      return out;
    }
    // The run that ends first overlaps nothing later on the other side.
    if (c.end() <= s.end())
      ++i;
    else
      ++j;
  }
  return out;
}

}  // namespace debuglet::marketplace
