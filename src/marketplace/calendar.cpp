#include "marketplace/calendar.hpp"

#include <algorithm>
#include <limits>

#include "marketplace/reputation.hpp"

namespace debuglet::marketplace {

namespace {

// Run arithmetic is modulo 2^64. For a run that fits in SimTime every value
// it forms (offsets, slot starts and ends, the run's end) is exact, and the
// conversion back to SimTime is well defined.
std::uint64_t as_u64(SimTime t) { return static_cast<std::uint64_t>(t); }
SimTime as_time(std::uint64_t v) { return static_cast<SimTime>(v); }

constexpr std::size_t kRunBytes = 48;  // write_slot (44) + count (4)

bool same_terms(const TimeSlot& a, const TimeSlot& b) {
  return a.cores == b.cores && a.memory_bytes == b.memory_bytes &&
         a.bandwidth_bps == b.bandwidth_bps && a.price == b.price;
}

/// True if `slot` can join `run` as its next slot.
bool extends(const SlotRun& run, const TimeSlot& slot) {
  return run.count < std::numeric_limits<std::uint32_t>::max() &&
         slot.start == run.end() &&
         as_u64(slot.end) - as_u64(slot.start) == run.length() &&
         same_terms(run.first, slot);
}

/// Index of the slot of `run` holding time `t`. Precondition:
/// run.start() <= t < run.end().
std::uint64_t index_at(const SlotRun& run, SimTime t) {
  return (as_u64(t) - as_u64(run.start())) / run.length();
}

/// Maximal runs of slots sorted by start.
std::vector<SlotRun> compress(const std::vector<TimeSlot>& sorted) {
  std::vector<SlotRun> runs;
  for (const TimeSlot& slot : sorted) {
    if (!runs.empty() && extends(runs.back(), slot))
      ++runs.back().count;
    else
      runs.push_back(SlotRun{slot, 1});
  }
  return runs;
}

}  // namespace

std::uint64_t SlotRun::length() const {
  return as_u64(first.end) - as_u64(first.start);
}

SimTime SlotRun::end() const {
  return as_time(as_u64(first.start) + count * length());
}

TimeSlot SlotRun::slot(std::uint64_t k) const {
  TimeSlot s = first;
  s.start = as_time(as_u64(first.start) + k * length());
  s.end = as_time(as_u64(s.start) + length());
  return s;
}

Result<SlotCalendar> SlotCalendar::decode(BytesView data) {
  BytesReader r(data);
  auto count = r.u32();
  if (!count) return count.error();
  SlotCalendar out;
  out.runs_.reserve(std::min<std::size_t>(*count, r.remaining() / kRunBytes));
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto first = read_slot(r);
    if (!first) return first.error();
    auto slots = r.u32();
    if (!slots) return slots.error();
    const SlotRun run{*first, *slots};
    if (run.count == 0 || run.first.end <= run.first.start)
      return fail("slot calendar: empty run");
    const std::uint64_t room = as_u64(std::numeric_limits<SimTime>::max()) -
                               as_u64(run.start());
    if (run.count > room / run.length())
      return fail("slot calendar: run ends past the time range");
    if (!out.runs_.empty() && out.runs_.back().end() > run.start())
      return fail("slot calendar: runs out of order");
    out.runs_.push_back(run);
  }
  if (!r.exhausted()) return fail("slot calendar: trailing bytes");
  return out;
}

Bytes SlotCalendar::encode() const {
  BytesWriter w;
  w.u32(static_cast<std::uint32_t>(runs_.size()));
  for (const SlotRun& run : runs_) {
    write_slot(w, run.first);
    w.u32(run.count);
  }
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

Status SlotCalendar::add(const std::vector<TimeSlot>& added,
                         topology::InterfaceKey key) {
  for (const TimeSlot& slot : added) {
    if (slot.end <= slot.start) return fail("slot with non-positive duration");
  }
  std::vector<TimeSlot> list = slots();
  list.insert(list.end(), added.begin(), added.end());
  std::sort(list.begin(), list.end(),
            [](const TimeSlot& a, const TimeSlot& b) {
              return a.start != b.start ? a.start < b.start : a.end < b.end;
            });
  // Slots must be non-overlapping per the paper's ExecutionSlotsMap.
  for (std::size_t i = 0; i + 1 < list.size(); ++i) {
    if (list[i].end > list[i + 1].start)
      return fail("overlapping time slots for " + key.to_string());
  }
  runs_ = compress(list);
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
  const std::uint64_t k = index_at(*it, slot.start);
  if (!(it->slot(k) == slot)) return false;
  const std::uint64_t after = it->count - k - 1;
  // The pieces before and after the sold slot stay maximal runs: neither
  // could join a neighbour the whole run could not join.
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
      out.client_slot = c.slot(index_at(c, at));
      out.server_slot = s.slot(index_at(s, at));
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
