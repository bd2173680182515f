// The run-length slot calendar (marketplace/calendar.hpp): the stored
// format, registered runs that merge and split at the run cap, purchases
// that split runs, dropping ended slots, extreme times, and a randomized
// differential test against the flat-list reference in calendar_oracle.hpp.
#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <map>
#include <string>

#include "calendar_oracle.hpp"
#include "marketplace/calendar.hpp"
#include "util/rng.hpp"

namespace debuglet::marketplace {
namespace {

using oracle::FlatCalendar;

constexpr SimTime kMin = std::numeric_limits<SimTime>::min();
constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
const topology::InterfaceKey kKey{1, 2};

TimeSlot slot(SimTime start, SimTime end, chain::Mist price = 5) {
  TimeSlot s;
  s.start = start;
  s.end = end;
  s.price = price;
  return s;
}

std::vector<TimeSlot> grid(SimTime start, SimTime length, int count,
                           chain::Mist price = 5) {
  std::vector<TimeSlot> out;
  for (int i = 0; i < count; ++i)
    out.push_back(slot(start + i * length, start + (i + 1) * length, price));
  return out;
}

/// Each slot as a run of one, for the calendar to merge.
std::vector<SlotRun> runs_of(const std::vector<TimeSlot>& slots) {
  std::vector<SlotRun> out;
  for (const TimeSlot& s : slots) out.push_back(SlotRun{s, 1});
  return out;
}

bool same_terms(const TimeSlot& a, const TimeSlot& b) {
  return a.cores == b.cores && a.memory_bytes == b.memory_bytes &&
         a.bandwidth_bps == b.bandwidth_bps && a.price == b.price;
}

/// Runs are non-empty, sorted, non-overlapping and maximal (a run that
/// could join the next one is full), and the calendar survives its stored
/// form unchanged.
::testing::AssertionResult well_formed(const SlotCalendar& calendar) {
  const std::vector<SlotRun>& runs = calendar.runs();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].count == 0)
      return ::testing::AssertionFailure() << "run " << i << " is empty";
    if (i == 0) continue;
    const SlotRun& prev = runs[i - 1];
    if (prev.end() > runs[i].start())
      return ::testing::AssertionFailure()
             << "runs " << i - 1 << " and " << i << " overlap or are unsorted";
    if (prev.count < std::numeric_limits<std::uint32_t>::max() &&
        prev.end() == runs[i].start() &&
        prev.length() == runs[i].length() &&
        same_terms(prev.first, runs[i].first))
      return ::testing::AssertionFailure()
             << "runs " << i - 1 << " and " << i << " should be one run";
  }
  const Bytes bytes = calendar.encode();
  auto decoded = SlotCalendar::decode(BytesView(bytes.data(), bytes.size()));
  if (!decoded)
    return ::testing::AssertionFailure()
           << "stored form rejected: " << decoded.error().message;
  if (decoded->encode() != bytes)
    return ::testing::AssertionFailure() << "stored form does not round-trip";
  return ::testing::AssertionSuccess();
}

TEST(SlotCalendar, RegisteredHorizonIsOneFiftyTwoByteRun) {
  // The default executor horizon: 48 h of 20 s slots, as one run.
  const SimDuration length = duration::seconds(20);
  std::vector<TimeSlot> horizon = grid(0, length, 8640, 1000);
  SlotCalendar calendar;
  ASSERT_TRUE(calendar.add({SlotRun{horizon.front(), 8640}}, kKey).ok());
  ASSERT_EQ(calendar.runs().size(), 1u);
  EXPECT_EQ(calendar.runs()[0].count, 8640u);
  EXPECT_EQ(calendar.runs()[0].end(), 8640 * length);
  EXPECT_EQ(calendar.encode().size(), 52u);
  EXPECT_EQ(calendar.slots(), horizon);
  EXPECT_TRUE(well_formed(calendar));

  // The same slots as 8,640 runs of one, in reverse, store the same bytes.
  std::vector<SlotRun> singles = runs_of(horizon);
  std::reverse(singles.begin(), singles.end());
  SlotCalendar merged;
  ASSERT_TRUE(merged.add(singles, kKey).ok());
  EXPECT_EQ(merged.encode(), calendar.encode());
}

TEST(SlotCalendar, MergedRunsSplitAtTheRunCap) {
  // Back-to-back runs of 1 ns slots join into one run of at most 2^32 - 1
  // slots; the rest starts the next run, where appending the slots one by
  // one would have started it.
  constexpr std::uint32_t kCap = std::numeric_limits<std::uint32_t>::max();
  constexpr SimTime kEnd = static_cast<SimTime>(kCap);
  SlotCalendar calendar;
  ASSERT_TRUE(calendar.add({SlotRun{slot(kEnd - 10, kEnd - 9), 20},
                            SlotRun{slot(0, 1), kCap - 10}},
                           kKey)
                  .ok());
  ASSERT_EQ(calendar.runs().size(), 2u);
  EXPECT_EQ(calendar.runs()[0], (SlotRun{slot(0, 1), kCap}));
  EXPECT_EQ(calendar.runs()[1], (SlotRun{slot(kEnd, kEnd + 1), 10}));
  EXPECT_TRUE(well_formed(calendar));

  // A full run stays full; what continues it joins the run after it.
  ASSERT_TRUE(
      calendar.add({SlotRun{slot(kEnd + 10, kEnd + 11), 5}}, kKey).ok());
  ASSERT_EQ(calendar.runs().size(), 2u);
  EXPECT_EQ(calendar.runs()[1].count, 15u);

  // After a sale at the front, the next registration regroups the runs
  // from the first slot, as appending the slots one by one would: the
  // first run fills up again from the run after it.
  ASSERT_TRUE(calendar.remove(slot(0, 1)));
  EXPECT_EQ(calendar.runs()[0], (SlotRun{slot(1, 2), kCap - 1}));
  ASSERT_TRUE(calendar.add({SlotRun{slot(-5, -4), 1}}, kKey).ok());
  ASSERT_EQ(calendar.runs().size(), 3u);
  EXPECT_EQ(calendar.runs()[1], (SlotRun{slot(1, 2), kCap}));
  EXPECT_EQ(calendar.runs()[2], (SlotRun{slot(kEnd + 1, kEnd + 2), 14}));
  EXPECT_TRUE(well_formed(calendar));
}

/// The calendar that registering `slots` one by one would build.
SlotCalendar registered(const std::vector<TimeSlot>& slots) {
  SlotCalendar calendar;
  EXPECT_TRUE(calendar.add(runs_of(slots), kKey).ok());
  return calendar;
}

TEST(SlotCalendar, DropEndedKeepsTheSlotUnderWay) {
  // Runs: ten 10-ns slots from 0, five 20-ns slots from 200, and one slot
  // at a different price that continues them at 300.
  std::vector<TimeSlot> slots = grid(0, 10, 10);
  for (const TimeSlot& s : grid(200, 20, 5)) slots.push_back(s);
  slots.push_back(slot(300, 310, 9));
  SlotCalendar calendar = registered(slots);
  FlatCalendar flat;
  ASSERT_TRUE(flat.add(runs_of(slots), kKey).ok());
  ASSERT_EQ(calendar.runs().size(), 3u);
  // Before every run, at the start of the first slot, on a slot boundary,
  // in the middle of a slot, at the end of a run, in a gap, after every run.
  const std::pair<SimTime, std::size_t> steps[] = {
      {-5, 16}, {0, 16}, {30, 13}, {45, 12}, {100, 6},
      {150, 6}, {219, 6}, {220, 5}, {310, 0}};
  for (const auto& [now, left] : steps) {
    calendar.drop_ended(now);
    flat.drop_ended(now);
    EXPECT_EQ(calendar.slots(), flat.slots) << now;
    EXPECT_EQ(calendar.slots().size(), left) << now;
    EXPECT_TRUE(well_formed(calendar)) << now;
    // The bytes are those of the slots left, however they were reached.
    EXPECT_EQ(calendar.encode(), registered(flat.slots).encode()) << now;
  }
  EXPECT_EQ(calendar.encode().size(), 4u);
  // A cut run starts at the slot holding `now`.
  SlotCalendar cut = registered(grid(0, 10, 10));
  cut.drop_ended(45);
  ASSERT_EQ(cut.runs().size(), 1u);
  EXPECT_EQ(cut.runs()[0], (SlotRun{slot(40, 50), 6}));
  // Every slot ends by the end of SimTime.
  SlotCalendar last = registered({slot(kMax - 10, kMax)});
  last.drop_ended(kMax - 1);
  EXPECT_EQ(last.runs().size(), 1u);
  last.drop_ended(kMax);
  EXPECT_TRUE(last.runs().empty());
}

TEST(SlotCalendar, DropEndedRegroupsAtTheRunCap) {
  // A full run of 1 ns slots, continued by ten more: cutting the full run
  // lets it take slots from the next one, as registering what is left
  // would.
  constexpr std::uint32_t kCap = std::numeric_limits<std::uint32_t>::max();
  constexpr SimTime kEnd = static_cast<SimTime>(kCap);
  SlotCalendar calendar;
  ASSERT_TRUE(calendar.add({SlotRun{slot(0, 1), kCap},
                            SlotRun{slot(kEnd, kEnd + 1), 10}},
                           kKey)
                  .ok());
  calendar.drop_ended(5);
  ASSERT_EQ(calendar.runs().size(), 2u);
  EXPECT_EQ(calendar.runs()[0], (SlotRun{slot(5, 6), kCap}));
  EXPECT_EQ(calendar.runs()[1], (SlotRun{slot(kEnd + 5, kEnd + 6), 5}));
  EXPECT_TRUE(well_formed(calendar));
  SlotCalendar fresh;
  ASSERT_TRUE(fresh.add({SlotRun{slot(kEnd, kEnd + 1), 10},
                         SlotRun{slot(5, 6), kCap - 5}},
                        kKey)
                  .ok());
  EXPECT_EQ(calendar.encode(), fresh.encode());

  // What a sale leaves unmerged at the cap, the next drop regroups, even
  // when nothing has ended.
  ASSERT_TRUE(calendar.remove(slot(5, 6)));
  EXPECT_EQ(calendar.runs()[0], (SlotRun{slot(6, 7), kCap - 1}));
  calendar.drop_ended(0);
  ASSERT_EQ(calendar.runs().size(), 2u);
  EXPECT_EQ(calendar.runs()[0], (SlotRun{slot(6, 7), kCap}));
  EXPECT_EQ(calendar.runs()[1], (SlotRun{slot(kEnd + 6, kEnd + 7), 4}));
  EXPECT_TRUE(well_formed(calendar));

  // Past the first run, only the run that continued it is left.
  calendar.drop_ended(kEnd + 7);
  ASSERT_EQ(calendar.runs().size(), 1u);
  EXPECT_EQ(calendar.runs()[0], (SlotRun{slot(kEnd + 7, kEnd + 8), 3}));
}

TEST(SlotCalendar, PurchasesSplitRunsAndKeepTheRest) {
  SlotCalendar calendar;
  ASSERT_TRUE(calendar.add(runs_of(grid(0, 10, 10)), kKey).ok());
  std::vector<TimeSlot> expected = grid(0, 10, 10);

  auto sell = [&](const TimeSlot& s) {
    ASSERT_TRUE(calendar.remove(s));
    expected.erase(std::find(expected.begin(), expected.end(), s));
    EXPECT_EQ(calendar.slots(), expected);
    EXPECT_TRUE(well_formed(calendar));
  };
  sell(slot(40, 50));  // middle: two runs
  EXPECT_EQ(calendar.runs().size(), 2u);
  sell(slot(0, 10));    // first slot of a run
  sell(slot(90, 100));  // last slot of a run
  sell(slot(50, 60));   // first slot of the second run
  EXPECT_EQ(calendar.runs().size(), 2u);
  EXPECT_EQ(calendar.runs()[0].start(), 10);
  EXPECT_EQ(calendar.runs()[1].start(), 60);

  // Not available: sold, misaligned, wrong length or wrong terms.
  const std::vector<TimeSlot> before = calendar.slots();
  TimeSlot pricier = slot(20, 30, 6);
  TimeSlot bigger = slot(20, 30);
  bigger.cores = 2;
  for (const TimeSlot& s : {slot(40, 50), slot(25, 35), slot(20, 40), pricier,
                            bigger, slot(100, 110), slot(-10, 0)}) {
    EXPECT_FALSE(calendar.remove(s));
  }
  EXPECT_EQ(calendar.slots(), before);

  for (const TimeSlot& s : before) sell(s);
  EXPECT_TRUE(calendar.runs().empty());
  EXPECT_EQ(calendar.encode().size(), 4u);
}

TEST(SlotCalendar, RunsBreakWhereLengthTermsOrTimeChange) {
  // Slots 1-5 each change one term of the default slot: price, cores,
  // memory, bandwidth, then length (slot 5 is followed by a gap).
  std::vector<TimeSlot> slots = grid(0, 10, 8);
  slots[1].price = 6;
  slots[2].cores = 2;
  slots[3].memory_bytes *= 2;
  slots[4].bandwidth_bps *= 2;
  slots[5].end = 55;
  slots.push_back(slot(80, 90));  // back to back with slot 7
  SlotCalendar calendar;
  ASSERT_TRUE(calendar.add(runs_of(slots), kKey).ok());
  EXPECT_EQ(calendar.runs().size(), 7u);  // slots 6, 7 and 80-90 are one
  EXPECT_EQ(calendar.runs().back().count, 3u);
  EXPECT_TRUE(well_formed(calendar));

  // Registering the missing piece in a later call merges the runs.
  SlotCalendar split;
  ASSERT_TRUE(split.add({SlotRun{slot(0, 10), 2}}, kKey).ok());
  ASSERT_TRUE(split.add({SlotRun{slot(40, 50), 3}}, kKey).ok());
  EXPECT_EQ(split.runs().size(), 2u);
  ASSERT_TRUE(split.add({SlotRun{slot(30, 40), 1}}, kKey).ok());
  EXPECT_EQ(split.runs().size(), 2u);
  ASSERT_TRUE(split.add({SlotRun{slot(20, 30), 1}}, kKey).ok());
  EXPECT_EQ(split.runs().size(), 1u);
  EXPECT_EQ(split.slots(), grid(0, 10, 7));
}

TEST(SlotCalendar, RegisterKeepsTheContractErrors) {
  SlotCalendar calendar;
  ASSERT_TRUE(calendar.add({SlotRun{slot(0, 10), 3}}, kKey).ok());
  const Bytes before = calendar.encode();
  auto rejects = [&](const std::vector<SlotRun>& runs,
                     const std::string& error) {
    const Status s = calendar.add(runs, kKey);
    EXPECT_EQ(s.error_message(), error);
    EXPECT_EQ(calendar.encode(), before);
  };
  const std::string overlap = "overlapping time slots for " + kKey.to_string();
  rejects({SlotRun{slot(50, 50), 1}}, "slot with non-positive duration");
  rejects({SlotRun{slot(60, 70), 1}, SlotRun{slot(50, 40), 2}},
          "slot with non-positive duration");
  rejects({SlotRun{slot(50, 60), 0}}, "empty slot run");
  rejects({SlotRun{slot(kMax - 25, kMax - 15), 3}},
          "slot run ends past the time range");
  rejects({SlotRun{slot(25, 35), 1}}, overlap);
  rejects({SlotRun{slot(40, 50), 1}, SlotRun{slot(40, 50), 1}}, overlap);
  // Runs overlap where a later slot of one meets another: [-20, 10) and
  // [0, 30), or [40, 100) and [90, 95).
  rejects({SlotRun{slot(-20, -10), 3}}, overlap);
  rejects({SlotRun{slot(90, 95), 1}, SlotRun{slot(40, 60), 3}}, overlap);
}

TEST(SlotCalendar, ExtremeTimesStayExact) {
  // One slot across almost all of SimTime: its length is 2^64 - 1.
  SlotCalendar whole;
  ASSERT_TRUE(whole.add({SlotRun{slot(kMin, kMax), 1}}, kKey).ok());
  EXPECT_EQ(whole.runs()[0].length(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(whole.runs()[0].end(), kMax);
  EXPECT_EQ(whole.slots(), std::vector<TimeSlot>{slot(kMin, kMax)});
  EXPECT_TRUE(well_formed(whole));

  // Back-to-back slots at both ends of the range.
  SlotCalendar edges;
  ASSERT_TRUE(edges.add(runs_of(grid(kMin, 1'000'000, 3)), kKey).ok());
  ASSERT_TRUE(edges.add({SlotRun{slot(kMax - 30, kMax - 20), 3}}, kKey).ok());
  ASSERT_EQ(edges.runs().size(), 2u);
  EXPECT_EQ(edges.runs()[1].end(), kMax);
  EXPECT_FALSE(edges.add({SlotRun{slot(kMax - 5, kMax), 1}}, kKey).ok());
  EXPECT_TRUE(well_formed(edges));

  LookupSlotArgs query;
  query.earliest_start = 0;
  SlotQuote q = quote_calendars(whole, edges, query, 0, 0);
  ASSERT_TRUE(q.found);
  EXPECT_EQ(q.window_start, kMax - 30);
  EXPECT_EQ(q.window_end, kMax - 20);
  query.earliest_start = kMax - 1;
  q = quote_calendars(edges, whole, query, 0, 0);
  ASSERT_TRUE(q.found);
  EXPECT_EQ(q.client_slot, slot(kMax - 10, kMax));
  EXPECT_EQ(q.window_start, kMax - 1);
  EXPECT_EQ(q.window_end, kMax);

  // Selling the last slot of a run that ends at kMax, then the first.
  ASSERT_TRUE(edges.remove(slot(kMax - 10, kMax)));
  ASSERT_TRUE(edges.remove(slot(kMin, kMin + 1'000'000)));
  EXPECT_TRUE(well_formed(edges));
  ASSERT_TRUE(whole.remove(slot(kMin, kMax)));
  EXPECT_TRUE(whole.runs().empty());
}

TEST(SlotCalendar, DecodeRejectsMalformedCalendars) {
  auto stored = [](const std::vector<SlotRun>& runs) {
    BytesWriter w;
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (const SlotRun& run : runs) write_run(w, run);
    return w.take();
  };
  auto rejects = [](const Bytes& bytes, const std::string& why) {
    auto decoded = SlotCalendar::decode(BytesView(bytes.data(), bytes.size()));
    EXPECT_FALSE(decoded.ok()) << why;
  };
  const Bytes good = stored({{slot(0, 10), 3}, {slot(40, 50), 1}});
  ASSERT_TRUE(SlotCalendar::decode(BytesView(good.data(), good.size())).ok());
  rejects(Bytes(good.begin(), good.end() - 1), "truncated");
  Bytes tail = good;
  tail.push_back(0);
  rejects(tail, "trailing byte");
  rejects(stored({{slot(0, 10), 0}}), "empty run");
  rejects(stored({{slot(10, 10), 1}}), "zero-length slot");
  rejects(stored({{slot(kMax - 10, kMax), 2}}), "run ends past kMax");
  rejects(stored({{slot(kMin, kMax), 2}}), "run ends past kMax");
  rejects(stored({{slot(0, 10), 3}, {slot(20, 30), 1}}), "overlapping runs");
  rejects(stored({{slot(30, 40), 1}, {slot(0, 10), 1}}), "unsorted runs");
  BytesWriter huge;
  huge.u32(std::numeric_limits<std::uint32_t>::max());
  rejects(huge.take(), "run count past the data");
}

TEST(SlotCalendar, QuoteAdvancesTheRunThatEndsFirst) {
  // Client [0,50) and [100,150); server [60,200). The client's first run
  // ends first and meets nothing; the answer is the client's second run.
  SlotCalendar client;
  ASSERT_TRUE(client.add({SlotRun{slot(0, 10), 5}}, kKey).ok());
  ASSERT_TRUE(client.add({SlotRun{slot(100, 110), 5}}, kKey).ok());
  SlotCalendar server;
  ASSERT_TRUE(server.add({SlotRun{slot(60, 80), 7}}, kKey).ok());
  const LookupSlotArgs query;
  for (bool swap : {false, true}) {
    const SlotQuote q = swap ? quote_calendars(server, client, query, 0, 0)
                             : quote_calendars(client, server, query, 0, 0);
    ASSERT_TRUE(q.found);
    EXPECT_EQ(q.window_start, 100);
    EXPECT_EQ(q.window_end, 110);
    EXPECT_EQ(swap ? q.server_slot : q.client_slot, slot(100, 110));
    EXPECT_EQ(swap ? q.client_slot : q.server_slot, slot(100, 120));
  }
}

// --- Randomized differential test against the flat reference -------------

constexpr std::size_t kExecutors = 3;
const std::array<topology::InterfaceKey, kExecutors> kKeys = {
    topology::InterfaceKey{1, 1}, topology::InterfaceKey{2, 1},
    topology::InterfaceKey{2, 2}};

TimeSlot random_terms(Rng& rng) {
  static constexpr std::uint32_t kCores[] = {1, 2, 4};
  static constexpr std::uint64_t kMemory[] = {1 << 16, 1 << 20};
  static constexpr std::uint64_t kBandwidth[] = {1'000'000, 100'000'000};
  static constexpr chain::Mist kPrice[] = {5, 7, 9, 1'000'000'000};
  TimeSlot s;
  s.cores = kCores[rng.index(3)];
  s.memory_bytes = kMemory[rng.index(2)];
  s.bandwidth_bps = kBandwidth[rng.index(2)];
  s.price = kPrice[rng.index(4)];
  return s;
}

SimTime random_time(Rng& rng, SimTime span) {
  return static_cast<SimTime>(rng.next_below(static_cast<std::uint64_t>(span)));
}

/// Cuts `slots` into runs: a slot that continues the last run joins it most
/// of the time, so a batch mixes runs of one with longer runs.
std::vector<SlotRun> cut_into_runs(Rng& rng,
                                   const std::vector<TimeSlot>& slots) {
  std::vector<SlotRun> runs;
  for (const TimeSlot& s : slots) {
    if (!runs.empty() && runs.back().end() == s.start &&
        s == runs.back().slot(runs.back().count) && rng.chance(0.7)) {
      ++runs.back().count;
      continue;
    }
    runs.push_back(SlotRun{s, 1});
  }
  return runs;
}

/// A RegisterTimeSlot batch for an executor whose calendar is `current`.
std::vector<SlotRun> random_batch(Rng& rng, const FlatCalendar& current) {
  const SimTime tail = current.slots.empty() ? 0 : current.slots.back().end;
  std::vector<TimeSlot> out;
  bool past_the_end = false;  // the last run takes one slot past kMax
  auto push = [&](TimeSlot terms, SimTime start, SimTime end) {
    terms.start = start;
    terms.end = end;
    out.push_back(terms);
  };
  switch (rng.index(6)) {
    case 0:
    case 1: {  // a grid of identical slots, half of them restart-style:
               // continuing from the calendar's end
      const bool at_tail = rng.chance(0.5);
      const SimTime length = 1 + random_time(rng, 12);
      SimTime t = at_tail && tail < kMax - 1000
                      ? tail + (rng.chance(0.7) ? 0 : length)
                      : random_time(rng, 500);
      const TimeSlot terms = random_terms(rng);
      const int n = 1 + static_cast<int>(rng.index(30));
      for (int i = 0; i < n; ++i, t += length) push(terms, t, t + length);
      // Neighbours that differ only in price or resources.
      if (rng.chance(0.3)) {
        TimeSlot& odd = out[rng.index(out.size())];
        if (rng.chance(0.5))
          odd.price += 1;
        else
          odd.cores += 1;
      }
      break;
    }
    case 2: {  // irregular lengths and gaps, mixed terms
      SimTime t = random_time(rng, 500);
      const int n = 1 + static_cast<int>(rng.index(8));
      for (int i = 0; i < n; ++i) {
        const SimTime length = 1 + random_time(rng, 15);
        push(random_terms(rng), t, t + length);
        t += length + (rng.chance(0.5) ? 0 : random_time(rng, 10));
      }
      break;
    }
    case 3: {  // a slot with a non-positive duration among good ones
      const SimTime t = random_time(rng, 500);
      push(random_terms(rng), t, t + 5);
      push(random_terms(rng), t + 10, t + 10 - random_time(rng, 3));
      break;
    }
    case 4: {  // the ends of SimTime
      const SimTime length = 1 + random_time(rng, 1000);
      const int n = 1 + static_cast<int>(rng.index(4));
      const TimeSlot terms = random_terms(rng);
      switch (rng.index(3)) {
        case 0:
          for (int i = n; i > 0; --i)
            push(terms, kMax - i * length, kMax - (i - 1) * length);
          past_the_end = rng.chance(0.5);
          break;
        case 1:
          for (int i = 0; i < n; ++i)
            push(terms, kMin + i * length, kMin + (i + 1) * length);
          break;
        default:
          push(terms, kMin + random_time(rng, 3), kMax - random_time(rng, 3));
          break;
      }
      break;
    }
    default: {  // a shuffled grid that may overlap the calendar
      const SimTime length = 1 + random_time(rng, 8);
      SimTime t = random_time(rng, 600);
      const TimeSlot terms = random_terms(rng);
      for (int i = 0; i < 6; ++i, t += length) push(terms, t, t + length);
      break;
    }
  }
  std::vector<SlotRun> runs = cut_into_runs(rng, out);
  if (past_the_end) ++runs.back().count;
  if (rng.chance(0.04)) {  // an empty run among the others
    TimeSlot terms = random_terms(rng);
    terms.start = random_time(rng, 500);
    terms.end = terms.start + 1 + random_time(rng, 10);
    runs.insert(runs.begin() + static_cast<std::ptrdiff_t>(
                                   rng.index(runs.size() + 1)),
                SlotRun{terms, 0});
  }
  for (std::size_t i = runs.size(); i > 1; --i)
    if (rng.chance(0.3)) std::swap(runs[i - 1], runs[rng.index(i)]);
  return runs;
}

/// A query whose earliest start lands before, inside, between or after the
/// two calendars' slots, with resource filters that some slots fail.
LookupSlotArgs random_query(Rng& rng, const FlatCalendar& client,
                            const FlatCalendar& server) {
  LookupSlotArgs q;
  q.cores = rng.chance(0.6) ? 1 : 1 + static_cast<std::uint32_t>(rng.index(4));
  q.memory_bytes = rng.chance(0.7) ? 1 << 16 : 1 << 18;
  q.bandwidth_bps = rng.chance(0.7) ? 1'000'000 : 50'000'000;
  std::vector<TimeSlot> all = client.slots;
  all.insert(all.end(), server.slots.begin(), server.slots.end());
  if (!all.empty() && rng.chance(0.7)) {
    const TimeSlot& s = all[rng.index(all.size())];
    const std::uint64_t length = static_cast<std::uint64_t>(s.end) -
                                 static_cast<std::uint64_t>(s.start);
    switch (rng.index(5)) {
      case 0: q.earliest_start = s.start == kMin ? s.start : s.start - 1; break;
      case 1: q.earliest_start = s.start; break;
      case 2:  // inside
        q.earliest_start = static_cast<SimTime>(
            static_cast<std::uint64_t>(s.start) + rng.next_below(length));
        break;
      case 3:  // at the end: between slots, or the start of the next
        q.earliest_start = s.end;
        break;
      default:
        q.earliest_start =
            s.end > kMax - 5 ? s.end : s.end + random_time(rng, 5);
        break;
    }
  } else {
    static constexpr SimTime kFixed[] = {kMin, -1000, 0, 250, 700, kMax};
    q.earliest_start = kFixed[rng.index(6)];
  }
  return q;
}

/// PurchaseSlot's calendar steps on either implementation: each calendar
/// copy loses its slot, and the copies are stored only if every check
/// passes, the server's last (so client == server keeps the client slot).
template <typename Calendar>
std::string purchase(std::array<Calendar, kExecutors>& calendars,
                     std::size_t c, std::size_t s, const TimeSlot& client_slot,
                     const TimeSlot& server_slot) {
  Calendar client = calendars[c];
  Calendar server = calendars[s];
  if (!client.remove(client_slot)) return "client slot not available";
  if (!server.remove(server_slot)) return "server slot not available";
  if (std::max(client_slot.start, server_slot.start) >=
      std::min(client_slot.end, server_slot.end))
    return "slots share no common time window";
  calendars[c] = std::move(client);
  calendars[s] = std::move(server);
  return "ok";
}

std::string describe(const SlotQuote& q) {
  auto slot_text = [](const TimeSlot& s) {
    return "[" + std::to_string(s.start) + "," + std::to_string(s.end) +
           ") p" + std::to_string(s.price) + " c" + std::to_string(s.cores);
  };
  return "found=" + std::to_string(q.found) + " client " +
         slot_text(q.client_slot) + " server " + slot_text(q.server_slot) +
         " window [" + std::to_string(q.window_start) + "," +
         std::to_string(q.window_end) + ") total " +
         std::to_string(q.total_price) + " list " +
         std::to_string(q.list_price) + " strikes " +
         std::to_string(q.client_strikes) + "/" +
         std::to_string(q.server_strikes);
}

TEST(CalendarDifferential, RandomSequencesMatchTheFlatReference) {
  constexpr int kSequences = 2000;
  Rng rng(0xCA1E0DA5);
  std::map<std::string, int> outcomes;
  for (int seq = 0; seq < kSequences; ++seq) {
    std::array<SlotCalendar, kExecutors> fast;
    std::array<FlatCalendar, kExecutors> flat;
    const int ops = 1 + static_cast<int>(rng.index(30));
    for (int op = 0; op < ops; ++op) {
      const std::size_t c = rng.index(kExecutors);
      const std::size_t s = rng.chance(0.2) ? c : rng.index(kExecutors);
      std::string step;
      switch (rng.index(11)) {
        case 0:
        case 1:
        case 2: {  // RegisterTimeSlot
          const std::vector<SlotRun> batch = random_batch(rng, flat[c]);
          const Status want = flat[c].add(batch, kKeys[c]);
          const Status got = fast[c].add(batch, kKeys[c]);
          step = "register " + (want ? "ok" : want.error().message);
          ASSERT_EQ(got.ok(), want.ok()) << seq << "/" << op << " " << step;
          ASSERT_EQ(got.error_message(), want.error_message()) << seq;
          break;
        }
        case 3:
        case 4:
        case 5:
        case 6: {  // PurchaseSlot
          TimeSlot client_slot;
          TimeSlot server_slot;
          if (rng.chance(0.6)) {  // what a quote offers
            const SlotQuote q = oracle::nested_loop_quote(
                flat[c], flat[s], random_query(rng, flat[c], flat[s]), 0, 0);
            client_slot = q.client_slot;
            server_slot = q.server_slot;
          } else {
            if (!flat[c].slots.empty())
              client_slot = flat[c].slots[rng.index(flat[c].slots.size())];
            if (!flat[s].slots.empty())
              server_slot = flat[s].slots[rng.index(flat[s].slots.size())];
          }
          if (rng.chance(0.15)) {  // a slot that is almost available
            TimeSlot& off = rng.chance(0.5) ? client_slot : server_slot;
            switch (rng.index(4)) {
              case 0: off.start += 1; break;
              case 1: off.end += off.end < kMax ? 1 : -1; break;
              case 2: off.price += 1; break;
              default: off.bandwidth_bps += 1; break;
            }
          }
          const std::string want =
              purchase(flat, c, s, client_slot, server_slot);
          const std::string got =
              purchase(fast, c, s, client_slot, server_slot);
          step = "purchase " + want;
          ASSERT_EQ(got, want) << seq << "/" << op;
          break;
        }
        case 10: {  // a store at a block time: drop what has ended
          const SimTime now =
              random_query(rng, flat[c], flat[s]).earliest_start;
          const std::size_t before = flat[c].slots.size();
          flat[c].drop_ended(now);
          fast[c].drop_ended(now);
          step = flat[c].slots.size() < before ? "drop some" : "drop none";
          break;
        }
        default: {  // LookupSlot
          const LookupSlotArgs query = random_query(rng, flat[c], flat[s]);
          const std::uint32_t cs =
              rng.chance(0.7) ? 0 : static_cast<std::uint32_t>(rng.index(7));
          const std::uint32_t ss =
              rng.chance(0.7) ? 0 : static_cast<std::uint32_t>(rng.index(7));
          const SlotQuote want =
              oracle::nested_loop_quote(flat[c], flat[s], query, cs, ss);
          const SlotQuote got =
              quote_calendars(fast[c], fast[s], query, cs, ss);
          step = want.found ? "quote found" : "quote none";
          ASSERT_EQ(got.serialize(), want.serialize())
              << seq << "/" << op << " earliest " << query.earliest_start
              << "\n want " << describe(want) << "\n got  " << describe(got);
          break;
        }
      }
      ++outcomes[step];
      for (std::size_t k = 0; k < kExecutors; ++k) {
        ASSERT_EQ(fast[k].slots(), flat[k].slots)
            << seq << "/" << op << " executor " << k << " after " << step;
        ASSERT_TRUE(well_formed(fast[k])) << seq << "/" << op;
      }
    }
  }
  // Every outcome class must be exercised in earnest.
  for (const char* step :
       {"register ok", "register slot with non-positive duration",
       "register empty slot run", "register slot run ends past the time range",
        "purchase ok", "purchase client slot not available",
        "purchase server slot not available",
        "purchase slots share no common time window", "quote found",
        "quote none", "drop some", "drop none"})
    EXPECT_GE(outcomes[step], 200) << step;
  int overlaps = 0;
  for (const auto& [step, n] : outcomes)
    if (step.find("overlapping time slots") != std::string::npos) overlaps += n;
  EXPECT_GE(overlaps, 200);
}

}  // namespace
}  // namespace debuglet::marketplace
