#include "simnet/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/rng.hpp"

namespace debuglet::simnet {

namespace {

// Event-id layout: the high bits identify the scheduling context (the
// hash of the parent event's id, or a root sequence number for events
// scheduled outside dispatch), the low bits count children within that
// context. Equal-time events from the SAME context therefore fire in
// scheduling order.
constexpr unsigned kChildIndexBits = 20;
constexpr std::uint64_t kChildIndexMask = (1ULL << kChildIndexBits) - 1;

constexpr std::size_t kHeapArity = 4;

}  // namespace

// --- 4-ary min-heap over (at, id) ------------------------------------------
//
// Flatter than a binary heap (half the levels), so pops touch fewer cache
// lines; the event vector doubles as the arena — pushing an event never
// allocates beyond the vector's growth.

namespace heap {

template <typename Event>
bool before(const Event& a, const Event& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.id < b.id;
}

template <typename Event>
void push(std::vector<Event>& h, Event ev) {
  h.push_back(std::move(ev));
  std::size_t i = h.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!before(h[i], h[parent])) break;
    std::swap(h[i], h[parent]);
    i = parent;
  }
}

template <typename Event>
Event pop(std::vector<Event>& h) {
  Event top = std::move(h.front());
  Event last = std::move(h.back());
  h.pop_back();
  if (!h.empty()) {
    std::size_t i = 0;
    const std::size_t n = h.size();
    while (true) {
      const std::size_t first = i * kHeapArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t limit = std::min(first + kHeapArity, n);
      for (std::size_t c = first + 1; c < limit; ++c) {
        if (before(h[c], h[best])) best = c;
      }
      if (!before(h[best], last)) break;
      h[i] = std::move(h[best]);
      i = best;
    }
    h[i] = std::move(last);
  }
  return top;
}

}  // namespace heap

EventQueue::EventQueue()
    : events_processed_(
          &obs::registry().counter("simnet.event_queue.events")) {}

SimDuration EventQueue::lookahead() const {
  return min_link_floor_ > 2 ? min_link_floor_ / 2 : SimDuration{1};
}

void EventQueue::note_link_floor(SimDuration floor) {
  if (floor <= 0) return;
  if (min_link_floor_ == 0 || floor < min_link_floor_)
    min_link_floor_ = floor;
}

void EventQueue::enqueue(std::uint32_t domain, SimTime at, Event ev) {
  const SimTime t = now();
  if (at < t) at = t;
  if (domain != current_domain()) {
    // Crossing a domain costs at least the lookahead (docs/SIMNET.md).
    const SimTime earliest = t + lookahead();
    if (at < earliest) at = earliest;
  }
  ev.at = at;
  ev.domain = domain;
  if (current_.active) {
    std::uint64_t parent = current_.event_id;
    ev.id = (splitmix64(parent) << kChildIndexBits) |
            (current_.children++ & kChildIndexMask);
  } else {
    ev.id = root_seq_++ << kChildIndexBits;
  }
  heap::push(heap_, std::move(ev));
}

void EventQueue::schedule_at(SimTime at, Callback fn) {
  Event ev;
  ev.fn = std::move(fn);
  enqueue(current_domain(), at, std::move(ev));
}

void EventQueue::schedule_after(SimDuration delay, Callback fn) {
  schedule_at(now() + (delay < 0 ? 0 : delay), std::move(fn));
}

void EventQueue::schedule_on(std::uint32_t domain, SimTime at, Callback fn) {
  Event ev;
  ev.fn = std::move(fn);
  enqueue(domain, at, std::move(ev));
}

void EventQueue::schedule_raw_on(std::uint32_t domain, SimTime at, RawFn fn,
                                 void* arg) {
  Event ev;
  ev.raw = fn;
  ev.arg = arg;
  enqueue(domain, at, std::move(ev));
}

void EventQueue::dispatch(Event ev) {
  current_.now = ev.at;
  current_.domain = ev.domain;
  current_.event_id = ev.id;
  current_.children = 0;
  now_ = ev.at;
  if (ev.raw != nullptr)
    ev.raw(ev.arg);
  else
    ev.fn();
  events_processed_->add();
}

std::size_t EventQueue::drain(SimTime deadline, bool until_empty) {
  // A run started from inside an event resumes that event's context after.
  const Dispatch outer = current_;
  current_.active = true;
  std::size_t processed = 0;
  while (!heap_.empty() && (until_empty || heap_.front().at <= deadline)) {
    dispatch(heap::pop(heap_));
    ++processed;
  }
  current_ = outer;
  return processed;
}

std::size_t EventQueue::run() { return drain(0, /*until_empty=*/true); }

std::size_t EventQueue::run_until(SimTime deadline) {
  const std::size_t processed = drain(deadline, /*until_empty=*/false);
  if (now_ < deadline) now_ = deadline;
  return processed;
}

}  // namespace debuglet::simnet
