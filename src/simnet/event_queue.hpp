// Discrete-event simulation engine: one 4-ary min-heap, one thread.
//
// Every event belongs to a *domain* (0 = the control plane, otherwise an
// AS number). Domains carry two pieces of simulation semantics: a
// cross-domain schedule is clamped to at least now() + lookahead(), and
// the network draws each domain's randomness from its own stream.
//
// Determinism contract (docs/SIMNET.md): events are totally ordered by
// (time, id) where ids encode the scheduling context — the i-th event
// scheduled while executing event E gets id (mix64(E.id) << 20) | i,
// and events scheduled outside any event (the main thread seeding a
// scenario) get ordered root ids (seq << 20), so equal-time events from
// one context fire in scheduling order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace debuglet::simnet {

/// The simulation clock and event dispatcher.
class EventQueue {
 public:
  using Callback = std::function<void()>;
  /// Allocation-free callback used on the packet hot path: a plain
  /// function pointer plus a context argument (the in-flight packet).
  using RawFn = void (*)(void*);

  /// The domain of the control plane (executors, chain, marketplace, the
  /// main thread) and of any event that never declared one.
  static constexpr std::uint32_t kControlDomain = 0;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current virtual time: the executing event's timestamp during
  /// dispatch, the end of the last run elsewhere.
  SimTime now() const { return current_.active ? current_.now : now_; }

  /// The domain of the currently executing event (kControlDomain outside
  /// dispatch). New events inherit it unless scheduled with schedule_on.
  std::uint32_t current_domain() const {
    return current_.active ? current_.domain : kControlDomain;
  }

  /// Schedules `fn` at absolute time `at` (clamped to now()) on the
  /// current domain.
  void schedule_at(SimTime at, Callback fn);

  /// Schedules `fn` after `delay` from now on the current domain.
  void schedule_after(SimDuration delay, Callback fn);

  /// Schedules `fn` at `at` on an explicit domain. A schedule onto another
  /// domain than the current one is clamped to now() + lookahead().
  void schedule_on(std::uint32_t domain, SimTime at, Callback fn);

  /// schedule_on without the std::function allocation; `fn(arg)` runs at
  /// `at`. The caller keeps ownership of whatever `arg` points at.
  void schedule_raw_on(std::uint32_t domain, SimTime at, RawFn fn, void* arg);

  /// Registers a lower bound on some link's latency; the lookahead is
  /// half the smallest registered floor. Links report their floor when
  /// configured, before any traffic is scheduled.
  void note_link_floor(SimDuration floor);
  /// The cross-domain scheduling clamp, >= 1 ns.
  SimDuration lookahead() const;

  /// Runs events until the queue empties. Returns events processed.
  std::size_t run();

  /// Runs events with time <= deadline; the clock ends at `deadline` even
  /// if the queue drained earlier. Returns events processed.
  std::size_t run_until(SimTime deadline);

  bool empty() const { return heap_.empty(); }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    SimTime at = 0;
    std::uint64_t id = 0;
    std::uint32_t domain = kControlDomain;
    RawFn raw = nullptr;
    void* arg = nullptr;
    Callback fn;
  };

  /// The executing event's context; `active` is false outside dispatch.
  struct Dispatch {
    bool active = false;
    SimTime now = 0;
    std::uint32_t domain = kControlDomain;
    std::uint64_t event_id = 0;
    std::uint64_t children = 0;
  };

  void enqueue(std::uint32_t domain, SimTime at, Event ev);
  void dispatch(Event ev);
  std::size_t drain(SimTime deadline, bool until_empty);

  std::vector<Event> heap_;
  Dispatch current_;
  SimTime now_ = 0;
  std::uint64_t root_seq_ = 0;
  SimDuration min_link_floor_ = 0;  // 0 = none registered yet

  // Cached at construction from the active obs registry; the registry owns
  // them and record operations no-op while observability is disabled.
  obs::Gauge* depth_gauge_;
  obs::Histogram* pop_latency_ns_;
  obs::Counter* events_processed_;
};

}  // namespace debuglet::simnet
