// Host-level fault injection (the chaos layer).
//
// Links can already fail (LinkModel's FaultSpec); this module faults the
// NODES: a HostFaultPlan schedules fault windows over simulated time for
// one attached host —
//
//   * crash       — the host is off: everything it sends and everything
//                   addressed to it is dropped;
//   * silent-drop — the host still receives but never gets a packet onto
//                   the wire (it "hears" but never answers);
//   * slow-host   — deliveries to and sends from the host pay an extra
//                   service delay (an overloaded or throttled box).
//
// Windows may overlap and may be zero-length (end <= start is inert). The
// effective state at any instant resolves by severity — crash beats
// silent-drop beats slow-host, and concurrent slow windows add their
// delays — so a host is never simultaneously crashed and serving (the
// host_faults_test property). Plans are pure functions of simulated time:
// chaos runs stay bit-identical under the scenario seed.
#pragma once

#include <vector>

#include "util/time.hpp"

namespace debuglet::simnet {

/// What a host fault does, ordered by severity (higher wins on overlap).
enum class HostFaultKind : std::uint8_t {
  kNone = 0,
  kSlowHost = 1,
  kSilentDrop = 2,
  kCrash = 3,
};

/// One scheduled fault window. Mirrors link FaultSpec conventions:
/// `end` is exclusive and end <= start means "never active".
struct HostFaultWindow {
  HostFaultKind kind = HostFaultKind::kNone;
  SimTime start = 0;
  SimTime end = 0;
  double extra_delay_ms = 0.0;  // kSlowHost service delay

  bool active_at(SimTime t) const {
    return kind != HostFaultKind::kNone && t >= start && t < end;
  }
};

/// The resolved fault state of a host at one instant.
struct HostFaultState {
  HostFaultKind kind = HostFaultKind::kNone;
  double extra_delay_ms = 0.0;  // only meaningful for kSlowHost

  bool crashed() const { return kind == HostFaultKind::kCrash; }
  bool silent() const { return kind == HostFaultKind::kSilentDrop; }
};

/// A schedule of fault windows for one host.
class HostFaultPlan {
 public:
  HostFaultPlan& add(HostFaultWindow window);
  /// Builder shorthands; all return *this for chaining.
  HostFaultPlan& crash(SimTime start, SimTime end);
  HostFaultPlan& silent(SimTime start, SimTime end);
  HostFaultPlan& slow(SimTime start, SimTime end, double extra_delay_ms);

  /// The severity-resolved state at time `t`: the most severe active
  /// window wins; concurrent slow windows add their delays.
  HostFaultState state_at(SimTime t) const;

  /// True when the host can serve traffic at `t` (not crashed, not
  /// silenced). Slow hosts still serve, just late.
  bool serving_at(SimTime t) const;

  /// The earliest instant >= `t` at which no crash or silent-drop window
  /// is active — when chained/overlapping outages end, this is the
  /// recovery time the scheduler can rely on.
  SimTime recovered_after(SimTime t) const;

  bool empty() const { return windows_.empty(); }
  const std::vector<HostFaultWindow>& windows() const { return windows_; }

 private:
  std::vector<HostFaultWindow> windows_;
};

}  // namespace debuglet::simnet
