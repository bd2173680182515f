#include "simnet/host_faults.hpp"

namespace debuglet::simnet {

HostFaultPlan& HostFaultPlan::add(HostFaultWindow window) {
  windows_.push_back(window);
  return *this;
}

HostFaultPlan& HostFaultPlan::crash(SimTime start, SimTime end) {
  return add({HostFaultKind::kCrash, start, end, 0.0});
}

HostFaultPlan& HostFaultPlan::silent(SimTime start, SimTime end) {
  return add({HostFaultKind::kSilentDrop, start, end, 0.0});
}

HostFaultPlan& HostFaultPlan::slow(SimTime start, SimTime end,
                                   double extra_delay_ms) {
  return add({HostFaultKind::kSlowHost, start, end, extra_delay_ms});
}

HostFaultState HostFaultPlan::state_at(SimTime t) const {
  HostFaultState state;
  for (const HostFaultWindow& w : windows_) {
    if (!w.active_at(t)) continue;
    if (w.kind > state.kind) state.kind = w.kind;
    if (w.kind == HostFaultKind::kSlowHost)
      state.extra_delay_ms += w.extra_delay_ms;
  }
  // Crash and silent-drop subsume slowness: a host that is off (or mute)
  // has no service time. Keeping the delay zeroed is what guarantees the
  // "never simultaneously crashed and serving" property.
  if (state.kind != HostFaultKind::kSlowHost) state.extra_delay_ms = 0.0;
  return state;
}

bool HostFaultPlan::serving_at(SimTime t) const {
  const HostFaultKind kind = state_at(t).kind;
  return kind != HostFaultKind::kCrash && kind != HostFaultKind::kSilentDrop;
}

SimTime HostFaultPlan::recovered_after(SimTime t) const {
  // Walk forward past every active outage window's end. Each pass moves
  // strictly forward to some window's end, so at most |windows| passes
  // are needed even for arbitrarily overlapped/chained schedules.
  SimTime candidate = t;
  for (std::size_t pass = 0; pass <= windows_.size(); ++pass) {
    SimTime latest_end = candidate;
    for (const HostFaultWindow& w : windows_) {
      if (w.kind != HostFaultKind::kCrash &&
          w.kind != HostFaultKind::kSilentDrop)
        continue;
      if (w.active_at(candidate) && w.end > latest_end) latest_end = w.end;
    }
    if (latest_end == candidate) return candidate;
    candidate = latest_end;
  }
  return candidate;
}

}  // namespace debuglet::simnet
