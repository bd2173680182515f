#include "simnet/link_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace debuglet::simnet {

LinkModel::LinkModel(LinkConfig config, Rng rng)
    : config_(std::move(config)), rng_(rng) {
  if (config_.routes.empty())
    throw std::invalid_argument("LinkModel: at least one route required");
  for (const auto& [proto, policy] : config_.policies) {
    if (policy.routes.empty())
      throw std::invalid_argument("LinkModel: policy with no routes for " +
                                  net::protocol_name(proto));
    for (std::size_t r : policy.routes)
      if (r >= config_.routes.size())
        throw std::invalid_argument("LinkModel: route index out of range");
  }
  episode_states_.resize(config_.episodes.size());
  for (std::size_t i = 0; i < config_.episodes.size(); ++i) {
    const EpisodeSpec& ep = config_.episodes[i];
    if (ep.on_mean_s <= 0.0) {
      episode_states_[i].next_toggle =
          std::numeric_limits<SimTime>::max();  // disabled
      continue;
    }
    // Start OFF; first onset after an exponential gap.
    episode_states_[i].on = false;
    episode_states_[i].next_toggle = static_cast<SimTime>(
        rng_.exponential(ep.off_mean_s) * 1e9);
  }
  route_shift_ms_.assign(config_.routes.size(), 0.0);
  next_route_shift_.assign(config_.routes.size(),
                           std::numeric_limits<SimTime>::max());
  if (config_.shift.period_mean_s > 0.0) {
    for (auto& next : next_route_shift_)
      next = static_cast<SimTime>(
          rng_.exponential(config_.shift.period_mean_s) * 1e9);
  }
}

void LinkModel::install_fault_plan(LinkFaultPlan plan, Rng rng) {
  fault_plan_ = std::move(plan);
  fault_rng_ = rng;
  // Cache the counters on install, not construction: links without a plan
  // never touch the registry, and installs happen inside whatever scoped
  // registry the scenario runs under.
  obs::MetricsRegistry& reg = obs::registry();
  fault_obs_.corrupted =
      &reg.counter("simnet.wire_faults", {{"kind", "corrupt"}});
  fault_obs_.truncated =
      &reg.counter("simnet.wire_faults", {{"kind", "truncate"}});
  fault_obs_.duplicated =
      &reg.counter("simnet.wire_faults", {{"kind", "duplicate"}});
  fault_obs_.reordered =
      &reg.counter("simnet.wire_faults", {{"kind", "reorder"}});
  fault_obs_.flap_dropped =
      &reg.counter("simnet.wire_faults", {{"kind", "flap_drop"}});
}

void LinkModel::clear_fault_plan() { fault_plan_ = LinkFaultPlan{}; }

const ProtocolPolicy& LinkModel::policy_for(net::Protocol p) const {
  auto it = config_.policies.find(p);
  return it != config_.policies.end() ? it->second : default_policy_;
}

void LinkModel::advance_episodes(SimTime now) {
  for (std::size_t i = 0; i < episode_states_.size(); ++i) {
    EpisodeState& st = episode_states_[i];
    const EpisodeSpec& ep = config_.episodes[i];
    while (st.next_toggle <= now) {
      st.on = !st.on;
      const double mean = st.on ? ep.on_mean_s : ep.off_mean_s;
      st.next_toggle += static_cast<SimTime>(
          std::max(1e-3, rng_.exponential(std::max(mean, 1e-6))) * 1e9);
    }
  }
}

std::uint32_t LinkModel::active_episodes(SimTime now) {
  advance_episodes(now);
  std::uint32_t on = 0;
  for (const EpisodeState& st : episode_states_)
    if (st.on) ++on;
  return on;
}

void LinkModel::advance_shift(SimTime now) {
  for (std::size_t r = 0; r < next_route_shift_.size(); ++r) {
    while (next_route_shift_[r] <= now) {
      route_shift_ms_[r] = rng_.uniform(-config_.shift.amplitude_ms,
                                        config_.shift.amplitude_ms);
      next_route_shift_[r] += static_cast<SimTime>(
          std::max(1e-3, rng_.exponential(config_.shift.period_mean_s)) * 1e9);
      // Route change: pinned flows re-hash onto possibly different members.
      ++pin_epoch_;
      flow_pins_.clear();
    }
  }
}

std::size_t LinkModel::select_route(const ProtocolPolicy& policy,
                                    std::uint64_t flow_hash) {
  switch (policy.selection) {
    case SelectionPolicy::kFixed:
      return policy.routes.front();
    case SelectionPolicy::kPerPacket:
      return policy.routes[rng_.index(policy.routes.size())];
    case SelectionPolicy::kPerFlow: {
      auto [it, inserted] = flow_pins_.try_emplace(flow_hash, 0);
      if (inserted) {
        // Deterministic pin: hash the flow with the current epoch.
        const std::uint64_t mix =
            (flow_hash ^ (pin_epoch_ * 0x9E3779B97F4A7C15ULL)) *
            0xBF58476D1CE4E5B9ULL;
        it->second = policy.routes[(mix >> 33) % policy.routes.size()];
      }
      return it->second;
    }
  }
  return policy.routes.front();
}

TraverseOutcome LinkModel::traverse(net::Protocol protocol,
                                    std::uint64_t flow_hash, SimTime now,
                                    net::Ipv4Address source,
                                    net::Ipv4Address destination,
                                    std::uint32_t size_bytes) {
  advance_episodes(now);
  advance_shift(now);
  const ProtocolPolicy& policy = policy_for(protocol);
  const std::size_t route_idx = select_route(policy, flow_hash);
  const RouteSpec& route = config_.routes[route_idx];

  // §VI-E fault hiding: the operator treats traffic involving listed
  // addresses as if it rode the priority queue.
  const bool covertly_prioritized =
      !config_.prioritized_addresses.empty() &&
      (config_.prioritized_addresses.contains(source) ||
       config_.prioritized_addresses.contains(destination));
  const bool priority = policy.priority || covertly_prioritized;

  double loss_pm = route.loss_pm;
  double delay_ms = config_.propagation_ms + route.offset_ms;
  if (config_.bandwidth_bps > 0.0 && size_bytes > 0)
    delay_ms += 1000.0 * 8.0 * size_bytes / config_.bandwidth_bps;
  if (!priority) delay_ms += route_shift_ms_[route_idx];

  for (std::size_t i = 0; i < episode_states_.size(); ++i) {
    if (!episode_states_[i].on) continue;
    const EpisodeSpec& ep = config_.episodes[i];
    const bool affected = ep.affects.empty() || ep.affects.contains(protocol);
    if (!affected) continue;
    if (!priority) {
      delay_ms += ep.extra_delay_ms;
      loss_pm += ep.extra_loss_pm * policy.drop_multiplier;
    }
  }

  if (fault_.active_at(now)) {
    delay_ms += fault_.extra_delay_ms;
    loss_pm += fault_.extra_loss_pm;
  }

  TraverseOutcome out;
  if (rng_.chance(loss_pm / 1000.0)) return out;
  if (route.jitter_ms > 0.0) delay_ms += rng_.normal(0.0, route.jitter_ms);
  // Fault-plan copies only ever add delay on top of the primary, so
  // clamping here bounds every copy from below by the floor.
  const SimDuration delay = duration::from_ms(std::max(delay_ms, floor_ms()));
  out.copies.push_back(DeliveryCopy{delay, route_idx, false, false, {}});
  if (!fault_plan_.empty()) apply_fault_plan(out, now, size_bytes);
  return out;
}

void LinkModel::apply_fault_plan(TraverseOutcome& out, SimTime now,
                                 std::uint32_t size_bytes) {
  // A flap outranks everything: the direction is dead, nothing crosses.
  if (fault_plan_.flapped_at(now)) {
    ++integrity_.flap_dropped;
    fault_obs_.flap_dropped->add();
    out.copies.clear();
    return;
  }

  // Duplication first (per packet): extra copies then share the per-copy
  // damage draws below, so a duplicated frame can arrive clean while its
  // twin arrives corrupted — exactly the case dedup must survive.
  const DuplicateSpec& dup = fault_plan_.duplication();
  if (dup.probability_pm > 0.0 && dup.window.active_at(now) &&
      fault_rng_.chance(dup.probability_pm / 1000.0)) {
    const std::uint32_t extras =
        1 + static_cast<std::uint32_t>(fault_rng_.next_below(dup.max_copies));
    const DeliveryCopy original = out.copies.front();
    for (std::uint32_t i = 0; i < extras; ++i) {
      DeliveryCopy copy = original;
      copy.duplicate = true;
      copy.delay += duration::from_ms(
          fault_rng_.uniform(dup.extra_delay_min_ms, dup.extra_delay_max_ms));
      out.copies.push_back(copy);
      ++integrity_.duplicated;
      fault_obs_.duplicated->add();
    }
  }

  const ReorderSpec& reorder = fault_plan_.reordering();
  const CorruptSpec& corrupt = fault_plan_.corruption();
  const TruncateSpec& truncate = fault_plan_.truncation();
  for (DeliveryCopy& copy : out.copies) {
    if (reorder.probability_pm > 0.0 && reorder.window.active_at(now) &&
        fault_rng_.chance(reorder.probability_pm / 1000.0)) {
      copy.delay += duration::from_ms(
          fault_rng_.uniform(0.0, reorder.max_extra_delay_ms));
      copy.reordered = true;
      ++integrity_.reordered;
      fault_obs_.reordered->add();
    }
    if (corrupt.probability_pm > 0.0 && corrupt.window.active_at(now) &&
        fault_rng_.chance(corrupt.probability_pm / 1000.0)) {
      copy.damage.kind = WireDamage::Kind::kCorrupt;
      copy.damage.bit_flips =
          1 +
          static_cast<std::uint32_t>(fault_rng_.next_below(
              corrupt.max_bit_flips));
      copy.damage.seed = fault_rng_.next_u64();
      ++integrity_.corrupted;
      fault_obs_.corrupted->add();
    }
    // One damage kind per copy: truncation only hits still-intact copies
    // (WireDamage carries a single kind; a chopped frame is damaged enough).
    if (copy.damage.kind == WireDamage::Kind::kNone &&
        truncate.probability_pm > 0.0 && truncate.window.active_at(now) &&
        size_bytes >= 2 &&
        fault_rng_.chance(truncate.probability_pm / 1000.0)) {
      copy.damage.kind = WireDamage::Kind::kTruncate;
      copy.damage.truncate_to = static_cast<std::uint32_t>(
          1 + fault_rng_.next_below(size_bytes - 1));
      ++integrity_.truncated;
      fault_obs_.truncated->add();
    }
  }
}

double LinkModel::floor_ms() const {
  return std::max(config_.propagation_ms * 0.5, 1e-3);
}

double LinkModel::expected_delay_ms(net::Protocol protocol,
                                    SimTime now) const {
  const ProtocolPolicy& policy = policy_for(protocol);
  double mean_offset = 0.0;
  for (std::size_t r : policy.routes) {
    mean_offset += config_.routes[r].offset_ms;
    if (!policy.priority) mean_offset += route_shift_ms_[r];
  }
  mean_offset /= static_cast<double>(policy.routes.size());
  double delay_ms = config_.propagation_ms + mean_offset;
  for (std::size_t i = 0; i < episode_states_.size(); ++i) {
    if (!episode_states_[i].on) continue;
    const EpisodeSpec& ep = config_.episodes[i];
    const bool affected = ep.affects.empty() || ep.affects.contains(protocol);
    if (affected && !policy.priority) delay_ms += ep.extra_delay_ms;
  }
  if (fault_.active_at(now)) delay_ms += fault_.extra_delay_ms;
  return delay_ms;
}

}  // namespace debuglet::simnet
