// Ready-made simulation scenarios.
//
// build_city_scenario() reconstructs the paper's §II measurement world:
// London plus six remote sites, each pair joined by an inter-domain path
// whose forwarding mechanisms (route sets, per-protocol selection,
// congestion and elevation episodes, route-shift drift) are calibrated so
// the four probe protocols reproduce Table I's RTT/loss profile and the
// qualitative structure of Figures 1–3.
//
// build_chain_scenario() builds an N-AS linear topology with uniform mild
// links — the substrate for fault-localization experiments (§IV-B, §VI-D).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "simnet/network.hpp"

namespace debuglet::simnet {

/// A self-contained simulation world (queue + network + AS bookkeeping).
struct Scenario {
  std::unique_ptr<EventQueue> queue;
  std::unique_ptr<SimulatedNetwork> network;
  /// Scenario-defined AS ordering: cities (London first) or chain order.
  std::vector<topology::AsNumber> ases;
};

/// Remote city names, in Table I's row order.
const std::vector<std::string>& city_names();

/// AS number hosting London (the probe destination in §II).
topology::AsNumber london_as();

/// AS number hosting a remote city (Table I row).
topology::AsNumber city_as(const std::string& city);

/// Table I's published values, for paper-vs-measured reporting.
struct PaperCityRow {
  double mean_ms = 0.0;
  double std_ms = 0.0;
  double loss_pm = 0.0;
};
PaperCityRow paper_table1(const std::string& city, net::Protocol protocol);

/// Builds the calibrated 7-city world.
Scenario build_city_scenario(std::uint64_t seed);

/// Builds a linear chain AS1 - AS2 - ... - ASn with uniform links
/// (propagation `hop_ms` per inter-domain hop, light jitter, no loss).
Scenario build_chain_scenario(std::size_t as_count, std::uint64_t seed,
                              double hop_ms = 5.0);

/// The interface key of hop `i` (0-based) facing hop `i+1` in a chain
/// scenario, and the reverse-facing key of hop `i+1`.
topology::InterfaceKey chain_egress(std::size_t i);
topology::InterfaceKey chain_ingress(std::size_t i_plus_1);

/// Builds an AS1..ASn ring (the chain closed back on itself) with uniform
/// mild links — the scale substrate for the simulator throughput bench
/// and the determinism tests. Every AS is its own domain, so traffic
/// spread around the ring exercises as many domains as it crosses.
Scenario build_internet_scenario(std::size_t as_count, std::uint64_t seed,
                                 double hop_ms = 5.0);

}  // namespace debuglet::simnet
