// Whole-path evidence distilled from one delivered INT probe.
//
// PathEvidence is the localizer-facing view of an IntHeader: it checks
// that the record stack actually covers the expected AS path (one record
// per inter-domain link, ASNs in path order, nothing truncated), then
// exposes per-link one-way latencies and per-AS residence times. A single
// intact probe therefore answers the question binary search needs O(log n)
// purchased measurement rounds for — which link is slow — in one round.
#pragma once

#include <vector>

#include "telemetry/int_header.hpp"
#include "topology/topology.hpp"
#include "util/time.hpp"

namespace debuglet::telemetry {

/// One inter-domain link's in-band measurement.
struct LinkObservation {
  std::size_t link = 0;          // index into AsPath::link_after
  double one_way_ms = 0.0;       // crossing latency of that link
  double residence_ms = 0.0;     // time spent inside the terminating AS
  std::uint32_t queue_depth = 0;
  std::uint32_t wire_faults = 0;
  HopRecord record;
};

/// Validated per-link evidence for one probe over one expected path.
class PathEvidence {
 public:
  /// Builds evidence from a parsed header. Fails when the stack was
  /// truncated, covers a different number of links than `path`, or names
  /// ASes out of path order — the caller then degrades to out-of-band
  /// localization instead of trusting partial in-band data.
  static Result<PathEvidence> from_header(const IntHeader& header,
                                          const topology::AsPath& path,
                                          SimTime sent_at);

  std::size_t links() const { return observations_.size(); }
  const LinkObservation& link(std::size_t i) const { return observations_[i]; }
  const std::vector<LinkObservation>& observations() const {
    return observations_;
  }

  /// Links whose one-way latency exceeds `threshold_ms` (the localizer's
  /// per-link budget), in path order.
  std::vector<std::size_t> links_over(double threshold_ms) const;

 private:
  std::vector<LinkObservation> observations_;
};

}  // namespace debuglet::telemetry
