#include "telemetry/path_evidence.hpp"

#include <algorithm>

namespace debuglet::telemetry {

Result<PathEvidence> PathEvidence::from_header(const IntHeader& header,
                                               const topology::AsPath& path,
                                               SimTime sent_at) {
  if (path.length() < 2)
    return fail("path evidence: path has no inter-domain links");
  const std::size_t links = path.length() - 1;
  if (header.truncated())
    return fail("path evidence: record stack truncated in flight (" +
                std::to_string(header.hop_count()) + "/" +
                std::to_string(header.max_hops()) + " hops)");
  if (header.hop_count() != links)
    return fail("path evidence: " + std::to_string(header.hop_count()) +
                " records for " + std::to_string(links) + " links");

  PathEvidence out;
  out.observations_.reserve(links);
  // Record k is appended by the ingress border router of path hop k+1; its
  // ingress timestamp closes link k's crossing and its egress timestamp
  // opens link k+1's.
  std::uint64_t previous_egress_ns = static_cast<std::uint64_t>(sent_at);
  for (std::size_t k = 0; k < links; ++k) {
    const HopRecord& rec = header.record(k);
    if (rec.asn != path.hops[k + 1].asn)
      return fail("path evidence: record " + std::to_string(k) + " names AS" +
                  std::to_string(rec.asn) + ", path expects AS" +
                  std::to_string(path.hops[k + 1].asn));
    if (rec.ingress_ns < previous_egress_ns || rec.egress_ns < rec.ingress_ns)
      return fail("path evidence: timestamps not monotonic at record " +
                  std::to_string(k));
    LinkObservation obs;
    obs.link = k;
    obs.one_way_ms =
        duration::to_ms(static_cast<SimTime>(rec.ingress_ns) -
                        static_cast<SimTime>(previous_egress_ns));
    obs.residence_ms = duration::to_ms(static_cast<SimTime>(rec.egress_ns) -
                                       static_cast<SimTime>(rec.ingress_ns));
    obs.queue_depth = rec.queue_depth;
    obs.wire_faults = rec.wire_faults;
    obs.record = rec;
    out.observations_.push_back(obs);
    previous_egress_ns = rec.egress_ns;
  }
  return out;
}

std::vector<std::size_t> PathEvidence::links_over(double threshold_ms) const {
  std::vector<std::size_t> out;
  for (const LinkObservation& obs : observations_)
    if (obs.one_way_ms > threshold_ms) out.push_back(obs.link);
  return out;
}

}  // namespace debuglet::telemetry
