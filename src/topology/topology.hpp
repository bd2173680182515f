// Path-aware inter-domain topology.
//
// Debuglet requires path awareness (paper §III-A): endpoints know, and can
// select, the ingress and egress interface of every AS on a path — the
// granularity SCION and segment routing provide. This module models the AS
// graph, inter-domain links keyed by ⟨AS, interface⟩ pairs, and path
// discovery returning full interface-level paths.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/address.hpp"
#include "util/result.hpp"

namespace debuglet::topology {

using AsNumber = std::uint32_t;
using InterfaceId = std::uint16_t;

/// The ⟨AS, interface⟩ pair that identifies either end of an inter-domain
/// link — the unit the marketplace indexes executors by (paper §IV-C).
struct InterfaceKey {
  AsNumber asn = 0;
  InterfaceId interface = 0;

  auto operator<=>(const InterfaceKey&) const = default;
  std::string to_string() const;
};

/// One AS on a path with the interfaces the packet enters and leaves by.
/// ingress == 0 on the first AS; egress == 0 on the last.
struct PathHop {
  AsNumber asn = 0;
  InterfaceId ingress = 0;
  InterfaceId egress = 0;

  bool operator==(const PathHop&) const = default;
};

/// An interface-granular AS-level path.
struct AsPath {
  std::vector<PathHop> hops;

  bool empty() const { return hops.empty(); }
  std::size_t length() const { return hops.size(); }

  /// The inter-domain link crossed after hop i: ⟨egress of hop i,
  /// ingress of hop i+1⟩. Precondition: i + 1 < length().
  std::pair<InterfaceKey, InterfaceKey> link_after(std::size_t i) const;

  /// The sub-path spanning hops [first, last] inclusive, with the outer
  /// ingress/egress zeroed so the sub-path is itself a well-formed path.
  AsPath subpath(std::size_t first, std::size_t last) const;

  std::string to_string() const;
  bool operator==(const AsPath&) const = default;
};

/// An inter-domain link between two interface keys.
struct InterDomainLink {
  InterfaceKey a;
  InterfaceKey b;
  bool operator==(const InterDomainLink&) const = default;
};

/// Host addresses inside an AS end in this octet or above (10.x.y.200,
/// .201, ...); border-interface addresses end in their interface ID,
/// which must stay below it.
inline constexpr InterfaceId kFirstHostOctet = 200;

/// The AS graph. ASes and links are added up front; the structure is then
/// queried for neighbors, paths, and executor addressing.
class Topology {
 public:
  /// Registers an AS. Fails if the number is already present, is 0 (the
  /// simulator's control domain) or exceeds the 16 bits an address holds.
  Status add_as(AsNumber asn, std::string name);

  /// Connects two ASes through explicit interface IDs in
  /// [1, kFirstHostOctet). Both ASes must exist; an interface may carry
  /// only one link.
  Status add_link(InterfaceKey a, InterfaceKey b);

  bool has_as(AsNumber asn) const;
  Result<std::string> as_name(AsNumber asn) const;
  std::vector<AsNumber> as_numbers() const;

  /// All interfaces registered for an AS (sorted).
  std::vector<InterfaceId> interfaces_of(AsNumber asn) const;

  /// The interface key on the far side of a link.
  Result<InterfaceKey> remote_of(InterfaceKey local) const;

  /// All inter-domain links (each reported once, a < b by key order).
  std::vector<InterDomainLink> links() const;

  /// Deterministic address of the border router / executor at a key:
  /// 10.<asn_hi>.<asn_lo>.<interface>.
  net::Ipv4Address address_of(InterfaceKey key) const;

  /// Reverse lookup of address_of. Fails for unknown addresses.
  Result<InterfaceKey> key_of(net::Ipv4Address address) const;

  /// Shortest path (fewest ASes) from src to dst, interface-granular.
  /// Ties break deterministically by AS number. Fails if disconnected.
  Result<AsPath> shortest_path(AsNumber src, AsNumber dst) const;

  /// Up to `limit` distinct simple paths, shortest first (by hop count,
  /// then lexicographic AS order).
  std::vector<AsPath> find_paths(AsNumber src, AsNumber dst,
                                 std::size_t limit,
                                 std::size_t max_hops = 16) const;

 private:
  struct AsEntry {
    std::string name;
    std::map<InterfaceId, InterfaceKey> links;  // local intf -> remote key
  };
  std::map<AsNumber, AsEntry> ases_;
  std::map<net::Ipv4Address, InterfaceKey> by_address_;
};

/// Reverses a path: hop order flipped and ingress/egress swapped.
AsPath reverse_path(const AsPath& path);

}  // namespace debuglet::topology
