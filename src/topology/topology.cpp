#include "topology/topology.hpp"

#include <algorithm>
#include <deque>
#include <set>

namespace debuglet::topology {

std::string InterfaceKey::to_string() const {
  return "AS" + std::to_string(asn) + "#" + std::to_string(interface);
}

std::pair<InterfaceKey, InterfaceKey> AsPath::link_after(std::size_t i) const {
  if (i + 1 >= hops.size())
    throw std::out_of_range("AsPath::link_after: no link after last hop");
  return {InterfaceKey{hops[i].asn, hops[i].egress},
          InterfaceKey{hops[i + 1].asn, hops[i + 1].ingress}};
}

AsPath AsPath::subpath(std::size_t first, std::size_t last) const {
  if (first > last || last >= hops.size())
    throw std::out_of_range("AsPath::subpath: bad range");
  AsPath out;
  out.hops.assign(hops.begin() + static_cast<std::ptrdiff_t>(first),
                  hops.begin() + static_cast<std::ptrdiff_t>(last + 1));
  out.hops.front().ingress = 0;
  out.hops.back().egress = 0;
  return out;
}

std::string AsPath::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i > 0) out += " -> ";
    out += "AS" + std::to_string(hops[i].asn);
    if (hops[i].ingress || hops[i].egress) {
      out += "(" + std::to_string(hops[i].ingress) + "," +
             std::to_string(hops[i].egress) + ")";
    }
  }
  return out;
}

Status Topology::add_as(AsNumber asn, std::string name) {
  // address_of keeps 16 bits of the AS number; AS 0 is the simulator's
  // control domain.
  if (asn == 0) return fail("AS numbers must be nonzero");
  if (asn > 0xFFFF)
    return fail("AS" + std::to_string(asn) + " does not fit 16 bits");
  if (ases_.contains(asn))
    return fail("AS" + std::to_string(asn) + " already exists");
  ases_[asn] = AsEntry{std::move(name), {}};
  return ok_status();
}

Status Topology::add_link(InterfaceKey a, InterfaceKey b) {
  auto ita = ases_.find(a.asn);
  auto itb = ases_.find(b.asn);
  if (ita == ases_.end()) return fail("unknown AS" + std::to_string(a.asn));
  if (itb == ases_.end()) return fail("unknown AS" + std::to_string(b.asn));
  if (a.asn == b.asn) return fail("self-link on AS" + std::to_string(a.asn));
  if (a.interface == 0 || b.interface == 0)
    return fail("interface IDs must be nonzero");
  // Border addresses end in the interface ID; .200 and up are hosts.
  if (a.interface >= kFirstHostOctet || b.interface >= kFirstHostOctet)
    return fail("interface IDs must be below " +
                std::to_string(kFirstHostOctet));
  if (ita->second.links.contains(a.interface))
    return fail(a.to_string() + " already linked");
  if (itb->second.links.contains(b.interface))
    return fail(b.to_string() + " already linked");
  ita->second.links[a.interface] = b;
  itb->second.links[b.interface] = a;
  by_address_[address_of(a)] = a;
  by_address_[address_of(b)] = b;
  return ok_status();
}

bool Topology::has_as(AsNumber asn) const { return ases_.contains(asn); }

Result<std::string> Topology::as_name(AsNumber asn) const {
  auto it = ases_.find(asn);
  if (it == ases_.end()) return fail("unknown AS" + std::to_string(asn));
  return it->second.name;
}

std::vector<AsNumber> Topology::as_numbers() const {
  std::vector<AsNumber> out;
  out.reserve(ases_.size());
  for (const auto& [asn, _] : ases_) out.push_back(asn);
  return out;
}

std::vector<InterfaceId> Topology::interfaces_of(AsNumber asn) const {
  std::vector<InterfaceId> out;
  auto it = ases_.find(asn);
  if (it == ases_.end()) return out;
  for (const auto& [intf, _] : it->second.links) out.push_back(intf);
  return out;
}

Result<InterfaceKey> Topology::remote_of(InterfaceKey local) const {
  auto it = ases_.find(local.asn);
  if (it == ases_.end()) return fail("unknown AS" + std::to_string(local.asn));
  auto lit = it->second.links.find(local.interface);
  if (lit == it->second.links.end())
    return fail("no link at " + local.to_string());
  return lit->second;
}

std::vector<InterDomainLink> Topology::links() const {
  std::vector<InterDomainLink> out;
  for (const auto& [asn, entry] : ases_) {
    for (const auto& [intf, remote] : entry.links) {
      const InterfaceKey local{asn, intf};
      if (local < remote) out.push_back(InterDomainLink{local, remote});
    }
  }
  return out;
}

net::Ipv4Address Topology::address_of(InterfaceKey key) const {
  return net::Ipv4Address(10, static_cast<std::uint8_t>(key.asn >> 8),
                          static_cast<std::uint8_t>(key.asn),
                          static_cast<std::uint8_t>(key.interface));
}

Result<InterfaceKey> Topology::key_of(net::Ipv4Address address) const {
  auto it = by_address_.find(address);
  if (it == by_address_.end())
    return fail("no interface at " + address.to_string());
  return it->second;
}

Result<AsPath> Topology::shortest_path(AsNumber src, AsNumber dst) const {
  auto paths = find_paths(src, dst, 1);
  if (paths.empty())
    return fail("no path from AS" + std::to_string(src) + " to AS" +
                std::to_string(dst));
  return paths.front();
}

std::vector<AsPath> Topology::find_paths(AsNumber src, AsNumber dst,
                                         std::size_t limit,
                                         std::size_t max_hops) const {
  std::vector<AsPath> out;
  if (!ases_.contains(src) || !ases_.contains(dst) || limit == 0) return out;
  if (src == dst) {
    out.push_back(AsPath{{PathHop{src, 0, 0}}});
    return out;
  }

  // Iterative-deepening DFS over simple paths: produces paths ordered by
  // hop count, then lexicographically (maps iterate in key order).
  struct Frame {
    AsNumber asn;
    InterfaceId ingress;
    std::map<InterfaceId, InterfaceKey>::const_iterator next;
  };
  for (std::size_t depth = 2; depth <= max_hops && out.size() < limit;
       ++depth) {
    std::vector<Frame> stack;
    std::set<AsNumber> visited{src};
    stack.push_back(Frame{src, 0, ases_.at(src).links.begin()});
    std::vector<PathHop> hops{PathHop{src, 0, 0}};
    while (!stack.empty()) {
      Frame& top = stack.back();
      const auto& links = ases_.at(top.asn).links;
      if (top.next == links.end() || stack.size() >= depth) {
        visited.erase(top.asn);
        stack.pop_back();
        hops.pop_back();
        continue;
      }
      const InterfaceId egress = top.next->first;
      const InterfaceKey remote = top.next->second;
      ++top.next;
      if (visited.contains(remote.asn)) continue;
      if (remote.asn == dst) {
        if (stack.size() + 1 != depth) continue;  // only exact depth this round
        std::vector<PathHop> full = hops;
        full.back().egress = egress;
        full.push_back(PathHop{remote.asn, remote.interface, 0});
        out.push_back(AsPath{std::move(full)});
        if (out.size() >= limit) return out;
        continue;
      }
      if (stack.size() + 1 >= depth) continue;
      std::vector<PathHop> updated = hops;
      updated.back().egress = egress;
      updated.push_back(PathHop{remote.asn, remote.interface, 0});
      hops = std::move(updated);
      visited.insert(remote.asn);
      stack.push_back(Frame{remote.asn, remote.interface,
                            ases_.at(remote.asn).links.begin()});
    }
  }
  return out;
}

AsPath reverse_path(const AsPath& path) {
  AsPath out;
  out.hops.reserve(path.hops.size());
  for (auto it = path.hops.rbegin(); it != path.hops.rend(); ++it)
    out.hops.push_back(PathHop{it->asn, it->egress, it->ingress});
  return out;
}

}  // namespace debuglet::topology
