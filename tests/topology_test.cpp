#include <gtest/gtest.h>

#include "topology/topology.hpp"

namespace debuglet::topology {
namespace {

Topology make_chain(std::size_t n) {
  Topology t;
  for (std::size_t i = 1; i <= n; ++i)
    EXPECT_TRUE(t.add_as(static_cast<AsNumber>(i),
                         "AS" + std::to_string(i)).ok());
  for (std::size_t i = 1; i < n; ++i)
    EXPECT_TRUE(t.add_link({static_cast<AsNumber>(i), 2},
                           {static_cast<AsNumber>(i + 1), 1}).ok());
  return t;
}

TEST(Topology, AddAsRejectsDuplicates) {
  Topology t;
  EXPECT_TRUE(t.add_as(1, "one").ok());
  EXPECT_FALSE(t.add_as(1, "one-again").ok());
  EXPECT_TRUE(t.has_as(1));
  EXPECT_FALSE(t.has_as(2));
  EXPECT_EQ(*t.as_name(1), "one");
  EXPECT_FALSE(t.as_name(2).ok());
}

TEST(Topology, AddAsRejectsNumbersAddressesCannotCarry) {
  // Addresses carry 16 bits of the AS number: AS 65537 would share AS 1's
  // addresses. AS 0 is the simulator's control domain.
  Topology t;
  const Status zero = t.add_as(0, "control");
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.error_message(), "AS numbers must be nonzero");
  const Status wide = t.add_as(65537, "wide");
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.error_message(), "AS65537 does not fit 16 bits");
  EXPECT_FALSE(t.has_as(0));
  EXPECT_FALSE(t.has_as(65537));
  EXPECT_TRUE(t.add_as(65535, "widest").ok());
  EXPECT_TRUE(t.add_as(1, "one").ok());
}

TEST(Topology, AddLinkRejectsInterfacesInTheHostRange) {
  // Border addresses end in the interface ID; .200 and up are hosts, so a
  // router there would collide with allocated host addresses.
  Topology t;
  ASSERT_TRUE(t.add_as(1, "a").ok());
  ASSERT_TRUE(t.add_as(2, "b").ok());
  for (const InterfaceId bad : {200, 255, 300}) {
    const Status s = t.add_link({1, bad}, {2, 1});
    ASSERT_FALSE(s.ok()) << bad;
    EXPECT_EQ(s.error_message(), "interface IDs must be below 200");
    EXPECT_FALSE(t.add_link({1, 1}, {2, bad}).ok()) << bad;
  }
  EXPECT_TRUE(t.interfaces_of(1).empty());
  EXPECT_TRUE(t.add_link({1, 199}, {2, 199}).ok());
  EXPECT_EQ(t.address_of({1, 199}).to_string(), "10.0.1.199");
}

TEST(Topology, AddLinkValidation) {
  Topology t;
  ASSERT_TRUE(t.add_as(1, "a").ok());
  ASSERT_TRUE(t.add_as(2, "b").ok());
  EXPECT_FALSE(t.add_link({1, 1}, {3, 1}).ok()) << "unknown AS";
  EXPECT_FALSE(t.add_link({1, 1}, {1, 2}).ok()) << "self link";
  EXPECT_FALSE(t.add_link({1, 0}, {2, 1}).ok()) << "interface 0 reserved";
  EXPECT_TRUE(t.add_link({1, 1}, {2, 1}).ok());
  EXPECT_FALSE(t.add_link({1, 1}, {2, 2}).ok()) << "interface reuse";
}

TEST(Topology, RemoteOf) {
  Topology t = make_chain(3);
  auto remote = t.remote_of({1, 2});
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(*remote, (InterfaceKey{2, 1}));
  EXPECT_FALSE(t.remote_of({1, 9}).ok());
  EXPECT_FALSE(t.remote_of({9, 1}).ok());
}

TEST(Topology, LinksReportedOnce) {
  Topology t = make_chain(4);
  const auto links = t.links();
  EXPECT_EQ(links.size(), 3u);
}

TEST(Topology, AddressMapping) {
  Topology t = make_chain(2);
  const InterfaceKey key{1, 2};
  const net::Ipv4Address addr = t.address_of(key);
  EXPECT_EQ(addr.to_string(), "10.0.1.2");
  auto back = t.key_of(addr);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, key);
  EXPECT_FALSE(t.key_of(net::Ipv4Address(10, 9, 9, 9)).ok());
}

TEST(Topology, ShortestPathOnChain) {
  Topology t = make_chain(5);
  auto path = t.shortest_path(1, 5);
  ASSERT_TRUE(path.ok()) << path.error_message();
  ASSERT_EQ(path->length(), 5u);
  EXPECT_EQ(path->hops.front().asn, 1u);
  EXPECT_EQ(path->hops.front().ingress, 0);
  EXPECT_EQ(path->hops.front().egress, 2);
  EXPECT_EQ(path->hops[2].ingress, 1);
  EXPECT_EQ(path->hops[2].egress, 2);
  EXPECT_EQ(path->hops.back().asn, 5u);
  EXPECT_EQ(path->hops.back().egress, 0);
}

TEST(Topology, ShortestPathSelf) {
  Topology t = make_chain(2);
  auto path = t.shortest_path(1, 1);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->length(), 1u);
}

TEST(Topology, DisconnectedFails) {
  Topology t;
  ASSERT_TRUE(t.add_as(1, "a").ok());
  ASSERT_TRUE(t.add_as(2, "b").ok());
  EXPECT_FALSE(t.shortest_path(1, 2).ok());
}

TEST(Topology, ShortestPathPrefersFewerHops) {
  // Diamond with a shortcut: 1-2-4 (3 hops) vs 1-3a-3b-4 style longer path.
  Topology t;
  for (AsNumber a : {1u, 2u, 3u, 4u, 5u}) {
    ASSERT_TRUE(t.add_as(a, "AS" + std::to_string(a)).ok());
  }
  ASSERT_TRUE(t.add_link({1, 1}, {2, 1}).ok());
  ASSERT_TRUE(t.add_link({2, 2}, {4, 1}).ok());
  ASSERT_TRUE(t.add_link({1, 2}, {3, 1}).ok());
  ASSERT_TRUE(t.add_link({3, 2}, {5, 1}).ok());
  ASSERT_TRUE(t.add_link({5, 2}, {4, 2}).ok());
  auto path = t.shortest_path(1, 4);
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->length(), 3u);
  EXPECT_EQ(path->hops[1].asn, 2u);
}

TEST(Topology, FindPathsEnumeratesAlternatives) {
  Topology t;
  for (AsNumber a : {1u, 2u, 3u, 4u}) {
    ASSERT_TRUE(t.add_as(a, "").ok());
  }
  // Two disjoint 3-hop paths 1-2-4 and 1-3-4.
  ASSERT_TRUE(t.add_link({1, 1}, {2, 1}).ok());
  ASSERT_TRUE(t.add_link({2, 2}, {4, 1}).ok());
  ASSERT_TRUE(t.add_link({1, 2}, {3, 1}).ok());
  ASSERT_TRUE(t.add_link({3, 2}, {4, 2}).ok());
  auto paths = t.find_paths(1, 4, 10);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].hops[1].asn, 2u) << "deterministic tie-break";
  EXPECT_EQ(paths[1].hops[1].asn, 3u);
}

TEST(Topology, FindPathsRespectsLimitAndMaxHops) {
  Topology t = make_chain(6);
  EXPECT_EQ(t.find_paths(1, 6, 10).size(), 1u);
  EXPECT_TRUE(t.find_paths(1, 6, 10, 3).empty()) << "path needs 6 hops";
  EXPECT_TRUE(t.find_paths(1, 6, 0).empty());
}

TEST(AsPath, LinkAfter) {
  Topology t = make_chain(3);
  auto path = *t.shortest_path(1, 3);
  const auto [from, to] = path.link_after(0);
  EXPECT_EQ(from, (InterfaceKey{1, 2}));
  EXPECT_EQ(to, (InterfaceKey{2, 1}));
  EXPECT_THROW(path.link_after(2), std::out_of_range);
}

TEST(AsPath, SubpathZeroesOuterInterfaces) {
  Topology t = make_chain(5);
  auto path = *t.shortest_path(1, 5);
  auto sub = path.subpath(1, 3);
  ASSERT_EQ(sub.length(), 3u);
  EXPECT_EQ(sub.hops.front().asn, 2u);
  EXPECT_EQ(sub.hops.front().ingress, 0);
  EXPECT_NE(sub.hops.front().egress, 0);
  EXPECT_EQ(sub.hops.back().egress, 0);
  EXPECT_THROW(path.subpath(3, 1), std::out_of_range);
  EXPECT_THROW(path.subpath(0, 9), std::out_of_range);
}

TEST(AsPath, ReversePath) {
  Topology t = make_chain(4);
  auto path = *t.shortest_path(1, 4);
  auto rev = reverse_path(path);
  ASSERT_EQ(rev.length(), 4u);
  EXPECT_EQ(rev.hops.front().asn, 4u);
  EXPECT_EQ(rev.hops.front().ingress, 0);
  EXPECT_EQ(rev.hops.back().asn, 1u);
  EXPECT_EQ(rev.hops.back().egress, 0);
  // Reversing twice is the identity.
  EXPECT_EQ(reverse_path(rev), path);
}

TEST(InterfaceKey, Formatting) {
  EXPECT_EQ((InterfaceKey{64500, 3}).to_string(), "AS64500#3");
}

}  // namespace
}  // namespace debuglet::topology
