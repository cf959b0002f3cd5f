#include <gtest/gtest.h>

#include <unordered_set>

#include "net/ipv4.hpp"

namespace lispcp::net {
namespace {

TEST(Ipv4Address, DefaultIsUnspecified) {
  Ipv4Address a;
  EXPECT_TRUE(a.is_unspecified());
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(a.to_string(), "0.0.0.0");
}

TEST(Ipv4Address, OctetConstruction) {
  Ipv4Address a(10, 1, 2, 3);
  EXPECT_EQ(a.value(), 0x0A010203u);
  EXPECT_EQ(a.octet(0), 10);
  EXPECT_EQ(a.octet(1), 1);
  EXPECT_EQ(a.octet(2), 2);
  EXPECT_EQ(a.octet(3), 3);
}

TEST(Ipv4Address, OctetOutOfRangeThrows) {
  Ipv4Address a(1, 2, 3, 4);
  EXPECT_THROW((void)a.octet(4), std::out_of_range);
  EXPECT_THROW((void)a.octet(-1), std::out_of_range);
}

TEST(Ipv4Address, ParseValid) {
  auto a = Ipv4Address::parse("192.168.1.255");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, Ipv4Address(192, 168, 1, 255));
}

TEST(Ipv4Address, ParseBoundaries) {
  EXPECT_EQ(Ipv4Address::parse("0.0.0.0"), Ipv4Address(0, 0, 0, 0));
  EXPECT_EQ(Ipv4Address::parse("255.255.255.255"), Ipv4Address(255, 255, 255, 255));
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1..2.3").has_value());
  EXPECT_FALSE(Ipv4Address::parse(" 1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4 ").has_value());
  EXPECT_FALSE(Ipv4Address::parse("01.2.3.4").has_value());  // leading zero
  EXPECT_FALSE(Ipv4Address::parse("-1.2.3.4").has_value());
}

TEST(Ipv4Address, FromStringThrowsOnMalformed) {
  EXPECT_THROW(Ipv4Address::from_string("not-an-ip"), std::invalid_argument);
  EXPECT_NO_THROW(Ipv4Address::from_string("10.0.0.1"));
}

TEST(Ipv4Address, RoundTripFormatting) {
  for (const char* text : {"0.0.0.0", "10.0.0.1", "172.16.254.3", "255.255.255.255"}) {
    EXPECT_EQ(Ipv4Address::from_string(text).to_string(), text);
  }
}

TEST(Ipv4Address, Ordering) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2));
  EXPECT_LT(Ipv4Address(9, 255, 255, 255), Ipv4Address(10, 0, 0, 0));
}

TEST(Ipv4Address, Hashable) {
  std::unordered_set<Ipv4Address> set;
  set.insert(Ipv4Address(1, 2, 3, 4));
  set.insert(Ipv4Address(1, 2, 3, 4));
  set.insert(Ipv4Address(4, 3, 2, 1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ipv4Prefix, CanonicalisesHostBits) {
  Ipv4Prefix p(Ipv4Address(10, 1, 2, 3), 8);
  EXPECT_EQ(p.address(), Ipv4Address(10, 0, 0, 0));
  EXPECT_EQ(p, Ipv4Prefix(Ipv4Address(10, 200, 100, 50), 8));
}

TEST(Ipv4Prefix, MaskValues) {
  EXPECT_EQ(Ipv4Prefix(Ipv4Address(), 0).mask(), 0u);
  EXPECT_EQ(Ipv4Prefix(Ipv4Address(), 8).mask(), 0xFF000000u);
  EXPECT_EQ(Ipv4Prefix(Ipv4Address(), 24).mask(), 0xFFFFFF00u);
  EXPECT_EQ(Ipv4Prefix(Ipv4Address(), 32).mask(), 0xFFFFFFFFu);
}

TEST(Ipv4Prefix, InvalidLengthThrows) {
  EXPECT_THROW(Ipv4Prefix(Ipv4Address(), 33), std::invalid_argument);
  EXPECT_THROW(Ipv4Prefix(Ipv4Address(), -1), std::invalid_argument);
}

TEST(Ipv4Prefix, ContainsAddress) {
  Ipv4Prefix p = Ipv4Prefix::from_string("100.64.0.0/10");
  EXPECT_TRUE(p.contains(Ipv4Address(100, 64, 0, 1)));
  EXPECT_TRUE(p.contains(Ipv4Address(100, 127, 255, 255)));
  EXPECT_FALSE(p.contains(Ipv4Address(100, 128, 0, 0)));
  EXPECT_FALSE(p.contains(Ipv4Address(10, 64, 0, 1)));
}

TEST(Ipv4Prefix, ContainsPrefix) {
  Ipv4Prefix wide = Ipv4Prefix::from_string("10.0.0.0/8");
  Ipv4Prefix narrow = Ipv4Prefix::from_string("10.1.0.0/16");
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.contains(wide));
  EXPECT_FALSE(wide.contains(Ipv4Prefix::from_string("11.0.0.0/16")));
}

TEST(Ipv4Prefix, DefaultRouteContainsEverything) {
  Ipv4Prefix def;
  EXPECT_EQ(def.length(), 0);
  EXPECT_TRUE(def.contains(Ipv4Address(1, 2, 3, 4)));
  EXPECT_TRUE(def.contains(Ipv4Address(255, 255, 255, 255)));
  EXPECT_EQ(def.size(), std::uint64_t{1} << 32);
}

TEST(Ipv4Prefix, Nth) {
  Ipv4Prefix p = Ipv4Prefix::from_string("100.64.3.0/24");
  EXPECT_EQ(p.nth(0), Ipv4Address(100, 64, 3, 0));
  EXPECT_EQ(p.nth(10), Ipv4Address(100, 64, 3, 10));
  EXPECT_EQ(p.nth(255), Ipv4Address(100, 64, 3, 255));
  EXPECT_THROW((void)p.nth(256), std::out_of_range);
}

TEST(Ipv4Prefix, HostPrefix) {
  auto p = Ipv4Prefix::host(Ipv4Address(1, 2, 3, 4));
  EXPECT_EQ(p.length(), 32);
  EXPECT_EQ(p.size(), 1u);
  EXPECT_TRUE(p.contains(Ipv4Address(1, 2, 3, 4)));
  EXPECT_FALSE(p.contains(Ipv4Address(1, 2, 3, 5)));
}

TEST(Ipv4Prefix, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/33").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/-1").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0/8").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("10.0.0.0/8x").has_value());
}

TEST(Ipv4Prefix, RoundTripFormatting) {
  EXPECT_EQ(Ipv4Prefix::from_string("10.0.0.0/8").to_string(), "10.0.0.0/8");
  EXPECT_EQ(Ipv4Prefix::from_string("0.0.0.0/0").to_string(), "0.0.0.0/0");
}

TEST(Ipv4Prefix, HashDistinguishesLengths) {
  std::unordered_set<Ipv4Prefix> set;
  set.insert(Ipv4Prefix::from_string("10.0.0.0/8"));
  set.insert(Ipv4Prefix::from_string("10.0.0.0/16"));
  set.insert(Ipv4Prefix::from_string("10.0.0.0/8"));
  EXPECT_EQ(set.size(), 2u);
}

}  // namespace
}  // namespace lispcp::net
