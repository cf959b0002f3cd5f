#include <gtest/gtest.h>

#include "net/headers.hpp"
#include "net/packet.hpp"

namespace lispcp::net {
namespace {

TEST(Headers, Ipv4RoundTrip) {
  Ipv4Header h;
  h.src = Ipv4Address(10, 0, 0, 1);
  h.dst = Ipv4Address(10, 0, 0, 2);
  h.protocol = IpProto::kTcp;
  h.ttl = 17;
  h.total_length = 1234;
  h.identification = 0x4242;
  ByteWriter w;
  h.serialize(w);
  auto bytes = w.take();
  ASSERT_EQ(bytes.size(), Ipv4Header::kWireSize);
  ByteReader r(bytes);
  EXPECT_EQ(Ipv4Header::parse(r), h);
}

TEST(Headers, Ipv4BadChecksumRejected) {
  Ipv4Header h;
  h.src = Ipv4Address(1, 1, 1, 1);
  h.dst = Ipv4Address(2, 2, 2, 2);
  ByteWriter w;
  h.serialize(w);
  auto bytes = w.take();
  bytes[8] = std::byte{99};  // corrupt TTL without fixing checksum
  ByteReader r(bytes);
  EXPECT_THROW(Ipv4Header::parse(r), ParseError);
}

TEST(Headers, UdpRoundTrip) {
  UdpHeader h;
  h.src_port = 53;
  h.dst_port = 4341;
  h.length = 512;
  ByteWriter w;
  h.serialize(w);
  auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(UdpHeader::parse(r), h);
}

TEST(Headers, UdpLengthUnderEightRejected) {
  ByteWriter w;
  w.u16(1);
  w.u16(2);
  w.u16(4);  // length < 8
  w.u16(0);
  auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_THROW(UdpHeader::parse(r), ParseError);
}

TEST(Headers, TcpRoundTripAllFlagCombinations) {
  for (int mask = 0; mask < 16; ++mask) {
    TcpHeader h;
    h.src_port = 1024;
    h.dst_port = 80;
    h.seq = 0xA1B2C3D4;
    h.ack = 0x11223344;
    h.flags.syn = mask & 1;
    h.flags.ack = mask & 2;
    h.flags.fin = mask & 4;
    h.flags.rst = mask & 8;
    ByteWriter w;
    h.serialize(w);
    auto bytes = w.take();
    ByteReader r(bytes);
    EXPECT_EQ(TcpHeader::parse(r), h) << "flag mask " << mask;
  }
}

TEST(Headers, LispRoundTrip) {
  LispHeader h;
  h.nonce = 0xABCDEF;  // 24-bit
  h.locator_status_bits = 0x5;
  ByteWriter w;
  h.serialize(w);
  auto bytes = w.take();
  ASSERT_EQ(bytes.size(), LispHeader::kWireSize);
  ByteReader r(bytes);
  EXPECT_EQ(LispHeader::parse(r), h);
}

TEST(Packet, UdpFactoryLayout) {
  auto p = Packet::udp(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), 1000,
                       53, std::make_shared<RawPayload>(100));
  ASSERT_EQ(p.stack().size(), 2u);
  EXPECT_EQ(p.outer_ip().protocol, IpProto::kUdp);
  ASSERT_NE(p.udp(), nullptr);
  EXPECT_EQ(p.udp()->dst_port, 53);
  EXPECT_EQ(p.wire_size(), 20u + 8u + 100u);
}

TEST(Packet, TcpFactoryLayout) {
  TcpHeader tcp;
  tcp.flags.syn = true;
  auto p = Packet::tcp(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), tcp);
  EXPECT_EQ(p.outer_ip().protocol, IpProto::kTcp);
  ASSERT_NE(p.tcp(), nullptr);
  EXPECT_TRUE(p.tcp()->flags.syn);
  EXPECT_EQ(p.wire_size(), 40u);
  EXPECT_EQ(p.payload(), nullptr);
}

TEST(Packet, LispEncapsulationAndDecapsulation) {
  TcpHeader tcp;
  auto inner_src = Ipv4Address(100, 64, 0, 10);
  auto inner_dst = Ipv4Address(100, 64, 1, 10);
  auto p = Packet::tcp(inner_src, inner_dst, tcp, 500);
  const auto inner_size = p.wire_size();

  // Encapsulate: outer IP + UDP + LISP shim.
  LispHeader shim;
  shim.nonce = 42;
  UdpHeader udp;
  udp.dst_port = ports::kLispData;
  Ipv4Header outer;
  outer.src = Ipv4Address(10, 0, 0, 1);
  outer.dst = Ipv4Address(10, 0, 1, 1);
  p.push_outer(shim);
  p.push_outer(udp);
  p.push_outer(outer);

  EXPECT_EQ(p.wire_size(), inner_size + 20 + 8 + 8);
  EXPECT_EQ(p.outer_ip().dst, Ipv4Address(10, 0, 1, 1));
  EXPECT_EQ(p.inner_ip().dst, inner_dst);
  ASSERT_NE(p.lisp(), nullptr);
  EXPECT_EQ(p.lisp()->nonce, 42u);

  // Decapsulate.
  p.pop_outer();
  p.pop_outer();
  p.pop_outer();
  EXPECT_EQ(p.wire_size(), inner_size);
  EXPECT_EQ(p.outer_ip().src, inner_src);
  EXPECT_EQ(p.lisp(), nullptr);
}

TEST(Packet, PopEmptyThrows) {
  Packet p;
  EXPECT_THROW(p.pop_outer(), std::logic_error);
  EXPECT_THROW((void)p.outer_ip(), std::logic_error);
}

TEST(Packet, SerializeBackfillsLengths) {
  auto p = Packet::udp(Ipv4Address(1, 2, 3, 4), Ipv4Address(5, 6, 7, 8), 9, 10,
                       std::make_shared<RawPayload>(32));
  auto bytes = p.serialize();
  ASSERT_EQ(bytes.size(), 20u + 8u + 32u);
  ByteReader r(bytes);
  auto ip = Ipv4Header::parse(r);
  EXPECT_EQ(ip.total_length, 60);
  auto udp = UdpHeader::parse(r);
  EXPECT_EQ(udp.length, 40);
}

TEST(Packet, SerializedEncapsulatedPacketParses) {
  TcpHeader tcp;
  auto p = Packet::tcp(Ipv4Address(100, 64, 0, 10), Ipv4Address(100, 64, 1, 10),
                       tcp, 64);
  LispHeader shim;
  UdpHeader udp;
  udp.dst_port = ports::kLispData;
  Ipv4Header outer;
  outer.src = Ipv4Address(10, 0, 0, 1);
  outer.dst = Ipv4Address(10, 0, 1, 1);
  p.push_outer(shim);
  p.push_outer(udp);
  p.push_outer(outer);

  auto bytes = p.serialize();
  ByteReader r(bytes);
  auto parsed_outer = Ipv4Header::parse(r);
  EXPECT_EQ(parsed_outer.total_length, bytes.size());
  auto parsed_udp = UdpHeader::parse(r);
  EXPECT_EQ(parsed_udp.dst_port, ports::kLispData);
  (void)LispHeader::parse(r);
  auto parsed_inner = Ipv4Header::parse(r);
  EXPECT_EQ(parsed_inner.dst, Ipv4Address(100, 64, 1, 10));
}

TEST(Packet, PayloadTypedAccess) {
  auto p = Packet::udp(Ipv4Address(), Ipv4Address(), 1, 2,
                       std::make_shared<RawPayload>(10));
  EXPECT_NE(p.payload_as<RawPayload>(), nullptr);
  EXPECT_EQ(p.payload_as<RawPayload>()->wire_size(), 10u);
}

TEST(Packet, DescribeMentionsLayers) {
  TcpHeader tcp;
  auto p = Packet::tcp(Ipv4Address(1, 1, 1, 1), Ipv4Address(2, 2, 2, 2), tcp, 5);
  const auto text = p.describe();
  EXPECT_NE(text.find("IPv4"), std::string::npos);
  EXPECT_NE(text.find("TCP"), std::string::npos);
  EXPECT_NE(text.find("raw[5B]"), std::string::npos);
}

}  // namespace
}  // namespace lispcp::net
