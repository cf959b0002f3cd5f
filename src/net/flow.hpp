// flow.hpp — shared flow/nonce helpers for control-plane state tables.
//
// Every component that correlates per-flow state (the ITR's flow-tuple and
// pending-resolution tables, the PCE's active-flow map) packs an ordered
// address pair into one 64-bit key, and every component that emits control
// messages draws nonces from a monotone sequence.  Defined once here so the
// key layouts can never drift apart.
#pragma once

#include <cstdint>

#include "net/ipv4.hpp"

namespace lispcp::net {

/// Packs the ordered pair (a, b) into one table key.  Directional:
/// pair_key(a, b) != pair_key(b, a).
[[nodiscard]] constexpr std::uint64_t pair_key(Ipv4Address a,
                                               Ipv4Address b) noexcept {
  return (std::uint64_t{a.value()} << 32) | b.value();
}

/// Closed-form per-flow wire accounting for the flow-aggregate workload
/// engine: packet and byte counts of one paper-§1 session (SYN + handshake
/// ACK + data burst forward; SYN-ACK + per-data responses reverse) without
/// constructing any net::Packet.  Header sizes mirror headers.hpp
/// (Ipv4Header/TcpHeader 20, UdpHeader/LispHeader 8); `encap_overhead()`
/// is the LISP outer stack a TunnelRouter pushes per data packet.
struct FlowWireModel {
  int data_packets = 4;
  std::size_t data_packet_bytes = 1000;
  std::size_t response_packet_bytes = 1000;
  bool lisp_encapsulated = true;

  [[nodiscard]] static constexpr std::size_t tcp_header_bytes() noexcept {
    return 20 + 20;  // Ipv4Header::kWireSize + TcpHeader::kWireSize
  }
  [[nodiscard]] constexpr std::size_t encap_overhead() const noexcept {
    // Outer Ipv4 (20) + UDP (8) + LISP shim (8).
    return lisp_encapsulated ? 20 + 8 + 8 : 0;
  }
  /// Client-originated packets per successful session (SYN, handshake ACK,
  /// data burst) — everything the source ITR sees outbound.
  [[nodiscard]] constexpr std::uint64_t forward_packets() const noexcept {
    return 2 + static_cast<std::uint64_t>(data_packets);
  }
  /// Server-originated packets (SYN-ACK plus one response per data packet).
  [[nodiscard]] constexpr std::uint64_t reverse_packets() const noexcept {
    return 1 + static_cast<std::uint64_t>(data_packets);
  }
  [[nodiscard]] constexpr std::uint64_t forward_bytes() const noexcept {
    return forward_packets() * (tcp_header_bytes() + encap_overhead()) +
           static_cast<std::uint64_t>(data_packets) * data_packet_bytes;
  }
  [[nodiscard]] constexpr std::uint64_t reverse_bytes() const noexcept {
    return reverse_packets() * (tcp_header_bytes() + encap_overhead()) +
           static_cast<std::uint64_t>(data_packets) * response_packet_bytes;
  }
};

/// Monotone nonce source for control messages (Map-Requests, probes,
/// registrations).  Starts at 1; 0 stays free as the "no nonce" sentinel.
class NonceSequence {
 public:
  [[nodiscard]] std::uint64_t next() noexcept { return next_++; }

 private:
  std::uint64_t next_ = 1;
};

}  // namespace lispcp::net
