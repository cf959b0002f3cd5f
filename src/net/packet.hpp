// packet.hpp — the simulation packet: a typed header stack plus a payload.
//
// The simulator forwards packets as structured objects rather than raw byte
// buffers: a stack of typed headers (outermost first) and an immutable,
// shared application payload.  This keeps hot paths allocation-light (LISP
// encapsulation pushes three small headers; decapsulation pops them) while
// staying wire-faithful: `serialize()` emits the exact byte sequence a real
// stack would, and the header formats round-trip through bytes in tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/headers.hpp"

namespace lispcp::net {

/// Base class for application messages carried inside packets (DNS messages,
/// LISP Map-Requests, PCE control messages, ...).  Payloads are immutable
/// after construction and shared between packet copies.
class Payload {
 public:
  virtual ~Payload() = default;

  /// Size this payload would occupy on the wire, in bytes.  Links use it for
  /// serialization delay; IPv4/UDP length fields derive from it.
  [[nodiscard]] virtual std::size_t wire_size() const noexcept = 0;

  /// Writes the payload's wire format.
  virtual void serialize(ByteWriter& w) const = 0;

  /// One-line human-readable description for traces.
  [[nodiscard]] virtual std::string describe() const = 0;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// An opaque payload of a given size — models application data (e.g. the
/// bytes of a TCP segment) whose content the simulation does not inspect.
class RawPayload final : public Payload {
 public:
  explicit RawPayload(std::size_t size) : size_(size) {}

  [[nodiscard]] std::size_t wire_size() const noexcept override { return size_; }
  void serialize(ByteWriter& w) const override {
    for (std::size_t i = 0; i < size_; ++i) w.u8(0);
  }
  [[nodiscard]] std::string describe() const override {
    return "raw[" + std::to_string(size_) + "B]";
  }

 private:
  std::size_t size_;
};

/// One protocol header.  Outermost-first ordering in Packet::stack().
using Header = std::variant<Ipv4Header, UdpHeader, TcpHeader, LispHeader>;

/// A network packet travelling through the simulator.
///
/// Invariant: the header stack is outermost-first and, when non-empty,
/// starts with an Ipv4Header (everything in this system is IP).  Length
/// fields inside headers are backfilled by serialize(); in-memory headers
/// need not keep them current.
class Packet {
 public:
  Packet() = default;

  /// Convenience factory: IPv4 + UDP around `payload`.
  static Packet udp(Ipv4Address src, Ipv4Address dst, std::uint16_t src_port,
                    std::uint16_t dst_port, PayloadPtr payload, std::uint8_t ttl = 64);

  /// Convenience factory: IPv4 + TCP segment carrying `payload_bytes` of data.
  static Packet tcp(Ipv4Address src, Ipv4Address dst, const TcpHeader& tcp_header,
                    std::size_t payload_bytes = 0, std::uint8_t ttl = 64);

  /// Pushes a header at the *outside* of the stack (encapsulation).
  void push_outer(Header h) { stack_.insert(stack_.begin(), std::move(h)); }

  /// Removes and returns the outermost header (decapsulation).
  /// Throws std::logic_error if the stack is empty.
  Header pop_outer();

  [[nodiscard]] const std::vector<Header>& stack() const noexcept { return stack_; }
  [[nodiscard]] std::vector<Header>& stack() noexcept { return stack_; }
  [[nodiscard]] bool empty() const noexcept { return stack_.empty(); }

  /// Outermost IPv4 header; throws std::logic_error if absent — forwarding a
  /// packet without an IP header is a programming error.
  [[nodiscard]] const Ipv4Header& outer_ip() const;
  [[nodiscard]] Ipv4Header& outer_ip();

  /// The innermost IPv4 header (the original end-host packet inside any
  /// tunnel encapsulation); equals outer_ip() for plain packets.
  [[nodiscard]] const Ipv4Header& inner_ip() const;

  /// First UDP header at or below the outermost IP layer, if any.
  [[nodiscard]] const UdpHeader* udp() const noexcept;
  /// First TCP header, if any.
  [[nodiscard]] const TcpHeader* tcp() const noexcept;
  /// LISP shim header, if the packet is LISP-encapsulated.
  [[nodiscard]] const LispHeader* lisp() const noexcept;

  [[nodiscard]] const PayloadPtr& payload() const noexcept { return payload_; }

  /// Typed payload accessor; nullptr when the payload is absent or of a
  /// different type.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const T> payload_as() const noexcept {
    return std::dynamic_pointer_cast<const T>(payload_);
  }

  /// Total on-wire size: all headers plus payload.
  [[nodiscard]] std::size_t wire_size() const noexcept;

  /// Serializes the full packet with length fields backfilled, producing the
  /// byte sequence a real stack would transmit.
  [[nodiscard]] std::vector<std::byte> serialize() const;

  /// Trace id: 0 until the packet first enters a sim::Network, which then
  /// numbers it 1, 2, ... in injection order.  Encapsulation, decapsulation
  /// and re-injection keep it.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  void set_id(std::uint64_t id) noexcept { id_ = id; }

  /// Human-readable summary of the header stack and payload.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<Header> stack_;
  PayloadPtr payload_;
  std::uint64_t id_ = 0;
};

}  // namespace lispcp::net
