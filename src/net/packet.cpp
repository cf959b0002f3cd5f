#include "net/packet.hpp"

#include <stdexcept>

namespace lispcp::net {

namespace {

std::size_t header_wire_size(const Header& h) noexcept {
  return std::visit([](const auto& v) { return v.kWireSize; }, h);
}

}  // namespace

Packet Packet::udp(Ipv4Address src, Ipv4Address dst, std::uint16_t src_port,
                   std::uint16_t dst_port, PayloadPtr payload, std::uint8_t ttl) {
  Packet p;
  Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = IpProto::kUdp;
  ip.ttl = ttl;
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  p.stack_.push_back(ip);
  p.stack_.push_back(udp);
  p.payload_ = std::move(payload);
  return p;
}

Packet Packet::tcp(Ipv4Address src, Ipv4Address dst, const TcpHeader& tcp_header,
                   std::size_t payload_bytes, std::uint8_t ttl) {
  Packet p;
  Ipv4Header ip;
  ip.src = src;
  ip.dst = dst;
  ip.protocol = IpProto::kTcp;
  ip.ttl = ttl;
  p.stack_.push_back(ip);
  p.stack_.push_back(tcp_header);
  if (payload_bytes > 0) {
    p.payload_ = std::make_shared<RawPayload>(payload_bytes);
  }
  return p;
}

Header Packet::pop_outer() {
  if (stack_.empty()) throw std::logic_error("Packet::pop_outer on empty stack");
  Header h = std::move(stack_.front());
  stack_.erase(stack_.begin());
  return h;
}

const Ipv4Header& Packet::outer_ip() const {
  if (stack_.empty() || !std::holds_alternative<Ipv4Header>(stack_.front())) {
    throw std::logic_error("Packet::outer_ip: no outer IPv4 header");
  }
  return std::get<Ipv4Header>(stack_.front());
}

Ipv4Header& Packet::outer_ip() {
  if (stack_.empty() || !std::holds_alternative<Ipv4Header>(stack_.front())) {
    throw std::logic_error("Packet::outer_ip: no outer IPv4 header");
  }
  return std::get<Ipv4Header>(stack_.front());
}

const Ipv4Header& Packet::inner_ip() const {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (const auto* ip = std::get_if<Ipv4Header>(&*it)) return *ip;
  }
  throw std::logic_error("Packet::inner_ip: no IPv4 header");
}

const UdpHeader* Packet::udp() const noexcept {
  for (const auto& h : stack_) {
    if (const auto* u = std::get_if<UdpHeader>(&h)) return u;
  }
  return nullptr;
}

const TcpHeader* Packet::tcp() const noexcept {
  for (const auto& h : stack_) {
    if (const auto* t = std::get_if<TcpHeader>(&h)) return t;
  }
  return nullptr;
}

const LispHeader* Packet::lisp() const noexcept {
  for (const auto& h : stack_) {
    if (const auto* l = std::get_if<LispHeader>(&h)) return l;
  }
  return nullptr;
}

std::size_t Packet::wire_size() const noexcept {
  std::size_t size = payload_ ? payload_->wire_size() : 0;
  for (const auto& h : stack_) size += header_wire_size(h);
  return size;
}

std::vector<std::byte> Packet::serialize() const {
  // Walk the stack innermost-first computing the length each IP/UDP layer
  // must carry, then emit outermost-first with lengths backfilled.
  std::vector<Header> fixed = stack_;
  std::size_t below = payload_ ? payload_->wire_size() : 0;
  for (auto it = fixed.rbegin(); it != fixed.rend(); ++it) {
    std::visit(
        [&](auto& h) {
          using T = std::decay_t<decltype(h)>;
          below += T::kWireSize;
          if constexpr (std::is_same_v<T, Ipv4Header>) {
            h.total_length = static_cast<std::uint16_t>(below);
          } else if constexpr (std::is_same_v<T, UdpHeader>) {
            h.length = static_cast<std::uint16_t>(below);
          }
        },
        *it);
  }
  ByteWriter w(below);
  for (const auto& h : fixed) {
    std::visit([&](const auto& v) { v.serialize(w); }, h);
  }
  if (payload_) payload_->serialize(w);
  return w.take();
}

std::string Packet::describe() const {
  std::string out = "#" + std::to_string(id_);
  for (const auto& h : stack_) {
    out += " | ";
    out += std::visit([](const auto& v) { return v.to_string(); }, h);
  }
  if (payload_) out += " | " + payload_->describe();
  return out;
}

}  // namespace lispcp::net
