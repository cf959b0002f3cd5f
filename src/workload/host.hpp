// host.hpp — end-host node (the paper's ES and ED).
//
// Client side: start_session() runs the full §1 sequence — DNS lookup via
// the local resolver, TCP three-way handshake to the answered EID, then a
// configurable data exchange.  SYN loss (e.g. dropped at an ITR during
// mapping resolution) is recovered by RFC 2988 retransmission: 3 s initial
// RTO, doubling per retry — which is precisely why claim (i) matters.
//
// Server side: every host listens; SYNs are answered with SYN-ACKs, the
// handshake-completing ACK is reported to the metrics sink (giving the
// paper's T_setup measured at the destination), and each received data
// packet is answered with a response packet (driving the reverse direction
// used by the TE and two-way-mapping experiments).
//
// Session correlation across hosts is carried *in the TCP segments
// themselves*: the client puts the session id in the SYN's sequence number,
// so the server can attribute handshake completion without out-of-band
// state.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "dns/message.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "workload/session.hpp"

namespace lispcp::workload {

struct HostConfig {
  net::Ipv4Address resolver;  ///< local caching resolver (DNSS)
  sim::SimDuration dns_timeout = sim::SimDuration::seconds(8);
  /// RFC 2988 (2008-era) initial retransmission timeout for SYNs.
  sim::SimDuration syn_rto = sim::SimDuration::seconds(3);
  int max_syn_retries = 4;
  /// Data exchange after the handshake.
  int data_packets = 4;
  std::size_t data_packet_bytes = 1000;
  std::size_t response_packet_bytes = 1000;
};

/// Plain (non-atomic) counters — single-writer by construction.  Each Host
/// belongs to exactly one sim::Simulator, and scenario::Runner parallelism
/// is *between* sweep points: every point builds its own Internet (its own
/// hosts) and runs its event loop on one thread, so these counters are only
/// ever mutated from that thread.  Probe callbacks fire inside the same
/// event loop.  Audited with the parallel Runner; do not share a Host across
/// simulators.
struct HostStats {
  std::uint64_t syns_received = 0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t data_packets_received = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t responses_received = 0;
};

// `final`: deliver() is the per-packet hot path — every DNS answer, TCP
// segment and response lands here, and the generator/session bookkeeping
// calls back into the concrete class.  Sealing it lets those calls
// devirtualize behind the workload::Traffic seam.
class Host final : public sim::Node {
 public:
  Host(sim::Network& network, std::string name, net::Ipv4Address eid,
       HostConfig config, WorkloadMetrics* metrics);

  /// Starts a session toward `target`; returns the session id.
  std::uint64_t start_session(const dns::DomainName& target);

  void deliver(net::Packet packet) override;

  [[nodiscard]] const HostStats& stats() const noexcept { return host_stats_; }

 private:
  enum class State { kResolving, kConnecting, kEstablished };

  struct Session {
    std::uint64_t id = 0;
    State state = State::kResolving;
    sim::SimTime started;
    dns::DomainName target;
    net::Ipv4Address peer;
    std::uint16_t local_port = 0;
    std::uint16_t dns_id = 0;
    int syn_retries = 0;
    int responses_outstanding = 0;
    sim::EventHandle timer;
  };

  void handle_dns_response(const net::Packet& packet, const dns::DnsMessage& message);
  void handle_tcp(const net::Packet& packet, const net::TcpHeader& tcp);
  void send_syn(Session& session);
  void on_syn_timeout(std::uint16_t port);
  void on_established(Session& session);
  void send_data_burst(Session& session);

  /// Passive (server) side connection bookkeeping.
  struct PassiveConn {
    std::uint64_t session_id = 0;
    bool established = false;
  };

  HostConfig config_;
  WorkloadMetrics* metrics_;
  HostStats host_stats_;
  std::unordered_map<std::uint16_t, Session> by_port_;     // dns-resolved sessions
  std::unordered_map<std::uint16_t, std::uint64_t> resolving_;  // dns id -> port
  std::unordered_map<std::uint64_t, PassiveConn> passive_;  // key: peer<<16|port
  std::uint16_t next_port_ = 1024;
  std::uint16_t next_dns_id_ = 1;

  std::uint64_t next_session_id() noexcept;
};

}  // namespace lispcp::workload
