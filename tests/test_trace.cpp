#include <gtest/gtest.h>

#include <sstream>

#include "sim/trace.hpp"

namespace lispcp::sim {
namespace {

class Endpoint : public Node {
 public:
  Endpoint(Network& network, std::string name, net::Ipv4Address address)
      : Node(network, std::move(name)) {
    add_address(address);
  }
  void deliver(net::Packet) override {}
};

struct Fixture {
  Fixture() : net(sim) {
    a = &net.make<Endpoint>("alpha", net::Ipv4Address(1, 0, 0, 1));
    r = &net.make<Node>("relay");
    b = &net.make<Endpoint>("beta", net::Ipv4Address(1, 0, 0, 2));
    net.connect(a->id(), r->id());
    net.connect(r->id(), b->id());
    net.add_host_route(a->id(), b->address(), r->id());
    net.add_host_route(r->id(), b->address(), b->id());
    net.set_tracer(&tracer);
  }
  net::Packet packet() {
    return net::Packet::udp(a->address(), b->address(), 1, 2,
                            std::make_shared<net::RawPayload>(10));
  }
  Simulator sim;
  Network net;
  RecordingTracer tracer;
  Endpoint* a = nullptr;
  Node* r = nullptr;
  Endpoint* b = nullptr;
};

TEST(RecordingTracer, RecordsLifecycleInOrder) {
  Fixture f;
  f.a->send(f.packet());
  f.sim.run();
  const auto& records = f.tracer.records();
  // send@alpha, forward@alpha, forward@relay, deliver@beta.
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].kind, TraceRecord::Kind::kSend);
  EXPECT_EQ(records[0].node, "alpha");
  EXPECT_EQ(records[1].kind, TraceRecord::Kind::kForward);
  EXPECT_EQ(records[2].kind, TraceRecord::Kind::kForward);
  EXPECT_EQ(records[2].node, "relay");
  EXPECT_EQ(records[3].kind, TraceRecord::Kind::kDeliver);
  EXPECT_EQ(records[3].node, "beta");
  EXPECT_LE(records[0].time, records[3].time);
}

TEST(RecordingTracer, PacketJourneyFollowsOnePacket) {
  Fixture f;
  f.a->send(f.packet());
  f.a->send(f.packet());
  f.sim.run();
  // Ids are assigned as packets enter the network, in injection order.
  const auto id1 = f.tracer.records().front().packet_id;
  EXPECT_EQ(id1, 1u);
  const auto journey = f.tracer.packet_journey(id1);
  ASSERT_EQ(journey.size(), 4u);
  for (const auto& rec : journey) EXPECT_EQ(rec.packet_id, id1);
  EXPECT_EQ(f.tracer.packet_journey(2).size(), 4u);
}

TEST(RecordingTracer, ReinjectedPacketKeepsItsId) {
  Fixture f;
  auto numbered = f.packet();
  numbered.set_id(7);  // as if it had entered once already
  f.a->send(std::move(numbered));
  f.a->send(f.packet());
  f.sim.run();
  EXPECT_EQ(f.tracer.packet_journey(7).size(), 4u);
  EXPECT_EQ(f.tracer.packet_journey(1).size(), 4u);
}

TEST(RecordingTracer, FilterSelectsEvents) {
  Fixture f;
  f.tracer.set_filter([](const TraceRecord& rec) {
    return rec.kind == TraceRecord::Kind::kDeliver;
  });
  f.a->send(f.packet());
  f.sim.run();
  ASSERT_EQ(f.tracer.records().size(), 1u);
  EXPECT_EQ(f.tracer.records()[0].node, "beta");
}

TEST(RecordingTracer, CapacityBoundsMemory) {
  Fixture f;
  RecordingTracer small(3);
  f.net.set_tracer(&small);
  for (int i = 0; i < 5; ++i) f.a->send(f.packet());
  f.sim.run();
  EXPECT_EQ(small.records().size(), 3u);
  EXPECT_EQ(small.recorded_total(), 20u);  // 5 packets x 4 events
  EXPECT_EQ(small.overflowed(), 17u);
}

TEST(RecordingTracer, DropRecordsCarryReason) {
  Fixture f;
  auto p = net::Packet::udp(f.a->address(), net::Ipv4Address(9, 9, 9, 9), 1, 2,
                            std::make_shared<net::RawPayload>(1));
  f.a->send(std::move(p));  // no route anywhere
  f.sim.run();
  bool saw_drop = false;
  for (const auto& rec : f.tracer.records()) {
    if (rec.kind == TraceRecord::Kind::kDrop) {
      saw_drop = true;
      EXPECT_EQ(rec.drop_reason, DropReason::kNoRoute);
      EXPECT_NE(rec.to_string().find("no-route"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_drop);
}

TEST(RecordingTracer, TextOutputOneLinePerRecord) {
  Fixture f;
  f.a->send(f.packet());
  f.sim.run();
  std::ostringstream os;
  f.tracer.write_text(os);
  const auto text = os.str();
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            f.tracer.records().size());
  EXPECT_NE(text.find("SEND @alpha"), std::string::npos);
  EXPECT_NE(text.find("DELIVER @beta"), std::string::npos);
}

TEST(RecordingTracer, TextIndependentOfEarlierSimulations) {
  const auto trace = [] {
    Fixture f;
    f.a->send(f.packet());
    f.sim.run();
    std::ostringstream os;
    f.tracer.write_text(os);
    return os.str();
  };
  const std::string first = trace();
  EXPECT_NE(first.find("#1 "), std::string::npos);
  EXPECT_EQ(trace(), first);
}

TEST(RecordingTracer, ClearResets) {
  Fixture f;
  f.a->send(f.packet());
  f.sim.run();
  f.tracer.clear();
  EXPECT_TRUE(f.tracer.records().empty());
  EXPECT_EQ(f.tracer.recorded_total(), 0u);
}

TEST(TraceStrings, KindAndReasonNames) {
  EXPECT_STREQ(to_string(TraceRecord::Kind::kConsume), "CONSUME");
  EXPECT_STREQ(to_string(DropReason::kMappingMiss), "mapping-miss");
  EXPECT_STREQ(to_string(DropReason::kQueueFull), "queue-full");
}

}  // namespace
}  // namespace lispcp::sim
