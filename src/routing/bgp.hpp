// bgp.hpp — a path-vector inter-domain routing protocol (BGP-lite).
//
// Implements the parts of BGP that determine default-free-zone (DFZ)
// routing-table size and update churn — the quantities the paper's §1
// motivation is about:
//
//   * per-neighbor Adj-RIB-In and a Loc-RIB with the standard decision
//     process (highest local-pref — whose role defaults encode the
//     relationship preference customer > peer > provider — then shortest
//     AS path, then lowest neighbor ASN as the deterministic tie-break);
//   * Gao-Rexford export policy (customer routes go everywhere; peer and
//     provider routes go only to customers), which keeps paths valley-free
//     and guarantees convergence;
//   * an optional per-session policy layer (routing/policy.hpp): import/
//     export route-map chains and a per-session valley-free gate.  With
//     BgpConfig::policy null the speaker follows the exact legacy path —
//     records are byte-identical to pre-policy artifacts;
//   * AS-path loop detection on receipt;
//   * MRAI-style batching of outbound updates per session.
//
// Two shared structures keep the hot path allocation-free (DESIGN.md
// "Export update-groups and attribute interning"):
//
//   * path attributes are hash-consed: RouteAdvert, Adj-RIB-In, Loc-RIB,
//     and pending-delta entries hold refcounted AttrRefs into a per-fabric
//     AttrTable (routing/attr_table.hpp) instead of owning vectors, so
//     receiving, deciding, and re-advertising a route copies a pointer,
//     not a path;
//   * each speaker partitions its sessions into export update-groups —
//     equivalence classes under (NeighborKind, export-map identity,
//     valley-free flag) — and runs the export leg once per group, fanning
//     the shared interned advert out by reference.  Groups are rebuilt
//     only on policy edits (the RouteDelta kRefresh path).
//
// Sessions exchange messages through the sharded convergence engine
// (routing/shard_engine.hpp) with a per-session propagation delay, so
// "convergence time" is a simulated-time measurement, and
// run_to_convergence() returning means the protocol has converged (no
// event pending on any shard).  Results are byte-identical for every
// shard count; K=1 reproduces the former global-queue run.
//
// The abstraction level is the AS, not the packet: updates are structs, not
// serialized TCP segments.  RIB sizes and message counts — the outputs of
// experiment F2 — do not depend on the octet encoding.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/flat_map.hpp"
#include "net/ipv4.hpp"
#include "routing/as_graph.hpp"
#include "routing/attr_table.hpp"
#include "routing/policy.hpp"
#include "routing/shard_engine.hpp"

namespace lispcp::routing {

class BgpFabric;

/// One reachability announcement inside an update message.  The path
/// attributes are a shared interned ref: `as_path()` follows wire
/// convention — front() is the most recently prepended AS (the sender),
/// back() the origin — and `communities()` is sorted-unique, accumulating
/// along the propagation path (empty with policy off).  Build one by hand
/// via BgpFabric::make_advert (tests, micros).
struct RouteAdvert {
  net::Ipv4Prefix prefix;
  AttrRef attrs;

  [[nodiscard]] const std::vector<AsNumber>& as_path() const noexcept {
    return attrs.as_path();
  }
  [[nodiscard]] const std::vector<policy::Community>& communities()
      const noexcept {
    return attrs.communities();
  }
};

/// What one speaker sends a neighbor per MRAI flush.
struct UpdateMessage {
  std::vector<RouteAdvert> announces;
  std::vector<net::Ipv4Prefix> withdraws;
};

/// One element of a BgpFabric::apply batch — the unit of incremental
/// re-convergence, and the **only** way client code mutates routing state
/// after construction (the per-speaker originate/withdraw/refresh entry
/// points are private to the fabric; see BgpFabric::apply).
///
///   kAnnounce — `owner` originates `prefix` locally;
///   kWithdraw — `owner` retracts a local origination (no-op if absent);
///   kRefresh  — attribute/policy change: `owner` re-runs the export leg
///               for every installed route (the local half of an RFC 2918
///               route refresh), toward `session` only when set — the
///               usual scope of a post-convergence policy edit such as a
///               route-leak study dropping a session's valley-free gate.
struct RouteDelta {
  enum class Kind : std::uint8_t { kAnnounce, kWithdraw, kRefresh };
  Kind kind = Kind::kAnnounce;
  AsNumber owner;
  /// Subject prefix (kAnnounce/kWithdraw); ignored by kRefresh.
  net::Ipv4Prefix prefix;
  /// kRefresh: refresh only this session (nullopt = every session).
  std::optional<AsNumber> session;

  [[nodiscard]] static RouteDelta announce(AsNumber owner,
                                           const net::Ipv4Prefix& prefix) {
    return RouteDelta{Kind::kAnnounce, owner, prefix, std::nullopt};
  }
  [[nodiscard]] static RouteDelta withdraw(AsNumber owner,
                                           const net::Ipv4Prefix& prefix) {
    return RouteDelta{Kind::kWithdraw, owner, prefix, std::nullopt};
  }
  [[nodiscard]] static RouteDelta refresh(
      AsNumber owner, std::optional<AsNumber> session = std::nullopt) {
    return RouteDelta{Kind::kRefresh, owner, {}, session};
  }
};

struct BgpConfig {
  /// One-way session propagation delay, plus deterministic per-session
  /// jitter in [0, session_jitter).
  sim::SimDuration session_delay = sim::SimDuration::millis(30);
  sim::SimDuration session_jitter = sim::SimDuration::millis(10);
  /// Outbound updates to one neighbor are batched for this long before a
  /// flush (the Min Route Advertisement Interval, abbreviated).
  sim::SimDuration mrai = sim::SimDuration::millis(100);
  /// Convergence-engine shards (per-AS RIB partitions).  Results are
  /// byte-identical for any value; > 1 parallelises convergence inside one
  /// sweep point and requires session_delay > 0 (the engine's lookahead).
  std::size_t shards = 1;
  /// Worker threads driving the shards (0 = min(shards, hardware)).  Never
  /// affects results — only wall-clock.
  std::size_t shard_workers = 0;
  /// Per-session routing policy (route-maps, Gao-Rexford role gates).
  /// Null = policy off: the decision process and export defaults follow
  /// the exact legacy path, byte-identical to pre-policy artifacts.
  std::shared_ptr<const policy::PolicyTable> policy;
  /// Expected number of distinct prefixes (0 = unknown).  Pre-sizes only
  /// the fabric's prefix index; the speakers' tables size themselves from
  /// the index.  Never affects results.
  std::size_t expected_prefixes = 0;
};

struct BgpSpeakerStats {
  std::uint64_t updates_sent = 0;        ///< update messages (flushes)
  std::uint64_t updates_received = 0;
  std::uint64_t routes_announced = 0;    ///< advert records sent
  std::uint64_t routes_withdrawn = 0;    ///< withdraw records sent
  std::uint64_t loops_rejected = 0;      ///< adverts dropped: own ASN in path
  std::uint64_t best_changes = 0;        ///< Loc-RIB best-route transitions
  std::uint64_t imports_filtered = 0;    ///< adverts denied by import policy
  std::uint64_t exports_filtered = 0;    ///< exports denied by an export map
};

/// One AS's routing process.
class BgpSpeaker {
 public:
  BgpSpeaker(BgpFabric& fabric, AsNumber asn);

  BgpSpeaker(const BgpSpeaker&) = delete;
  BgpSpeaker& operator=(const BgpSpeaker&) = delete;

  [[nodiscard]] AsNumber asn() const noexcept { return asn_; }

  /// Delivery hook used by the fabric.
  void handle_update(AsNumber from, const UpdateMessage& message);

  /// The best route currently installed for `prefix`, if any.
  struct BestRoute {
    /// Shared attributes: (as_path, communities, raw import local-pref).
    /// Pointer equality is value equality (attr_table.hpp), which is how
    /// the decision process compares routes without touching vectors.
    AttrRef attrs;
    AsNumber learned_from;          ///< == asn() for locally originated
    NeighborKind neighbor_kind = NeighborKind::kCustomer;
    bool local_origin = false;
    /// Effective local-pref: an import map's set value, or the role
    /// default (policy::role_local_pref) — whose ordering reproduces the
    /// legacy customer > peer > provider comparison exactly.
    std::uint32_t local_pref = policy::kCustomerLocalPref;

    [[nodiscard]] const std::vector<AsNumber>& as_path() const noexcept {
      return attrs.as_path();
    }
    [[nodiscard]] const std::vector<policy::Community>& communities()
        const noexcept {
      return attrs.communities();
    }
  };
  [[nodiscard]] const BestRoute* best(const net::Ipv4Prefix& prefix) const;

  /// Loc-RIB size: the DFZ table when this AS is a tier-1.
  [[nodiscard]] std::size_t rib_size() const noexcept { return rib_size_; }

  /// All Loc-RIB prefixes, ascending.
  [[nodiscard]] std::vector<net::Ipv4Prefix> rib_prefixes() const;

  [[nodiscard]] const BgpSpeakerStats& stats() const noexcept { return stats_; }

  /// Position of `neighbor` in this speaker's graph-order session list —
  /// the index every per-neighbor table is keyed by.  Throws
  /// std::out_of_range when no session exists.
  [[nodiscard]] std::uint32_t neighbor_position(AsNumber neighbor) const;

  /// Export update-groups currently in effect (diagnostics/tests): the
  /// number of distinct export legs one best-route change runs.
  [[nodiscard]] std::size_t export_group_count() const noexcept {
    return export_groups_.size();
  }

 private:
  /// The fabric drives all state mutation (BgpFabric::apply) so every
  /// post-construction change goes through one audited batch surface.
  friend class BgpFabric;

  /// Injects the locally originated prefix with id `id` and schedules its
  /// propagation.  Reached via RouteDelta::Kind::kAnnounce.
  void originate(std::uint32_t id);

  /// Withdraws a locally originated prefix; no-op if never originated.
  /// Reached via RouteDelta::Kind::kWithdraw.
  void withdraw_origin(std::uint32_t id);

  /// Re-runs the export leg of the decision process for every installed
  /// route, in ascending prefix order (the local half of an RFC 2918 route
  /// refresh).  Used after a post-convergence policy change — e.g. a
  /// route-leak study toggling a session's valley-free gate — so the new
  /// policy's view propagates without re-originating anything.  When
  /// `only` is set, just that session is refreshed.  Reached via
  /// RouteDelta::Kind::kRefresh.
  void refresh_exports(std::optional<AsNumber> only = std::nullopt);

  /// Recomputes the export update-groups from the current policy table.
  /// Called at construction and on the kRefresh path — the only points a
  /// session's export policy may change.
  void rebuild_export_groups();

  /// Re-runs the decision process for one prefix; if the best route
  /// changed, installs it and enqueues the delta to every eligible session.
  void decide(std::uint32_t id);

  /// The export fan-out for an installed best route: split horizon, the
  /// valley-free role gate (per-session policy may relax it), then the
  /// session's export map — run once per update-group, producing one
  /// shared interned advert that enqueue() fans out by reference.  Shared
  /// by decide() (all sessions) and refresh_exports() (optionally one).
  void announce_best(std::uint32_t id, const BestRoute& winner,
                     std::optional<AsNumber> only = std::nullopt);

  /// Gao-Rexford: may `route` be told to a neighbor of kind `to`?
  [[nodiscard]] static bool exportable(const BestRoute& route, NeighborKind to);

  /// Grows every per-prefix table to the fabric's prefix count when `id`
  /// lies past them.  The count is read-only during a run, so shard
  /// workers may grow their own speakers' tables.
  void cover(std::uint32_t id);

  /// Drops the Adj-RIB-In route the neighbor at `pos` offered for `id`;
  /// true if there was one.
  bool drop_adj_in(std::uint32_t id, std::uint32_t pos);

  /// Queues an announce (`attrs` set) or a withdraw (`attrs` null) of `id`
  /// for the neighbor at session position `pos` and arms its MRAI timer.
  void enqueue(std::uint32_t pos, std::uint32_t id, AttrRef attrs);
  void flush(std::uint32_t pos);

  BgpFabric& fabric_;
  AsNumber asn_;
  /// This speaker's sessions in graph order; a session's position here is
  /// the index every per-session table uses.
  const std::vector<AsGraph::Neighbor>& neighbors_;

  // The RIB tables are dense arrays indexed by the fabric's prefix id (see
  // BgpFabric's prefix index), sized on first touch by cover().  A
  // per-(prefix, session) table keeps one contiguous row of degree cells
  // per prefix, cell `id * degree + pos`, so the decision process scans one
  // row in graph order instead of probing a table per neighbor.  Nothing
  // emitted follows id order: MRAI flushes, refreshes and rib_prefixes()
  // sort by prefix.

  /// Loc-RIB by prefix id; a null `attrs` means no route.
  std::vector<BestRoute> loc_rib_;
  std::size_t rib_size_ = 0;
  /// Locally originated prefixes, by id.
  std::vector<bool> origins_;
  /// Adj-RIB-In cells: the shared attributes the import chain resolved for
  /// what that neighbor advertised (null = nothing; local_pref 0 inside the
  /// ref = no import override, use the role default — the policy-off case
  /// never stores anything else).
  std::vector<AttrRef> adj_in_;
  /// Adj-RIB-Out ledger cells: set once a flush told the neighbor the
  /// prefix, so a route it never heard of is never withdrawn from it.
  std::vector<bool> advertised_;
  /// Pending-delta cells: 1 + the delta's index in its session's
  /// Outbound::pending, or 0 when nothing is pending.
  std::vector<std::uint32_t> pending_slot_;

  /// One queued outbound delta: an announce of `attrs`, or a withdraw when
  /// `attrs` is null.
  struct Pending {
    std::uint32_t id = 0;
    AttrRef attrs;
  };
  /// Per session position: the deltas the next flush sends, in no order,
  /// and whether its MRAI timer is armed (cleared when it fires; a flush
  /// that finds nothing pending is a no-op).
  struct Outbound {
    std::vector<Pending> pending;
    bool mrai_armed = false;
  };
  std::vector<Outbound> outbound_;

  /// ASN -> session position for this speaker's neighbors.
  core::FlatMap<AsNumber, std::uint32_t> neighbor_pos_;

  /// One export equivalence class: sessions sharing (kind, export map,
  /// valley-free flag) see the same export decision for every route, so
  /// the leg runs once and the members share the interned advert.
  struct ExportGroup {
    NeighborKind kind = NeighborKind::kCustomer;
    const policy::RouteMap* export_map = nullptr;
    bool valley_free = true;
    std::vector<std::uint32_t> members;  ///< session positions, graph order
  };
  std::vector<ExportGroup> export_groups_;

  BgpSpeakerStats stats_;
};

/// Owns one speaker per AS, the sharded convergence engine they run on,
/// the attribute-interning table they share, and the message plumbing
/// between them.
///
/// **Mutation surface.**  After construction the fabric is the sole entry
/// point for routing-state changes: clients describe what changed as a
/// RouteDelta batch and call apply(); the per-speaker mutators are private.
/// This is the incremental re-convergence contract — a delta re-runs the
/// decision process for exactly the prefixes it names (the batch *is* the
/// dirty-prefix worklist) and seeds the engine's shard queues with the
/// resulting update cascade, so the next run_to_convergence() replays only
/// what the delta can reach instead of a full origination storm.  Results
/// keep the identity-keyed determinism contract: byte-identical for every
/// shard/worker count, and — because cascades are time-translation
/// invariant — byte-identical whether the delta lands on a long-lived
/// converged fabric or on a freshly rebuilt one (the CI parity gate).
class BgpFabric {
 public:
  explicit BgpFabric(const AsGraph& graph, BgpConfig config = {});

  BgpFabric(const BgpFabric&) = delete;
  BgpFabric& operator=(const BgpFabric&) = delete;

  [[nodiscard]] BgpSpeaker& speaker(AsNumber asn);
  [[nodiscard]] const BgpSpeaker& speaker(AsNumber asn) const;

  [[nodiscard]] const AsGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const BgpConfig& config() const noexcept { return config_; }
  [[nodiscard]] const ConvergenceEngine& engine() const noexcept {
    return engine_;
  }

  /// The attribute-interning table every advert/RIB entry refs into.
  [[nodiscard]] AttrTable& attrs() noexcept { return attrs_; }
  [[nodiscard]] const AttrTable& attrs() const noexcept { return attrs_; }

  /// The shared attrs of a locally originated route (empty path, empty
  /// communities, customer-grade local-pref).
  [[nodiscard]] const AttrRef& origin_attrs() const noexcept {
    return origin_attrs_;
  }

  /// Interns (as_path, communities) and wraps them as an advert — the way
  /// tests and micros hand-craft update messages.  Also enters `prefix`
  /// into the prefix index, so call it outside a run.
  [[nodiscard]] RouteAdvert make_advert(
      const net::Ipv4Prefix& prefix, const std::vector<AsNumber>& as_path,
      const std::vector<policy::Community>& communities = {}) {
    intern_prefix(prefix);
    return RouteAdvert{prefix, attrs_.intern(as_path, communities, 0)};
  }

  /// Current virtual time (the latest convergence instant).
  [[nodiscard]] sim::SimTime now() const noexcept { return engine_.now(); }

  /// Relationship of `neighbor` as seen from `self`; throws if no session.
  [[nodiscard]] NeighborKind kind_of(AsNumber self, AsNumber neighbor) const;

  /// The (self -> neighbor) session policy, or nullptr with policy off /
  /// no attachment.  One branch on the policy-off hot path.
  [[nodiscard]] const policy::SessionPolicy* session_policy(
      AsNumber self, AsNumber neighbor) const noexcept {
    return config_.policy == nullptr ? nullptr
                                     : config_.policy->find(self, neighbor);
  }

  /// Applies a batch of routing mutations in order — the only way to
  /// change routing state after construction.  Each delta stages its
  /// origin-set edit and immediately re-runs the decision process for its
  /// own prefix (a refresh rebuilds the owner's export update-groups, then
  /// re-runs the export leg per installed prefix); nothing outside the
  /// batch's dirty set is touched until run_to_convergence() drains the
  /// cascade the batch seeded.  Batches applied outside a run are
  /// cause-keyed at the current convergence instant; splitting one batch
  /// into several apply() calls (no run in between) is observationally
  /// identical to applying it whole.  The whole batch is checked first: an
  /// unknown owner, or a kRefresh session that is not one of the owner's
  /// neighbors, throws std::out_of_range with nothing applied.
  void apply(const std::vector<RouteDelta>& batch);

  /// Advances the idle fabric's clock without firing anything: the gap
  /// between churn events in a long-lived plan.  Cascades are
  /// time-translation invariant, so spacing never changes measured deltas.
  void advance(sim::SimDuration by) { engine_.advance(by); }

  /// Events the last run_to_convergence() fired: the incremental cost of
  /// the re-convergence a delta batch triggered.
  [[nodiscard]] std::uint64_t last_run_events() const noexcept {
    return engine_.last_run_processed();
  }

  /// Schedules delivery of `message` on the (from, to) session.
  void send(AsNumber from, AsNumber to, UpdateMessage message);

  /// Arms `owner`'s MRAI flush timer toward `neighbor` (speaker plumbing).
  void arm_mrai(AsNumber owner, AsNumber neighbor, sim::EventAction flush);

  /// Runs the engine until no work remains on any shard, i.e. until the
  /// protocol has converged.  Returns the convergence instant.
  /// `max_events` bounds the events of this call alone (0 = unlimited;
  /// std::runtime_error once reached), so it catches a runaway
  /// convergence however many events earlier calls fired.
  sim::SimTime run_to_convergence(std::uint64_t max_events = 50'000'000);

  /// Messages in flight plus pending MRAI flushes are queued events, so
  /// this is exact, not heuristic.
  [[nodiscard]] bool converged() const { return engine_.idle(); }

  /// Sum of a stat over all speakers.
  [[nodiscard]] std::uint64_t total_updates_sent() const;
  [[nodiscard]] std::uint64_t total_routes_announced() const;
  [[nodiscard]] std::uint64_t total_routes_withdrawn() const;

 private:
  friend class BgpSpeaker;

  [[nodiscard]] sim::SimDuration session_delay(AsNumber a, AsNumber b) const;

  /// The id of `prefix`, entering it into the index on first sight.
  std::uint32_t intern_prefix(const net::Ipv4Prefix& prefix);
  /// The id of `prefix`, or nullptr if the fabric never saw it.
  [[nodiscard]] const std::uint32_t* find_prefix(
      const net::Ipv4Prefix& prefix) const noexcept {
    return prefix_ids_.find(prefix);
  }
  [[nodiscard]] std::size_t prefix_count() const noexcept {
    return prefixes_.size();
  }
  [[nodiscard]] const net::Ipv4Prefix& prefix_of(std::uint32_t id) const {
    return prefixes_[id];
  }

  const AsGraph& graph_;
  BgpConfig config_;
  // attrs_ precedes everything that can hold an AttrRef (origin_attrs_,
  // the engine's queued messages, the speakers' RIBs): members destroy in
  // reverse order, so the table outlives every ref into it.
  AttrTable attrs_;
  AttrRef origin_attrs_;
  ConvergenceEngine engine_;
  /// AS -> dense index into speakers_ (the AS set is fixed at
  /// construction; one hash probe, then flat storage).
  core::FlatMap<AsNumber, std::uint32_t> as_index_;
  /// The prefix index: a dense id for every prefix the fabric has seen,
  /// keying every speaker's per-prefix tables.  Ids are assigned only on
  /// the caller's thread — by apply() for announces and by make_advert() —
  /// never during a run, so shard workers only read it.  Ids are never
  /// reused.
  core::FlatMap<net::Ipv4Prefix, std::uint32_t> prefix_ids_;
  std::vector<net::Ipv4Prefix> prefixes_;  ///< id -> prefix
  std::vector<std::unique_ptr<BgpSpeaker>> speakers_;
};

}  // namespace lispcp::routing
