// policy.hpp — per-session BGP routing policy: prefix-lists, communities,
// route-maps, and Gao-Rexford session roles.
//
// The BGP-lite mesh (routing/bgp.hpp) hard-codes the two policy facts that
// shape real DFZ tables: relationship preference in the decision process
// and valley-free export.  This module makes both first-class and
// configurable, following the classic quagga/FRR model:
//
//   * PrefixList — ordered permit/deny rules with ge/le length bounds,
//     first match wins, implicit deny at the end;
//   * Community — RFC 1997-style 32-bit tags ((asn << 16) | value), carried
//     in adverts and accumulated along the propagation path;
//   * AsPathPattern — the anchored subset of AS-path regexes the studies
//     need ("^N" first hop, "N$" origin, "N" contains, "^$" empty);
//   * RouteMap — ordered permit/deny clauses matching on prefix-list,
//     prefix length, communities, or AS-path, whose permit actions set
//     local-pref, add communities, or prepend;
//   * SessionPolicy / PolicyTable — import/export chains per (self,
//     neighbor) session plus the per-session valley-free export gate, with
//     PolicyTable::gao_rexford() synthesizing the role defaults (customer
//     200 / peer 100 / provider 50 local-pref, valley-free export on every
//     session) from the AsGraph's session relationships.
//
// Determinism contract: policy evaluation is a pure function of the route
// and the (immutable during convergence) table, so attaching policy keeps
// records byte-identical across shard/worker counts.  A null table in
// BgpConfig means policy off — the speaker then follows the exact legacy
// code path, and the role-default local-prefs are chosen so that the
// policy-off decision order (customer > peer > provider, then path length,
// then lowest neighbor ASN) is unchanged byte-for-byte.
//
// Local-pref set by an *export* map is ignored by design: LOCAL_PREF is not
// transitive across sessions, matching the real attribute's scope.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/ipv4.hpp"
#include "routing/as_graph.hpp"

namespace lispcp::routing {
class BgpFabric;  // for the valley-free checker; bgp.hpp includes us
}  // namespace lispcp::routing

namespace lispcp::routing::policy {

// ---------------------------------------------------------------------------
// Communities
// ---------------------------------------------------------------------------

/// RFC 1997 convention: high 16 bits name the tagging AS, low 16 the value.
using Community = std::uint32_t;

[[nodiscard]] constexpr Community make_community(std::uint16_t asn,
                                                 std::uint16_t value) noexcept {
  return (static_cast<Community>(asn) << 16) | value;
}

[[nodiscard]] std::string to_string(Community community);

/// Inserts `community` into a sorted-unique community vector (the canonical
/// on-route representation — sorted so records never depend on tag order).
void add_community(std::vector<Community>& communities, Community community);

/// Well-known tagging AS for the role communities gao_rexford() attaches.
constexpr std::uint16_t kRoleCommunityAsn = 65535;
constexpr Community kLearnedFromCustomer = make_community(kRoleCommunityAsn, 1);
constexpr Community kLearnedFromPeer = make_community(kRoleCommunityAsn, 2);
constexpr Community kLearnedFromProvider = make_community(kRoleCommunityAsn, 3);

// ---------------------------------------------------------------------------
// Prefix lists
// ---------------------------------------------------------------------------

/// An ordered permit/deny prefix filter with quagga ge/le semantics: a rule
/// matches a route whose prefix is covered by the rule's prefix and whose
/// length lies in [ge, le] (both default to the rule prefix's own length,
/// i.e. exact match).  First matching rule decides; no match = deny.
class PrefixList {
 public:
  PrefixList() = default;
  explicit PrefixList(std::string name) : name_(std::move(name)) {}

  PrefixList& permit(const net::Ipv4Prefix& prefix, int ge = -1, int le = -1) {
    return add(true, prefix, ge, le);
  }
  PrefixList& deny(const net::Ipv4Prefix& prefix, int ge = -1, int le = -1) {
    return add(false, prefix, ge, le);
  }

  [[nodiscard]] bool matches(const net::Ipv4Prefix& prefix) const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }

 private:
  struct Rule {
    bool permit = true;
    net::Ipv4Prefix prefix;
    int min_length = 0;  ///< resolved ge bound
    int max_length = 0;  ///< resolved le bound
  };

  PrefixList& add(bool permit, const net::Ipv4Prefix& prefix, int ge, int le);

  std::string name_;
  std::vector<Rule> rules_;
};

// ---------------------------------------------------------------------------
// AS-path patterns (regex-lite)
// ---------------------------------------------------------------------------

/// The anchored subset of AS-path regexes: "" (any), "^$" (empty path),
/// "^N" (first hop is N), "N$" (origin is N), "^N$" (the path is exactly
/// N), "N" (path contains N).  parse() throws std::invalid_argument on
/// anything else.
class AsPathPattern {
 public:
  AsPathPattern() = default;  ///< matches any path

  [[nodiscard]] static AsPathPattern parse(std::string_view text);

  [[nodiscard]] bool matches(const std::vector<AsNumber>& as_path) const;

  [[nodiscard]] const std::string& text() const noexcept { return text_; }

 private:
  enum class Kind : std::uint8_t {
    kAny,
    kEmpty,
    kFirstHop,
    kOrigin,
    kExact,
    kContains,
  };

  Kind kind_ = Kind::kAny;
  AsNumber asn_;
  std::string text_;
};

// ---------------------------------------------------------------------------
// Route maps
// ---------------------------------------------------------------------------

/// What a route-map clause sees: the route's prefix, its AS path as held in
/// the RIB being filtered (Adj-RIB-In on import, the outgoing path on
/// export), and its communities.
struct RouteContext {
  const net::Ipv4Prefix& prefix;
  const std::vector<AsNumber>& as_path;
  const std::vector<Community>& communities;
};

/// The accumulated `set` actions of the matching permit clause.
struct RouteActions {
  std::uint32_t local_pref = 0;  ///< 0 = not set (keep the role default)
  std::vector<Community> add_communities;
  std::size_t prepend = 0;  ///< extra copies of the prepending AS
};

/// An ordered list of permit/deny clauses, first match wins, implicit deny
/// when no clause matches (quagga semantics — attach no map at all for
/// "permit everything").
class RouteMap {
 public:
  enum class Action : std::uint8_t { kPermit, kDeny };

  /// One match/set clause.  All declared match conditions must hold (AND);
  /// a clause with no conditions matches every route.
  class Clause {
   public:
    explicit Clause(Action action) : action_(action) {}

    Clause& match_prefix_list(PrefixList list);
    Clause& match_prefix_length(int min_length, int max_length);
    Clause& match_community(Community community);
    Clause& match_as_path(AsPathPattern pattern);

    Clause& set_local_pref(std::uint32_t value);
    Clause& add_community(Community community);
    Clause& prepend(std::size_t count);

    [[nodiscard]] bool matches(const RouteContext& route) const;

   private:
    friend class RouteMap;

    Action action_;
    std::optional<PrefixList> prefix_list_;
    int min_length_ = -1;
    int max_length_ = -1;
    std::vector<Community> required_communities_;
    std::optional<AsPathPattern> as_path_;
    RouteActions actions_;
  };

  RouteMap() = default;
  explicit RouteMap(std::string name) : name_(std::move(name)) {}

  /// Appends a clause; the reference stays valid as clauses accumulate.
  Clause& add(Action action) { return clauses_.emplace_back(action); }

  /// First-match evaluation: the matching permit clause's actions, or
  /// nullopt if a deny clause matched or no clause did (implicit deny).
  [[nodiscard]] std::optional<RouteActions> evaluate(
      const RouteContext& route) const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t size() const noexcept { return clauses_.size(); }

 private:
  std::string name_;
  std::deque<Clause> clauses_;  ///< deque: add() hands out stable references
};

// ---------------------------------------------------------------------------
// Session policy and the policy table
// ---------------------------------------------------------------------------

/// Role-default local-pref: the decision-process encoding of Gao-Rexford
/// relationship preference.  Chosen so that the ordering is identical to
/// the legacy customer(2) > peer(1) > provider(0) comparison — the
/// policy-off byte-parity contract rests on this.
constexpr std::uint32_t kCustomerLocalPref = 200;
constexpr std::uint32_t kPeerLocalPref = 100;
constexpr std::uint32_t kProviderLocalPref = 50;

[[nodiscard]] constexpr std::uint32_t role_local_pref(NeighborKind kind) noexcept {
  switch (kind) {
    case NeighborKind::kCustomer: return kCustomerLocalPref;
    case NeighborKind::kPeer: return kPeerLocalPref;
    case NeighborKind::kProvider: return kProviderLocalPref;
  }
  return 0;
}

/// Policy attached to one directed session (self -> neighbor).  `import`
/// runs when an advert from the neighbor enters Adj-RIB-In; `export_map`
/// runs when the decision process enqueues toward the neighbor, after the
/// role gate.  `valley_free` is that gate: when true (the Gao-Rexford
/// default) routes learned from a peer or provider are not exported to
/// peers or providers; switching it off on one session is precisely a
/// route leak.
struct SessionPolicy {
  const RouteMap* import = nullptr;
  const RouteMap* export_map = nullptr;
  bool valley_free = true;
};

/// Owns the route-maps and the per-session attachments for one fabric.
/// Immutable while the convergence engine runs (BgpConfig holds it const);
/// studies that model a policy *change* mutate it between convergence runs
/// and nudge the affected speaker (BgpSpeaker::refresh_exports).
class PolicyTable {
 public:
  PolicyTable() = default;
  PolicyTable(const PolicyTable&) = delete;
  PolicyTable& operator=(const PolicyTable&) = delete;

  /// Synthesizes the Gao-Rexford defaults from the graph's session roles:
  /// every session gets valley-free export and an import map that pins the
  /// role local-pref and tags routes with the role community (observable
  /// in BestRoute::communities).  The local-prefs reproduce the policy-off
  /// decision order exactly.
  [[nodiscard]] static std::shared_ptr<PolicyTable> gao_rexford(
      const AsGraph& graph);

  /// Creates an owned route-map; the reference is stable for the table's
  /// lifetime.
  RouteMap& add_map(std::string name) {
    return maps_.emplace_back(std::move(name));
  }

  /// The policy for (self -> neighbor), created default if absent.
  SessionPolicy& session(AsNumber self, AsNumber neighbor) {
    return sessions_[key(self, neighbor)];
  }

  /// Lookup without creation; nullptr when the session has no policy.
  [[nodiscard]] const SessionPolicy* find(AsNumber self,
                                          AsNumber neighbor) const noexcept {
    const auto it = sessions_.find(key(self, neighbor));
    return it == sessions_.end() ? nullptr : &it->second;
  }

 private:
  [[nodiscard]] static std::uint64_t key(AsNumber self,
                                         AsNumber neighbor) noexcept {
    return (static_cast<std::uint64_t>(self.value()) << 32) |
           neighbor.value();
  }

  std::deque<RouteMap> maps_;
  std::unordered_map<std::uint64_t, SessionPolicy> sessions_;
};

// ---------------------------------------------------------------------------
// Valley-free invariant checker
// ---------------------------------------------------------------------------

struct ValleyCheck {
  std::size_t paths_checked = 0;
  std::size_t violations = 0;  ///< paths with a customer->...->customer valley
};

/// True iff the best route installed at `at` is valley-free: walking the
/// propagation chain origin -> ... -> at, the per-hop roles must form
/// customer* peer? provider* (Gao-Rexford).  Paths crossing sessions the
/// graph does not know about count as violations.
[[nodiscard]] bool valley_free_path(const AsGraph& graph, AsNumber at,
                                    const std::vector<AsNumber>& as_path);

/// Walks every converged best route of every AS (sampling RIB prefixes at
/// the given stride) and counts valley violations.  With roles enabled and
/// no leak event this must come back all-clear; a route leak makes it go
/// red — both directions are pinned by tests/test_policy.cpp.
[[nodiscard]] ValleyCheck check_valley_free(const BgpFabric& fabric,
                                            std::size_t sample_stride = 1);

}  // namespace lispcp::routing::policy
