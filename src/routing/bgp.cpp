#include "routing/bgp.hpp"

#include <algorithm>

#include "core/arena.hpp"

namespace lispcp::routing {

namespace {

/// Retired UpdateMessage shells, buffers intact: a flush reuses the vector
/// capacity a delivered message gave back instead of growing from zero.
/// Thread-local because shard workers flush and deliver concurrently; a
/// message released on the delivery thread simply seeds that worker's own
/// recycler.  Shells are released with their advert refs already cleared,
/// so a pooled shell never pins an attribute set (or a table) alive.
core::Recycler<UpdateMessage>& message_recycler() {
  thread_local core::Recycler<UpdateMessage> recycler;
  return recycler;
}

/// Scratch buffers for the export/import legs: the path is assembled here,
/// probed against the AttrTable, and only copied when the table has never
/// seen it.  Thread-local because shard workers run speakers concurrently;
/// each use is confined to one call, no reentrancy (announce/import legs
/// never nest).
std::vector<AsNumber>& path_scratch() {
  thread_local std::vector<AsNumber> scratch;
  return scratch;
}
std::vector<AsNumber>& modified_path_scratch() {
  thread_local std::vector<AsNumber> scratch;
  return scratch;
}
std::vector<policy::Community>& community_scratch() {
  thread_local std::vector<policy::Community> scratch;
  return scratch;
}

}  // namespace

BgpSpeaker::BgpSpeaker(BgpFabric& fabric, AsNumber asn)
    : fabric_(fabric), asn_(asn) {
  // A known converged table size lets every RIB jump straight to its final
  // capacity instead of rehashing through the origination storm.
  loc_rib_.reserve(fabric_.config().expected_prefixes);
  const std::vector<AsGraph::Neighbor>& neighbors =
      fabric_.graph().neighbors(asn_);
  neighbor_pos_.reserve(neighbors.size());
  for (std::uint32_t pos = 0; pos < neighbors.size(); ++pos) {
    neighbor_pos_.insert_or_assign(neighbors[pos].asn, pos);
  }
  adj_in_.resize(neighbors.size());
  outbound_.resize(neighbors.size());
  rebuild_export_groups();
}

std::uint32_t BgpSpeaker::neighbor_position(AsNumber neighbor) const {
  const std::uint32_t* pos = neighbor_pos_.find(neighbor);
  if (pos == nullptr) {
    throw std::out_of_range("BgpFabric: no session " + asn_.to_string() +
                            " <-> " + neighbor.to_string());
  }
  return *pos;
}

void BgpSpeaker::rebuild_export_groups() {
  export_groups_.clear();
  const std::vector<AsGraph::Neighbor>& neighbors =
      fabric_.graph().neighbors(asn_);
  for (std::uint32_t pos = 0; pos < neighbors.size(); ++pos) {
    const policy::SessionPolicy* session =
        fabric_.session_policy(asn_, neighbors[pos].asn);
    const NeighborKind kind = neighbors[pos].kind;
    const policy::RouteMap* map =
        session == nullptr ? nullptr : session->export_map;
    const bool valley_free = session == nullptr ? true : session->valley_free;
    ExportGroup* group = nullptr;
    for (ExportGroup& g : export_groups_) {
      if (g.kind == kind && g.export_map == map &&
          g.valley_free == valley_free) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      group = &export_groups_.emplace_back(
          ExportGroup{kind, map, valley_free, {}});
    }
    group->members.push_back(pos);
  }
}

BgpSpeaker::AdjIn& BgpSpeaker::adj_in(std::uint32_t pos) {
  AdjIn& adj = adj_in_[pos];
  if (!adj.sized) {
    adj.sized = true;
    if (fabric_.config().expected_prefixes > 0 &&
        fabric_.graph().neighbors(asn_)[pos].kind != NeighborKind::kCustomer) {
      // Peer/provider sessions carry (close to) the full table; customer
      // sessions only their cone — reserving those would waste the memory.
      adj.routes.reserve(fabric_.config().expected_prefixes);
    }
  }
  return adj;
}

BgpSpeaker::Outbound& BgpSpeaker::outbound(std::uint32_t pos) {
  Outbound& out = outbound_[pos];
  if (!out.sized) {
    out.sized = true;
    if (fabric_.config().expected_prefixes > 0 &&
        fabric_.graph().neighbors(asn_)[pos].kind == NeighborKind::kCustomer) {
      // Customers get the full table, so the Adj-RIB-Out ledger fills up.
      out.advertised.reserve(fabric_.config().expected_prefixes);
    }
  }
  return out;
}

void BgpSpeaker::originate(const net::Ipv4Prefix& prefix) {
  origins_.insert(prefix);
  decide(prefix);
}

void BgpSpeaker::withdraw_origin(const net::Ipv4Prefix& prefix) {
  if (origins_.erase(prefix) == 0) return;
  decide(prefix);
}

void BgpSpeaker::handle_update(AsNumber from, const UpdateMessage& message) {
  ++stats_.updates_received;
  AdjIn& adj = adj_in(neighbor_position(from));
  for (const net::Ipv4Prefix& prefix : message.withdraws) {
    if (adj.routes.erase(prefix) > 0) decide(prefix);
  }
  const policy::SessionPolicy* session = fabric_.session_policy(asn_, from);
  const policy::RouteMap* import =
      session == nullptr ? nullptr : session->import;
  for (const RouteAdvert& advert : message.announces) {
    const std::vector<AsNumber>& path = advert.as_path();
    const bool loops =
        std::find(path.begin(), path.end(), asn_) != path.end();
    if (loops) {
      // A looped advert is unusable, and — update semantics — it implicitly
      // replaces whatever this neighbor said before, so the old path goes.
      ++stats_.loops_rejected;
      if (adj.routes.erase(advert.prefix) > 0) decide(advert.prefix);
      continue;
    }
    AttrRef attrs;
    if (import != nullptr) {
      const auto actions = import->evaluate(policy::RouteContext{
          advert.prefix, path, advert.communities()});
      if (!actions.has_value()) {
        // Import-denied: like a loop reject, the advert still implicitly
        // withdraws whatever this neighbor previously offered.
        ++stats_.imports_filtered;
        if (adj.routes.erase(advert.prefix) > 0) decide(advert.prefix);
        continue;
      }
      if (actions->local_pref == 0 && actions->add_communities.empty() &&
          actions->prepend == 0) {
        attrs = advert.attrs;  // import changed nothing: share the wire attrs
      } else {
        // Import prepend inserts the *neighbor's* ASN, lengthening the
        // path this session offers to the decision process.
        std::vector<AsNumber>& in_path = modified_path_scratch();
        in_path.assign(actions->prepend, from);
        in_path.insert(in_path.end(), path.begin(), path.end());
        std::vector<policy::Community>& comm = community_scratch();
        comm.assign(advert.communities().begin(), advert.communities().end());
        for (const policy::Community c : actions->add_communities) {
          policy::add_community(comm, c);
        }
        attrs = fabric_.attrs().intern(in_path, comm, actions->local_pref);
      }
    } else {
      attrs = advert.attrs;
    }
    adj.routes[advert.prefix] = AdjRoute{std::move(attrs)};
    decide(advert.prefix);
  }
}

const BgpSpeaker::BestRoute* BgpSpeaker::best(
    const net::Ipv4Prefix& prefix) const {
  return loc_rib_.find(prefix);
}

std::vector<net::Ipv4Prefix> BgpSpeaker::rib_prefixes() const {
  return loc_rib_.sorted_keys();
}

void BgpSpeaker::decide(const net::Ipv4Prefix& prefix) {
  // Gather candidates: local origination plus one per advertising neighbor,
  // iterated in graph order for determinism.  Candidates borrow the adj
  // entries' attr refs — no refcount traffic until the winner installs.
  const AttrRef* win_attrs = nullptr;
  AsNumber win_from;
  NeighborKind win_kind = NeighborKind::kCustomer;
  bool win_origin = false;
  std::uint32_t win_pref = policy::kCustomerLocalPref;

  if (origins_.contains(prefix)) {
    win_attrs = &fabric_.origin_attrs();
    win_from = asn_;
    win_origin = true;
  }
  const std::vector<AsGraph::Neighbor>& neighbors =
      fabric_.graph().neighbors(asn_);
  for (std::uint32_t pos = 0; pos < neighbors.size(); ++pos) {
    const AdjRoute* route = adj_in_[pos].routes.find(prefix);
    if (route == nullptr) continue;
    // Local origin beats all; then highest local-pref (role defaults
    // reproduce the legacy relationship-preference order), path length,
    // lowest neighbor ASN.
    const std::uint32_t pref =
        route->attrs.local_pref() != 0
            ? route->attrs.local_pref()
            : policy::role_local_pref(neighbors[pos].kind);
    bool take;
    if (win_attrs == nullptr) {
      take = true;
    } else if (win_origin) {
      take = false;
    } else if (pref != win_pref) {
      take = pref > win_pref;
    } else if (route->attrs.as_path().size() != win_attrs->as_path().size()) {
      take = route->attrs.as_path().size() < win_attrs->as_path().size();
    } else {
      take = neighbors[pos].asn < win_from;
    }
    if (take) {
      win_attrs = &route->attrs;
      win_from = neighbors[pos].asn;
      win_kind = neighbors[pos].kind;
      win_pref = pref;
    }
  }

  const BestRoute* installed = loc_rib_.find(prefix);
  const bool had = installed != nullptr;
  if (win_attrs == nullptr) {
    if (!had) return;
    loc_rib_.erase(prefix);
    ++stats_.best_changes;
    for (std::uint32_t pos = 0; pos < neighbors.size(); ++pos) {
      enqueue(pos, neighbors[pos].asn, prefix, std::nullopt);
    }
    return;
  }
  // Interning makes route equality a pointer compare: while the installed
  // route holds its ref, re-interning equal content always resolves to the
  // same node, so attrs-pointer + provenance equality is exactly the old
  // field-by-field compare (effective local-pref is a pure function of the
  // raw interned pref and the — equal — session role).
  if (had && installed->local_origin == win_origin &&
      installed->learned_from == win_from && installed->attrs == *win_attrs) {
    return;
  }

  BestRoute& slot = loc_rib_[prefix];
  slot.attrs = *win_attrs;
  slot.learned_from = win_from;
  slot.neighbor_kind = win_kind;
  slot.local_origin = win_origin;
  slot.local_pref = win_pref;
  ++stats_.best_changes;
  announce_best(prefix, slot);
}

void BgpSpeaker::announce_best(const net::Ipv4Prefix& prefix,
                               const BestRoute& winner,
                               std::optional<AsNumber> only) {
  // The shared first hop — self prepended to the winner's path — is
  // assembled once in scratch; interning turns it into at most one
  // allocation per distinct path in the network.
  std::vector<AsNumber>& path = path_scratch();
  path.clear();
  path.reserve(winner.as_path().size() + 1);
  path.push_back(asn_);
  path.insert(path.end(), winner.as_path().begin(), winner.as_path().end());

  const std::vector<AsGraph::Neighbor>& neighbors =
      fabric_.graph().neighbors(asn_);
  for (const ExportGroup& group : export_groups_) {
    // One role-gate + export-map evaluation per group: every member shares
    // (kind, map, valley-free), so the decision is identical for all of
    // them.  The advert is computed lazily — a group whose members are all
    // split-horizon (or filtered by `only`) never runs the leg.
    const bool role_ok =
        !group.valley_free || exportable(winner, group.kind);
    bool computed = false;
    bool denied = false;
    AttrRef attrs;
    for (const std::uint32_t pos : group.members) {
      const AsNumber neighbor = neighbors[pos].asn;
      if (only.has_value() && neighbor != *only) continue;
      // Split horizon: never echo a route to the session it came from.  A
      // neighbor the new best is not exportable to gets a withdraw instead
      // (it may hold a previously exportable path).
      if (!winner.local_origin && neighbor == winner.learned_from) {
        enqueue(pos, neighbor, prefix, std::nullopt);
        continue;
      }
      if (!role_ok) {
        enqueue(pos, neighbor, prefix, std::nullopt);
        continue;
      }
      if (!computed) {
        computed = true;
        if (group.export_map != nullptr) {
          const auto actions = group.export_map->evaluate(
              policy::RouteContext{prefix, path, winner.communities()});
          if (!actions.has_value()) {
            denied = true;
          } else if (actions->prepend > 0 ||
                     !actions->add_communities.empty()) {
            std::vector<AsNumber>& out_path = modified_path_scratch();
            out_path.assign(actions->prepend, asn_);
            out_path.insert(out_path.end(), path.begin(), path.end());
            std::vector<policy::Community>& comm = community_scratch();
            comm.assign(winner.communities().begin(),
                        winner.communities().end());
            for (const policy::Community c : actions->add_communities) {
              policy::add_community(comm, c);
            }
            attrs = fabric_.attrs().intern(out_path, comm, 0);
          } else {
            attrs = fabric_.attrs().intern(path, winner.communities(), 0);
          }
        } else {
          attrs = fabric_.attrs().intern(path, winner.communities(), 0);
        }
      }
      if (denied) {
        ++stats_.exports_filtered;
        enqueue(pos, neighbor, prefix, std::nullopt);
        continue;
      }
      enqueue(pos, neighbor, prefix, RouteAdvert{prefix, attrs});
    }
  }
}

void BgpSpeaker::refresh_exports(std::optional<AsNumber> only) {
  // Sorted snapshot: refresh order is observable through MRAI batching, so
  // it must not depend on table layout.
  for (const net::Ipv4Prefix& prefix : loc_rib_.sorted_keys()) {
    const BestRoute* installed = loc_rib_.find(prefix);
    if (installed != nullptr) announce_best(prefix, *installed, only);
  }
}

bool BgpSpeaker::exportable(const BestRoute& route, NeighborKind to) {
  if (to == NeighborKind::kCustomer) return true;
  return route.local_origin || route.neighbor_kind == NeighborKind::kCustomer;
}

void BgpSpeaker::enqueue(std::uint32_t pos, AsNumber neighbor,
                         const net::Ipv4Prefix& prefix,
                         std::optional<RouteAdvert> advert) {
  Outbound& out = outbound(pos);
  if (!advert.has_value()) {
    const std::optional<RouteAdvert>* pending = out.pending.find(prefix);
    const bool pending_announce = pending != nullptr && pending->has_value();
    if (pending_announce) {
      // The announce never left this router: just cancel it.  A withdraw is
      // still owed if an *earlier* flush advertised the prefix.
      out.pending.erase(prefix);
    }
    if (out.advertised.contains(prefix)) {
      out.pending[prefix] = std::nullopt;
    } else if (!pending_announce) {
      return;  // neighbor never heard of it: nothing to retract
    }
  } else {
    out.pending[prefix] = std::move(advert);
  }
  if (!out.pending.empty() && !out.mrai_armed) {
    out.mrai_armed = true;
    fabric_.arm_mrai(asn_, neighbor,
                     [this, pos, neighbor] { flush(pos, neighbor); });
  }
}

void BgpSpeaker::flush(std::uint32_t pos, AsNumber neighbor) {
  Outbound& out = outbound_[pos];
  out.mrai_armed = false;
  if (out.pending.empty()) return;
  // Sorted snapshot: the wire order (ascending prefix) is part of the
  // byte-identical-records contract and must not depend on table layout.
  const std::vector<net::Ipv4Prefix> prefixes = out.pending.sorted_keys();
  UpdateMessage message = message_recycler().acquire();
  message.announces.clear();
  message.withdraws.clear();
  message.announces.reserve(prefixes.size());
  for (const net::Ipv4Prefix& prefix : prefixes) {
    std::optional<RouteAdvert>& advert = *out.pending.find(prefix);
    if (advert.has_value()) {
      message.announces.push_back(std::move(*advert));
      out.advertised.insert(prefix);
    } else {
      message.withdraws.push_back(prefix);
      out.advertised.erase(prefix);
    }
  }
  out.pending.clear();
  ++stats_.updates_sent;
  stats_.routes_announced += message.announces.size();
  stats_.routes_withdrawn += message.withdraws.size();
  fabric_.send(asn_, neighbor, std::move(message));
}

namespace {

ShardEngineConfig engine_config(const BgpConfig& config) {
  ShardEngineConfig out;
  out.shards = config.shards;
  // Lookahead: every cross-shard delivery takes at least the base session
  // delay (jitter only adds).  MRAI timers are always shard-local.
  out.epoch = config.session_delay;
  out.workers = config.shard_workers;
  return out;
}

}  // namespace

BgpFabric::BgpFabric(const AsGraph& graph, BgpConfig config)
    : graph_(graph), config_(config), engine_(graph, engine_config(config)) {
  origin_attrs_ = attrs_.intern(std::span<const AsNumber>{},
                                std::span<const policy::Community>{},
                                policy::kCustomerLocalPref);
  const std::vector<AsNumber>& ases = graph_.ases();
  as_index_.reserve(ases.size());
  speakers_.reserve(ases.size());
  for (std::uint32_t i = 0; i < ases.size(); ++i) {
    as_index_.insert_or_assign(ases[i], i);
    speakers_.push_back(std::make_unique<BgpSpeaker>(*this, ases[i]));
  }
}

BgpSpeaker& BgpFabric::speaker(AsNumber asn) {
  const std::uint32_t* index = as_index_.find(asn);
  if (index == nullptr) {
    throw std::out_of_range("BgpFabric: unknown " + asn.to_string());
  }
  return *speakers_[*index];
}

const BgpSpeaker& BgpFabric::speaker(AsNumber asn) const {
  const std::uint32_t* index = as_index_.find(asn);
  if (index == nullptr) {
    throw std::out_of_range("BgpFabric: unknown " + asn.to_string());
  }
  return *speakers_[*index];
}

NeighborKind BgpFabric::kind_of(AsNumber self, AsNumber neighbor) const {
  return graph_.neighbors(self)[speaker(self).neighbor_position(neighbor)].kind;
}

sim::SimDuration BgpFabric::session_delay(AsNumber a, AsNumber b) const {
  if (config_.session_jitter.ns() == 0) return config_.session_delay;
  // Deterministic per-session jitter: hash the unordered pair.
  const std::uint64_t lo = std::min(a.value(), b.value());
  const std::uint64_t hi = std::max(a.value(), b.value());
  std::uint64_t x = (lo << 32) | hi;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  const auto jitter_ns = static_cast<std::int64_t>(
      x % static_cast<std::uint64_t>(config_.session_jitter.ns()));
  return config_.session_delay + sim::SimDuration::nanos(jitter_ns);
}

void BgpFabric::apply(const std::vector<RouteDelta>& batch) {
  // The batch is the dirty-prefix worklist: deltas run in order, each one
  // re-deciding exactly its own prefix.  decide() reads only per-prefix
  // state (the origin bit and the per-neighbor adj entries for that
  // prefix), so per-delta sequencing is byte-identical to any other
  // grouping of the same deltas — the contract the parity tests pin.
  for (const RouteDelta& delta : batch) {
    BgpSpeaker& owner = speaker(delta.owner);
    switch (delta.kind) {
      case RouteDelta::Kind::kAnnounce:
        owner.originate(delta.prefix);
        break;
      case RouteDelta::Kind::kWithdraw:
        owner.withdraw_origin(delta.prefix);
        break;
      case RouteDelta::Kind::kRefresh:
        // A refresh is the one sanctioned policy-edit point, so the export
        // update-groups are recomputed before the export leg re-runs.
        owner.rebuild_export_groups();
        owner.refresh_exports(delta.session);
        break;
    }
  }
}

void BgpFabric::send(AsNumber from, AsNumber to, UpdateMessage message) {
  // The message rides inside the event's inline capture — no shared_ptr,
  // no per-message heap allocation — and its shell (vector buffers) is
  // retired to the delivering worker's recycler after the update lands.
  // The adverts' attr refs are dropped first (clear keeps the capacity):
  // a pooled shell must not pin attribute sets — or a destroyed fabric's
  // table — from a past life.
  engine_.schedule(to, session_delay(from, to),
                   ConvergenceEngine::delivery_tag(from, to),
                   [this, from, to, message = std::move(message)]() mutable {
                     speaker(to).handle_update(from, message);
                     message.announces.clear();
                     message.withdraws.clear();
                     message_recycler().release(std::move(message));
                   });
}

void BgpFabric::arm_mrai(AsNumber owner, AsNumber neighbor,
                         sim::EventAction flush) {
  engine_.schedule(owner, config_.mrai,
                   ConvergenceEngine::timer_tag(owner, neighbor),
                   std::move(flush));
}

sim::SimTime BgpFabric::run_to_convergence(std::uint64_t max_events) {
  return engine_.run(max_events);
}

// The totals are commutative sums, so any walk order gives the same value;
// they still walk in graph order as part of the repo-wide rule that no
// observable output may be produced by iterating an unordered container.

std::uint64_t BgpFabric::total_updates_sent() const {
  std::uint64_t total = 0;
  for (AsNumber asn : graph_.ases()) total += speaker(asn).stats().updates_sent;
  return total;
}

std::uint64_t BgpFabric::total_routes_announced() const {
  std::uint64_t total = 0;
  for (AsNumber asn : graph_.ases()) {
    total += speaker(asn).stats().routes_announced;
  }
  return total;
}

std::uint64_t BgpFabric::total_routes_withdrawn() const {
  std::uint64_t total = 0;
  for (AsNumber asn : graph_.ases()) {
    total += speaker(asn).stats().routes_withdrawn;
  }
  return total;
}

}  // namespace lispcp::routing
