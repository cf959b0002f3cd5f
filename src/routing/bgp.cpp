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
    : fabric_(fabric), asn_(asn), neighbors_(fabric.graph().neighbors(asn)) {
  neighbor_pos_.reserve(neighbors_.size());
  for (std::uint32_t pos = 0; pos < neighbors_.size(); ++pos) {
    neighbor_pos_.insert_or_assign(neighbors_[pos].asn, pos);
  }
  outbound_.resize(neighbors_.size());
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
  for (std::uint32_t pos = 0; pos < neighbors_.size(); ++pos) {
    const policy::SessionPolicy* session =
        fabric_.session_policy(asn_, neighbors_[pos].asn);
    const NeighborKind kind = neighbors_[pos].kind;
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

void BgpSpeaker::cover(std::uint32_t id) {
  if (id < loc_rib_.size()) return;
  const std::size_t rows = fabric_.prefix_count();
  const std::size_t cells = rows * neighbors_.size();
  loc_rib_.resize(rows);
  origins_.resize(rows);
  adj_in_.resize(cells);
  advertised_.resize(cells);
  pending_slot_.resize(cells);
}

bool BgpSpeaker::drop_adj_in(std::uint32_t id, std::uint32_t pos) {
  if (id >= loc_rib_.size()) return false;
  AttrRef& cell = adj_in_[id * neighbors_.size() + pos];
  if (!cell) return false;
  cell.reset();
  return true;
}

void BgpSpeaker::originate(std::uint32_t id) {
  cover(id);
  origins_[id] = true;
  decide(id);
}

void BgpSpeaker::withdraw_origin(std::uint32_t id) {
  if (id >= origins_.size() || !origins_[id]) return;
  origins_[id] = false;
  decide(id);
}

void BgpSpeaker::handle_update(AsNumber from, const UpdateMessage& message) {
  ++stats_.updates_received;
  const std::uint32_t pos = neighbor_position(from);
  for (const net::Ipv4Prefix& prefix : message.withdraws) {
    const std::uint32_t* id = fabric_.find_prefix(prefix);
    if (id != nullptr && drop_adj_in(*id, pos)) decide(*id);
  }
  const policy::SessionPolicy* session = fabric_.session_policy(asn_, from);
  const policy::RouteMap* import =
      session == nullptr ? nullptr : session->import;
  for (const RouteAdvert& advert : message.announces) {
    const std::uint32_t* known = fabric_.find_prefix(advert.prefix);
    if (known == nullptr) {
      throw std::logic_error("BgpFabric: advert for " +
                             advert.prefix.to_string() +
                             " not built by make_advert");
    }
    const std::uint32_t id = *known;
    cover(id);
    const std::vector<AsNumber>& path = advert.as_path();
    const bool loops =
        std::find(path.begin(), path.end(), asn_) != path.end();
    if (loops) {
      // A looped advert is unusable, and — update semantics — it implicitly
      // replaces whatever this neighbor said before, so the old path goes.
      ++stats_.loops_rejected;
      if (drop_adj_in(id, pos)) decide(id);
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
        if (drop_adj_in(id, pos)) decide(id);
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
    adj_in_[id * neighbors_.size() + pos] = std::move(attrs);
    decide(id);
  }
}

const BgpSpeaker::BestRoute* BgpSpeaker::best(
    const net::Ipv4Prefix& prefix) const {
  const std::uint32_t* id = fabric_.find_prefix(prefix);
  if (id == nullptr || *id >= loc_rib_.size()) return nullptr;
  const BestRoute& route = loc_rib_[*id];
  return route.attrs ? &route : nullptr;
}

std::vector<net::Ipv4Prefix> BgpSpeaker::rib_prefixes() const {
  std::vector<net::Ipv4Prefix> prefixes;
  prefixes.reserve(rib_size_);
  for (std::uint32_t id = 0; id < loc_rib_.size(); ++id) {
    if (loc_rib_[id].attrs) prefixes.push_back(fabric_.prefix_of(id));
  }
  std::sort(prefixes.begin(), prefixes.end());
  return prefixes;
}

void BgpSpeaker::decide(std::uint32_t id) {
  // Gather candidates: local origination plus one per advertising neighbor,
  // scanned along the prefix's Adj-RIB-In row in graph order for
  // determinism.  Candidates borrow the row's attr refs — no refcount
  // traffic until the winner installs.
  const AttrRef* win_attrs = nullptr;
  AsNumber win_from;
  NeighborKind win_kind = NeighborKind::kCustomer;
  bool win_origin = false;
  std::uint32_t win_pref = policy::kCustomerLocalPref;

  if (origins_[id]) {
    win_attrs = &fabric_.origin_attrs();
    win_from = asn_;
    win_origin = true;
  }
  const std::size_t degree = neighbors_.size();
  const AttrRef* row = adj_in_.data() + id * degree;
  for (std::uint32_t pos = 0; pos < degree; ++pos) {
    const AttrRef& route = row[pos];
    if (!route) continue;
    // Local origin beats all; then highest local-pref (role defaults
    // reproduce the legacy relationship-preference order), path length,
    // lowest neighbor ASN.
    const std::uint32_t pref = route.local_pref() != 0
                                   ? route.local_pref()
                                   : policy::role_local_pref(neighbors_[pos].kind);
    bool take;
    if (win_attrs == nullptr) {
      take = true;
    } else if (win_origin) {
      take = false;
    } else if (pref != win_pref) {
      take = pref > win_pref;
    } else if (route.as_path().size() != win_attrs->as_path().size()) {
      take = route.as_path().size() < win_attrs->as_path().size();
    } else {
      take = neighbors_[pos].asn < win_from;
    }
    if (take) {
      win_attrs = &route;
      win_from = neighbors_[pos].asn;
      win_kind = neighbors_[pos].kind;
      win_pref = pref;
    }
  }

  BestRoute& installed = loc_rib_[id];
  const bool had = static_cast<bool>(installed.attrs);
  if (win_attrs == nullptr) {
    if (!had) return;
    installed = BestRoute{};
    --rib_size_;
    ++stats_.best_changes;
    for (std::uint32_t pos = 0; pos < degree; ++pos) enqueue(pos, id, {});
    return;
  }
  // Interning makes route equality a pointer compare: while the installed
  // route holds its ref, re-interning equal content always resolves to the
  // same node, so attrs-pointer + provenance equality is exactly the old
  // field-by-field compare (effective local-pref is a pure function of the
  // raw interned pref and the — equal — session role).
  if (had && installed.local_origin == win_origin &&
      installed.learned_from == win_from && installed.attrs == *win_attrs) {
    return;
  }

  if (!had) ++rib_size_;
  installed.attrs = *win_attrs;
  installed.learned_from = win_from;
  installed.neighbor_kind = win_kind;
  installed.local_origin = win_origin;
  installed.local_pref = win_pref;
  ++stats_.best_changes;
  announce_best(id, installed);
}

void BgpSpeaker::announce_best(std::uint32_t id, const BestRoute& winner,
                               std::optional<AsNumber> only) {
  // The shared first hop — self prepended to the winner's path — is
  // assembled once in scratch; interning turns it into at most one
  // allocation per distinct path in the network.
  std::vector<AsNumber>& path = path_scratch();
  path.clear();
  path.reserve(winner.as_path().size() + 1);
  path.push_back(asn_);
  path.insert(path.end(), winner.as_path().begin(), winner.as_path().end());

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
      const AsNumber neighbor = neighbors_[pos].asn;
      if (only.has_value() && neighbor != *only) continue;
      // Split horizon: never echo a route to the session it came from.  A
      // neighbor the new best is not exportable to gets a withdraw instead
      // (it may hold a previously exportable path).
      if (!winner.local_origin && neighbor == winner.learned_from) {
        enqueue(pos, id, {});
        continue;
      }
      if (!role_ok) {
        enqueue(pos, id, {});
        continue;
      }
      if (!computed) {
        computed = true;
        if (group.export_map != nullptr) {
          const auto actions = group.export_map->evaluate(policy::RouteContext{
              fabric_.prefix_of(id), path, winner.communities()});
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
        enqueue(pos, id, {});
        continue;
      }
      enqueue(pos, id, attrs);
    }
  }
}

void BgpSpeaker::refresh_exports(std::optional<AsNumber> only) {
  // Ascending prefix order, like every other walk that feeds the wire.
  for (const net::Ipv4Prefix& prefix : rib_prefixes()) {
    const std::uint32_t id = *fabric_.find_prefix(prefix);
    announce_best(id, loc_rib_[id], only);
  }
}

bool BgpSpeaker::exportable(const BestRoute& route, NeighborKind to) {
  if (to == NeighborKind::kCustomer) return true;
  return route.local_origin || route.neighbor_kind == NeighborKind::kCustomer;
}

void BgpSpeaker::enqueue(std::uint32_t pos, std::uint32_t id, AttrRef attrs) {
  const std::size_t cell = id * neighbors_.size() + pos;
  std::uint32_t& slot = pending_slot_[cell];
  Outbound& out = outbound_[pos];
  if (!attrs && !advertised_[cell]) {
    // The neighbor never heard of the prefix: cancel an announce that never
    // left this router (the only delta that can be pending), else there is
    // nothing to retract.  Swap-remove — pending order is immaterial.
    if (slot != 0) {
      const std::uint32_t index = slot - 1;
      slot = 0;
      if (index + 1 != out.pending.size()) {
        out.pending[index] = std::move(out.pending.back());
        pending_slot_[out.pending[index].id * neighbors_.size() + pos] =
            index + 1;
      }
      out.pending.pop_back();
    }
    return;
  }
  if (slot != 0) {
    out.pending[slot - 1].attrs = std::move(attrs);
  } else {
    out.pending.push_back(Pending{id, std::move(attrs)});
    slot = static_cast<std::uint32_t>(out.pending.size());
  }
  if (!out.mrai_armed) {
    out.mrai_armed = true;
    fabric_.arm_mrai(asn_, neighbors_[pos].asn, [this, pos] { flush(pos); });
  }
}

void BgpSpeaker::flush(std::uint32_t pos) {
  Outbound& out = outbound_[pos];
  out.mrai_armed = false;
  if (out.pending.empty()) return;
  // Records go out in ascending prefix order, never in the order the
  // fabric first saw the prefixes.
  std::sort(out.pending.begin(), out.pending.end(),
            [this](const Pending& a, const Pending& b) {
              return fabric_.prefix_of(a.id) < fabric_.prefix_of(b.id);
            });
  UpdateMessage message = message_recycler().acquire();
  message.announces.clear();
  message.withdraws.clear();
  message.announces.reserve(out.pending.size());
  for (Pending& delta : out.pending) {
    const std::size_t cell = delta.id * neighbors_.size() + pos;
    pending_slot_[cell] = 0;
    const net::Ipv4Prefix& prefix = fabric_.prefix_of(delta.id);
    if (delta.attrs) {
      message.announces.push_back(RouteAdvert{prefix, std::move(delta.attrs)});
      advertised_[cell] = true;
    } else {
      message.withdraws.push_back(prefix);
      advertised_[cell] = false;
    }
  }
  out.pending.clear();
  ++stats_.updates_sent;
  stats_.routes_announced += message.announces.size();
  stats_.routes_withdrawn += message.withdraws.size();
  fabric_.send(asn_, neighbors_[pos].asn, std::move(message));
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
  prefix_ids_.reserve(config_.expected_prefixes);
  prefixes_.reserve(config_.expected_prefixes);
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

std::uint32_t BgpFabric::intern_prefix(const net::Ipv4Prefix& prefix) {
  const auto [id, inserted] = prefix_ids_.try_emplace(prefix);
  if (inserted) {
    *id = static_cast<std::uint32_t>(prefixes_.size());
    prefixes_.push_back(prefix);
  }
  return *id;
}

void BgpFabric::apply(const std::vector<RouteDelta>& batch) {
  // Check the whole batch before touching any state or assigning any
  // prefix id, so a rejected batch changes nothing.
  for (const RouteDelta& delta : batch) {
    const BgpSpeaker& owner = speaker(delta.owner);
    if (delta.kind == RouteDelta::Kind::kRefresh && delta.session.has_value()) {
      (void)owner.neighbor_position(*delta.session);
    }
  }
  // Index every announced prefix up front: the tables the batch touches
  // then size once, to the batch's full prefix count.
  for (const RouteDelta& delta : batch) {
    if (delta.kind == RouteDelta::Kind::kAnnounce) intern_prefix(delta.prefix);
  }
  // The batch is the dirty-prefix worklist: deltas run in order, each one
  // re-deciding exactly its own prefix.  decide() reads only per-prefix
  // state (the origin bit and the per-neighbor adj entries for that
  // prefix), so per-delta sequencing is byte-identical to any other
  // grouping of the same deltas — the contract the parity tests pin.
  for (const RouteDelta& delta : batch) {
    BgpSpeaker& owner = speaker(delta.owner);
    switch (delta.kind) {
      case RouteDelta::Kind::kAnnounce:
        owner.originate(*find_prefix(delta.prefix));
        break;
      case RouteDelta::Kind::kWithdraw:
        // A prefix the fabric never saw was never originated: a no-op.
        if (const std::uint32_t* id = find_prefix(delta.prefix)) {
          owner.withdraw_origin(*id);
        }
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
