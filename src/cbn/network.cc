#include "cbn/network.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace cosmos {

namespace {

// The `link` label of tree edge (u, v)'s counters: "min-max".
std::string LinkLabel(NodeId u, NodeId v) {
  const auto key = DisseminationTree::EdgeKey(u, v);
  return StrFormat("%d-%d", static_cast<int>(key.first),
                   static_cast<int>(key.second));
}

}  // namespace

ContentBasedNetwork::ContentBasedNetwork(DisseminationTree tree,
                                         NetworkOptions options,
                                         Simulator* sim)
    : tree_(std::move(tree)),
      options_(options),
      sim_(sim),
      streams_(std::make_unique<StreamTable>()) {
  routers_.reserve(tree_.num_nodes());
  for (NodeId i = 0; i < tree_.num_nodes(); ++i) {
    routers_.emplace_back(i, streams_.get(), NeighborIds(i));
  }
  IndexTree();
  SetTelemetry(nullptr, nullptr);
}

void ContentBasedNetwork::IndexTree() {
  const size_t n = static_cast<size_t>(num_nodes());
  tin_.assign(n, 0);
  tout_.assign(n, 0);
  parent_.assign(n, -1);
  // Iterative depth-first search: each frame is a node and the index of
  // its next neighbour to visit.
  std::vector<std::pair<NodeId, size_t>> stack = {{0, 0}};
  uint32_t clock = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back().first;
    const auto& neighbors = tree_.Neighbors(u);
    const size_t k = stack.back().second++;
    if (k == neighbors.size()) {
      tout_[u] = clock;
      stack.pop_back();
      continue;
    }
    const NodeId v = neighbors[k].first;
    if (v == parent_[u]) continue;
    parent_[v] = u;
    tin_[v] = clock++;
    stack.emplace_back(v, 0);
  }
}

bool ContentBasedNetwork::TargetBeyond(NodeId node, NodeId next,
                                       const Targets& targets) const {
  if (targets.everywhere) return true;
  const std::vector<uint32_t>& t = targets.tins;
  if (parent_[next] == node) {
    // `next`'s side is its subtree.
    auto it = std::lower_bound(t.begin(), t.end(), tin_[next]);
    return it != t.end() && *it < tout_[next];
  }
  // `next` is `node`'s parent: its side is everything outside `node`'s
  // subtree.
  return !t.empty() && (t.front() < tin_[node] || t.back() >= tout_[node]);
}

const ContentBasedNetwork::Targets& ContentBasedNetwork::TargetsOf(
    const RoutingTable::Entry& entry) {
  targets_.everywhere = !options_.advertisement_scoping;
  targets_.tins.clear();
  if (targets_.everywhere) return targets_;
  for (const RoutingTable::Entry::Part& part : entry.parts) {
    const std::set<NodeId>* publishers =
        PublishersOf(streams_->Name(part.stream.id()));
    if (publishers == nullptr) continue;
    for (NodeId p : *publishers) targets_.tins.push_back(tin_[p]);
  }
  std::sort(targets_.tins.begin(), targets_.tins.end());
  return targets_;
}

std::vector<NodeId> ContentBasedNetwork::NeighborIds(NodeId node) const {
  std::vector<NodeId> ids;
  for (const auto& [n, w] : tree_.Neighbors(node)) ids.push_back(n);
  return ids;
}

const std::set<NodeId>* ContentBasedNetwork::PublishersOf(
    const std::string& stream) const {
  auto it = advertisements_.find(stream);
  return it == advertisements_.end() ? nullptr : &it->second;
}

void ContentBasedNetwork::SetTelemetry(MetricsRegistry* metrics,
                                       Tracer* tracer) {
  if (metrics == nullptr) {
    if (owned_metrics_ == nullptr) {
      owned_metrics_ = std::make_unique<MetricsRegistry>();
    }
    metrics = owned_metrics_.get();
  }
  // A counter bundle stays valid as long as its registry is attached.
  if (metrics != metrics_) bundles_.clear();
  metrics_ = metrics;
  tracer_ = tracer;
  for (auto& r : routers_) r.SetTelemetry(metrics_);
  forwards_ = metrics_->GetCounter("cbn.forwards");
  forwarded_bytes_ = metrics_->GetCounter("cbn.forwarded_bytes");
  recovery_forwards_ = metrics_->GetCounter("cbn.recovery_forwards");
  deliveries_ = metrics_->GetCounter("cbn.deliveries");
  matches_ = metrics_->GetCounter("cbn.matches");
  control_ = metrics_->GetCounter("cbn.control_messages");
  covering_checks_ = metrics_->GetCounter("cbn.covering_checks");
  ledger_binds_ = metrics_->GetCounter("cbn.ledger_binds");
  // Rebound now: the publishers that bound an entry, and their datagrams
  // in flight or buffered, hold a reference on its id.
  for (StreamId id = 0; id < ledger_.size(); ++id) {
    StreamCounters*& counters = ledger_[id];
    counters = counters != nullptr && streams_->referenced(id)
                   ? &Bundle(streams_->Name(id))
                   : nullptr;
  }
  ResetLinkLedger();
  reset_.clear();
}

ContentBasedNetwork::StreamCounters& ContentBasedNetwork::Bundle(
    const std::string& stream) {
  auto [it, inserted] = bundles_.try_emplace(stream);
  StreamCounters& sc = it->second;
  if (!inserted) return sc;
  ledger_binds_->Increment();
  sc.published = metrics_->GetCounter("cbn.published", "stream", stream);
  sc.published_bytes =
      metrics_->GetCounter("cbn.published_bytes", "stream", stream);
  sc.delivered = metrics_->GetCounter("cbn.delivered", "stream", stream);
  sc.delivered_recovery =
      metrics_->GetCounter("cbn.delivered_recovery", "stream", stream);
  sc.buffered = metrics_->GetCounter("cbn.buffered", "stream", stream);
  sc.flushed = metrics_->GetCounter("cbn.flushed", "stream", stream);
  sc.dropped = metrics_->GetCounter("cbn.dropped", "stream", stream);
  sc.forwarded = metrics_->GetCounter("cbn.forwarded", "stream", stream);
  sc.forwarded_bytes =
      metrics_->GetCounter("cbn.forwarded_bytes", "stream", stream);
  return sc;
}

void ContentBasedNetwork::BindLedger(StreamId id) {
  if (ledger_.size() <= id) ledger_.resize(id + 1);
  ledger_[id] = &Bundle(streams_->Name(id));
}

ContentBasedNetwork::LinkCounters& ContentBasedNetwork::LinkLedger(
    NodeId node, size_t k) {
  std::vector<LinkCounters>& row = link_counters_[node];
  const auto& neighbors = tree_.Neighbors(node);
  if (row.size() != neighbors.size()) row.resize(neighbors.size());
  LinkCounters& lc = row[k];
  if (lc.datagrams == nullptr) {
    const std::string label = LinkLabel(node, neighbors[k].first);
    lc.datagrams = metrics_->GetCounter("cbn.link_datagrams", "link", label);
    lc.bytes = metrics_->GetCounter("cbn.link_bytes", "link", label);
  }
  return lc;
}

void ContentBasedNetwork::ResetLinkLedger() {
  link_counters_.assign(static_cast<size_t>(num_nodes()), {});
}

uint64_t ContentBasedNetwork::Since(const Counter* c) const {
  auto it = reset_.find(c);
  return c->value() - (it == reset_.end() ? 0 : it->second);
}

uint64_t ContentBasedNetwork::SumStreams(const std::string& family) const {
  // The family's counters outlive the stream ids they were counted under,
  // so the sum reads the registry, not the id-keyed ledger.
  const std::string prefix = family + "{stream=";
  const auto& counters = metrics_->counters();
  uint64_t total = 0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    total += Since(it->second.get());
  }
  return total;
}

size_t ContentBasedNetwork::CachedProjectionPlans() const {
  size_t total = 0;
  for (const auto& r : routers_) total += r.CachedPlans();
  return total;
}

void ContentBasedNetwork::ForEachSubscription(
    const std::function<void(NodeId, const Profile&)>& fn) const {
  for (const auto& [id, sub] : subscriptions_) {
    fn(sub.node, *sub.entry->profile);
  }
}

ContentBasedNetwork::Publisher ContentBasedNetwork::Advertise(
    NodeId node, const std::string& stream) {
  COSMOS_CHECK(node >= 0 && node < num_nodes()) << "node " << node;
  COSMOS_CHECK(advertisements_[stream].insert(node).second)
      << "node " << node << " already advertises " << stream;
  Publisher publisher(this, node, StreamRef(streams_.get(), stream));
  if (!options_.advertisement_scoping) return publisher;
  // A new publisher appeared: existing subscriptions interested in this
  // stream need routing entries along the new publisher->subscriber paths.
  const StreamId sid = publisher.stream_.id();
  Targets target;
  target.tins.push_back(tin_[node]);
  for (const auto& [id, sub] : subscriptions_) {
    const auto& parts = sub.entry->parts;
    if (std::none_of(parts.begin(), parts.end(),
                     [sid](const RoutingTable::Entry::Part& part) {
                       return part.stream.id() == sid;
                     })) {
      continue;
    }
    Install(sub.entry, target, sub.node, /*prev=*/-1);
  }
  return publisher;
}

ContentBasedNetwork::Publisher::Publisher(Publisher&& other) noexcept
    : network_(std::exchange(other.network_, nullptr)),
      node_(other.node_),
      stream_(std::move(other.stream_)),
      bound_(other.bound_) {}

ContentBasedNetwork::Publisher& ContentBasedNetwork::Publisher::operator=(
    Publisher&& other) noexcept {
  if (this != &other) {
    Withdraw();
    network_ = std::exchange(other.network_, nullptr);
    node_ = other.node_;
    stream_ = std::move(other.stream_);
    bound_ = other.bound_;
  }
  return *this;
}

void ContentBasedNetwork::Publisher::Withdraw() {
  if (network_ == nullptr) return;
  // The stream's last publisher takes its key along, so advertisements
  // stay bounded by the live publishers however many result-stream
  // versions come and go.
  auto it = network_->advertisements_.find(stream());
  it->second.erase(node_);
  if (it->second.empty()) network_->advertisements_.erase(it);
  network_ = nullptr;
  stream_ = StreamRef();
}

ProfileId ContentBasedNetwork::Subscribe(
    NodeId node, Profile profile, DeliveryCallback callback,
    std::shared_ptr<const TupleTarget> target) {
  COSMOS_CHECK(node >= 0 && node < num_nodes()) << "node " << node;
  ProfileId id = next_profile_id_++;
  auto shared = std::make_shared<const Profile>(std::move(profile));
  routers_[node].AddLocal(id, shared, callback, target);
  const Subscription& sub =
      subscriptions_[id] = Subscription{
          node, RoutingTable::Resolve(streams_.get(), id, std::move(shared)),
          std::move(callback), std::move(target)};
  Install(sub.entry, TargetsOf(*sub.entry), node, /*prev=*/-1);
  return id;
}

void ContentBasedNetwork::Install(const RoutingTable::EntryPtr& entry,
                                  const Targets& targets, NodeId from,
                                  NodeId prev) {
  // A node reached from neighbor `h.prev` (the side the subscriber lies on)
  // holds (h.prev -> entry) and passes the subscription on toward the
  // targets unless covering-prune applies: if an unpruned entry on that
  // same link covers it, nodes farther out already route everything it
  // wants toward us, so propagation stops and the entry records its
  // coverer. An entry already there (a new publisher's walk) was pruned or
  // passed on when it was added, and the walk does the same.
  std::vector<Hop>& q = install_hops_;
  q.clear();
  auto pass_on = [this, &q, &targets](NodeId node, NodeId prev) {
    for (const auto& [n, w] : tree_.Neighbors(node)) {
      if (n != prev && TargetBeyond(node, n, targets)) {
        q.push_back(Hop{n, node});
      }
    }
  };
  pass_on(from, prev);
  for (size_t head = 0; head < q.size(); ++head) {
    const Hop h = q[head];
    RoutingTable& table = routers_[h.node].table();
    if (table.Contains(h.prev, *entry)) {
      if (table.CoveredBy(h.prev, entry->id) != 0) continue;
    } else {
      ProfileId coverer = 0;
      if (options_.covering_prune) {
        uint64_t checks = 0;
        coverer = table.FindCoverer(h.prev, *entry, &checks);
        covering_checks_->Add(checks);
      }
      table.Add(h.prev, entry, coverer);
      control_->Increment();
      if (coverer != 0) continue;  // no need to announce farther out
    }
    pass_on(h.node, h.prev);
  }
}

void ContentBasedNetwork::Resume(ProfileId id, NodeId node, NodeId prev) {
  const RoutingTable::EntryPtr& entry = subscriptions_.at(id).entry;
  Install(entry, TargetsOf(*entry), node, prev);
}

bool ContentBasedNetwork::Unsubscribe(ProfileId id) {
  auto sit = subscriptions_.find(id);
  if (sit == subscriptions_.end()) return false;
  const NodeId subscriber = sit->second.node;
  // Held for the walk: the slots it erases may hold the last other
  // references.
  const RoutingTable::EntryPtr entry = std::move(sit->second.entry);
  subscriptions_.erase(sit);
  routers_[subscriber].RemoveLocal(id);
  // The removed profile's entries form a subtree grown outward from its
  // subscriber, so the walk visits only the nodes that hold one. At each,
  // the entries it was covering are re-checked, and the ones left
  // uncovered resume their walks past that hop; nothing else is touched.
  std::vector<Hop>& q = entry_hops_;
  q.clear();
  for (const auto& [n, w] : tree_.Neighbors(subscriber)) {
    q.push_back(Hop{n, subscriber});
  }
  std::vector<ProfileId> uncovered;
  for (size_t head = 0; head < q.size(); ++head) {
    const Hop h = q[head];
    uncovered.clear();
    uint64_t checks = 0;
    if (!routers_[h.node].table().Remove(h.prev, *entry, &uncovered,
                                         &checks)) {
      continue;
    }
    covering_checks_->Add(checks);
    for (ProfileId u : uncovered) Resume(u, h.node, h.prev);
    for (const auto& [n, w] : tree_.Neighbors(h.node)) {
      if (n != h.prev) q.push_back(Hop{n, h.node});
    }
  }
  return true;
}

bool ContentBasedNetwork::Update(ProfileId id, Profile profile) {
  auto sit = subscriptions_.find(id);
  if (sit == subscriptions_.end()) return false;
  Subscription& sub = sit->second;
  COSMOS_CHECK(profile.streams() == sub.entry->profile->streams())
      << "update of subscription " << id << " changes its streams";
  auto shared = std::make_shared<const Profile>(std::move(profile));
  routers_[sub.node].UpdateLocal(id, shared);
  sub.entry = RoutingTable::Resolve(streams_.get(), id, std::move(shared));
  const RoutingTable::EntryPtr entry = sub.entry;
  // The walk of Unsubscribe, rewriting each entry instead of removing it.
  // An entry pruned before the rewrite has no entries beyond it; where the
  // rewrite unprunes it, its walk resumes past that hop.
  std::vector<Hop>& q = entry_hops_;
  q.clear();
  for (const auto& [n, w] : tree_.Neighbors(sub.node)) {
    q.push_back(Hop{n, sub.node});
  }
  std::vector<ProfileId> uncovered;
  for (size_t head = 0; head < q.size(); ++head) {
    const Hop h = q[head];
    RoutingTable& table = routers_[h.node].table();
    const bool pruned = table.CoveredBy(h.prev, id) != 0;
    uncovered.clear();
    uint64_t checks = 0;
    if (!table.Update(h.prev, entry, &uncovered, &checks)) continue;
    control_->Increment();
    covering_checks_->Add(checks);
    for (ProfileId u : uncovered) Resume(u, h.node, h.prev);
    if (pruned) continue;
    for (const auto& [n, w] : tree_.Neighbors(h.node)) {
      if (n != h.prev) q.push_back(Hop{n, h.node});
    }
  }
  return true;
}

void ContentBasedNetwork::Emit(Event kind, NodeId node, NodeId peer,
                               const Datagram& d, size_t count, size_t bytes,
                               LinkCounters* link) {
  COSMOS_DCHECK(d.stream_id < ledger_.size() &&
                ledger_[d.stream_id] != nullptr)
      << "unbound ledger for " << d.stream;
  StreamCounters& sc = *ledger_[d.stream_id];
  switch (kind) {
    case Event::kPublish:
      sc.published->Increment();
      sc.published_bytes->Add(bytes);
      break;
    case Event::kForward:
      matches_->Increment();
      forwards_->Increment();
      forwarded_bytes_->Add(bytes);
      sc.forwarded->Increment();
      sc.forwarded_bytes->Add(bytes);
      link->datagrams->Increment();
      link->bytes->Add(bytes);
      break;
    case Event::kRecoveryForward:
      matches_->Increment();
      recovery_forwards_->Increment();
      break;
    case Event::kDeliver:
      deliveries_->Add(count);
      sc.delivered->Add(count);
      break;
    case Event::kRecoveryDeliver:
      deliveries_->Add(count);
      sc.delivered_recovery->Add(count);
      break;
    case Event::kBuffer:
      matches_->Increment();
      sc.buffered->Increment();
      break;
    case Event::kDrop:
      if (peer >= 0) matches_->Increment();  // a bucket matched it
      sc.dropped->Increment();
      break;
    case Event::kRecover:
      sc.flushed->Increment();
      break;
  }

  if (tracer_ == nullptr || !tracer_->enabled()) return;
  std::vector<std::pair<std::string, std::string>> args = {
      {"stream", Tracer::ArgString(d.stream)},
      {"ts", std::to_string(d.tuple.timestamp())}};
  if (kind == Event::kForward || kind == Event::kRecoveryForward) {
    // One slice on the receiving node's row, as long as the link delay.
    args.emplace_back("from", std::to_string(node));
    Duration dur = static_cast<Duration>(
        tree_.EdgeWeight(node, peer).value_or(1.0) * kMillisecond);
    tracer_->Complete("cbn", "hop", peer, tracer_->Now(), dur,
                      std::move(args));
    return;
  }
  if (kind == Event::kDeliver || kind == Event::kRecoveryDeliver) {
    args.emplace_back("count", std::to_string(count));
  }
  if (peer >= 0) args.emplace_back("peer", std::to_string(peer));
  static constexpr const char* kNames[] = {
      "publish", "hop", "hop", "deliver", "deliver", "buffer", "drop",
      "recover"};
  tracer_->Instant("cbn", kNames[static_cast<int>(kind)], node,
                   std::move(args));
}

std::vector<bool> ContentBasedNetwork::ComponentBeyondEdge(
    NodeId start, NodeId blocked_from) const {
  // Membership of `start`'s side of the single tree edge
  // (blocked_from, start): exactly the nodes the datagram stopped at that
  // edge never reached. Other failed links are crossed freely — nodes
  // beyond them have not seen the datagram either (the tree path is
  // unique), and distinct buffered copies of one datagram always record
  // disjoint sides.
  std::vector<bool> in(num_nodes(), false);
  std::queue<NodeId> q;
  q.push(start);
  in[start] = true;
  const auto blocked = DisseminationTree::EdgeKey(start, blocked_from);
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    for (const auto& [v, w] : tree_.Neighbors(u)) {
      if (in[v] || DisseminationTree::EdgeKey(u, v) == blocked) continue;
      in[v] = true;
      q.push(v);
    }
  }
  return in;
}

size_t ContentBasedNetwork::Process(NodeId node, NodeId from,
                                    const Datagram& d, size_t bytes,
                                    const std::vector<bool>* allowed) {
  // `allowed` marks the nodes that have NOT yet seen this datagram (a
  // post-repair flush into the side a failed link cut off). It restricts
  // *delivery*, never forwarding: after a repair (or a wholesale tree
  // rebuild) the surviving route to an unserved subscriber may pass through
  // already-served nodes, so a forwarding restriction would strand the
  // datagram. Served nodes merely relay; only unserved ones deliver.
  const bool recovery = allowed != nullptr;
  Router& router = routers_[node];
  const RoutingTable& table = router.table();
  // The one record this node keeps for the stream holds both its local
  // subscribers and its buckets.
  const RoutingTable::StreamRoutes* routes = table.RoutesOf(d.stream_id);
  if (routes == nullptr) return 0;
  size_t delivered = 0;
  if (!routes->local.subscribers.empty() && (!recovery || (*allowed)[node])) {
    delivered = router.DeliverLocal(d);
    if (delivered > 0) {
      Emit(recovery ? Event::kRecoveryDeliver : Event::kDeliver, node, from,
           d, delivered);
    }
  }

  // The buckets are walked in position order, which is Neighbors() order.
  // A delivery callback (above, or in a synchronous hop below) may
  // subscribe or unsubscribe, which moves the record and its buckets, so
  // each turn reads them afresh by index; when that created or erased a
  // bucket here, the walk resumes at the first bucket past the position
  // just visited.
  std::optional<Datagram> projected;  // built by the first projection
  const auto& neighbors = tree_.Neighbors(node);
  uint64_t version = table.bucket_version();
  size_t i = 0;
  while (true) {
    // The record outlives the walk: a table never drops one.
    const auto& links = table.RoutesOf(d.stream_id)->links;
    if (i >= links.size()) break;
    const RoutingTable::LinkBucket& lb = links[i++];
    if (lb.link == from) continue;
    const uint32_t k = lb.position;
    const auto [neighbor, weight] = neighbors[k];
    COSMOS_DCHECK_EQ(neighbor, lb.link) << "stale position at node " << node;
    const Datagram* out = router.DecideForward(
        d, lb.bucket, options_.early_projection, &projected);
    if (out == nullptr) continue;
    const size_t out_bytes = out == &d ? bytes : out->SerializedSize();
    if (LinkFailed(node, neighbor)) {
      if (options_.buffer_on_failure) {
        // Hold a copy for the cut-off side; it resumes after Repair()
        // delivering exactly there, so nobody sees it twice.
        streams_->Acquire(out->stream_id);
        buffered_.push_back(
            Buffered{neighbor, ComponentBeyondEdge(neighbor, node), *out});
        Emit(Event::kBuffer, node, neighbor, *out);
      } else {
        Emit(Event::kDrop, node, neighbor, *out);
      }
      continue;
    }
    if (recovery) {
      Emit(Event::kRecoveryForward, node, neighbor, *out);
    } else {
      Emit(Event::kForward, node, neighbor, *out, 1, out_bytes,
           &LinkLedger(node, k));
    }
    if (sim_ != nullptr) {
      // Link weight is the delay in milliseconds.
      Duration delay = static_cast<Duration>(weight * kMillisecond);
      Datagram copy = *out;
      NodeId next = neighbor;
      NodeId prev = node;
      // The component restriction must ride along with the scheduled hop
      // (by value: the caller's vector dies with the flush), or a
      // post-repair flush leaks into the healthy side and delivers twice.
      std::shared_ptr<const std::vector<bool>> allowed_copy;
      if (recovery) {
        allowed_copy = std::make_shared<const std::vector<bool>>(*allowed);
      }
      // The hop holds a reference on the stream id until it has run.
      streams_->Acquire(copy.stream_id);
      sim_->Schedule(delay, [this, next, prev, copy, out_bytes,
                             allowed_copy]() {
        Process(next, prev, copy, out_bytes, allowed_copy.get());
        streams_->Release(copy.stream_id);
      });
    } else {
      delivered += Process(neighbor, node, *out, out_bytes, allowed);
      if (table.bucket_version() != version) {
        version = table.bucket_version();
        const auto& now = table.RoutesOf(d.stream_id)->links;
        i = static_cast<size_t>(
            std::partition_point(now.begin(), now.end(),
                                 [k](const RoutingTable::LinkBucket& b) {
                                   return b.position <= k;
                                 }) -
            now.begin());
      }
    }
  }
  return delivered;
}

size_t ContentBasedNetwork::Publish(Publisher& publisher, Tuple tuple) {
  COSMOS_CHECK(publisher.network_ == this) << "not a publisher of this network";
  const StreamId id = publisher.stream_.id();
  // The handle's id stays assigned to its stream while the handle lives,
  // but a reused id's ledger entry may still point at the counters of the
  // stream that held it before: each handle binds the entry once, before
  // its first datagram.
  if (!publisher.bound_) {
    BindLedger(id);
    publisher.bound_ = true;
  }
  const Datagram d{streams_->Name(id), std::move(tuple), id};
  const size_t bytes = d.SerializedSize();
  Emit(Event::kPublish, publisher.node_, /*peer=*/-1, d, 1, bytes);
  return Process(publisher.node_, /*from=*/-1, d, bytes);
}

Status ContentBasedNetwork::FailLink(NodeId u, NodeId v) {
  if (!tree_.HasEdge(u, v)) {
    return Status::NotFound(StrFormat("tree link (%d,%d)", u, v));
  }
  failed_links_.insert(DisseminationTree::EdgeKey(u, v));
  return Status::OK();
}

void ContentBasedNetwork::ReinstallAllSubscriptions() {
  for (auto& r : routers_) {
    // A fresh Router drops the telemetry handles with the routing state;
    // re-apply them or rebuilds would silently stop counting. It also
    // resolves its buckets' positions against the current tree.
    r = Router(r.id(), streams_.get(), NeighborIds(r.id()));
    r.SetTelemetry(metrics_);
  }
  for (const auto& [id, sub] : subscriptions_) {
    routers_[sub.node].AddLocal(id, sub.entry->profile, sub.callback,
                                sub.target);
    Install(sub.entry, TargetsOf(*sub.entry), sub.node, /*prev=*/-1);
  }
}

Status ContentBasedNetwork::Repair(const Graph& overlay) {
  if (failed_links_.empty()) return Status::OK();
  if (overlay.num_nodes() != num_nodes()) {
    return Status::InvalidArgument("overlay node count mismatch");
  }
  // Surviving tree edges.
  std::vector<Edge> edges;
  for (const auto& e : tree_.edges()) {
    if (!LinkFailed(e.u, e.v)) edges.push_back(e);
  }
  // Reconnect components greedily: union-find over surviving edges, then
  // for each failed link pick the cheapest overlay edge across the cut.
  std::vector<int> parent(num_nodes());
  for (int i = 0; i < num_nodes(); ++i) parent[i] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](int a, int b) { parent[find(a)] = find(b); };
  for (const auto& e : edges) unite(e.u, e.v);

  size_t needed = failed_links_.size();
  for (size_t round = 0; round < needed; ++round) {
    // Find the cheapest healthy overlay edge across any remaining cut.
    const Edge* best = nullptr;
    for (const auto& cand : overlay.edges()) {
      if (find(cand.u) == find(cand.v)) continue;
      if (LinkFailed(cand.u, cand.v)) continue;
      if (best == nullptr || cand.weight < best->weight) best = &cand;
    }
    if (best == nullptr) {
      return Status::FailedPrecondition(
          "overlay cannot reconnect the partitioned tree");
    }
    edges.push_back(*best);
    unite(best->u, best->v);
  }

  COSMOS_ASSIGN_OR_RETURN(DisseminationTree repaired,
                          DisseminationTree::FromEdges(num_nodes(), edges));
  tree_ = std::move(repaired);
  IndexTree();
  failed_links_.clear();
  ResetLinkLedger();
  ReinstallAllSubscriptions();
  FlushBuffered();
  return Status::OK();
}

Status ContentBasedNetwork::RebuildTree(DisseminationTree tree) {
  if (tree.num_nodes() != num_nodes()) {
    return Status::InvalidArgument("tree node count mismatch");
  }
  tree_ = std::move(tree);
  IndexTree();
  failed_links_.clear();
  ResetLinkLedger();
  ReinstallAllSubscriptions();
  // Datagrams buffered at failed links would otherwise be stranded: never
  // delivered, never counted lost. They recover here exactly like after
  // Repair().
  FlushBuffered();
  return Status::OK();
}

void ContentBasedNetwork::FlushBuffered() {
  // Flush buffered datagrams to the nodes they never reached; restricting
  // *delivery* to that membership guarantees no duplicates on the healthy
  // side, while forwarding stays unrestricted so the repaired tree can
  // route through it. (The retransmission itself travels over a recovery
  // channel and is not charged to the byte counters.)
  std::deque<Buffered> pending = std::move(buffered_);
  buffered_.clear();
  // Buffered in the order datagrams reached a failed link, which is not
  // publish order: under a Simulator a later datagram can be held near its
  // publisher before an earlier one is held farther out. Replaying in
  // timestamp order keeps each stream's event time non-decreasing for the
  // windows downstream.
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Buffered& a, const Buffered& b) {
                     return a.datagram.tuple.timestamp() <
                            b.datagram.tuple.timestamp();
                   });
  for (auto& b : pending) {
    // Routing state, scoped or flooded, leads from every publisher of the
    // stream to every subscriber, so any publisher will do.
    const std::set<NodeId>* publishers = PublishersOf(b.datagram.stream);
    if (publishers == nullptr) {
      // Nothing routes a stream nobody advertises.
      Emit(Event::kDrop, b.entry, /*peer=*/-1, b.datagram);
      streams_->Release(b.datagram.stream_id);
      continue;
    }
    const NodeId start = *publishers->begin();
    Emit(Event::kRecover, start, /*peer=*/-1, b.datagram);
    Process(start, /*from=*/-1, b.datagram, b.datagram.SerializedSize(),
            &b.allowed);
    streams_->Release(b.datagram.stream_id);
  }
}

const std::map<std::pair<NodeId, NodeId>, LinkStats>&
ContentBasedNetwork::link_stats() const {
  // Links a repair or rebuild removed from the tree are left out, so
  // WeightedBytes() never charges stale keys at the fallback weight.
  link_stats_view_.clear();
  for (const auto& e : tree_.edges()) {
    const std::string label = LinkLabel(e.u, e.v);
    const Counter* datagrams = metrics_->FindCounter(
        MetricsRegistry::LabeledName("cbn.link_datagrams", "link", label));
    const Counter* bytes = metrics_->FindCounter(
        MetricsRegistry::LabeledName("cbn.link_bytes", "link", label));
    if (datagrams == nullptr || bytes == nullptr) continue;
    LinkStats stats{Since(datagrams), Since(bytes)};
    if (stats.datagrams > 0) {
      link_stats_view_.emplace(DisseminationTree::EdgeKey(e.u, e.v), stats);
    }
  }
  return link_stats_view_;
}

const std::map<std::string, uint64_t>&
ContentBasedNetwork::published_bytes_by_stream() const {
  published_bytes_view_.clear();
  const std::string prefix = "cbn.published_bytes{stream=";
  const auto& counters = metrics_->counters();
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    published_bytes_view_.emplace(
        MetricsRegistry::LabelValue(it->first, "stream"), it->second->value());
  }
  return published_bytes_view_;
}

double ContentBasedNetwork::WeightedBytes() const {
  double total = 0.0;
  for (const auto& [key, stats] : link_stats()) {
    double w = tree_.EdgeWeight(key.first, key.second).value_or(1.0);
    total += static_cast<double>(stats.bytes) * w;
  }
  return total;
}

size_t ContentBasedNetwork::TotalTableEntries() const {
  size_t total = 0;
  for (const auto& r : routers_) total += r.table().TotalEntries();
  return total;
}

void ContentBasedNetwork::ResetStats() {
  for (const auto& [name, c] : metrics_->counters()) {
    reset_[c.get()] = c->value();
  }
}

}  // namespace cosmos
