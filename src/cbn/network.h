#ifndef COSMOS_CBN_NETWORK_H_
#define COSMOS_CBN_NETWORK_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "cbn/covering.h"
#include "cbn/router.h"
#include "cbn/stream_table.h"
#include "overlay/dissemination_tree.h"
#include "overlay/graph.h"
#include "sim/simulator.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace cosmos {

// Per-link transfer statistics — the communication-cost model of every
// experiment (bytes and datagrams that crossed the link, in either
// direction).
struct LinkStats {
  uint64_t datagrams = 0;
  uint64_t bytes = 0;
};

struct NetworkOptions {
  // Early projection (paper §3.1 extension). Off reproduces a traditional
  // filter-only CBN (ablation abl-proj).
  bool early_projection = true;
  // Covering-based pruning of subscription propagation, in either regime:
  // a subscription stops at a hop where an unpruned entry on the same link
  // covers it, since that one already travels everywhere it would. Off by
  // default: along scoped paths it saves only a few percent of the entries
  // and costs a covering check per hop and re-checks on every removal.
  bool covering_prune = false;
  // Advertisement scoping (paper §2: sources advertise their streams,
  // processors advertise their result streams): subscription state is
  // installed only on the tree paths from advertised publishers of the
  // requested streams to the subscriber. Off floods every subscription to
  // the whole tree (ablation abl-adv).
  bool advertisement_scoping = true;
  // Buffer datagrams that would cross a failed link and flush them after
  // Repair() (data-layer high availability, paper §2's fault-tolerance
  // module of the data layer).
  bool buffer_on_failure = true;
};

// The content-based network: routers on every node of a dissemination tree.
// Subscriptions are profiles propagated from the subscriber toward the
// advertised publishers of their streams (or, unscoped, to the whole tree);
// publishing forwards the datagram along the tree links whose routing
// entries match it (reverse-path content routing).
//
// When a Simulator is attached, forwarding hops are scheduled with the link
// delay (edge weight, interpreted as milliseconds); otherwise delivery is
// synchronous and immediate.
class ContentBasedNetwork {
 public:
  explicit ContentBasedNetwork(DisseminationTree tree,
                               NetworkOptions options = {},
                               Simulator* sim = nullptr);

  const DisseminationTree& tree() const { return tree_; }
  int num_nodes() const { return tree_.num_nodes(); }

  // A publisher: the advertisement that `node` publishes one stream (paper
  // §2: sources advertise the streams they provide, processors the result
  // streams they generate), and the only way to publish. The advertisement
  // lasts as long as the handle, and the handle holds a reference on its
  // stream's id, so a publish resolves no name and the id cannot be
  // reassigned under it. Move-only; the network must outlive it, and a
  // delivery callback must not destroy the handle whose Publish it runs in.
  class Publisher {
   public:
    Publisher() = default;
    Publisher(Publisher&& other) noexcept;
    Publisher& operator=(Publisher&& other) noexcept;
    Publisher(const Publisher&) = delete;
    Publisher& operator=(const Publisher&) = delete;
    ~Publisher() { Withdraw(); }

    // The advertised stream's name.
    const std::string& stream() const {
      return network_->streams_->Name(stream_.id());
    }

   private:
    friend class ContentBasedNetwork;
    Publisher(ContentBasedNetwork* network, NodeId node, StreamRef stream)
        : network_(network), node_(node), stream_(std::move(stream)) {}
    // Ends the advertisement and drops the id reference (no-op when empty).
    void Withdraw();

    ContentBasedNetwork* network_ = nullptr;
    NodeId node_ = -1;
    StreamRef stream_;
    // Whether a publish through this handle has bound the ledger entry of
    // its id (see Publish).
    bool bound_ = false;
  };

  // Advertises that `node` publishes `stream` and returns the handle to
  // publish it through; `node` must not already hold one for `stream`.
  // With advertisement_scoping, installs the entries of the existing
  // subscriptions to `stream` along the new publisher's paths.
  [[nodiscard]] Publisher Advertise(NodeId node, const std::string& stream);

  // Installs `profile` for a subscriber at `node`; `callback` fires on each
  // delivered tuple: its projection onto P, or, with a `target` (which
  // names only columns of P), the tuple built in the target's shape, under
  // the target schema's stream name. Returns the profile id (for
  // Unsubscribe).
  ProfileId Subscribe(NodeId node, Profile profile, DeliveryCallback callback,
                      std::shared_ptr<const TupleTarget> target = nullptr);

  // Removes the subscription: walks its own entries outward from its
  // subscriber, and re-forwards only the subscriptions it was covering
  // that no other entry covers. False when unknown.
  bool Unsubscribe(ProfileId id);

  // Replaces subscription `id`'s profile with `profile`, which must request
  // the same streams, keeping its id, callback and target: rewrites its
  // local subscriber and each of its routing entries in place, one control
  // message per entry. Where its entry's coverer no longer covers it, the
  // entry takes another or the subscription resumes propagating past that
  // hop; the entries pruned behind it are re-checked as Unsubscribe
  // re-checks them. False when unknown.
  bool Update(ProfileId id, Profile profile);

  // Publishes `tuple` as a datagram of `publisher`'s stream from its node.
  // Every hop keys its lookups by the id the handle holds and visits only
  // the links with a bucket for it. Returns the number of local deliveries
  // performed (synchronous mode) or scheduled so far (simulated mode).
  size_t Publish(Publisher& publisher, Tuple tuple);

  // ---- fault tolerance (data-layer module of paper Figure 2) ----

  // Takes the tree link (u,v) down. Traffic that would cross it is counted
  // lost — or buffered for post-repair flushing when buffer_on_failure.
  Status FailLink(NodeId u, NodeId v);

  bool HasFailedLinks() const { return !failed_links_.empty(); }
  const std::set<std::pair<NodeId, NodeId>>& failed_links() const {
    return failed_links_;
  }

  // Repairs every failed link by splicing in the cheapest overlay edge
  // across each cut, rebuilding all routing state from the subscription
  // registry and flushing buffered datagrams. `overlay` must contain the
  // current tree's surviving edges.
  Status Repair(const Graph& overlay);

  // Replaces the dissemination tree wholesale (the overlay optimizer's
  // reorganization path): rebuilds every router's state from the
  // subscription registry. Fails if `tree` has a different node count.
  Status RebuildTree(DisseminationTree tree);

  // ---- statistics ----
  //
  // Read-only views over the cbn.* counters (see SetTelemetry), counted
  // since the last ResetStats().

  // Steady-state traffic per current tree link.
  const std::map<std::pair<NodeId, NodeId>, LinkStats>& link_stats() const;
  uint64_t total_bytes() const { return Since(forwarded_bytes_); }
  uint64_t total_datagrams_forwarded() const { return Since(forwards_); }
  uint64_t total_deliveries() const { return Since(deliveries_); }
  // Sum over links of bytes × link weight (delay-weighted traffic).
  double WeightedBytes() const;
  // Subscription control messages sent during propagation.
  uint64_t control_messages() const { return Since(control_); }
  // Routing-table slots examined by the covering checks of subscription
  // propagation and of the re-checks of Unsubscribe and Update
  // (cbn.covering_checks).
  uint64_t covering_checks() const { return Since(covering_checks_); }
  // Datagram forwards dropped at failed links (buffered ones not counted),
  // plus buffered datagrams whose stream nobody advertises any more when
  // the flush comes (see FlushBuffered).
  uint64_t lost_datagrams() const {
    return SumStreams("cbn.dropped");
  }
  uint64_t buffered_datagrams() const { return buffered_.size(); }
  // Buffered datagrams delivered into the cut-off component after Repair.
  uint64_t recovered_datagrams() const {
    return SumStreams("cbn.flushed");
  }
  // Sum of routing-table entries across all nodes (memory cost of
  // subscription state; advertisement scoping shrinks it).
  size_t TotalTableEntries() const;
  // Zeroes the views above (published bytes excepted); the registry's
  // counters keep running.
  void ResetStats();

  const Router& router(NodeId node) const { return routers_[node]; }
  // The nodes holding a Publisher of `stream` (nullptr when none does).
  const std::set<NodeId>* PublishersOf(const std::string& stream) const;
  // The stream-name interner the routers key their state by.
  const StreamTable& streams() const { return *streams_; }
  // Projection plans cached across all routers.
  size_t CachedProjectionPlans() const;

  // ---- telemetry ----

  // The network always counts its events into cbn.* counters (stream-
  // labeled families plus per-link and total counts): into `metrics`, or
  // into a registry it owns when `metrics` is nullptr. Attaching a registry
  // starts the statistics over in it. `tracer` (nullptr = off) receives a
  // Chrome-trace instant or hop slice for every data event. Handles are
  // cached here once, so the steady-state cost per hop is plain adds.
  void SetTelemetry(MetricsRegistry* metrics, Tracer* tracer);
  // The registry the network counts into (attached or owned).
  const MetricsRegistry& metrics() const { return *metrics_; }

  // Cumulative serialized bytes published per stream — the SelfTuner's
  // measured-rate source. Never reset by ResetStats().
  const std::map<std::string, uint64_t>& published_bytes_by_stream() const;

  // Visits every live subscription as (subscriber node, profile).
  void ForEachSubscription(
      const std::function<void(NodeId, const Profile&)>& fn) const;

 private:
  struct Subscription {
    NodeId node = -1;
    RoutingTable::EntryPtr entry;  // the profile, resolved once
    DeliveryCallback callback;
    std::shared_ptr<const TupleTarget> target;
  };

  // A subscription message arriving at `node` from neighbor `prev`, the
  // side its subscriber lies on.
  struct Hop {
    NodeId node;
    NodeId prev;
  };

  // The nodes a walk carries a subscription toward: every node (flooding),
  // or the publishers of its streams, by their tin_, sorted.
  struct Targets {
    bool everywhere = false;
    std::vector<uint32_t> tins;
  };
  // The targets of `entry`'s walks in the current regime (a reused buffer,
  // valid until the next call).
  const Targets& TargetsOf(const RoutingTable::Entry& entry);
  // Whether `next`'s side of the tree edge (node, next) holds a target.
  bool TargetBeyond(NodeId node, NodeId next, const Targets& targets) const;
  // Numbers the tree in depth-first order from node 0: tin_/tout_ bound
  // each node's subtree, so one side of any tree edge is an interval.
  void IndexTree();

  // The install walk, breadth-first outward from `from` to every neighbor
  // but `prev` (-1: all of them) whose side holds a target. At each hop an
  // existing entry of the subscription passes it on unless pruned; a new
  // one is added, pruned behind a coverer when covering_prune finds one,
  // and passes it on unless pruned. One control message per entry added.
  void Install(const RoutingTable::EntryPtr& entry, const Targets& targets,
               NodeId from, NodeId prev);
  // Resumes subscription `id`'s walk past `node`, reached from `prev`.
  void Resume(ProfileId id, NodeId node, NodeId prev);
  // Cached handles of one stream's stream-labeled counter families.
  struct StreamCounters {
    Counter* published = nullptr;
    Counter* published_bytes = nullptr;
    Counter* delivered = nullptr;
    Counter* delivered_recovery = nullptr;
    Counter* buffered = nullptr;
    Counter* flushed = nullptr;
    Counter* dropped = nullptr;
    Counter* forwarded = nullptr;
    Counter* forwarded_bytes = nullptr;
  };
  // Points the ledger entry of `id` (a referenced id) at its name's
  // counters.
  void BindLedger(StreamId id);
  // `stream`'s counters, resolved by name once per attached registry
  // (cbn.ledger_binds counts the resolutions).
  StreamCounters& Bundle(const std::string& stream);
  // `c`'s count since the last ResetStats(), and the sum over the streams
  // of one stream-labeled counter family (e.g. "cbn.dropped").
  uint64_t Since(const Counter* c) const;
  uint64_t SumStreams(const std::string& family) const;
  struct LinkCounters {
    Counter* datagrams = nullptr;
    Counter* bytes = nullptr;
  };
  // The counters of the link from `node` to its k-th tree neighbor, bound
  // on first use.
  LinkCounters& LinkLedger(NodeId node, size_t k);
  // Drops the per-link handles (the tree or the registry changed).
  void ResetLinkLedger();

  // One data-plane event, as Emit() records it.
  enum class Event {
    kPublish,          // datagram entered the CBN at `node`
    kForward,          // steady-state hop `node` -> `peer`
    kRecoveryForward,  // flush retransmission `node` -> `peer`
    kDeliver,          // `count` local deliveries at `node`
    kRecoveryDeliver,  // `count` flushed deliveries at `node`
    kBuffer,           // held at failed link `node` -> `peer`
    kDrop,             // lost at failed link `node` -> `peer`, or at
                       // flush entry `node` (peer -1) with no publisher
    kRecover,          // buffered datagram re-entering at `node`
  };
  // The only place a data event is recorded: counts it into the cbn.*
  // counters of d's stream (its ledger entry, bound by Publish) and, when
  // the tracer is on, records it there. `count` is the deliveries of a
  // kDeliver or kRecoveryDeliver, `bytes` d's wire size (kPublish and
  // kForward) and `link` the forwarding link's counters (kForward only).
  // Recovery traffic travels a recovery channel and is never charged to
  // links.
  void Emit(Event kind, NodeId node, NodeId peer, const Datagram& d,
            size_t count = 1, size_t bytes = 0, LinkCounters* link = nullptr);

  // Processes `d`, whose wire size is `bytes`, at `node` arriving from
  // `from` (-1 = published locally). When `allowed` is non-null, *delivery*
  // is restricted to nodes with allowed[v] == true (post-repair flushing
  // into the side a failed link cut off); forwarding is unrestricted so the
  // flush can route through already-served nodes when the repaired tree
  // demands it.
  size_t Process(NodeId node, NodeId from, const Datagram& d, size_t bytes,
                 const std::vector<bool>* allowed = nullptr);
  // Membership of `start`'s side of the tree edge (blocked_from, start) —
  // the nodes a datagram stopped at that edge has not reached.
  std::vector<bool> ComponentBeyondEdge(NodeId start,
                                        NodeId blocked_from) const;
  bool LinkFailed(NodeId u, NodeId v) const {
    return failed_links_.count(DisseminationTree::EdgeKey(u, v)) > 0;
  }
  // `node`'s tree neighbours in Neighbors() order: the positions its
  // router's buckets are kept in.
  std::vector<NodeId> NeighborIds(NodeId node) const;
  // Clears all routing state and reinstalls every live subscription.
  void ReinstallAllSubscriptions();
  // Delivers every buffered datagram into its recorded cut-off component
  // and counts it recovered. Called after Repair()/RebuildTree() restored
  // a connected tree. A flush restarts at a live publisher of the
  // datagram's stream, not at the node the datagram stopped at: scoped
  // state lies only on publisher->subscriber paths of the repaired tree,
  // which that node may be off. A datagram whose stream has no publisher
  // left is counted lost.
  void FlushBuffered();

  DisseminationTree tree_;
  NetworkOptions options_;
  Simulator* sim_;
  // Declared before the routers, whose buckets hold references into it.
  // Heap-held so the routers' pointer survives moving the network.
  std::unique_ptr<StreamTable> streams_;
  std::vector<Router> routers_;
  ProfileId next_profile_id_ = 1;

  std::map<ProfileId, Subscription> subscriptions_;
  std::map<std::string, std::set<NodeId>> advertisements_;
  std::set<std::pair<NodeId, NodeId>> failed_links_;
  struct Buffered {
    NodeId entry;               // far endpoint of the failed link
    // Nodes on the far side of the failed link at buffer time — the ones
    // that have not seen the datagram. Flushing delivers only to them.
    std::vector<bool> allowed;
    Datagram datagram;  // holds a reference on its stream id until flushed
  };
  std::deque<Buffered> buffered_;

  // The ledger: the attached registry, or owned_metrics_. Never null.
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Tracer* tracer_ = nullptr;
  // Stream name -> its counters, for the attached registry. Node-based,
  // so the ledger's pointers survive rehashing.
  std::unordered_map<std::string, StreamCounters> bundles_;
  // Stream id -> its counters. Each Publisher binds its id's entry on its
  // first publish, so an entry a reused id carries over is rebound before
  // any datagram of the id's new stream exists.
  std::vector<StreamCounters*> ledger_;
  // Node -> per tree neighbor (in Neighbors() order) -> link counters.
  std::vector<std::vector<LinkCounters>> link_counters_;
  Counter* forwards_ = nullptr;
  Counter* forwarded_bytes_ = nullptr;
  Counter* recovery_forwards_ = nullptr;
  Counter* deliveries_ = nullptr;
  Counter* matches_ = nullptr;
  Counter* control_ = nullptr;
  Counter* covering_checks_ = nullptr;
  Counter* ledger_binds_ = nullptr;
  // The breadth-first walks of Install and of Unsubscribe and Update, which
  // call Install while their own walk is under way, and Install's targets.
  // Kept so each walk reuses the capacity of the last.
  std::vector<Hop> install_hops_;
  std::vector<Hop> entry_hops_;
  Targets targets_;
  // Depth-first entry and exit times of each node, and its parent (-1 at
  // the root), over the current tree (IndexTree).
  std::vector<uint32_t> tin_;
  std::vector<uint32_t> tout_;
  std::vector<NodeId> parent_;
  // Counter readings at the last ResetStats().
  std::map<const Counter*, uint64_t> reset_;
  // Storage behind the map-returning views.
  mutable std::map<std::pair<NodeId, NodeId>, LinkStats> link_stats_view_;
  mutable std::map<std::string, uint64_t> published_bytes_view_;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_NETWORK_H_
