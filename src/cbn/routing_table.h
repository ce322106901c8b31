#ifndef COSMOS_CBN_ROUTING_TABLE_H_
#define COSMOS_CBN_ROUTING_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cbn/matcher.h"
#include "cbn/profile.h"
#include "cbn/projection.h"
#include "cbn/stream_table.h"
#include "overlay/graph.h"

namespace cosmos {

// A subscriber at this node. Router defines it; the table only files it
// under each stream it requests (RoutingTable::LocalStream).
struct LocalSubscriber;

// One node's content-based routing state: for every tree link (identified
// by the neighbor node id), the profiles subscribed somewhere downstream
// through that link, kept as one bucket per (stream id, link). The buckets
// are the table: an entry (link, id, profile) is one slot in the link's
// bucket of every stream its profile requests, and nothing else records
// it. A datagram of stream S is forwarded onto a link iff some slot in S's
// bucket for that link covers it, so a forwarding decision touches only
// the entries whose profile requests S (the posting-list layout of
// large-scale pub/sub matching engines). The buckets are keyed by the
// StreamId the datagram carries, so a lookup hashes no name. Each slot
// precomputes the profile's required attributes for its stream as an
// AttrMask, and the bucket caches their OR, so early projection builds no
// attribute set per datagram.
//
// An entry is reached through its profile's streams: its slot in the
// bucket of any one of them names it, which is why a profile must request
// at least one stream to be installed.
//
// A hop reads one record per stream (StreamRoutes): the stream's buckets
// in the order of the node's tree neighbours, and the node's own
// subscribers of the stream. Each bucket carries its link's position in
// that order, resolved once when the bucket is created, so walking the
// record visits the links in neighbour order with no search or sort.
//
// The table also records which entries had their subscription's
// propagation pruned at this hop, and behind which entry: an unpruned
// entry on the same link whose profile covers it (SIENA-style covered-by
// bookkeeping). Removing a coverer re-checks exactly the entries it
// covered, so an unsubscribe re-forwards only what it was covering.
class RoutingTable {
 public:
  // A subscription as the tables file it, resolved once (Resolve): its id
  // and profile, and per stream the profile requests, in records() order,
  // the stream's id (held by a reference), RequiredAttributes(stream) as a
  // mask over the stream's attribute dictionary (kAllAttributes: every
  // attribute) and whether the profile filters the stream. Every table call
  // takes it, so none hashes a stream name or builds a mask.
  struct Entry {
    struct Part {
      StreamRef stream;
      AttrMask required = 0;
      bool filtered = false;
    };
    ProfileId id = 0;
    ProfilePtr profile;
    std::vector<Part> parts;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  // Resolves subscription `id`'s `profile` against `streams`, assigning ids
  // to its streams and their dictionaries the attributes it requires.
  static EntryPtr Resolve(StreamTable* streams, ProfileId id,
                          ProfilePtr profile);

  // One entry's slot in a (stream, link) bucket: the entry (shared by its
  // slots in the other streams' buckets) and its required mask on the
  // bucket's stream.
  struct BucketSlot {
    ProfileId id = 0;
    EntryPtr entry;
    AttrMask required = 0;

    const Profile& profile() const { return *entry->profile; }
  };

  // The entries of one link subscribed to one stream, with the state
  // derived from them: the union of their required attributes, the
  // compiled matcher and the projection plans of datagrams leaving here.
  class StreamBucket {
   public:
    const std::vector<BucketSlot>& slots() const { return slots_; }

    // OR of the slots' required masks; it contains kAllAttributes when any
    // slot needs all attributes, which disables projection.
    AttrMask UnionMask() const;

    // The compiled counting matcher over this bucket's slots (profile
    // indices align with slots()), built lazily on first use for `stream`
    // and dropped whenever the slots change.
    const CompiledMatcher& Compiled(const std::string& stream) const;

    // Whether a compiled matcher is currently built (telemetry counts a
    // compile when this flips to true).
    bool has_compiled() const { return matcher_ != nullptr; }

    // The slots whose profile filters the stream, counted by Add and
    // Remove from the profile's record of the stream. At zero every slot
    // covers every datagram of the stream, so a forwarding decision needs
    // no matcher.
    size_t filtered() const { return filtered_; }

    // Projection plans of datagrams forwarded through this bucket. They
    // survive slot changes: masks index the stream's dictionary, which
    // only grows while the stream is live.
    ProjectionCache& projections() const { return projections_; }

   private:
    friend class RoutingTable;
    StreamRef stream_;  // keeps the id assigned while the bucket exists
    std::vector<BucketSlot> slots_;
    uint32_t filtered_ = 0;
    mutable AttrMask union_ = 0;
    mutable bool union_dirty_ = false;
    mutable std::unique_ptr<CompiledMatcher> matcher_;
    mutable ProjectionCache projections_;
  };

  // One stream's bucket on one link. `position` is the link's index in the
  // neighbour list the table was built with.
  struct LinkBucket {
    NodeId link = -1;
    uint32_t position = 0;
    StreamBucket bucket;
  };

  // This node's subscribers of one stream, in subscription order, how many
  // of them filter it (kept by Router like StreamBucket::filtered()), and
  // the compiled matcher over them (built lazily by Router, dropped
  // whenever they change). Each subscriber holds a reference on the
  // stream's id.
  struct LocalStream {
    std::vector<LocalSubscriber*> subscribers;
    uint32_t filtered = 0;
    mutable std::unique_ptr<CompiledMatcher> matcher;
  };

  // Everything this node routes by for one stream: its buckets in position
  // order, and its local subscribers.
  struct StreamRoutes {
    std::vector<LinkBucket> links;
    LocalStream local;
  };

  // `streams` interns the profiles' stream names and must outlive the
  // table. `neighbors` are the node's tree neighbours in the order a hop
  // visits them; a link not among them takes the next free position when
  // its first bucket is created (a table used on its own numbers its links
  // in first-use order).
  explicit RoutingTable(StreamTable* streams,
                        std::vector<NodeId> neighbors = {})
      : streams_(streams), neighbors_(std::move(neighbors)) {}

  // Adds `entry` on `link`, which must not hold it yet; `covered_by` (0:
  // none) is the unpruned entry on `link` it was pruned behind. The entry
  // must request at least one stream.
  void Add(NodeId link, EntryPtr entry, ProfileId covered_by = 0);

  // Removes `entry` from `link`; true when it was there. `entry` must
  // outlive the call: the slots may hold the only other reference. The
  // entries on `link` it covered are re-checked, in id order, against the
  // unpruned entries left: each either takes a new coverer or becomes
  // unpruned and is appended to `*uncovered` (its propagation must resume
  // past this hop). The slots FindCoverer examines are added to
  // `*covering_checks`. Either pointer may be null.
  bool Remove(NodeId link, const Entry& entry,
              std::vector<ProfileId>* uncovered = nullptr,
              uint64_t* covering_checks = nullptr);

  // Rewrites the entry on `link` with `now`'s id to `now`, which requests
  // the same streams; false when `link` holds no such entry. When the entry
  // was pruned and its coverer no longer covers `now`, it takes another
  // coverer or becomes unpruned; when it was unpruned, the entries pruned
  // behind it that `now` no longer covers are re-checked as Remove
  // re-checks them. Each entry this leaves unpruned, this one included, is
  // appended to `*uncovered` (its propagation must resume past this hop),
  // and the coverings tested are added to `*covering_checks`.
  bool Update(NodeId link, EntryPtr now, std::vector<ProfileId>* uncovered,
              uint64_t* covering_checks);

  // An unpruned entry on `link`, other than `narrow` itself, whose profile
  // covers `narrow`'s (ProfileCovers); 0 when there is none. Scans only the
  // smallest (stream, link) bucket of `narrow`'s streams: a coverer
  // requests every stream `narrow` does. Each slot's required mask is
  // tested against `narrow`'s first, and only a slot that contains it
  // reaches filter implication; a mask holding kAllAttributes ("all" or a
  // dictionary overflow) is not exact, so that slot takes the full
  // ProfileCovers. The slots examined are added to `*covering_checks` (may
  // be null), whichever path judged them.
  ProfileId FindCoverer(NodeId link, const Entry& narrow,
                        uint64_t* covering_checks) const;

  // True when `link` holds `entry`. The bucket of its first stream
  // answers: an entry has a slot in each of its streams' buckets.
  bool Contains(NodeId link, const Entry& entry) const;

  // The entry `id` on `link` was pruned behind: 0 when its subscription
  // propagated past this hop (or there is no such entry).
  ProfileId CoveredBy(NodeId link, ProfileId id) const;

  // The (stream, link) bucket; nullptr when no entry on `link` requests
  // `stream`.
  const StreamBucket* BucketFor(NodeId link, StreamId stream) const;

  // `stream`'s buckets, one per link some entry requests it on, in
  // position order (empty when none): the links a datagram of `stream`
  // can leave by, in the order a hop visits them.
  const std::vector<LinkBucket>& BucketsOf(StreamId stream) const;

  // `stream`'s record; nullptr when no bucket or local subscriber was ever
  // filed under the id or a larger one. Records are never dropped, so one
  // found stays valid until the next bucket or local subscriber is filed.
  // This is the forwarding hot path's one read per hop.
  const StreamRoutes* RoutesOf(StreamId stream) const {
    return stream < by_stream_.size() ? &by_stream_[stream] : nullptr;
  }

  // `stream`'s local subscribers, for Router to add to or remove from; the
  // record is created when the id has none.
  LocalStream& Locals(StreamId stream);

  // Bumped whenever a bucket is created or erased, so a caller walking
  // BucketsOf() by index can tell that the links behind its index moved.
  uint64_t bucket_version() const { return bucket_version_; }

  // Entries across all links, each counted once: at its slot in the
  // bucket of its profile's first stream.
  size_t TotalEntries() const;

  // Sum of bucket slot counts across all links: each entry contributes one
  // slot per stream its profile requests, so for single-stream profiles
  // this equals TotalEntries().
  size_t TotalIndexedSlots() const;

  // Projection plans cached across all buckets.
  size_t CachedPlans() const;

  // Structural invariants of the buckets: none is empty, each sits at its
  // stream's id in position order and is its link's only bucket for that
  // stream, its filtered() count is the slots whose profile filters the
  // stream, and each slot holds a profile that requests the bucket's
  // stream under an id unique in the bucket, with that stream's mask from
  // its entry. Every entry is whole: its slots share one Entry, one per
  // stream its profile requests. Every pruned entry is live, and its
  // coverer is live, unpruned, on the same link, and covers it. DCHECK'd
  // after every mutation so a dangling subscription, a stranded prune or a
  // half-removed entry cannot survive unnoticed.
  bool CheckInvariants() const;

 private:
  // The slot of entry `id` in the (stream, link) bucket; nullptr when
  // there is none.
  const BucketSlot* SlotFor(NodeId link, StreamId stream, ProfileId id) const;

  // Re-checks, in id order, the entries on `link` pruned behind `coverer`,
  // whose slots lie in the buckets of `streams`: each keeps `coverer` when
  // `still` (nullptr: none) covers it, else takes another coverer or
  // becomes unpruned and is appended to `*uncovered`.
  void Recheck(NodeId link, ProfileId coverer,
               const std::vector<Entry::Part>& streams, const Profile* still,
               std::vector<ProfileId>* uncovered, uint64_t* covering_checks);

  // The position of `link` in neighbors_, appending it when absent.
  uint32_t PositionOf(NodeId link);

  StreamTable* streams_;
  std::vector<NodeId> neighbors_;
  // Stream id -> its record.
  std::vector<StreamRoutes> by_stream_;
  uint64_t bucket_version_ = 0;
  // (link, id) of each pruned entry -> the entry it was pruned behind. Only
  // pruned entries have one, so the forwarding path's bucket slots carry
  // nothing for it.
  std::map<std::pair<NodeId, ProfileId>, ProfileId> covered_by_;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_ROUTING_TABLE_H_
