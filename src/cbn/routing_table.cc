#include "cbn/routing_table.h"

#include <algorithm>
#include <set>

#include "cbn/covering.h"
#include "common/check.h"

namespace cosmos {

namespace {

// Matches the per-stream bucket of `link`.
auto OnLink(NodeId link) {
  return [link](const auto& bucket) { return bucket.link == link; };
}

}  // namespace

AttrMask RoutingTable::StreamBucket::UnionMask() const {
  if (union_dirty_) {
    union_ = 0;
    for (const auto& slot : slots_) union_ |= slot.required;
    union_dirty_ = false;
  }
  return union_;
}

const CompiledMatcher& RoutingTable::StreamBucket::Compiled(
    const std::string& stream) const {
  if (matcher_ == nullptr) {
    std::vector<const Profile*> profiles;
    profiles.reserve(slots_.size());
    for (const auto& slot : slots_) profiles.push_back(slot.profile.get());
    matcher_ = std::make_unique<CompiledMatcher>(stream, profiles);
  }
  return *matcher_;
}

uint32_t RoutingTable::PositionOf(NodeId link) {
  auto it = std::find(neighbors_.begin(), neighbors_.end(), link);
  if (it == neighbors_.end()) it = neighbors_.insert(it, link);
  return static_cast<uint32_t>(it - neighbors_.begin());
}

void RoutingTable::Add(NodeId link, ProfileId id, ProfilePtr profile,
                       ProfileId covered_by) {
  COSMOS_CHECK(profile != nullptr) << "routing entry " << id;
  COSMOS_CHECK(!profile->streams().empty())
      << "routing entry " << id << " requests no stream";
  for (const auto& [stream, record] : profile->records()) {
    StreamRef ref(streams_, stream);
    const StreamId sid = ref.id();
    if (by_stream_.size() <= sid) by_stream_.resize(sid + 1);
    std::vector<LinkBucket>& buckets = by_stream_[sid].links;
    auto it = std::find_if(buckets.begin(), buckets.end(), OnLink(link));
    if (it == buckets.end()) {
      const uint32_t position = PositionOf(link);
      it = buckets.emplace(std::partition_point(
          buckets.begin(), buckets.end(),
          [position](const LinkBucket& lb) { return lb.position < position; }));
      ++bucket_version_;
      it->link = link;
      it->position = position;
      it->bucket.stream_ = std::move(ref);
    }
    StreamBucket& bucket = it->bucket;
    const AttrMask required = streams_->MaskOf(sid, record.required);
    bucket.slots_.push_back(BucketSlot{id, profile, required});
    bucket.filtered_ += record.filters.empty() ? 0 : 1;
    bucket.union_ |= required;
    bucket.matcher_.reset();
  }
  if (covered_by != 0) covered_by_[{link, id}] = covered_by;
  COSMOS_DCHECK(CheckInvariants());
}

bool RoutingTable::AddUnique(NodeId link, ProfileId id, ProfilePtr profile) {
  COSMOS_CHECK(profile != nullptr) << "routing entry " << id;
  if (Contains(link, id, *profile)) return false;
  Add(link, id, std::move(profile));
  return true;
}

bool RoutingTable::Remove(NodeId link, ProfileId id, const Profile& profile,
                          std::vector<ProfileId>* uncovered,
                          uint64_t* covering_checks) {
  if (!Contains(link, id, profile)) return false;
  for (const auto& [stream, record] : profile.records()) {
    const StreamId sid = streams_->Find(stream);
    COSMOS_DCHECK(sid < by_stream_.size()) << "unindexed stream " << stream;
    std::vector<LinkBucket>& buckets = by_stream_[sid].links;
    auto it = std::find_if(buckets.begin(), buckets.end(), OnLink(link));
    COSMOS_DCHECK(it != buckets.end()) << "no bucket for stream " << stream;
    auto& slots = it->bucket.slots_;
    auto slot = std::find_if(slots.begin(), slots.end(),
                             [id](const BucketSlot& s) { return s.id == id; });
    COSMOS_DCHECK(slot != slots.end()) << "no slot for entry " << id;
    it->bucket.filtered_ -= record.filters.empty() ? 0 : 1;
    slots.erase(slot);
    if (slots.empty()) {
      buckets.erase(it);  // releases the bucket's stream id
      ++bucket_version_;
    } else {
      it->bucket.union_dirty_ = true;
      it->bucket.matcher_.reset();
    }
  }
  covered_by_.erase({link, id});
  // Re-check the entries pruned behind `id`, in id order. Until its turn
  // each still names `id`, which keeps it out of FindCoverer: an entry is
  // pruned only behind one whose state is final.
  auto pruned = covered_by_.lower_bound({link, 0});
  while (pruned != covered_by_.end() && pruned->first.first == link) {
    if (pruned->second != id) {
      ++pruned;
      continue;
    }
    const ProfileId entry = pruned->first.second;
    // A coverer requests every stream the entry it covers does, so the
    // entry has a slot in one of `profile`'s buckets on `link`.
    const BucketSlot* slot = nullptr;
    for (const auto& stream : profile.streams()) {
      slot = SlotFor(link, streams_->Find(stream), entry);
      if (slot != nullptr) break;
    }
    COSMOS_CHECK(slot != nullptr) << "pruned entry " << entry << " on link "
                                  << link << " has no slot";
    const ProfileId coverer =
        FindCoverer(link, entry, *slot->profile, covering_checks);
    if (coverer != 0) {
      pruned->second = coverer;
      ++pruned;
    } else {
      pruned = covered_by_.erase(pruned);
      if (uncovered != nullptr) uncovered->push_back(entry);
    }
  }
  COSMOS_DCHECK(CheckInvariants());
  return true;
}

ProfileId RoutingTable::FindCoverer(NodeId link, ProfileId self,
                                    const Profile& narrow,
                                    uint64_t* covering_checks) const {
  const StreamBucket* smallest = nullptr;
  const std::string* stream = nullptr;
  for (const auto& name : narrow.streams()) {
    const StreamBucket* bucket = BucketFor(link, streams_->Find(name));
    if (bucket == nullptr) return 0;  // nothing here requests `name`
    if (smallest == nullptr ||
        bucket->slots_.size() < smallest->slots_.size()) {
      smallest = bucket;
      stream = &name;
    }
  }
  if (smallest == nullptr) return 0;
  // The required-attribute half of covering on `stream` is mask
  // containment. A slot mask without kAllAttributes is exact; one with it
  // means "all attributes" or a dictionary overflow, so that slot takes
  // the exact path.
  const AttrMask need = streams_->LookupMask(
      smallest->stream_.id(), narrow.RequiredAttributes(*stream));
  uint64_t checks = 0;
  ProfileId coverer = 0;
  for (const BucketSlot& slot : smallest->slots_) {
    if (slot.id == self || CoveredBy(link, slot.id) != 0) continue;
    ++checks;
    const bool covers =
        (slot.required & kAllAttributes) != 0
            ? ProfileCovers(*slot.profile, narrow)
            : (slot.required & need) == need &&
                  ProfileCoversGivenRequired(*slot.profile, narrow, *stream);
    COSMOS_DCHECK_EQ(covers, ProfileCovers(*slot.profile, narrow))
        << "slot " << slot.id << " on link " << link;
    if (covers) {
      coverer = slot.id;
      break;
    }
  }
  if (covering_checks != nullptr) *covering_checks += checks;
  return coverer;
}

ProfileId RoutingTable::CoveredBy(NodeId link, ProfileId id) const {
  auto it = covered_by_.find({link, id});
  return it == covered_by_.end() ? 0 : it->second;
}

bool RoutingTable::Contains(NodeId link, ProfileId id,
                           const Profile& profile) const {
  return !profile.streams().empty() &&
         SlotFor(link, streams_->Find(*profile.streams().begin()), id) !=
             nullptr;
}

const RoutingTable::BucketSlot* RoutingTable::SlotFor(NodeId link,
                                                      StreamId stream,
                                                      ProfileId id) const {
  const StreamBucket* bucket = BucketFor(link, stream);
  if (bucket == nullptr) return nullptr;
  for (const BucketSlot& slot : bucket->slots_) {
    if (slot.id == id) return &slot;
  }
  return nullptr;
}

bool RoutingTable::CheckInvariants() const {
  // Each entry's profile and the number of slots it has.
  struct Seen {
    const Profile* profile = nullptr;
    size_t slots = 0;
  };
  std::map<std::pair<NodeId, ProfileId>, Seen> entries;
  for (StreamId sid = 0; sid < by_stream_.size(); ++sid) {
    const LinkBucket* previous = nullptr;
    for (const LinkBucket& lb : by_stream_[sid].links) {
      if (lb.bucket.slots().empty() || lb.bucket.stream_.id() != sid ||
          BucketFor(lb.link, sid) != &lb.bucket ||
          lb.position >= neighbors_.size() ||
          neighbors_[lb.position] != lb.link ||
          (previous != nullptr && previous->position >= lb.position)) {
        return false;
      }
      previous = &lb;
      std::set<ProfileId> ids;
      size_t filtered = 0;
      for (const BucketSlot& slot : lb.bucket.slots()) {
        const Profile::StreamRecord* record =
            slot.profile == nullptr
                ? nullptr
                : slot.profile->RecordOf(streams_->Name(sid));
        if (record == nullptr || !ids.insert(slot.id).second) return false;
        filtered += record->filters.empty() ? 0 : 1;
        Seen& seen = entries[{lb.link, slot.id}];
        if (seen.profile == nullptr) seen.profile = slot.profile.get();
        if (seen.profile != slot.profile.get()) return false;
        ++seen.slots;
      }
      if (filtered != lb.bucket.filtered()) return false;
    }
  }
  // An entry has a slot in every stream its profile requests (each slot's
  // stream is requested, and no bucket holds an id twice).
  for (const auto& [key, seen] : entries) {
    if (seen.slots != seen.profile->streams().size()) return false;
  }
  // A pruned entry and its coverer are live entries of the same link, the
  // coverer is unpruned and covers it; anything else strands the pruned
  // subscription.
  for (const auto& [key, coverer] : covered_by_) {
    auto narrow = entries.find(key);
    auto wide = entries.find({key.first, coverer});
    if (narrow == entries.end() || wide == entries.end() ||
        CoveredBy(key.first, coverer) != 0 ||
        !ProfileCovers(*wide->second.profile, *narrow->second.profile)) {
      return false;
    }
  }
  return true;
}

const RoutingTable::StreamBucket* RoutingTable::BucketFor(
    NodeId link, StreamId stream) const {
  const std::vector<LinkBucket>& buckets = BucketsOf(stream);
  auto it = std::find_if(buckets.begin(), buckets.end(), OnLink(link));
  return it == buckets.end() ? nullptr : &it->bucket;
}

const std::vector<RoutingTable::LinkBucket>& RoutingTable::BucketsOf(
    StreamId stream) const {
  static const std::vector<LinkBucket> kNone;
  return stream < by_stream_.size() ? by_stream_[stream].links : kNone;
}

RoutingTable::LocalStream& RoutingTable::Locals(StreamId stream) {
  if (by_stream_.size() <= stream) by_stream_.resize(stream + 1);
  return by_stream_[stream].local;
}

size_t RoutingTable::TotalEntries() const {
  size_t total = 0;
  for (StreamId sid = 0; sid < by_stream_.size(); ++sid) {
    for (const LinkBucket& lb : by_stream_[sid].links) {
      for (const BucketSlot& slot : lb.bucket.slots()) {
        if (*slot.profile->streams().begin() == streams_->Name(sid)) ++total;
      }
    }
  }
  return total;
}

size_t RoutingTable::TotalIndexedSlots() const {
  size_t total = 0;
  for (const StreamRoutes& routes : by_stream_) {
    for (const LinkBucket& lb : routes.links) total += lb.bucket.slots().size();
  }
  return total;
}

size_t RoutingTable::CachedPlans() const {
  size_t total = 0;
  for (const StreamRoutes& routes : by_stream_) {
    for (const LinkBucket& lb : routes.links) {
      total += lb.bucket.projections().size();
    }
  }
  return total;
}

}  // namespace cosmos
