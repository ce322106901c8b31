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
    for (const auto& slot : slots_) profiles.push_back(&slot.profile());
    matcher_ = std::make_unique<CompiledMatcher>(stream, profiles);
  }
  return *matcher_;
}

uint32_t RoutingTable::PositionOf(NodeId link) {
  auto it = std::find(neighbors_.begin(), neighbors_.end(), link);
  if (it == neighbors_.end()) it = neighbors_.insert(it, link);
  return static_cast<uint32_t>(it - neighbors_.begin());
}

RoutingTable::EntryPtr RoutingTable::Resolve(StreamTable* streams,
                                             ProfileId id,
                                             ProfilePtr profile) {
  COSMOS_CHECK(profile != nullptr) << "routing entry " << id;
  auto entry = std::make_shared<Entry>();
  entry->id = id;
  entry->parts.reserve(profile->records().size());
  for (const auto& [stream, record] : profile->records()) {
    StreamRef ref(streams, stream);
    const AttrMask required = streams->MaskOf(ref.id(), record.required);
    entry->parts.push_back(
        Entry::Part{std::move(ref), required, !record.filters.empty()});
  }
  entry->profile = std::move(profile);
  return entry;
}

void RoutingTable::Add(NodeId link, EntryPtr entry, ProfileId covered_by) {
  COSMOS_CHECK(entry != nullptr && !entry->parts.empty())
      << "routing entry requests no stream";
  for (const Entry::Part& part : entry->parts) {
    const StreamId sid = part.stream.id();
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
      it->bucket.stream_ = StreamRef(streams_, sid);
    }
    StreamBucket& bucket = it->bucket;
    bucket.slots_.push_back(BucketSlot{entry->id, entry, part.required});
    bucket.filtered_ += part.filtered ? 1 : 0;
    bucket.union_ |= part.required;
    bucket.matcher_.reset();
  }
  if (covered_by != 0) covered_by_[{link, entry->id}] = covered_by;
  COSMOS_DCHECK(CheckInvariants());
}

bool RoutingTable::Remove(NodeId link, const Entry& entry,
                          std::vector<ProfileId>* uncovered,
                          uint64_t* covering_checks) {
  if (!Contains(link, entry)) return false;
  for (const Entry::Part& part : entry.parts) {
    std::vector<LinkBucket>& buckets = by_stream_[part.stream.id()].links;
    auto it = std::find_if(buckets.begin(), buckets.end(), OnLink(link));
    COSMOS_DCHECK(it != buckets.end()) << "no bucket for entry " << entry.id;
    auto& slots = it->bucket.slots_;
    auto slot = std::find_if(
        slots.begin(), slots.end(),
        [&entry](const BucketSlot& s) { return s.id == entry.id; });
    COSMOS_DCHECK(slot != slots.end()) << "no slot for entry " << entry.id;
    it->bucket.filtered_ -= part.filtered ? 1 : 0;
    slots.erase(slot);
    if (slots.empty()) {
      buckets.erase(it);  // releases the bucket's stream id
      ++bucket_version_;
    } else {
      it->bucket.union_dirty_ = true;
      it->bucket.matcher_.reset();
    }
  }
  covered_by_.erase({link, entry.id});
  Recheck(link, entry.id, entry.parts, /*still=*/nullptr, uncovered,
          covering_checks);
  COSMOS_DCHECK(CheckInvariants());
  return true;
}

bool RoutingTable::Update(NodeId link, EntryPtr now,
                          std::vector<ProfileId>* uncovered,
                          uint64_t* covering_checks) {
  const Entry& entry = *now;
  if (!Contains(link, entry)) return false;
  for (size_t k = 0; k < entry.parts.size(); ++k) {
    const Entry::Part& part = entry.parts[k];
    std::vector<LinkBucket>& buckets = by_stream_[part.stream.id()].links;
    auto it = std::find_if(buckets.begin(), buckets.end(), OnLink(link));
    COSMOS_DCHECK(it != buckets.end()) << "no bucket for entry " << entry.id;
    StreamBucket& bucket = it->bucket;
    auto slot = std::find_if(
        bucket.slots_.begin(), bucket.slots_.end(),
        [&entry](const BucketSlot& s) { return s.id == entry.id; });
    COSMOS_DCHECK(slot != bucket.slots_.end())
        << "no slot for entry " << entry.id;
    // The parts of both profiles follow their one set of streams.
    bucket.filtered_ -= slot->entry->parts[k].filtered ? 1 : 0;
    bucket.filtered_ += part.filtered ? 1 : 0;
    slot->entry = now;
    slot->required = part.required;
    bucket.union_dirty_ = true;
    bucket.matcher_.reset();
  }
  uint64_t checks = 0;
  auto own = covered_by_.find({link, entry.id});
  if (own != covered_by_.end()) {
    // Pruned: it keeps its coverer while that covers it, and otherwise
    // looks for another before its propagation resumes here.
    ++checks;
    const BucketSlot* coverer =
        SlotFor(link, entry.parts.front().stream.id(), own->second);
    if (!ProfileCovers(coverer->profile(), *entry.profile)) {
      const ProfileId next = FindCoverer(link, entry, &checks);
      if (next != 0) {
        own->second = next;
      } else {
        covered_by_.erase(own);
        if (uncovered != nullptr) uncovered->push_back(entry.id);
      }
    }
  } else {
    Recheck(link, entry.id, entry.parts, entry.profile.get(), uncovered,
            &checks);
  }
  if (covering_checks != nullptr) *covering_checks += checks;
  COSMOS_DCHECK(CheckInvariants());
  return true;
}

void RoutingTable::Recheck(NodeId link, ProfileId coverer,
                           const std::vector<Entry::Part>& streams,
                           const Profile* still,
                           std::vector<ProfileId>* uncovered,
                           uint64_t* covering_checks) {
  // Until its turn each entry still names `coverer`, which keeps it out of
  // FindCoverer: an entry is pruned only behind one whose state is final.
  auto pruned = covered_by_.lower_bound({link, 0});
  while (pruned != covered_by_.end() && pruned->first.first == link) {
    if (pruned->second != coverer) {
      ++pruned;
      continue;
    }
    const ProfileId id = pruned->first.second;
    // A coverer requests every stream the entry it covers does, so the
    // entry has a slot in one of `streams`' buckets on `link`.
    const BucketSlot* slot = nullptr;
    for (const Entry::Part& part : streams) {
      slot = SlotFor(link, part.stream.id(), id);
      if (slot != nullptr) break;
    }
    COSMOS_CHECK(slot != nullptr)
        << "pruned entry " << id << " on link " << link << " has no slot";
    bool kept = false;
    if (still != nullptr) {
      if (covering_checks != nullptr) ++*covering_checks;
      kept = ProfileCovers(*still, slot->profile());
    }
    const ProfileId next =
        kept ? coverer : FindCoverer(link, *slot->entry, covering_checks);
    if (next != 0) {
      pruned->second = next;
      ++pruned;
    } else {
      pruned = covered_by_.erase(pruned);
      if (uncovered != nullptr) uncovered->push_back(id);
    }
  }
}

ProfileId RoutingTable::FindCoverer(NodeId link, const Entry& narrow,
                                    uint64_t* covering_checks) const {
  const StreamBucket* smallest = nullptr;
  const Entry::Part* part = nullptr;
  for (const Entry::Part& p : narrow.parts) {
    const StreamBucket* bucket = BucketFor(link, p.stream.id());
    if (bucket == nullptr) return 0;  // nothing here requests the stream
    if (smallest == nullptr ||
        bucket->slots_.size() < smallest->slots_.size()) {
      smallest = bucket;
      part = &p;
    }
  }
  if (smallest == nullptr) return 0;
  // The required-attribute half of covering on the stream is mask
  // containment. A slot mask without kAllAttributes is exact; one with it
  // means "all attributes" or a dictionary overflow, so that slot takes
  // the exact path.
  const std::string& stream = streams_->Name(part->stream.id());
  const AttrMask need = part->required;
  uint64_t checks = 0;
  ProfileId coverer = 0;
  for (const BucketSlot& slot : smallest->slots_) {
    if (slot.id == narrow.id || CoveredBy(link, slot.id) != 0) continue;
    ++checks;
    const bool covers =
        (slot.required & kAllAttributes) != 0
            ? ProfileCovers(slot.profile(), *narrow.profile)
            : (slot.required & need) == need &&
                  ProfileCoversGivenRequired(slot.profile(), *narrow.profile,
                                             stream);
    COSMOS_DCHECK_EQ(covers, ProfileCovers(slot.profile(), *narrow.profile))
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

bool RoutingTable::Contains(NodeId link, const Entry& entry) const {
  return !entry.parts.empty() &&
         SlotFor(link, entry.parts.front().stream.id(), entry.id) != nullptr;
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
  // Each entry and the number of slots it has.
  struct Seen {
    const Entry* entry = nullptr;
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
        if (slot.entry == nullptr || slot.entry->id != slot.id ||
            !ids.insert(slot.id).second) {
          return false;
        }
        // The slot's part: the entry's resolution of the bucket's stream,
        // which its profile requests.
        const auto& parts = slot.entry->parts;
        auto part = std::find_if(
            parts.begin(), parts.end(),
            [sid](const Entry::Part& p) { return p.stream.id() == sid; });
        const Profile::StreamRecord* record =
            slot.profile().RecordOf(streams_->Name(sid));
        if (part == parts.end() || record == nullptr ||
            part->required != slot.required ||
            part->filtered == record->filters.empty()) {
          return false;
        }
        filtered += part->filtered ? 1 : 0;
        Seen& seen = entries[{lb.link, slot.id}];
        if (seen.entry == nullptr) seen.entry = slot.entry.get();
        if (seen.entry != slot.entry.get()) return false;
        ++seen.slots;
      }
      if (filtered != lb.bucket.filtered()) return false;
    }
  }
  // An entry has a slot in every stream its profile requests (each slot's
  // stream is requested, and no bucket holds an id twice).
  for (const auto& [key, seen] : entries) {
    if (seen.slots != seen.entry->profile->streams().size()) return false;
  }
  // A pruned entry and its coverer are live entries of the same link, the
  // coverer is unpruned and covers it; anything else strands the pruned
  // subscription.
  for (const auto& [key, coverer] : covered_by_) {
    auto narrow = entries.find(key);
    auto wide = entries.find({key.first, coverer});
    if (narrow == entries.end() || wide == entries.end() ||
        CoveredBy(key.first, coverer) != 0 ||
        !ProfileCovers(*wide->second.entry->profile,
                       *narrow->second.entry->profile)) {
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
        if (slot.entry->parts.front().stream.id() == sid) ++total;
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
