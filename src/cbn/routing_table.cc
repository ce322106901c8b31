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
    for (const auto& slot : slots_) profiles.push_back(slot.profile);
    matcher_ = std::make_unique<CompiledMatcher>(stream, profiles);
  }
  return *matcher_;
}

void RoutingTable::IndexEntry(NodeId link, ProfileId id, const Profile& p) {
  for (const auto& stream : p.streams()) {
    StreamRef ref(streams_, stream);
    const StreamId sid = ref.id();
    if (by_stream_.size() <= sid) by_stream_.resize(sid + 1);
    std::vector<LinkBucket>& buckets = by_stream_[sid];
    auto it = std::find_if(buckets.begin(), buckets.end(), OnLink(link));
    if (it == buckets.end()) {
      buckets.emplace_back();
      ++bucket_version_;
      it = buckets.end() - 1;
      it->link = link;
      it->bucket.stream_ = std::move(ref);
    }
    StreamBucket& bucket = it->bucket;
    const AttrMask required =
        streams_->MaskOf(sid, p.RequiredAttributes(stream));
    bucket.slots_.push_back(BucketSlot{id, &p, required});
    bucket.union_ |= required;
    bucket.matcher_.reset();
  }
}

void RoutingTable::DeindexEntry(NodeId link, ProfileId id, const Profile& p) {
  for (const auto& stream : p.streams()) {
    const StreamId sid = streams_->Find(stream);
    COSMOS_DCHECK(sid < by_stream_.size()) << "unindexed stream " << stream;
    std::vector<LinkBucket>& buckets = by_stream_[sid];
    auto it = std::find_if(buckets.begin(), buckets.end(), OnLink(link));
    COSMOS_DCHECK(it != buckets.end()) << "no bucket for stream " << stream;
    auto& slots = it->bucket.slots_;
    for (size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].id == id && slots[i].profile == &p) {
        slots.erase(slots.begin() + static_cast<long>(i));
        break;
      }
    }
    if (slots.empty()) {
      buckets.erase(it);  // releases the bucket's stream id
      ++bucket_version_;
    } else {
      it->bucket.union_dirty_ = true;
      it->bucket.matcher_.reset();
    }
  }
}

void RoutingTable::Add(NodeId link, ProfileId id, ProfilePtr profile,
                       ProfileId covered_by) {
  COSMOS_CHECK(profile != nullptr) << "routing entry " << id;
  IndexEntry(link, id, *profile);
  per_link_[link].push_back(Entry{id, std::move(profile)});
  if (covered_by != 0) covered_by_[{link, id}] = covered_by;
  COSMOS_DCHECK(CheckInvariants());
}

bool RoutingTable::AddUnique(NodeId link, ProfileId id, ProfilePtr profile) {
  COSMOS_CHECK(profile != nullptr) << "routing entry " << id;
  if (Contains(link, id)) return false;
  Add(link, id, std::move(profile));
  return true;
}

bool RoutingTable::Remove(NodeId link, ProfileId id,
                          std::vector<ProfileId>* uncovered,
                          uint64_t* covering_checks) {
  auto it = per_link_.find(link);
  if (it == per_link_.end()) return false;
  auto& entries = it->second;
  auto victim = std::find_if(entries.begin(), entries.end(),
                             [id](const Entry& e) { return e.id == id; });
  if (victim == entries.end()) return false;
  DeindexEntry(link, id, *victim->profile);
  entries.erase(victim);
  if (entries.empty()) per_link_.erase(it);
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
    const ProfileId coverer =
        FindCoverer(link, entry, *EntryProfile(link, entry), covering_checks);
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

bool RoutingTable::Contains(NodeId link, ProfileId id) const {
  auto it = per_link_.find(link);
  if (it == per_link_.end()) return false;
  for (const auto& e : it->second) {
    if (e.id == id) return true;
  }
  return false;
}

const Profile* RoutingTable::EntryProfile(NodeId link, ProfileId id) const {
  for (const auto& e : EntriesFor(link)) {
    if (e.id == id) return e.profile.get();
  }
  return nullptr;
}

bool RoutingTable::CheckInvariants() const {
  std::map<NodeId, size_t> expected_slots;
  for (const auto& [link, entries] : per_link_) {
    if (entries.empty()) return false;  // empty lists must be erased
    std::set<ProfileId> ids;
    for (const auto& e : entries) {
      if (e.profile == nullptr) return false;
      if (!ids.insert(e.id).second) return false;  // duplicate id
      expected_slots[link] += e.profile->streams().size();
      // Every (entry, stream) pair must be indexed.
      for (const auto& stream : e.profile->streams()) {
        const StreamBucket* bucket = BucketFor(link, streams_->Find(stream));
        if (bucket == nullptr) return false;
        bool found = false;
        for (const auto& slot : bucket->slots()) {
          if (slot.id == e.id && slot.profile == e.profile.get()) {
            found = true;
            break;
          }
        }
        if (!found) return false;
      }
    }
  }
  // A pruned entry and its coverer are live entries of the same link, the
  // coverer is unpruned and covers it; anything else strands the pruned
  // subscription.
  for (const auto& [key, coverer] : covered_by_) {
    const Profile* narrow = EntryProfile(key.first, key.second);
    const Profile* wide = EntryProfile(key.first, coverer);
    if (narrow == nullptr || wide == nullptr ||
        CoveredBy(key.first, coverer) != 0 || !ProfileCovers(*wide, *narrow)) {
      return false;
    }
  }
  // No empty or stray buckets/slots; slot count matches the entries'
  // stream count exactly (no duplicate or leaked slots).
  std::map<NodeId, size_t> total_slots;
  for (StreamId sid = 0; sid < by_stream_.size(); ++sid) {
    for (const LinkBucket& lb : by_stream_[sid]) {
      if (lb.bucket.slots().empty() || lb.bucket.stream_.id() != sid) {
        return false;
      }
      total_slots[lb.link] += lb.bucket.slots().size();
      const std::vector<Entry>& entries = EntriesFor(lb.link);
      for (const auto& slot : lb.bucket.slots()) {
        if (slot.profile == nullptr) return false;
        bool backed = false;
        for (const auto& e : entries) {
          if (e.id == slot.id && e.profile.get() == slot.profile &&
              e.profile->WantsStream(streams_->Name(sid))) {
            backed = true;
            break;
          }
        }
        if (!backed) return false;
      }
    }
  }
  return total_slots == expected_slots;
}

const std::vector<RoutingTable::Entry>& RoutingTable::EntriesFor(
    NodeId link) const {
  static const std::vector<Entry> kEmpty;
  auto it = per_link_.find(link);
  if (it == per_link_.end()) return kEmpty;
  return it->second;
}

std::vector<NodeId> RoutingTable::Links() const {
  std::vector<NodeId> out;
  out.reserve(per_link_.size());
  for (const auto& [link, entries] : per_link_) out.push_back(link);
  return out;
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
  return stream < by_stream_.size() ? by_stream_[stream] : kNone;
}

size_t RoutingTable::TotalEntries() const {
  size_t total = 0;
  for (const auto& [link, entries] : per_link_) total += entries.size();
  return total;
}

size_t RoutingTable::TotalIndexedSlots() const {
  size_t total = 0;
  for (const auto& buckets : by_stream_) {
    for (const LinkBucket& lb : buckets) total += lb.bucket.slots().size();
  }
  return total;
}

size_t RoutingTable::CachedPlans() const {
  size_t total = 0;
  for (const auto& buckets : by_stream_) {
    for (const LinkBucket& lb : buckets) {
      total += lb.bucket.projections().size();
    }
  }
  return total;
}

}  // namespace cosmos
