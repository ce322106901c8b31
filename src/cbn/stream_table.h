#ifndef COSMOS_CBN_STREAM_TABLE_H_
#define COSMOS_CBN_STREAM_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cbn/datagram.h"

namespace cosmos {

// A set of one stream's attributes, as bits over that stream's attribute
// dictionary (StreamTable::MaskOf). kAllAttributes means "every attribute
// of the tuple, known or not": it disables projection.
using AttrMask = uint64_t;
inline constexpr AttrMask kAllAttributes = AttrMask{1} << 63;

// Interns stream names into dense StreamIds, once per network. Names are
// resolved here only at the network's boundary: when a subscription
// installs routing state and when a publisher advertises. Every
// per-datagram lookup below it indexes by id.
//
// Ids are reference-counted and reused, so id-indexed storage stays
// bounded by the live stream set even though result streams are renamed
// on every representative change. References are held by routing buckets,
// local subscriptions, publishers (ContentBasedNetwork::Publisher) and
// datagrams in flight on the simulator or buffered at a failed link. An id
// reaches zero references only when none of those exists, so a later
// stream that takes the freed id can never reach the old owner's buckets,
// matchers or projection plans. A freed id keeps its name until the slot
// is reused, so a stream whose subscriptions or publisher come back before
// then gets its old id again.
//
// Each stream also owns an attribute dictionary that assigns bits to the
// attribute names profiles ask for, so required and projection attribute
// sets are AttrMasks and their union is a bitwise OR.
class StreamTable {
 public:
  // Attribute names a dictionary can hold; names beyond it widen any set
  // containing them to kAllAttributes (no projection: safe, only larger).
  static constexpr size_t kMaxAttributes = 63;

  StreamTable() = default;
  StreamTable(const StreamTable&) = delete;
  StreamTable& operator=(const StreamTable&) = delete;

  // The id of `name`, or kNoStream when it has none. A freed id is still
  // found until it is reassigned; referenced() tells it from a live one.
  // No data-plane path calls this: publishers and buckets hold their ids.
  StreamId Find(const std::string& name) const;

  // Takes one reference on the id of `name`, assigning one (reusing a
  // freed slot) when the name has none.
  StreamId Acquire(const std::string& name);
  // Takes one more reference on a referenced id.
  void Acquire(StreamId id);
  // Drops one reference; at zero the id may be reassigned.
  void Release(StreamId id);

  const std::string& Name(StreamId id) const { return slots_[id].name; }
  // Whether `id` has a reference: some routing state, publisher or
  // datagram holds it.
  bool referenced(StreamId id) const { return slots_[id].refs > 0; }

  // The mask of `attributes` in `id`'s dictionary, adding unknown names.
  // Empty `attributes` means all attributes: kAllAttributes.
  AttrMask MaskOf(StreamId id, const std::vector<std::string>& attributes);
  // MaskOf without adding names: a name the dictionary lacks sets
  // kAllAttributes. So an exact mask (one without kAllAttributes) contains
  // the result iff its attribute set holds every one of `attributes`.
  AttrMask LookupMask(StreamId id,
                      const std::vector<std::string>& attributes) const;
  // `id`'s dictionary: bit i names attributes(id)[i].
  const std::vector<std::string>& attributes(StreamId id) const {
    return slots_[id].attributes;
  }

  // Ids with at least one reference.
  size_t live() const { return live_; }
  // Ids handed out, live or free: the table's footprint. It grows only
  // when no freed id is left, so it never exceeds the peak live count.
  size_t size() const { return slots_.size(); }

 private:
  struct Slot {
    std::string name;
    uint32_t refs = 0;
    bool on_free_list = false;
    std::vector<std::string> attributes;
  };

  std::unordered_map<std::string, StreamId> ids_;
  std::vector<Slot> slots_;
  // Freed ids, most recent last. Entries revived by Acquire stay here and
  // are skipped when popped.
  std::vector<StreamId> free_;
  size_t live_ = 0;
};

// One reference on a StreamId, released on destruction (move-only). The
// table must outlive the reference.
class StreamRef {
 public:
  StreamRef() = default;
  StreamRef(StreamTable* table, const std::string& name)
      : table_(table), id_(table->Acquire(name)) {}
  // One more reference on `id`, which must be referenced already.
  StreamRef(StreamTable* table, StreamId id) : table_(table), id_(id) {
    table->Acquire(id);
  }
  StreamRef(StreamRef&& other) noexcept
      : table_(std::exchange(other.table_, nullptr)), id_(other.id_) {}
  StreamRef& operator=(StreamRef&& other) noexcept {
    if (this != &other) {
      Reset();
      table_ = std::exchange(other.table_, nullptr);
      id_ = other.id_;
    }
    return *this;
  }
  StreamRef(const StreamRef&) = delete;
  StreamRef& operator=(const StreamRef&) = delete;
  ~StreamRef() { Reset(); }

  StreamId id() const { return table_ == nullptr ? kNoStream : id_; }

 private:
  void Reset() {
    if (table_ != nullptr) table_->Release(id_);
    table_ = nullptr;
  }

  StreamTable* table_ = nullptr;
  StreamId id_ = kNoStream;
};

}  // namespace cosmos

#endif  // COSMOS_CBN_STREAM_TABLE_H_
