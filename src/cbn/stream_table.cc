#include "cbn/stream_table.h"

#include <algorithm>

#include "common/check.h"

namespace cosmos {

StreamId StreamTable::Find(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoStream : it->second;
}

StreamId StreamTable::Acquire(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    Acquire(it->second);
    return it->second;
  }
  StreamId id = kNoStream;
  while (!free_.empty()) {
    const StreamId candidate = free_.back();
    free_.pop_back();
    slots_[candidate].on_free_list = false;
    if (slots_[candidate].refs == 0) {
      id = candidate;
      break;
    }
  }
  if (id == kNoStream) {
    COSMOS_CHECK_LT(slots_.size(), size_t{kNoStream}) << "stream ids";
    id = static_cast<StreamId>(slots_.size());
    slots_.emplace_back();
  } else {
    ids_.erase(slots_[id].name);
  }
  Slot& slot = slots_[id];
  slot.name = name;
  slot.attributes.clear();
  ids_.emplace(name, id);
  Acquire(id);
  return id;
}

void StreamTable::Acquire(StreamId id) {
  COSMOS_DCHECK_LT(id, slots_.size());
  if (slots_[id].refs++ == 0) ++live_;
}

void StreamTable::Release(StreamId id) {
  COSMOS_DCHECK_LT(id, slots_.size());
  Slot& slot = slots_[id];
  COSMOS_CHECK_GT(slot.refs, 0u) << "stream " << slot.name;
  if (--slot.refs > 0) return;
  --live_;
  if (!slot.on_free_list) {
    slot.on_free_list = true;
    free_.push_back(id);
  }
}

AttrMask StreamTable::MaskOf(StreamId id,
                             const std::vector<std::string>& attributes) {
  if (attributes.empty()) return kAllAttributes;
  std::vector<std::string>& dict = slots_[id].attributes;
  AttrMask mask = 0;
  for (const auto& name : attributes) {
    auto it = std::find(dict.begin(), dict.end(), name);
    if (it == dict.end()) {
      if (dict.size() == kMaxAttributes) {
        mask |= kAllAttributes;
        continue;
      }
      it = dict.insert(dict.end(), name);
    }
    mask |= AttrMask{1} << (it - dict.begin());
  }
  return mask;
}

AttrMask StreamTable::LookupMask(
    StreamId id, const std::vector<std::string>& attributes) const {
  if (attributes.empty()) return kAllAttributes;
  const std::vector<std::string>& dict = slots_[id].attributes;
  AttrMask mask = 0;
  for (const auto& name : attributes) {
    auto it = std::find(dict.begin(), dict.end(), name);
    mask |= it == dict.end() ? kAllAttributes
                             : AttrMask{1} << (it - dict.begin());
  }
  return mask;
}

}  // namespace cosmos
