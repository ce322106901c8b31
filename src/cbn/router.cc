#include "cbn/router.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/logging.h"

namespace cosmos {

void Router::AddLocal(ProfileId id, ProfilePtr profile,
                      DeliveryCallback callback) {
  auto sub = std::make_unique<LocalSubscription>();
  sub->id = id;
  sub->callback = std::move(callback);
  for (const auto& stream : profile->streams()) {
    StreamRef ref(streams_, stream);
    const StreamId sid = ref.id();
    if (local_by_stream_.size() <= sid) local_by_stream_.resize(sid + 1);
    LocalStream& local = local_by_stream_[sid];
    if (local.subscribers.empty()) local.stream = std::move(ref);
    local.subscribers.push_back(sub.get());
    local.matcher.reset();
    sub->projections.push_back(LocalSubscription::Projection{
        sid, streams_->MaskOf(sid, profile->ProjectionOf(stream)), {}});
  }
  sub->profile = std::move(profile);
  locals_.push_back(std::move(sub));
}

bool Router::RemoveLocal(ProfileId id) {
  auto it = std::find_if(locals_.begin(), locals_.end(),
                         [id](const auto& sub) { return sub->id == id; });
  if (it == locals_.end()) return false;
  for (const auto& projection : (*it)->projections) {
    LocalStream& local = local_by_stream_[projection.stream];
    local.subscribers.erase(std::find(local.subscribers.begin(),
                                      local.subscribers.end(), it->get()));
    local.matcher.reset();
    if (local.subscribers.empty()) local.stream = StreamRef();
  }
  locals_.erase(it);
  return true;
}

void Router::SetTelemetry(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    matcher_compiles_ = nullptr;
    matcher_fallbacks_ = nullptr;
    match_time_ns_ = nullptr;
    return;
  }
  matcher_compiles_ = metrics->GetCounter("cbn.matcher_compiles");
  matcher_fallbacks_ = metrics->GetCounter("cbn.matcher_fallbacks");
  match_time_ns_ = metrics->GetHistogram("cbn.match_ns");
}

size_t Router::CachedPlans() const {
  size_t total = table_.CachedPlans();
  for (const auto& sub : locals_) {
    for (const auto& projection : sub->projections) {
      total += projection.plans.size();
    }
  }
  return total;
}

const CompiledMatcher& Router::LocalMatcher(LocalStream& local,
                                            const std::string& stream) {
  if (local.matcher != nullptr) return *local.matcher;
  std::vector<const Profile*> profiles;
  profiles.reserve(local.subscribers.size());
  for (const LocalSubscription* sub : local.subscribers) {
    profiles.push_back(sub->profile.get());
  }
  if (matcher_compiles_ != nullptr) matcher_compiles_->Increment();
  local.matcher = std::make_unique<CompiledMatcher>(stream, profiles);
  return *local.matcher;
}

void Router::MatchCompiled(const CompiledMatcher& m, const Datagram& d,
                           std::vector<uint32_t>* hits) const {
  const bool timed =
      match_time_ns_ != nullptr && (match_sample_++ & 63) == 0;
  std::chrono::steady_clock::time_point start;
  if (timed) start = std::chrono::steady_clock::now();
  m.Match(d, &matcher_scratch_, hits);
  if (timed) {
    match_time_ns_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  if (matcher_fallbacks_ != nullptr && matcher_scratch_.fallback_evals > 0) {
    matcher_fallbacks_->Add(matcher_scratch_.fallback_evals);
  }
}

void Router::Deliver(LocalSubscription& sub, const Datagram& d) {
  // Last-hop projection: the subscriber receives exactly P(stream).
  auto projection = std::find_if(
      sub.projections.begin(), sub.projections.end(),
      [&d](const LocalSubscription::Projection& p) {
        return p.stream == d.stream_id;
      });
  COSMOS_DCHECK(projection != sub.projections.end());
  Tuple scratch;
  const Tuple& out = projection->plans.Project(
      d.tuple, projection->mask, streams_->attributes(d.stream_id), &scratch);
  if (sub.callback) sub.callback(d.stream, out);
}

size_t Router::DeliverLocal(const Datagram& d) {
  if (d.stream_id >= local_by_stream_.size()) return 0;
  // Subscribers are re-read by index on every delivery: a callback may
  // subscribe here, which can move local_by_stream_ (appends keep indices).
  auto subscriber = [this, &d](size_t i) -> LocalSubscription& {
    return *local_by_stream_[d.stream_id].subscribers[i];
  };
  const size_t count = local_by_stream_[d.stream_id].subscribers.size();
  if (count == 0) return 0;
  const CompiledMatcher& m =
      LocalMatcher(local_by_stream_[d.stream_id], d.stream);
  // Take the reusable hit buffer for the duration of the callbacks: a
  // callback that publishes re-enters this router and must not clobber
  // the list being delivered (it finds the member empty and regrows).
  std::vector<uint32_t> hits;
  std::swap(hits, local_hit_scratch_);
  MatchCompiled(m, d, &hits);
#ifndef NDEBUG
  {
    // Compiled output must equal the interpreted walk, slot by slot.
    size_t k = 0;
    for (size_t j = 0; j < count; ++j) {
      const bool interpreted = subscriber(j).profile->Covers(d);
      const bool compiled = k < hits.size() && hits[k] == j;
      COSMOS_DCHECK_EQ(compiled, interpreted)
          << "compiled/interpreted divergence for local subscriber "
          << subscriber(j).id << " on " << d.stream;
      if (compiled) ++k;
    }
  }
#endif
  for (uint32_t h : hits) Deliver(subscriber(h), d);
  const size_t delivered = hits.size();
  hits.clear();
  std::swap(hits, local_hit_scratch_);
  return delivered;
}

const Datagram* Router::DecideForward(const Datagram& d, NodeId link,
                                      bool early_projection,
                                      Datagram* projected) const {
  const RoutingTable::StreamBucket* bucket =
      table_.BucketFor(link, d.stream_id);
  if (bucket == nullptr) return nullptr;
  const std::vector<RoutingTable::BucketSlot>& slots = bucket->slots();
  const bool was_compiled = bucket->has_compiled();
  const CompiledMatcher& m = bucket->Compiled(d.stream);
  if (!was_compiled && matcher_compiles_ != nullptr) {
    matcher_compiles_->Increment();
  }
  MatchCompiled(m, d, &hit_scratch_);
#ifndef NDEBUG
  {
    // Compiled output must equal the interpreted walk, slot by slot.
    size_t k = 0;
    for (size_t i = 0; i < slots.size(); ++i) {
      const bool interpreted = slots[i].profile->Covers(d);
      const bool compiled = k < hit_scratch_.size() && hit_scratch_[k] == i;
      COSMOS_DCHECK_EQ(compiled, interpreted)
          << "compiled/interpreted divergence at slot " << i << " (entry "
          << slots[i].id << ") on stream " << d.stream;
      if (compiled) ++k;
    }
  }
#endif
  // Union of the attributes any matching downstream profile still needs
  // (its projection set plus its filters' attributes, so re-evaluation at
  // later hops stays possible). When every slot matched — the common case
  // for stream-level subscriptions — the bucket's cached union is the
  // answer.
  const size_t matched = hit_scratch_.size();
  AttrMask needed = 0;
  if (early_projection && matched < slots.size()) {
    for (uint32_t h : hit_scratch_) needed |= slots[h].required;
  }
  if (matched == 0) return nullptr;
  if (!early_projection) return &d;
  if (matched == slots.size()) needed = bucket->UnionMask();
  // A profile wanting all attributes disables projection on this link.
  const Tuple& out = bucket->projections().Project(
      d.tuple, needed, streams_->attributes(d.stream_id), &projected->tuple);
  if (&out == &d.tuple) return &d;
  projected->stream = d.stream;
  projected->stream_id = d.stream_id;
  return projected;
}

}  // namespace cosmos
