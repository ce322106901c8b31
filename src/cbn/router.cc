#include "cbn/router.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/logging.h"

namespace cosmos {

void Router::AddLocal(ProfileId id, ProfilePtr profile,
                      DeliveryCallback callback,
                      std::shared_ptr<const TupleTarget> target) {
  auto sub = std::make_unique<LocalSubscriber>();
  sub->id = id;
  sub->callback = std::move(callback);
  for (const auto& [stream, record] : profile->records()) {
    StreamRef ref(streams_, stream);
    const StreamId sid = ref.id();
    RoutingTable::LocalStream& local = table_.Locals(sid);
    local.subscribers.push_back(sub.get());
    local.filtered += record.filters.empty() ? 0 : 1;
    local.matcher.reset();
    sub->projections.push_back(LocalSubscriber::Projection{
        std::move(ref), streams_->MaskOf(sid, record.projection), {}});
  }
  sub->profile = std::move(profile);
  sub->target = std::move(target);
  locals_.push_back(std::move(sub));
}

bool Router::RemoveLocal(ProfileId id) {
  auto it = std::find_if(locals_.begin(), locals_.end(),
                         [id](const auto& sub) { return sub->id == id; });
  if (it == locals_.end()) return false;
  // Projections were filed in the order of the profile's records.
  const LocalSubscriber& sub = **it;
  auto projection = sub.projections.begin();
  for (const auto& [stream, record] : sub.profile->records()) {
    RoutingTable::LocalStream& local =
        table_.Locals((projection++)->stream.id());
    local.subscribers.erase(std::find(local.subscribers.begin(),
                                      local.subscribers.end(), &sub));
    local.filtered -= record.filters.empty() ? 0 : 1;
    local.matcher.reset();
  }
  locals_.erase(it);  // releases its references on the stream ids
  return true;
}

bool Router::UpdateLocal(ProfileId id, ProfilePtr profile) {
  auto it = std::find_if(locals_.begin(), locals_.end(),
                         [id](const auto& sub) { return sub->id == id; });
  if (it == locals_.end()) return false;
  LocalSubscriber& sub = **it;
  COSMOS_CHECK(profile->streams() == sub.profile->streams())
      << "local subscriber " << id << " changes its streams";
  // Both profiles' records follow the one set of streams, like the
  // projections filed in their order.
  auto old_record = sub.profile->records().begin();
  auto projection = sub.projections.begin();
  for (const auto& [stream, record] : profile->records()) {
    const StreamId sid = projection->stream.id();
    RoutingTable::LocalStream& local = table_.Locals(sid);
    local.filtered -= (old_record++)->second.filters.empty() ? 0 : 1;
    local.filtered += record.filters.empty() ? 0 : 1;
    local.matcher.reset();
    // The plans are keyed by mask, so the cached ones stay valid.
    (projection++)->mask = streams_->MaskOf(sid, record.projection);
  }
  sub.profile = std::move(profile);
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

const CompiledMatcher& Router::LocalMatcher(
    const RoutingTable::LocalStream& local, const std::string& stream) {
  if (local.matcher != nullptr) return *local.matcher;
  std::vector<const Profile*> profiles;
  profiles.reserve(local.subscribers.size());
  for (const LocalSubscriber* sub : local.subscribers) {
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

void Router::Deliver(LocalSubscriber& sub, const Datagram& d) {
  auto projection = std::find_if(
      sub.projections.begin(), sub.projections.end(),
      [&d](const LocalSubscriber::Projection& p) {
        return p.stream.id() == d.stream_id;
      });
  COSMOS_DCHECK(projection != sub.projections.end());
  Tuple scratch;
  if (sub.target != nullptr) {
    // The consumer's own tuple, built from d in one copy (none when the
    // shapes are equal). Its columns are P's, so this is the last-hop
    // projection too; a datagram lacking one of them is dropped.
    const Tuple* out = projection->plans.Map(d.tuple, *sub.target, &scratch);
    if (out != nullptr && sub.callback) {
      sub.callback(sub.target->schema->stream_name(), *out);
    }
    return;
  }
  // Last-hop projection: the subscriber receives exactly P(stream).
  const Tuple& out = projection->plans.Project(
      d.tuple, projection->mask, streams_->attributes(d.stream_id), &scratch);
  if (sub.callback) sub.callback(d.stream, out);
}

size_t Router::DeliverLocal(const Datagram& d) {
  const RoutingTable::StreamRoutes* routes = table_.RoutesOf(d.stream_id);
  if (routes == nullptr || routes->local.subscribers.empty()) return 0;
  // Subscribers are re-read by index on every delivery: a callback may
  // subscribe here, which can move the table's records (appends keep
  // indices).
  auto subscriber = [this, &d](size_t i) -> LocalSubscriber& {
    return *table_.RoutesOf(d.stream_id)->local.subscribers[i];
  };
  if (routes->local.filtered == 0) {
    // No subscriber filters the stream, so each covers every datagram of
    // it: deliver to all of them, with no matcher.
    const size_t count = routes->local.subscribers.size();
#ifndef NDEBUG
    for (size_t j = 0; j < count; ++j) {
      COSMOS_DCHECK(subscriber(j).profile->Covers(d))
          << "unfiltered local subscriber " << subscriber(j).id
          << " does not cover " << d.stream;
    }
#endif
    for (size_t j = 0; j < count; ++j) Deliver(subscriber(j), d);
    return count;
  }
  const CompiledMatcher& m = LocalMatcher(routes->local, d.stream);
  // Take the reusable hit buffer for the duration of the callbacks: a
  // callback that publishes re-enters this router and must not clobber
  // the list being delivered (it finds the member empty and regrows).
  std::vector<uint32_t> hits;
  std::swap(hits, local_hit_scratch_);
  MatchCompiled(m, d, &hits);
#ifndef NDEBUG
  {
    // Compiled output must equal the interpreted walk, slot by slot.
    const size_t count = routes->local.subscribers.size();
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

const Datagram* Router::DecideForward(
    const Datagram& d, const RoutingTable::StreamBucket& bucket,
    bool early_projection, std::optional<Datagram>* projected) const {
  const std::vector<RoutingTable::BucketSlot>& slots = bucket.slots();
  // Union of the attributes any matching downstream profile still needs
  // (its projection set plus its filters' attributes, so re-evaluation at
  // later hops stays possible). When every slot matches — always, in a
  // bucket no slot filters — the bucket's cached union is the answer.
  AttrMask needed = 0;
  if (bucket.filtered() == 0) {
#ifndef NDEBUG
    for (const auto& slot : slots) {
      COSMOS_DCHECK(slot.profile().Covers(d))
          << "unfiltered slot (entry " << slot.id << ") does not cover "
          << d.stream;
    }
#endif
    if (!early_projection) return &d;
    needed = bucket.UnionMask();
  } else {
    const bool was_compiled = bucket.has_compiled();
    const CompiledMatcher& m = bucket.Compiled(d.stream);
    if (!was_compiled && matcher_compiles_ != nullptr) {
      matcher_compiles_->Increment();
    }
    MatchCompiled(m, d, &hit_scratch_);
#ifndef NDEBUG
    {
      // Compiled output must equal the interpreted walk, slot by slot.
      size_t k = 0;
      for (size_t i = 0; i < slots.size(); ++i) {
        const bool interpreted = slots[i].profile().Covers(d);
        const bool compiled = k < hit_scratch_.size() && hit_scratch_[k] == i;
        COSMOS_DCHECK_EQ(compiled, interpreted)
            << "compiled/interpreted divergence at slot " << i << " (entry "
            << slots[i].id << ") on stream " << d.stream;
        if (compiled) ++k;
      }
    }
#endif
    const size_t matched = hit_scratch_.size();
    if (matched == 0) return nullptr;
    if (!early_projection) return &d;
    if (matched == slots.size()) {
      needed = bucket.UnionMask();
    } else {
      for (uint32_t h : hit_scratch_) needed |= slots[h].required;
    }
  }
  // A profile wanting all attributes disables projection on this link.
  Tuple tuple;
  const Tuple& out = bucket.projections().Project(
      d.tuple, needed, streams_->attributes(d.stream_id), &tuple);
  if (&out == &d.tuple) return &d;
  Datagram& p = projected->has_value() ? **projected : projected->emplace();
  p.stream = d.stream;
  p.stream_id = d.stream_id;
  p.tuple = std::move(tuple);
  return &p;
}

}  // namespace cosmos
