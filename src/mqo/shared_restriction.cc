#include "mqo/shared_restriction.h"

#include "common/string_util.h"

namespace geostreams {

SharedRestrictionOp::SharedRestrictionOp(
    std::unique_ptr<RegionIndex> index)
    : index_(std::move(index)) {}

Status SharedRestrictionOp::RegisterQuery(QueryId id, RegionPtr region,
                                          EventSink* sink) {
  if (!region || !sink) {
    return Status::InvalidArgument("query needs a region and a sink");
  }
  GEOSTREAMS_RETURN_IF_ERROR(index_->Insert(id, region->bounds()));
  QueryState state;
  state.region = std::move(region);
  state.sink = sink;
  // A bbox region is fully decided by the index's bounding-box test.
  state.exact_needed = state.region->kind() != RegionKind::kBBox;
  queries_.emplace(id, std::move(state));
  return Status::OK();
}

Status SharedRestrictionOp::UnregisterQuery(QueryId id) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  GEOSTREAMS_RETURN_IF_ERROR(index_->Remove(id));
  queries_.erase(it);
  return Status::OK();
}

Status SharedRestrictionOp::UpdateRegion(QueryId id, RegionPtr region) {
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  if (!region) return Status::InvalidArgument("query needs a region");
  GEOSTREAMS_RETURN_IF_ERROR(index_->Remove(id));
  GEOSTREAMS_RETURN_IF_ERROR(index_->Insert(id, region->bounds()));
  it->second.exact_needed = region->kind() != RegionKind::kBBox;
  it->second.region = std::move(region);
  return Status::OK();
}

Status SharedRestrictionOp::Consume(const StreamEvent& event) {
  switch (event.kind) {
    case EventKind::kFrameBegin:
      frame_lattice_ = event.frame.lattice;
      [[fallthrough]];
    case EventKind::kFrameEnd:
    case EventKind::kStreamEnd:
      for (auto& [id, q] : queries_) {
        GEOSTREAMS_RETURN_IF_ERROR(q.sink->Consume(event));
      }
      return Status::OK();
    case EventKind::kPointBatch:
      break;
  }

  const PointBatch& batch = *event.batch;
  for (size_t i = 0; i < batch.size(); ++i) {
    const double x = frame_lattice_.CellX(batch.cols[i]);
    const double y = frame_lattice_.CellY(batch.rows[i]);
    stab_buffer_.clear();
    index_->Stab(x, y, &stab_buffer_);
    ++points_routed_;
    for (QueryId id : stab_buffer_) {
      auto it = queries_.find(id);
      if (it == queries_.end()) continue;
      QueryState& q = it->second;
      if (q.exact_needed && !q.region->Contains(x, y)) continue;
      if (!q.pending) {
        q.pending = std::make_shared<PointBatch>();
        q.pending->frame_id = batch.frame_id;
        q.pending->band_count = batch.band_count;
      }
      q.pending->Append(
          batch.cols[i], batch.rows[i], batch.timestamps[i],
          &batch.values[i * static_cast<size_t>(batch.band_count)]);
    }
  }
  for (auto& [id, q] : queries_) {
    if (!q.pending) continue;
    StreamEvent out = StreamEvent::Batch(q.pending);
    // Carry the sampled trace across the shared-restriction split so
    // per-query pipelines downstream (the scheduler fork) still see it.
    out.trace = event.trace;
    Status st = q.sink->Consume(out);
    q.pending.reset();
    GEOSTREAMS_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

}  // namespace geostreams
