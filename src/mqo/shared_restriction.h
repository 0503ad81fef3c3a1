// Shared spatial restriction operator (Sec. 4).
//
// One operator instance serves all continuous queries registered
// against a GeoStream: each incoming point is stabbed against a
// RegionIndex (dynamic cascade tree by default) and routed only to
// the queries whose region contains it. Frame metadata is forwarded
// to every subscriber so downstream frame-scoped operators keep
// working.

#ifndef GEOSTREAMS_MQO_SHARED_RESTRICTION_H_
#define GEOSTREAMS_MQO_SHARED_RESTRICTION_H_

#include <map>
#include <memory>

#include "geo/lattice.h"
#include "geo/region.h"
#include "mqo/region_index.h"
#include "stream/operator.h"

namespace geostreams {

class SharedRestrictionOp : public EventSink {
 public:
  /// Takes ownership of the index (cascade tree, grid, or filter
  /// bank — the E7 bench swaps them).
  explicit SharedRestrictionOp(std::unique_ptr<RegionIndex> index);

  /// Registers a continuous query: points inside `region` go to
  /// `sink` (not owned). The index prunes by bounding box; the exact
  /// region predicate is applied to the candidates.
  Status RegisterQuery(QueryId id, RegionPtr region, EventSink* sink);
  Status UnregisterQuery(QueryId id);
  /// Replaces a registered query's region in place (same id, same
  /// sink): the server's shared-plan demand propagation narrows or
  /// widens what an upstream stream routes to a shared node.
  Status UpdateRegion(QueryId id, RegionPtr region);

  size_t num_queries() const { return queries_.size(); }
  const RegionIndex& index() const { return *index_; }

  /// Stabbing tests performed (diagnostics).
  uint64_t points_routed() const { return points_routed_; }

  Status Consume(const StreamEvent& event) override;

 private:
  struct QueryState {
    RegionPtr region;
    EventSink* sink;
    /// Whether the region needs an exact test beyond its bbox.
    bool exact_needed;
    /// Batch under construction for the current input batch.
    std::shared_ptr<PointBatch> pending;
  };

  std::unique_ptr<RegionIndex> index_;
  std::map<QueryId, QueryState> queries_;
  GridLattice frame_lattice_;
  std::vector<QueryId> stab_buffer_;
  uint64_t points_routed_ = 0;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_MQO_SHARED_RESTRICTION_H_
