// Rule-based query rewriting (Sec. 3.4).
//
// "Rather than performing the composition of all point data from the
// two streams, followed by a value and spatial transform on all the
// resulting points, the final spatial restriction R can be pushed
// inwards and applied first ... The query optimizer has to identify
// such rewrites in particular for spatial selections, as these result
// in the most significant space and time gains."
//
// Rules (all output-equivalent; conservative rules retain the
// original restriction on top):
//  * spatial pushdown through pointwise value transforms and value
//    restrictions (exact);
//  * spatial pushdown through compositions, into both inputs (exact);
//  * spatial pushdown through re-projection: the region's bounding box
//    is mapped back into the source CRS (the Sec. 3.4 example: R given
//    in UTM "needs to be mapped to the coordinate system C") and
//    planted below as a conservative pre-filter (exact overall);
//  * spatial pushdown through magnify/reduce with an inflated
//    bounding box (exact overall);
//  * temporal pushdown through value ops and compositions, and through
//    spatial transforms under scan-sector timestamping (exact);
//  * merging of nested spatial restrictions into an intersection;
//  * removal of trivial (all) restrictions;
//  * NDVI macro fusion: div(sub(a,b), add(a,b)) -> ndvi(a,b), or macro
//    expansion in the other direction (for the ablation bench).

#ifndef GEOSTREAMS_QUERY_OPTIMIZER_H_
#define GEOSTREAMS_QUERY_OPTIMIZER_H_

#include <optional>

#include "common/status.h"
#include "geo/bounding_box.h"
#include "query/analyzer.h"
#include "query/ast.h"

namespace geostreams {

struct OptimizerOptions {
  bool spatial_pushdown = true;
  bool temporal_pushdown = true;
  bool merge_restrictions = true;
  bool remove_trivial = true;
  bool fuse_ndvi_macro = true;
  /// Expands ndvi(a, b) into div(sub(a, b), add(a, b)) instead of
  /// fusing (mutually exclusive with fuse_ndvi_macro; expansion wins).
  bool expand_macros = false;
  /// Safety valve for the rewrite fixpoint loop.
  int max_passes = 16;
};

struct OptimizerStats {
  int passes = 0;
  int rewrites = 0;
};

/// The box math behind the spatial pushdown rules, shared by the
/// optimizer and the server's shared-plan demand propagation: the
/// bounding box of `op`'s input that every output point inside
/// `out_box` depends on. Pointwise operators (restrictions, value
/// transforms, shedding, compositions) need exactly `out_box`;
/// re-projection maps it back into the source CRS with a one-cell
/// resampling margin; magnify/reduce inflate it by their k x k
/// neighbourhood. nullopt when no box bounds the dependency
/// (frame-scoped stretch, aggregates, an unanalyzed node, or a box
/// that does not map into the source CRS): the operator then needs
/// its whole input.
std::optional<BoundingBox> InputBoxFor(const Expr& op,
                                       const BoundingBox& out_box);

/// Rewrites a clone of `expr` to fixpoint and returns it analyzed.
/// `expr` itself must already be analyzed against `catalog`.
Result<ExprPtr> OptimizeQuery(const StreamCatalog& catalog,
                              const ExprPtr& expr,
                              const OptimizerOptions& options = {},
                              OptimizerStats* stats = nullptr);

}  // namespace geostreams

#endif  // GEOSTREAMS_QUERY_OPTIMIZER_H_
