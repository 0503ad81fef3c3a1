#include "query/optimizer.h"

#include <cmath>

#include "common/string_util.h"
#include "geo/crs_registry.h"

namespace geostreams {

namespace {

/// Structural equality via the deterministic textual form.
bool SameTree(const ExprPtr& a, const ExprPtr& b) {
  return a && b && a->ToString() == b->ToString();
}

BoundingBox Inflate(const BoundingBox& box, double margin) {
  if (box.empty()) return box;
  return BoundingBox(box.min_x - margin, box.min_y - margin,
                     box.max_x + margin, box.max_y + margin);
}

/// Builds a conservative derived restriction node over `child`.
ExprPtr DerivedRestrict(ExprPtr child, const BoundingBox& box) {
  ExprPtr e = MakeSpatialRestrict(std::move(child),
                                  std::make_shared<BBoxRegion>(box));
  e->derived_restriction = true;
  return e;
}

class Rewriter {
 public:
  explicit Rewriter(const OptimizerOptions& options) : options_(options) {}

  int rewrites() const { return rewrites_; }

  /// One top-down pass; returns the (possibly replaced) node.
  ExprPtr Rewrite(ExprPtr e) {
    if (!e) return e;
    // Try rules at this node until none fires, then recurse.
    bool changed = true;
    while (changed) {
      changed = false;
      ExprPtr next = ApplyRules(e);
      if (next != e) {
        e = next;
        changed = true;
        ++rewrites_;
      }
    }
    if (e->child) e->child = Rewrite(e->child);
    if (e->right) e->right = Rewrite(e->right);
    return e;
  }

 private:
  ExprPtr ApplyRules(const ExprPtr& e) {
    if (options_.remove_trivial) {
      if (e->kind == ExprKind::kSpatialRestrict &&
          e->region->kind() == RegionKind::kAll) {
        return e->child;
      }
      if (e->kind == ExprKind::kTemporalRestrict && e->times.IsAll()) {
        return e->child;
      }
    }
    if (options_.merge_restrictions &&
        e->kind == ExprKind::kSpatialRestrict &&
        e->child->kind == ExprKind::kSpatialRestrict) {
      ExprPtr merged = MakeSpatialRestrict(
          e->child->child,
          MakeIntersectionRegion({e->region, e->child->region}));
      // Either side being synthesized marks the merge as synthesized:
      // this keeps the conservative pushdown rules from re-firing on
      // a region they already planted (and merged) below a transform.
      merged->derived_restriction =
          e->derived_restriction || e->child->derived_restriction;
      return merged;
    }
    if (options_.spatial_pushdown && e->kind == ExprKind::kSpatialRestrict) {
      ExprPtr pushed = PushSpatial(e);
      if (pushed) return pushed;
    }
    if (options_.temporal_pushdown &&
        e->kind == ExprKind::kTemporalRestrict) {
      ExprPtr pushed = PushTemporal(e);
      if (pushed) return pushed;
    }
    if (options_.expand_macros && e->kind == ExprKind::kNdviMacro) {
      return MakeCompose(ComposeFn::kDivide,
                         MakeCompose(ComposeFn::kSubtract, e->child,
                                     CloneExpr(e->right)),
                         MakeCompose(ComposeFn::kAdd, CloneExpr(e->child),
                                     e->right));
    }
    if (options_.fuse_ndvi_macro && !options_.expand_macros &&
        e->kind == ExprKind::kCompose && e->gamma == ComposeFn::kDivide &&
        e->child->kind == ExprKind::kCompose &&
        e->child->gamma == ComposeFn::kSubtract &&
        e->right->kind == ExprKind::kCompose &&
        e->right->gamma == ComposeFn::kAdd &&
        SameTree(e->child->child, e->right->child) &&
        SameTree(e->child->right, e->right->right)) {
      return MakeNdvi(e->child->child, e->child->right);
    }
    return e;
  }

  /// Pushes a spatial restriction one step into its child. Returns
  /// null when no rule applies.
  ExprPtr PushSpatial(const ExprPtr& e) {
    const ExprPtr& c = e->child;
    switch (c->kind) {
      case ExprKind::kValueTransform:
      case ExprKind::kValueRestrict:
      case ExprKind::kTemporalRestrict:
      case ExprKind::kShed: {
        // Exact commute: geometry untouched by the child (a shed's
        // keep-decision keys on coordinates, not on the region).
        ExprPtr new_child = std::make_shared<Expr>(*c);
        new_child->child = MakeSpatialRestrictLike(e, c->child);
        return new_child;
      }
      case ExprKind::kCompose:
      case ExprKind::kNdviMacro:
      case ExprKind::kBandStack: {
        ExprPtr new_node = std::make_shared<Expr>(*c);
        new_node->child = MakeSpatialRestrictLike(e, c->child);
        new_node->right = MakeSpatialRestrictLike(e, c->right);
        return new_node;
      }
      case ExprKind::kReproject:
      case ExprKind::kMagnify:
      case ExprKind::kReduce: {
        if (e->derived_restriction || c->pushdown_applied) return nullptr;
        const std::optional<BoundingBox> src_box =
            InputBoxFor(*c, e->region->bounds());
        if (!src_box) return nullptr;
        ExprPtr new_transform = std::make_shared<Expr>(*c);
        new_transform->child = DerivedRestrict(c->child, *src_box);
        new_transform->pushdown_applied = true;
        ExprPtr new_top = std::make_shared<Expr>(*e);
        new_top->child = new_transform;
        return new_top;
      }
      default:
        return nullptr;
    }
  }

  ExprPtr PushTemporal(const ExprPtr& e) {
    const ExprPtr& c = e->child;
    switch (c->kind) {
      case ExprKind::kValueTransform:
      case ExprKind::kValueRestrict:
      case ExprKind::kShed: {
        // Note: temporal restrictions deliberately do NOT push through
        // spatial restrictions (the spatial rule pushes through
        // temporal ones; one canonical direction keeps the rewrite
        // fixpoint from ping-ponging).
        ExprPtr new_child = std::make_shared<Expr>(*c);
        new_child->child = MakeTemporalRestrict(c->child, e->times);
        return new_child;
      }
      case ExprKind::kCompose:
      case ExprKind::kNdviMacro:
      case ExprKind::kBandStack: {
        ExprPtr new_node = std::make_shared<Expr>(*c);
        new_node->child = MakeTemporalRestrict(c->child, e->times);
        new_node->right = MakeTemporalRestrict(c->right, e->times);
        return new_node;
      }
      case ExprKind::kMagnify:
      case ExprKind::kReduce:
      case ExprKind::kReproject: {
        // Under scan-sector timestamping all points of a frame share
        // the timestamp, so a temporal restriction acts frame-wise and
        // commutes with the spatial transform. Under measurement time
        // it could drop points mid-frame and change resampling inputs.
        if (!c->child->analyzed ||
            c->child->out_desc.timestamp_policy() !=
                TimestampPolicy::kScanSectorId) {
          return nullptr;
        }
        ExprPtr new_child = std::make_shared<Expr>(*c);
        new_child->child = MakeTemporalRestrict(c->child, e->times);
        return new_child;
      }
      default:
        return nullptr;
    }
  }

  static ExprPtr MakeSpatialRestrictLike(const ExprPtr& original,
                                         ExprPtr child) {
    ExprPtr e = MakeSpatialRestrict(std::move(child), original->region);
    e->derived_restriction = original->derived_restriction;
    return e;
  }

  OptimizerOptions options_;
  int rewrites_ = 0;
};

}  // namespace

std::optional<BoundingBox> InputBoxFor(const Expr& op,
                                       const BoundingBox& out_box) {
  switch (op.kind) {
    case ExprKind::kSpatialRestrict:
    case ExprKind::kTemporalRestrict:
    case ExprKind::kValueRestrict:
    case ExprKind::kValueTransform:
    case ExprKind::kShed:
    case ExprKind::kCompose:
    case ExprKind::kNdviMacro:
    case ExprKind::kBandStack:
      return out_box;
    case ExprKind::kReproject: {
      if (!op.analyzed || !op.child || !op.child->analyzed) return std::nullopt;
      // Map the box from the target CRS back into the source CRS
      // (Sec. 3.4: "R needs to be mapped to the coordinate system C").
      auto target = ResolveCrs(op.target_crs);
      if (!target.ok()) return std::nullopt;
      const CrsPtr& source = op.child->out_desc.crs();
      const BoundingBox src_box = TransformBoundingBox(
          out_box, **target, *source, /*samples_per_edge=*/32);
      if (src_box.empty()) return std::nullopt;
      // Half-cell slack for resampling at the region border.
      const GridLattice& lat = op.child->out_desc.reference_lattice();
      return Inflate(src_box,
                     std::max(std::fabs(lat.dx()), std::fabs(lat.dy())));
    }
    case ExprKind::kMagnify:
    case ExprKind::kReduce: {
      if (!op.child || !op.child->analyzed) return std::nullopt;
      const GridLattice& lat = op.child->out_desc.reference_lattice();
      // The k x k neighbourhood of a kept output point may reach up
      // to k input cells beyond the box.
      return Inflate(out_box, op.factor * std::max(std::fabs(lat.dx()),
                                                   std::fabs(lat.dy())));
    }
    default:
      return std::nullopt;
  }
}

Result<ExprPtr> OptimizeQuery(const StreamCatalog& catalog,
                              const ExprPtr& expr,
                              const OptimizerOptions& options,
                              OptimizerStats* stats) {
  if (!expr) return Status::InvalidArgument("null query");
  ExprPtr current = CloneExpr(expr);
  GEOSTREAMS_RETURN_IF_ERROR(AnalyzeQuery(catalog, current));
  int passes = 0;
  int total_rewrites = 0;
  for (; passes < options.max_passes; ++passes) {
    Rewriter rewriter(options);
    current = rewriter.Rewrite(current);
    GEOSTREAMS_RETURN_IF_ERROR(AnalyzeQuery(catalog, current));
    total_rewrites += rewriter.rewrites();
    if (rewriter.rewrites() == 0) break;
  }
  if (stats) {
    stats->passes = passes + 1;
    stats->rewrites = total_rewrites;
  }
  return current;
}

}  // namespace geostreams
