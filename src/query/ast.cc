#include "query/ast.h"

#include "common/string_util.h"

namespace geostreams {

const char* ExprKindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kStreamRef:
      return "stream";
    case ExprKind::kSpatialRestrict:
      return "region";
    case ExprKind::kTemporalRestrict:
      return "time";
    case ExprKind::kValueRestrict:
      return "vrange";
    case ExprKind::kValueTransform:
      return "vmap";
    case ExprKind::kStretch:
      return "stretch";
    case ExprKind::kMagnify:
      return "magnify";
    case ExprKind::kReduce:
      return "reduce";
    case ExprKind::kReproject:
      return "reproject";
    case ExprKind::kCompose:
      return "compose";
    case ExprKind::kNdviMacro:
      return "ndvi";
    case ExprKind::kBandStack:
      return "stack";
    case ExprKind::kAggregate:
      return "aggregate";
    case ExprKind::kShed:
      return "shed";
  }
  return "?";
}

namespace {
const char* ComposeKeyword(ComposeFn gamma) {
  switch (gamma) {
    case ComposeFn::kAdd:
      return "add";
    case ComposeFn::kSubtract:
      return "sub";
    case ComposeFn::kMultiply:
      return "mul";
    case ComposeFn::kDivide:
      return "div";
    case ComposeFn::kSupremum:
      return "sup";
    case ComposeFn::kInfimum:
      return "inf";
  }
  return "?";
}
}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kStreamRef:
      return stream_name;
    case ExprKind::kSpatialRestrict:
      return StringPrintf("region(%s, %s)", child->ToString().c_str(),
                          region->ToString().c_str());
    case ExprKind::kTemporalRestrict:
      return StringPrintf("time(%s, %s)", child->ToString().c_str(),
                          times.ToQueryString().c_str());
    case ExprKind::kValueRestrict: {
      std::string s = "vrange(" + child->ToString();
      for (const ValueBandRange& r : ranges) {
        s += StringPrintf(", %d, ", r.band) + FormatDouble(r.lo) + ", " +
             FormatDouble(r.hi);
      }
      return s + ")";
    }
    case ExprKind::kValueTransform:
      switch (value_spec.kind) {
        case ValueFnSpec::Kind::kGray:
          return StringPrintf("gray(%s)", child->ToString().c_str());
        case ValueFnSpec::Kind::kRescale:
          return "rescale(" + child->ToString() + ", " +
                 FormatDouble(value_spec.a) + ", " +
                 FormatDouble(value_spec.b) + ")";
        case ValueFnSpec::Kind::kClamp:
          return "clampv(" + child->ToString() + ", " +
                 FormatDouble(value_spec.a) + ", " +
                 FormatDouble(value_spec.b) + ")";
        case ValueFnSpec::Kind::kAbs:
          return StringPrintf("absv(%s)", child->ToString().c_str());
        case ValueFnSpec::Kind::kBandSelect:
          return StringPrintf("band(%s, %d)", child->ToString().c_str(),
                              value_spec.band);
        case ValueFnSpec::Kind::kCustom:
          break;  // programmatic function: no query-language spelling
      }
      return StringPrintf("vmap[%s](%s)", value_fn.name.c_str(),
                          child->ToString().c_str());
    case ExprKind::kStretch: {
      std::string s = StringPrintf("stretch(%s, \"%s\"",
                                   child->ToString().c_str(),
                                   StretchModeName(stretch.mode));
      if (stretch.clip_fraction != 0.0) {
        s += ", " + FormatDouble(stretch.clip_fraction);
      }
      return s + ")";
    }
    case ExprKind::kMagnify:
      return StringPrintf("magnify(%s, %d)", child->ToString().c_str(),
                          factor);
    case ExprKind::kReduce:
      return StringPrintf("reduce(%s, %d)", child->ToString().c_str(),
                          factor);
    case ExprKind::kReproject:
      return StringPrintf("reproject(%s, \"%s\", \"%s\")",
                          child->ToString().c_str(), target_crs.c_str(),
                          ResampleKernelName(kernel));
    case ExprKind::kCompose:
      return StringPrintf("%s(%s, %s)", ComposeKeyword(gamma),
                          child->ToString().c_str(),
                          right->ToString().c_str());
    case ExprKind::kNdviMacro:
      return StringPrintf("ndvi(%s, %s)", child->ToString().c_str(),
                          right->ToString().c_str());
    case ExprKind::kBandStack:
      return StringPrintf("stack(%s, %s)", child->ToString().c_str(),
                          right->ToString().c_str());
    case ExprKind::kShed: {
      const char* mode = shed_mode == SheddingMode::kDropPoints ? "points"
                         : shed_mode == SheddingMode::kDropRows ? "rows"
                                                                : "frames";
      return StringPrintf("shed(%s, \"%s\", ", child->ToString().c_str(),
                          mode) +
             FormatDouble(shed_keep) + ")";
    }
    case ExprKind::kAggregate: {
      std::string s =
          StringPrintf("aggregate(%s, \"%s\", %d", child->ToString().c_str(),
                       AggregateFnName(agg_fn), agg_window);
      if (agg_slide > 0) s += StringPrintf(", %d", agg_slide);
      for (const RegionPtr& r : agg_regions) s += ", " + r->ToString();
      return s + ")";
    }
  }
  return "?";
}

ExprPtr MakeStreamRef(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kStreamRef;
  e->stream_name = std::move(name);
  return e;
}

ExprPtr MakeSpatialRestrict(ExprPtr child, RegionPtr region) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kSpatialRestrict;
  e->child = std::move(child);
  e->region = std::move(region);
  return e;
}

ExprPtr MakeTemporalRestrict(ExprPtr child, TimeSet times) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kTemporalRestrict;
  e->child = std::move(child);
  e->times = std::move(times);
  return e;
}

ExprPtr MakeValueRestrict(ExprPtr child,
                          std::vector<ValueBandRange> ranges) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kValueRestrict;
  e->child = std::move(child);
  e->ranges = std::move(ranges);
  return e;
}

ExprPtr MakeValueTransform(ExprPtr child, ValueFn fn) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kValueTransform;
  e->child = std::move(child);
  e->value_fn = std::move(fn);
  return e;
}

ExprPtr MakeStretch(ExprPtr child, StretchOptions options) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kStretch;
  e->child = std::move(child);
  e->stretch = options;
  return e;
}

ExprPtr MakeMagnify(ExprPtr child, int factor) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kMagnify;
  e->child = std::move(child);
  e->factor = factor;
  return e;
}

ExprPtr MakeReduce(ExprPtr child, int factor) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kReduce;
  e->child = std::move(child);
  e->factor = factor;
  return e;
}

ExprPtr MakeReproject(ExprPtr child, std::string target_crs,
                      ResampleKernel kernel) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kReproject;
  e->child = std::move(child);
  e->target_crs = std::move(target_crs);
  e->kernel = kernel;
  return e;
}

ExprPtr MakeCompose(ComposeFn gamma, ExprPtr left, ExprPtr right) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kCompose;
  e->gamma = gamma;
  e->child = std::move(left);
  e->right = std::move(right);
  return e;
}

ExprPtr MakeNdvi(ExprPtr nir, ExprPtr vis) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kNdviMacro;
  e->child = std::move(nir);
  e->right = std::move(vis);
  return e;
}

ExprPtr MakeBandStack(ExprPtr left, ExprPtr right) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kBandStack;
  e->child = std::move(left);
  e->right = std::move(right);
  return e;
}

ExprPtr MakeAggregate(ExprPtr child, AggregateFn fn,
                      std::vector<RegionPtr> regions, int window,
                      int slide) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kAggregate;
  e->child = std::move(child);
  e->agg_fn = fn;
  e->agg_regions = std::move(regions);
  e->agg_window = window;
  e->agg_slide = slide;
  return e;
}

ExprPtr MakeShed(ExprPtr child, SheddingMode mode, double keep) {
  auto e = std::make_shared<Expr>();
  e->kind = ExprKind::kShed;
  e->child = std::move(child);
  e->shed_mode = mode;
  e->shed_keep = keep;
  return e;
}

ExprPtr CloneExpr(const ExprPtr& expr) {
  if (!expr) return nullptr;
  auto e = std::make_shared<Expr>(*expr);
  e->child = CloneExpr(expr->child);
  e->right = CloneExpr(expr->right);
  return e;
}

int ExprSize(const ExprPtr& expr) {
  if (!expr) return 0;
  return 1 + ExprSize(expr->child) + ExprSize(expr->right);
}

}  // namespace geostreams
