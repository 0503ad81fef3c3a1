#include "query/planner.h"

#include "common/string_util.h"
#include "geo/crs_registry.h"
#include "ops/compose_op.h"
#include "ops/macro_ops.h"
#include "ops/reproject_op.h"
#include "ops/restriction_ops.h"
#include "ops/shedding_op.h"
#include "ops/spatial_transform_op.h"
#include "ops/stretch_transform_op.h"
#include "ops/value_transform_op.h"

namespace geostreams {

EventSink* ExecutablePlan::input(const std::string& name) const {
  auto it = inputs_.find(name);
  return it == inputs_.end() ? nullptr : it->second.get();
}

std::vector<std::string> ExecutablePlan::input_names() const {
  std::vector<std::string> names;
  names.reserve(inputs_.size());
  for (const auto& [name, sink] : inputs_) names.push_back(name);
  return names;
}

void ExecutablePlan::Reset() {
  for (auto& op : ops_) op->Reset();
}

uint64_t ExecutablePlan::BufferedHighWater() const {
  uint64_t total = 0;
  for (const auto& op : ops_) {
    total += op->metrics().buffered_bytes_high_water;
  }
  return total;
}

uint64_t ExecutablePlan::PointsProcessed() const {
  uint64_t total = 0;
  for (const auto& op : ops_) total += op->metrics().points_in;
  return total;
}

// Not in an anonymous namespace: ExecutablePlan befriends this class.
class PlanBuilder {
 public:
  PlanBuilder(EventSink* sink, MemoryTracker* tracker, std::string op_prefix)
      : sink_(sink), tracker_(tracker), op_prefix_(std::move(op_prefix)) {}

  Result<std::unique_ptr<ExecutablePlan>> Build(const ExprPtr& root) {
    plan_ = std::make_unique<ExecutablePlan>();
    GEOSTREAMS_RETURN_IF_ERROR(BuildNode(root.get(), sink_));
    plan_->out_desc_ = root->out_desc;
    return std::move(plan_);
  }

 private:
  std::string NextName(const char* kind) {
    return StringPrintf("%s%d.%s", op_prefix_.c_str(), ++counter_, kind);
  }

  /// Registers `op`, binds its output, and recurses into inputs.
  Status Attach(std::unique_ptr<Operator> op, const Expr* e,
                EventSink* out) {
    op->BindOutput(out);
    if (tracker_) op->BindMemoryTracker(tracker_);
    Operator* raw = op.get();
    plan_->ops_.push_back(std::move(op));
    if (e->child) {
      GEOSTREAMS_RETURN_IF_ERROR(BuildNode(e->child.get(), raw->input(0)));
    }
    if (e->right) {
      GEOSTREAMS_RETURN_IF_ERROR(BuildNode(e->right.get(), raw->input(1)));
    }
    return Status::OK();
  }

  Status BuildNode(const Expr* e, EventSink* out) {
    if (!e->analyzed) {
      return Status::FailedPrecondition(
          "planner requires an analyzed query");
    }
    switch (e->kind) {
      case ExprKind::kStreamRef: {
        auto& broadcast = plan_->inputs_[e->stream_name];
        if (!broadcast) broadcast = std::make_unique<BroadcastSink>();
        broadcast->AddTarget(out);
        return Status::OK();
      }
      case ExprKind::kSpatialRestrict:
        // The descriptor's reference lattice covers frameless
        // organizations (point-by-point streams never deliver a
        // FrameBegin); frames override it while open.
        return Attach(std::make_unique<SpatialRestrictionOp>(
                          NextName("region"), e->region,
                          e->child->out_desc.reference_lattice()),
                      e, out);
      case ExprKind::kTemporalRestrict:
        return Attach(std::make_unique<TemporalRestrictionOp>(
                          NextName("time"), e->times),
                      e, out);
      case ExprKind::kValueRestrict:
        return Attach(std::make_unique<ValueRestrictionOp>(
                          NextName("vrange"), e->ranges),
                      e, out);
      case ExprKind::kValueTransform:
        return Attach(std::make_unique<ValueTransformOp>(
                          NextName("vmap"), e->value_fn),
                      e, out);
      case ExprKind::kStretch: {
        StretchOptions opts = e->stretch;
        // Default the input histogram range to the child's value set
        // when that range is informative.
        const ValueSet& vs = e->child->out_desc.value_set();
        if (opts.in_lo == 0.0 && opts.in_hi == 1024.0 &&
            vs.max_value() - vs.min_value() < 1e12) {
          opts.in_lo = vs.min_value();
          opts.in_hi = vs.max_value();
        }
        return Attach(std::make_unique<StretchTransformOp>(
                          NextName("stretch"), opts),
                      e, out);
      }
      case ExprKind::kMagnify:
        return Attach(
            std::make_unique<MagnifyOp>(NextName("magnify"), e->factor), e,
            out);
      case ExprKind::kReduce:
        return Attach(
            std::make_unique<ReduceOp>(NextName("reduce"), e->factor), e,
            out);
      case ExprKind::kReproject: {
        GEOSTREAMS_ASSIGN_OR_RETURN(CrsPtr target,
                                    ResolveCrs(e->target_crs));
        return Attach(std::make_unique<ReprojectOp>(NextName("reproject"),
                                                    std::move(target),
                                                    e->kernel),
                      e, out);
      }
      case ExprKind::kCompose:
        return Attach(
            std::make_unique<ComposeOp>(
                NextName(ComposeFnName(e->gamma)), e->gamma,
                e->child->out_desc.value_set().bands()),
            e, out);
      case ExprKind::kNdviMacro:
        return Attach(MakeNdviOp(NextName("ndvi")), e, out);
      case ExprKind::kBandStack:
        return Attach(std::make_unique<ComposeOp>(
                          NextName("stack"),
                          BinaryValueFn::Stack(
                              e->child->out_desc.value_set().bands(),
                              e->right->out_desc.value_set().bands())),
                      e, out);
      case ExprKind::kShed:
        return Attach(std::make_unique<LoadSheddingOp>(
                          NextName("shed"), e->shed_mode, e->shed_keep),
                      e, out);
      case ExprKind::kAggregate:
        return Attach(std::make_unique<AggregateOp>(
                          NextName("aggregate"), e->agg_fn, e->agg_regions,
                          e->agg_window, e->agg_slide),
                      e, out);
    }
    return Status::Internal("unreachable");
  }

  EventSink* sink_;
  MemoryTracker* tracker_;
  std::string op_prefix_;
  std::unique_ptr<ExecutablePlan> plan_;
  int counter_ = 0;
};

Result<std::unique_ptr<ExecutablePlan>> BuildPlan(const ExprPtr& analyzed,
                                                  EventSink* sink,
                                                  MemoryTracker* tracker,
                                                  const std::string& op_prefix) {
  if (!analyzed) return Status::InvalidArgument("null query");
  if (!sink) return Status::InvalidArgument("plan needs a sink");
  PlanBuilder builder(sink, tracker, op_prefix);
  return builder.Build(analyzed);
}

}  // namespace geostreams
