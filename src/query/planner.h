// Lowers analyzed expression trees to wired physical operator plans.
//
// The physical plan is the Fig. 3 "Execution" stage for one continuous
// query: a DAG of push-based operators whose leaves are named stream
// inputs. A stream referenced more than once (e.g. both sides of an
// expanded NDVI) is fanned out through a broadcast sink.

#ifndef GEOSTREAMS_QUERY_PLANNER_H_
#define GEOSTREAMS_QUERY_PLANNER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/ast.h"
#include "stream/operator.h"

namespace geostreams {

/// Fan-out sink: forwards every event to each registered target.
class BroadcastSink : public EventSink {
 public:
  void AddTarget(EventSink* sink) { targets_.push_back(sink); }

  Status Consume(const StreamEvent& event) override {
    for (EventSink* t : targets_) {
      GEOSTREAMS_RETURN_IF_ERROR(t->Consume(event));
    }
    return Status::OK();
  }

  size_t num_targets() const { return targets_.size(); }

 private:
  std::vector<EventSink*> targets_;
};

/// A runnable physical plan. Push source events into input(name);
/// results arrive at the sink the plan was built with.
class ExecutablePlan {
 public:
  /// Entry sink for source stream `name`; null when the plan does not
  /// read that stream.
  EventSink* input(const std::string& name) const;

  /// Names of all source streams the plan consumes.
  std::vector<std::string> input_names() const;

  /// Descriptor of the plan's output GeoStream (closure property).
  const GeoStreamDescriptor& output_descriptor() const { return out_desc_; }

  /// All physical operators, upstream first (introspection/metrics).
  const std::vector<std::unique_ptr<Operator>>& operators() const {
    return ops_;
  }

  /// Drops buffered frame state in every operator (fault recovery;
  /// see Operator::Reset). Must not run concurrently with event
  /// delivery — the scheduler guarantees this by holding the
  /// pipeline's claim while resetting.
  void Reset();

  /// Sum of current and high-water buffered bytes across operators.
  uint64_t BufferedHighWater() const;
  /// Total points the operators emitted downstream.
  uint64_t PointsProcessed() const;

 private:
  friend class PlanBuilder;
  std::vector<std::unique_ptr<Operator>> ops_;
  std::map<std::string, std::unique_ptr<BroadcastSink>> inputs_;
  GeoStreamDescriptor out_desc_;
};

/// Builds a physical plan for an analyzed query, wired into `sink`
/// (not owned; must outlive the plan). Operators are named
/// "<op_prefix><N>.<kind>".
Result<std::unique_ptr<ExecutablePlan>> BuildPlan(
    const ExprPtr& analyzed, EventSink* sink,
    MemoryTracker* tracker = nullptr, const std::string& op_prefix = "op");

}  // namespace geostreams

#endif  // GEOSTREAMS_QUERY_PLANNER_H_
