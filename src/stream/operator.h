// Push-based stream operator interfaces.
//
// GeoStream operators are event consumers/producers: events flow in
// through input ports and out through one bound output sink. Unary
// operators (restrictions, transforms) have one port; the composition
// operator (Definition 10) has two.

#ifndef GEOSTREAMS_STREAM_OPERATOR_H_
#define GEOSTREAMS_STREAM_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/geostream.h"
#include "core/stream_event.h"
#include "obs/trace.h"
#include "stream/memory_tracker.h"
#include "stream/metrics.h"

namespace geostreams {

/// Anything that can consume stream events.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual Status Consume(const StreamEvent& event) = 0;
};

/// Sink that stores everything (tests, frame capture).
class CollectingSink : public EventSink {
 public:
  Status Consume(const StreamEvent& event) override {
    events_.push_back(event);
    return Status::OK();
  }

  const std::vector<StreamEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

  /// Total points across all batches.
  uint64_t TotalPoints() const;
  /// Frames seen (FrameBegin events).
  uint64_t NumFrames() const;

 private:
  std::vector<StreamEvent> events_;
};

/// Sink that counts and discards (benchmark endpoints).
class NullSink : public EventSink {
 public:
  Status Consume(const StreamEvent& event) override {
    ++events_;
    if (event.kind == EventKind::kPointBatch && event.batch) {
      points_ += event.batch->size();
    }
    return Status::OK();
  }

  uint64_t events() const { return events_; }
  uint64_t points() const { return points_; }

 private:
  uint64_t events_ = 0;
  uint64_t points_ = 0;
};

/// Base class for all stream operators. An operator is bound to an
/// output sink, exposes one EventSink per input port, and describes
/// the stream it produces (closure: the output is again a GeoStream).
class Operator {
 public:
  explicit Operator(std::string name) : name_(std::move(name)) {}
  /// Leaves the bound memory tracker (which must outlive the operator).
  virtual ~Operator() {
    if (tracker_) tracker_->Remove(name_);
  }

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const std::string& name() const { return name_; }

  virtual int num_inputs() const = 0;
  /// Sink for input port `port` in [0, num_inputs()).
  virtual EventSink* input(int port) = 0;

  /// Drops buffered per-frame state so the operator can accept a
  /// fresh, well-formed event sequence after a fault (the supervisor
  /// calls this before redelivering an event and after dead-lettering
  /// a poison event). Metrics and learned stream properties survive;
  /// only in-flight frame buffers are discarded. Default: no-op, for
  /// stateless operators.
  virtual void Reset() {}

  /// Binds the output; must be called before events arrive.
  void BindOutput(EventSink* out) { out_ = out; }
  /// Optional memory tracker for buffering reports.
  void BindMemoryTracker(MemoryTracker* tracker) { tracker_ = tracker; }
  /// Optional latency histogram (labeled by operator kind in the
  /// registry): receives this operator's exclusive microseconds for
  /// every *traced* delivery. Untraced events never observe.
  void BindLatencyHistogram(MetricHistogram* histogram) {
    latency_histogram_ = histogram;
  }

  const OperatorMetrics& metrics() const { return metrics_; }
  OperatorMetrics& mutable_metrics() { return metrics_; }

 protected:
  Status Emit(const StreamEvent& event) {
    if (event.kind == EventKind::kPointBatch && event.batch) {
      metrics_.points_out += event.batch->size();
    } else if (event.kind == EventKind::kFrameBegin) {
      ++metrics_.frames_out;
    }
    return out_ ? out_->Consume(event)
                : Status::FailedPrecondition("operator output not bound: " +
                                             name_);
  }

  void NoteInput(const StreamEvent& event) {
    ++metrics_.events_in;
    if (event.kind == EventKind::kPointBatch && event.batch) {
      metrics_.points_in += event.batch->size();
    } else if (event.kind == EventKind::kFrameBegin) {
      ++metrics_.frames_in;
    }
  }

  void ReportBuffered(uint64_t bytes) {
    metrics_.SetBuffered(bytes);
    if (tracker_) tracker_->Update(name_, bytes);
  }

  /// Span wrapper used by the Consume shims below: times `Process`
  /// when a trace is active on this thread, otherwise calls straight
  /// through (one thread-local load + branch — the disabled-path cost
  /// benched in bench/bench_tracing.cc).
  template <typename ProcessFn>
  Status TracedProcess(ProcessFn&& process) {
    TraceContext* trace = ActiveTrace();
    if (trace == nullptr) return process();
    SpanTimer timer(trace, name_, latency_histogram_);
    return process();
  }

 private:
  std::string name_;
  EventSink* out_ = nullptr;
  MemoryTracker* tracker_ = nullptr;
  MetricHistogram* latency_histogram_ = nullptr;
  OperatorMetrics metrics_;
};

/// Operator with a single input port; it is its own input sink.
class UnaryOperator : public Operator, public EventSink {
 public:
  using Operator::Operator;

  int num_inputs() const override { return 1; }
  EventSink* input(int port) override { return port == 0 ? this : nullptr; }

  Status Consume(const StreamEvent& event) final {
    NoteInput(event);
    return TracedProcess([&] { return Process(event); });
  }

 protected:
  /// Handles one event; implementations forward (possibly rewritten)
  /// events with Emit(). StreamEnd must be forwarded after flushing.
  virtual Status Process(const StreamEvent& event) = 0;
};

/// Operator with two input ports (left = 0, right = 1).
class BinaryOperator : public Operator {
 public:
  explicit BinaryOperator(std::string name)
      : Operator(std::move(name)), left_(this, 0), right_(this, 1) {}

  int num_inputs() const override { return 2; }
  EventSink* input(int port) override {
    if (port == 0) return &left_;
    if (port == 1) return &right_;
    return nullptr;
  }

 protected:
  /// Handles one event arriving on `port`.
  virtual Status Process(int port, const StreamEvent& event) = 0;

 private:
  class PortSink : public EventSink {
   public:
    PortSink(BinaryOperator* op, int port) : op_(op), port_(port) {}
    Status Consume(const StreamEvent& event) override {
      op_->NoteInput(event);
      return op_->TracedProcess([&] { return op_->Process(port_, event); });
    }

   private:
    BinaryOperator* op_;
    int port_;
  };

  PortSink left_;
  PortSink right_;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_STREAM_OPERATOR_H_
