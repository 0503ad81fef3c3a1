#include "server/dsms_server.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "mqo/cascade_tree.h"
#include "mqo/filter_bank.h"
#include "mqo/grid_index.h"
#include "query/explain.h"
#include "query/parser.h"
#include "storage/dead_letter_store.h"

namespace geostreams {

namespace {

std::unique_ptr<RegionIndex> MakeIndex(DsmsOptions::IndexKind kind,
                                       const BoundingBox& extent) {
  switch (kind) {
    case DsmsOptions::IndexKind::kCascadeTree:
      return std::make_unique<CascadeTree>(extent);
    case DsmsOptions::IndexKind::kGrid:
      return std::make_unique<GridIndex>(extent, 64, 64);
    case DsmsOptions::IndexKind::kFilterBank:
      return std::make_unique<FilterBank>();
  }
  return std::make_unique<FilterBank>();
}

/// Operator-kind label for the shared latency histogram family: the
/// planner names operators "op<N>.<kind>" (shared nodes'
/// "n<S>.op<N>.<kind>", delivery ops "q<N>.delivery"), so the suffix
/// after the last '.' is the kind —
/// labeling by kind instead of instance keeps series cardinality
/// bounded no matter how many queries register.
std::string OpKindLabel(const std::string& name) {
  const size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

constexpr char kOperatorLatencyHelp[] =
    "Exclusive microseconds spent in one operator per traced delivery";

/// Collects temporal restrictions that provably apply to each leaf of
/// a plan expression, for pushing down into StoreScan as IO-pruning
/// hints (they never change which frames replay — see StoreScan::times).
/// A TimeSet is carried down only through timestamp-preserving unary
/// operators; anything that could change frame-timestamp semantics
/// (aggregation, composition, band stacking) clears the accumulation —
/// the plan re-applies its own restrictions, so dropping a hint only
/// costs pruning, never correctness. Every plan input is its own leaf
/// (one per stream occurrence), so each path keeps its own hints.
void CollectTimeHints(const ExprPtr& expr, std::vector<TimeSet> active,
                      std::map<std::string, std::vector<TimeSet>>* hints) {
  if (!expr) return;
  switch (expr->kind) {
    case ExprKind::kStreamRef:
      (*hints)[expr->stream_name] = std::move(active);
      return;
    case ExprKind::kTemporalRestrict:
      active.push_back(expr->times);
      CollectTimeHints(expr->child, std::move(active), hints);
      return;
    case ExprKind::kSpatialRestrict:
    case ExprKind::kValueRestrict:
    case ExprKind::kValueTransform:
    case ExprKind::kStretch:
    case ExprKind::kMagnify:
    case ExprKind::kReduce:
    case ExprKind::kReproject:
      CollectTimeHints(expr->child, std::move(active), hints);
      return;
    default:
      CollectTimeHints(expr->child, {}, hints);
      CollectTimeHints(expr->right, {}, hints);
      return;
  }
}

}  // namespace

/// Per-source ingest state: fans events out to unrestricted plan
/// inputs and to the shared restriction index.
struct DsmsServer::SourceState : public EventSink {
  GeoStreamDescriptor desc;
  std::unique_ptr<SharedRestrictionOp> shared;
  /// Historical persistence (null without a store): assembles each
  /// frame and commits it to the TileStore. Consumed FIRST, before
  /// any query fan-out — the catch-up cut-over protocol depends on a
  /// frame being durable before any later event reaches a CatchUpGate
  /// (see store/catch_up_gate.h).
  std::unique_ptr<StoreIngestSink> store_sink;
  std::vector<EventSink*> direct_targets;
  /// True for continuous views: their events arrive from a backing
  /// plan rather than from an ingest call.
  bool derived = false;
  /// True for a shared node's output stream: fed by the node's plan,
  /// never in the catalog, no store sink, no per-source series.
  bool hidden = false;
  /// Boundary guard handed out by DsmsServer::ingest() (and the sink
  /// of the backing plan of derived and hidden streams): takes the
  /// server's state lock in shared mode and runs the opt-in checksum
  /// check.
  std::unique_ptr<GuardedIngestSink> guard;
  /// Corrupt batches rejected at this boundary. `boundary_mu` guards
  /// the dead-letter ring and counter: several producers may ingest
  /// concurrently, each holding the state lock only in shared mode.
  std::mutex boundary_mu;
  std::unique_ptr<DeadLetterQueue> boundary_dead_letters;
  uint64_t checksum_failures = 0;
  bool warned_corrupt = false;
  /// Point batches seen at this boundary, for trace sampling (every
  /// Nth batch per source). Atomic: several producers may ingest one
  /// source concurrently under the shared state lock.
  std::atomic<uint64_t> trace_ticks{0};
  /// Quarantine verdict (also under boundary_mu): a quarantined
  /// source's events are refused at the guard until RestartSource.
  bool quarantined = false;
  Status quarantine_error = Status::OK();
  /// Wall clock (epoch us) of the newest delivered FrameEnd (its
  /// capture anchor when stamped, else admission, else delivery).
  /// Atomic: read by the scrape-time freshness collector while
  /// producers keep ingesting.
  std::atomic<uint64_t> last_frame_fresh_wall_us{0};
  /// Scrape-time freshness gauge and the per-source total-latency
  /// histogram (shared with the ingest session and the delivery
  /// plane), resolved once at stream registration.
  Gauge* freshness_gauge = nullptr;
  MetricHistogram* e2e_total = nullptr;
  /// Hidden streams only: span name and kind-labeled latency series of
  /// the fan-out, so traced frames attribute the node's cascade-tree
  /// split to the shared restriction, not to the node's operator.
  std::string route_span;
  MetricHistogram* route_latency = nullptr;

  Status Consume(const StreamEvent& event) override {
    TraceContext* trace = route_latency ? ActiveTrace() : nullptr;
    if (trace == nullptr) return FanOut(event);
    SpanTimer span(trace, route_span, route_latency);
    return FanOut(event);
  }

  Status FanOut(const StreamEvent& event) {
    if (store_sink) {
      // Never fails (store errors are counted and logged inside) —
      // the live chain does not stall because the disk is unhappy.
      GEOSTREAMS_RETURN_IF_ERROR(store_sink->Consume(event));
    }
    for (EventSink* t : direct_targets) {
      GEOSTREAMS_RETURN_IF_ERROR(t->Consume(event));
    }
    if (shared && shared->num_queries() > 0) {
      return shared->Consume(event);
    }
    if (shared && event.kind == EventKind::kStreamEnd) {
      return shared->Consume(event);
    }
    return Status::OK();
  }
};

/// A plan input's entry: the edge from a stream into the plan's
/// scheduler pipeline.
///
/// It starts the plan at a frame boundary: a plan wired while its
/// stream is mid-frame would otherwise see the frame's tail without
/// its FrameBegin, which frame-scoped operators and delivery reject.
/// Frameless (point-by-point) streams, and catch-up inputs whose
/// CatchUpGate owns the seam, start at once.
///
/// It also shields the stream's fan-out from a failed plan: a
/// quarantined pipeline's Enqueue returns that pipeline's own error,
/// which must not abort delivery to the remaining (healthy) plans.
/// The error stays observable through QueryHealth/QueryError and the
/// scheduler's `rejected` counter.
class DsmsServer::IsolatedEntrySink : public EventSink {
 public:
  IsolatedEntrySink(EventSink* entry, bool align)
      : entry_(entry), aligned_(!align) {}

  Status Consume(const StreamEvent& event) override {
    if (!aligned_) {
      if (event.kind != EventKind::kFrameBegin &&
          event.kind != EventKind::kStreamEnd) {
        return Status::OK();
      }
      aligned_ = true;
    }
    Status st = entry_->Consume(event);
    if (!st.ok() && !warned_) {
      warned_ = true;
      GEOSTREAMS_LOG(kWarning) << "query pipeline rejects events: "
                            << st.ToString();
    }
    return Status::OK();
  }

 private:
  EventSink* entry_;
  bool aligned_;
  bool warned_ = false;
};

/// The ingest boundary (Fig. 3's arrow from the stream generator into
/// the server), and the sink of every plan that feeds a stream. Every
/// event takes the server's state lock in shared mode, so producers
/// and the control plane (network sessions registering queries) can
/// run concurrently; with verify_ingest_checksums on, a batch whose
/// attached FNV-1a digest does not match its content is dead-lettered
/// here — it never enters any query chain, and the producer keeps
/// streaming. The fan-out only enqueues into plan pipelines; with no
/// worker threads this call then runs them, after the lock is
/// released, so a single-threaded producer sees every frame delivered
/// before Consume returns.
class DsmsServer::GuardedIngestSink : public EventSink {
 public:
  GuardedIngestSink(DsmsServer* server, SourceState* source)
      : server_(server), source_(source) {}

  Status Consume(const StreamEvent& event) override {
    Status st;
    {
      std::shared_lock<std::shared_mutex> lock(server_->state_mu_);
      st = ConsumeLocked(event);
    }
    server_->scheduler_->RunPending();
    return st;
  }

 private:
  Status ConsumeLocked(const StreamEvent& event) {
    if (source_->hidden) {
      // A shared node's plan output, in the node's pipeline. Operators
      // emit fresh events, so hand the trace active on this thread to
      // the consumer pipelines (the scheduler forks it at enqueue,
      // before this call returns, so a non-owning pointer suffices).
      TraceContext* active = ActiveTrace();
      if (event.trace != nullptr || active == nullptr) {
        return source_->Consume(event);
      }
      StreamEvent traced = event;
      traced.trace = std::shared_ptr<TraceContext>(
          std::shared_ptr<TraceContext>(), active);
      return source_->Consume(traced);
    }
    {
      std::lock_guard<std::mutex> boundary(source_->boundary_mu);
      if (source_->quarantined) {
        return Status::FailedPrecondition(StringPrintf(
            "source '%s' quarantined: %s", source_->desc.name().c_str(),
            source_->quarantine_error.message().c_str()));
      }
    }
    if (server_->options_.verify_ingest_checksums &&
        event.kind == EventKind::kPointBatch && event.batch &&
        !event.batch->ChecksumValid()) {
      const Status error = Status::FailedPrecondition(StringPrintf(
          "ingest checksum mismatch on %s (frame %lld, %zu points)",
          source_->desc.name().c_str(),
          static_cast<long long>(event.batch->frame_id),
          event.batch->size()));
      std::lock_guard<std::mutex> boundary(source_->boundary_mu);
      ++source_->checksum_failures;
      source_->boundary_dead_letters->Push(event, error);
      if (!source_->warned_corrupt) {
        source_->warned_corrupt = true;
        GEOSTREAMS_LOG(kWarning) << error.ToString()
                                 << " (further corruption logged once)";
      }
      return Status::OK();  // shed at the boundary; downlink continues
    }
    const size_t sample_every = server_->options_.trace_sample_every;
    bool traced = false;
    if (sample_every > 0) {
      if (event.kind == EventKind::kPointBatch) {
        const uint64_t tick =
            source_->trace_ticks.fetch_add(1, std::memory_order_relaxed);
        traced = tick % sample_every == 0;
      } else if (event.kind == EventKind::kFrameEnd &&
                 (event.anchors.capture_wall_us != 0 ||
                  event.anchors.admit_wall_us != 0)) {
        // The latency plane is per-frame: every anchored FrameEnd
        // (one arriving through the ingest session, which stamps
        // admission) is traced so its stage segments land in the
        // `geostreams_e2e_latency_us` histograms. In-process events
        // carry no anchors and keep the pre-existing behavior.
        traced = true;
      }
    }
    const Status st =
        traced ? ConsumeTraced(event) : source_->Consume(event);
    if (st.ok() && event.kind == EventKind::kFrameEnd) {
      const uint64_t stamp =
          event.anchors.capture_wall_us != 0 ? event.anchors.capture_wall_us
          : event.anchors.admit_wall_us != 0 ? event.anchors.admit_wall_us
                                             : TraceWallNowUs();
      source_->last_frame_fresh_wall_us.store(stamp,
                                              std::memory_order_relaxed);
    }
    return st;
  }

  /// Delivers one sampled batch with a fresh TraceContext attached.
  /// The context just rides the event: the scheduler forks it per
  /// pipeline at enqueue and does all the timing.
  Status ConsumeTraced(const StreamEvent& event) {
    StreamEvent traced = event;
    traced.trace = std::make_shared<TraceContext>(
        server_->next_trace_id_.fetch_add(1, std::memory_order_relaxed),
        source_->desc.name());
    traced.trace->SetIngestAnchors(event.anchors.capture_wall_us,
                                   event.anchors.admit_wall_us,
                                   event.anchors.durable_wall_us);
    return source_->Consume(traced);
  }

  DsmsServer* server_;
  SourceState* source_;
};

/// One subscription to a stream: a query plan's input, or a shared
/// node's input. Owned by its consumer.
struct DsmsServer::Edge {
  SourceState* from = nullptr;
  /// Set when `from` is a shared node's output (the edge holds one of
  /// the node's references).
  SharedNode* from_node = nullptr;
  /// Exact restriction of the stream (null = the whole stream).
  RegionPtr region;
  /// Conservative pre-filter the optimizer planted below a spatial
  /// transform (query inputs only; node inputs are bounded by demand).
  std::optional<BoundingBox> hint;
  /// Consuming node (null = a query's private plan).
  SharedNode* owner = nullptr;
  /// The consumer plan's entry for this input: `isolated`, or a
  /// CatchUpGate in front of it once a catch-up query goes live.
  EventSink* entry = nullptr;
  std::unique_ptr<IsolatedEntrySink> isolated;
  /// Temporal IO-pruning hints for the catch-up replay.
  std::vector<TimeSet> times;
  /// Routing state: attached at `from` as cascade registration
  /// `index_id` of region `routed`, or as a direct target (index_id 0,
  /// routed null).
  bool attached = false;
  QueryId index_id = 0;
  std::optional<BoundingBox> bound;
  RegionPtr routed;

  /// Enters plan input `input` through scheduler pipeline `pipeline`,
  /// starting at a frame boundary when `align` is set.
  void Wire(QueryScheduler* scheduler, size_t pipeline, EventSink* input,
            bool align) {
    isolated = std::make_unique<IsolatedEntrySink>(
        scheduler->AddPipelineInput(pipeline, input),
        align &&
            from->desc.organization() != PointOrganization::kPointByPoint);
    entry = isolated.get();
  }
};

/// A hash-consed compute operator: one plan over its input edges whose
/// output is a hidden stream with its own shared restriction index.
/// Alive while some edge consumes it.
struct DsmsServer::SharedNode {
  uint64_t seq = 0;
  std::string key;  // canonical text over the inputs' keys
  ExprPtr canon;    // the operator over its inputs' canonical exprs
  std::unique_ptr<SourceState> stream;
  std::unique_ptr<ExecutablePlan> plan;
  std::vector<std::unique_ptr<Edge>> inputs;
  size_t sched_pipeline = SIZE_MAX;
  /// Edges reading this node (its refcount).
  std::vector<Edge*> consumers;
  /// Queries reading this node, directly or through other nodes: the
  /// subscribers its cost is shared between.
  size_t subscribers = 0;
  /// Bounding box of the consumers' routed regions (nullopt = the
  /// whole stream, some consumer is unrestricted).
  std::optional<BoundingBox> demand;
  /// Whether the inputs are routed for `demand`.
  bool routed = false;
};

/// A shared node to intern: the operator and its input handles.
struct DsmsServer::NodeSpec {
  ExprPtr canon;
  std::string key;
  std::vector<Handle> inputs;
};

/// A stream the server can subscribe to — a registered stream or a
/// shared node — restricted to `region`.
struct DsmsServer::Handle {
  SourceState* source = nullptr;
  std::shared_ptr<NodeSpec> node;
  RegionPtr region;
  std::optional<BoundingBox> hint;

  /// Canonical expression: the stream (or node), wrapped in its
  /// exact restriction.
  ExprPtr Canon() const {
    ExprPtr base = node ? node->canon : MakeStreamRef(source->desc.name());
    if (!node) {
      base->out_desc = source->desc;
      base->analyzed = true;
    }
    if (!region) return base;
    ExprPtr wrapped = MakeSpatialRestrict(base, region);
    wrapped->out_desc = base->out_desc;
    wrapped->analyzed = true;
    return wrapped;
  }
};

struct DsmsServer::PlanInput {
  std::string name;
  Handle handle;
};

struct DsmsServer::QueryState {
  QueryId id = 0;
  std::string text;
  ExprPtr optimized;
  std::unique_ptr<DeliveryOp> delivery;
  NullSink null_sink;
  std::unique_ptr<ExecutablePlan> plan;
  /// Scheduler pipeline id; all of the plan's inputs share this
  /// pipeline so one thread at a time drives the plan.
  size_t sched_pipeline = SIZE_MAX;

  bool is_derived = false;
  std::string derived_name;
  /// Set (under the exclusive lock) by the UnregisterQuery call that
  /// claimed this query; a concurrent second unregister backs off.
  bool unregistering = false;

  /// The plan's inputs. Catch-up registrations leave them detached
  /// until the history replay is done.
  std::vector<std::unique_ptr<Edge>> inputs;
  /// Shared nodes this query reads, directly or transitively.
  std::vector<SharedNode*> nodes;
  /// Cut-over gates, one per input (catch-up queries only). Own the
  /// seam logic; destroyed with the query.
  std::vector<std::unique_ptr<CatchUpGate>> gates;
  /// True from registration until the gates are wired; blocks
  /// UnregisterQuery racing the replay (the replay thread holds raw
  /// entry pointers with no lock).
  bool catching_up = false;
};

namespace {

RegionPtr Intersect(RegionPtr a, RegionPtr b) {
  if (!a) return b;
  if (!b) return a;
  return MakeIntersectionRegion({std::move(a), std::move(b)});
}

/// Demand boxes are rounded outward to this many grid steps across the
/// upstream stream's extent before they route a node's input.
constexpr int kDemandGridSteps = 64;

bool SameBox(const std::optional<BoundingBox>& a,
             const std::optional<BoundingBox>& b) {
  if (!a || !b) return !a && !b;
  if (a->empty() || b->empty()) return a->empty() && b->empty();
  return a->min_x == b->min_x && a->min_y == b->min_y &&
         a->max_x == b->max_x && a->max_y == b->max_y;
}

/// Whether `region`'s text identifies it (enumerated regions print a
/// summary only), so it may take part in a shared node's key.
bool KeyExact(const RegionPtr& region) {
  return region->ToString().find("enumerated(") == std::string::npos;
}

bool SameRegion(const RegionPtr& a, const RegionPtr& b) {
  if (a == b) return true;
  return a && b && KeyExact(a) && a->ToString() == b->ToString();
}

/// A restriction the optimizer synthesized below a spatial transform:
/// conservative, so the output never depends on it. (A merge with a
/// user restriction yields an intersection, which stays exact.)
bool IsPureHint(const Expr& e) {
  return e.derived_restriction && e.region->kind() == RegionKind::kBBox;
}

/// Rounds `box` outward to a grid of kDemandGridSteps x
/// kDemandGridSteps cells over `extent` (boxes reaching past the
/// extent keep their outer edges).
BoundingBox SnapOutward(const BoundingBox& box, const BoundingBox& extent) {
  if (box.empty() || extent.empty()) return box;
  const double sx = extent.width() / kDemandGridSteps;
  const double sy = extent.height() / kDemandGridSteps;
  if (!(sx > 0.0) || !(sy > 0.0)) return box;
  auto down = [](double v, double origin, double step) {
    return std::min(v, origin + std::floor((v - origin) / step) * step);
  };
  auto up = [](double v, double origin, double step) {
    return std::max(v, origin + std::ceil((v - origin) / step) * step);
  };
  return BoundingBox(down(box.min_x, extent.min_x, sx),
                     down(box.min_y, extent.min_y, sy),
                     up(box.max_x, extent.min_x, sx),
                     up(box.max_y, extent.min_y, sy));
}

std::string DemandText(const std::optional<BoundingBox>& demand) {
  return demand ? demand->ToString() : "all";
}

}  // namespace

DsmsServer::DsmsServer(DsmsOptions options) : options_(options) {
  event_log_ = std::make_unique<EventLog>(options_.event_log_capacity);
  event_log_->Append(EventSeverity::kInfo, "server", "start", "");
  if (!options_.journal_dir.empty() || !options_.store_dir.empty()) {
    // One governor watches the whole storage plane: both subsystems
    // admit writes through it, and either one's ENOSPC/EIO degrades
    // them together (they share the filesystem).
    StorageGovernorOptions gopts = options_.storage_governor;
    if (gopts.probe_dir.empty()) {
      gopts.probe_dir = !options_.journal_dir.empty() ? options_.journal_dir
                                                      : options_.store_dir;
    }
    if (!gopts.file_factory) {
      gopts.file_factory = options_.journal.file_factory
                               ? options_.journal.file_factory
                               : options_.store.file_factory;
    }
    gopts.metrics = &metrics_registry_;
    gopts.event_log = event_log_.get();
    governor_ = std::make_unique<StorageGovernor>(std::move(gopts));
    if (options_.journal_budget.max_bytes > 0 ||
        options_.journal_budget.max_age_ms > 0) {
      governor_->SetBudget("journal", options_.journal_budget);
    }
    if (options_.store_budget.max_bytes > 0 ||
        options_.store_budget.max_age_ms > 0) {
      governor_->SetBudget("store", options_.store_budget);
    }
  }
  if (!options_.journal_dir.empty()) {
    JournalOptions jopts = options_.journal;
    jopts.dir = options_.journal_dir;
    jopts.metrics = &metrics_registry_;
    jopts.governor = governor_.get();
    Result<std::unique_ptr<IngestJournal>> journal =
        IngestJournal::Open(std::move(jopts));
    if (!journal.ok()) {
      // A constructor cannot fail; a server without durability beats
      // no server, but say so at kError volume.
      GEOSTREAMS_LOG(kError)
          << "ingest journal disabled: could not open "
          << options_.journal_dir << ": " << journal.status().ToString();
    } else {
      journal_ = std::move(*journal);
      const JournalRecovery& rec = journal_->recovery();
      GEOSTREAMS_LOG(kInfo)
          << "ingest journal at " << options_.journal_dir << " ("
          << FsyncPolicyName(journal_->options().fsync) << " fsync): "
          << rec.sources.size() << " sources, " << rec.records_replayed
          << " records recovered, " << rec.torn_tails
          << " torn tails truncated (" << rec.torn_bytes << " bytes), "
          << rec.corrupt_regions << " corrupt regions quarantined";
    }
  }
  if (!options_.store_dir.empty()) {
    TileStoreOptions sopts = options_.store;
    sopts.dir = options_.store_dir;
    sopts.metrics = &metrics_registry_;
    sopts.governor = governor_.get();
    sopts.event_log = event_log_.get();
    const bool retention_configured =
        sopts.retention_max_bytes > 0 || sopts.retention_max_frames > 0 ||
        sopts.retention_max_age_ms > 0 ||
        options_.store_budget.max_bytes > 0 ||
        options_.store_budget.max_age_ms > 0;
    if (sopts.gc_interval_ms == 0 && retention_configured) {
      sopts.gc_interval_ms = 1000;  // keep pruning off the ingest path
    }
    Result<std::unique_ptr<TileStore>> store = TileStore::Open(std::move(sopts));
    if (!store.ok()) {
      // Same contract as the journal: a server without history beats
      // no server, but say so at kError volume.
      GEOSTREAMS_LOG(kError)
          << "tile store disabled: could not open " << options_.store_dir
          << ": " << store.status().ToString();
    } else {
      store_ = std::move(*store);
      const TileStoreRecovery& rec = store_->recovery();
      GEOSTREAMS_LOG(kInfo)
          << "tile store at " << options_.store_dir << ": "
          << rec.frames_recovered << " frames (" << rec.tile_pages_recovered
          << " tile pages) recovered, " << rec.incomplete_frames
          << " uncommitted frames dropped, " << rec.torn_tails
          << " torn tails truncated (" << rec.torn_bytes << " bytes), "
          << rec.corrupt_regions << " corrupt regions skipped";
      m_catchup_frames_ = metrics_registry_.GetCounter(
          "geostreams_store_catchup_frames_total",
          "Stored frames replayed into late-subscriber query plans");
      m_seam_frames_ = metrics_registry_.GetCounter(
          "geostreams_store_seam_frames_total",
          "Frames delivered by cut-over seam replays (stored->live)");
      m_catchup_truncated_ = metrics_registry_.GetCounter(
          "geostreams_store_catchup_truncated_total",
          "Catch-up registrations whose SINCE bound reached below "
          "retained history");
      m_catchup_lag_ = metrics_registry_.GetGauge(
          "geostreams_catchup_lag_frames",
          "Stored frames still to replay before in-flight SINCE queries "
          "cut over to the live stream (summed over registrations)");
    }
  }
  SchedulerOptions sched;
  sched.policy = options_.worker_policy;
  sched.queue_capacity = options_.worker_queue_capacity;
  sched.workers = options_.workers;
  sched.supervisor = options_.worker_supervisor;
  sched.dead_letter_capacity = options_.dead_letter_capacity;
  sched.dead_letter_max_bytes = options_.dead_letter_max_bytes;
  sched.memory = &memory_;
  sched.metrics = &metrics_registry_;
  sched.trace_ring_capacity = options_.trace_ring_capacity;
  sched.event_log = event_log_.get();
  scheduler_ = std::make_unique<QueryScheduler>(sched);
  // Start() only fails on a second call.
  Status started = scheduler_->Start();
  (void)started;
  GEOSTREAMS_LOG(kInfo) << "query scheduler: " << scheduler_->num_workers()
                        << " worker threads (0 = callers run the work), "
                        << SchedulingPolicyName(sched.policy);
  RegisterCollectors();
}

void DsmsServer::RegisterSourceObservables(SourceState* source) {
  const std::string& name = source->desc.name();
  source->freshness_gauge = metrics_registry_.GetGauge(
      "geostreams_source_freshness_us",
      "Age of the newest delivered frame per source (now minus its "
      "capture — or, unstamped, delivery — wall clock)",
      {{"source", name}});
  source->e2e_total = metrics_registry_.GetHistogram(
      "geostreams_e2e_latency_us",
      "Frame lifecycle stage latency (wall-clock microseconds between "
      "consecutive stage anchors; stage=total is capture to delivery)",
      {{"stage", "total"}, {"source", name}},
      MetricHistogram::LatencyBucketsUs());
}

void DsmsServer::RegisterCollectors() {
  MetricsRegistry& reg = metrics_registry_;
  // Scheduler counters live behind the scheduler mutex; mirror them
  // into the registry at scrape time rather than double-counting in
  // the enqueue/claim paths.
  Counter* enqueued = reg.GetCounter("geostreams_scheduler_enqueued_total",
                                     "Events accepted into pipeline queues");
  Counter* processed = reg.GetCounter(
      "geostreams_scheduler_processed_total",
      "Events delivered through operator chains by the scheduler");
  Counter* shed = reg.GetCounter(
      "geostreams_scheduler_shed_total",
      "Point batches shed because a pipeline queue was full");
  Counter* control_overflow =
      reg.GetCounter("geostreams_scheduler_control_overflow_total",
                     "Control events admitted above queue capacity");
  Counter* rejected =
      reg.GetCounter("geostreams_scheduler_rejected_total",
                     "Enqueues refused by quarantined pipelines");
  Counter* discarded =
      reg.GetCounter("geostreams_scheduler_discarded_total",
                     "Queued events thrown away when a pipeline quarantined");
  Counter* restarts =
      reg.GetCounter("geostreams_pipeline_restarts_total",
                     "Supervised transient redelivery attempts");
  Counter* dead_letters =
      reg.GetCounter("geostreams_pipeline_dead_letters_total",
                     "Poison events dropped by the supervisor");
  Gauge* queued = reg.GetGauge("geostreams_scheduler_queued",
                               "Events currently waiting in pipeline queues");
  Gauge* queries = reg.GetGauge("geostreams_queries",
                                "Registered queries (derived views included)");
  Gauge* degraded = reg.GetGauge("geostreams_queries_degraded",
                                 "Queries currently DEGRADED");
  Gauge* quarantined = reg.GetGauge("geostreams_queries_quarantined",
                                    "Queries currently QUARANTINED");
  Gauge* mem_bytes = reg.GetGauge("geostreams_memory_tracked_bytes",
                                  "Bytes currently tracked across operators");
  Gauge* mem_peak = reg.GetGauge("geostreams_memory_high_water_bytes",
                                 "Largest tracked-byte total ever observed");
  Counter* checksum_failures =
      reg.GetCounter("geostreams_ingest_checksum_failures_total",
                     "Corrupt batches rejected at the ingest boundary");
  reg.AddCollector([=, this] {
    const ScheduledQueueStats total = scheduler_->AggregateStats();
    enqueued->Set(total.enqueued);
    processed->Set(total.processed);
    shed->Set(total.dropped);
    control_overflow->Set(total.control_overflow);
    rejected->Set(total.rejected);
    discarded->Set(total.discarded);
    restarts->Set(total.restarts);
    dead_letters->Set(total.dead_letters);
    queued->Set(total.queued);
    uint64_t n_queries = 0, n_degraded = 0, n_quarantined = 0;
    {
      std::shared_lock<std::shared_mutex> lock(state_mu_);
      n_queries = queries_.size();
      const uint64_t now = TraceWallNowUs();
      for (const auto& [name, source] : sources_) {
        if (source->freshness_gauge == nullptr) continue;
        const uint64_t stamp =
            source->last_frame_fresh_wall_us.load(std::memory_order_relaxed);
        source->freshness_gauge->Set(
            stamp != 0 && now > stamp ? now - stamp : 0);
      }
      for (const auto& [id, query] : queries_) {
        switch (scheduler_->Health(query->sched_pipeline)) {
          case PipelineHealth::kDegraded: ++n_degraded; break;
          case PipelineHealth::kQuarantined: ++n_quarantined; break;
          default: break;
        }
      }
    }
    queries->Set(n_queries);
    degraded->Set(n_degraded);
    quarantined->Set(n_quarantined);
    mem_bytes->Set(memory_.TotalBytes());
    mem_peak->Set(memory_.HighWaterBytes());
    checksum_failures->Set(IngestChecksumFailures());
  });
}

DsmsServer::~DsmsServer() {
  Status ignored = scheduler_->Stop();
  (void)ignored;
}

Status DsmsServer::RegisterStream(const GeoStreamDescriptor& desc) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  GEOSTREAMS_RETURN_IF_ERROR(catalog_.Register(desc));
  auto source = std::make_unique<SourceState>();
  source->desc = desc;
  if (options_.shared_restriction) {
    source->shared = std::make_unique<SharedRestrictionOp>(MakeIndex(
        options_.index_kind, desc.reference_lattice().Extent()));
  }
  source->guard = std::make_unique<GuardedIngestSink>(this, source.get());
  RegisterSourceObservables(source.get());
  if (store_ != nullptr) {
    source->store_sink =
        std::make_unique<StoreIngestSink>(store_.get(), desc.name());
  }
  source->boundary_dead_letters = std::make_unique<DeadLetterQueue>(
      options_.dead_letter_capacity, options_.dead_letter_max_bytes);
  source->boundary_dead_letters->BindMemoryTracker(&memory_,
                                                   "dlq." + desc.name());
  if (journal_ != nullptr) {
    // Durable dead letters: reload what past incarnations quarantined
    // (including corrupt journal regions recovery found) and mirror
    // every future push to disk.
    Result<DeadLetterStore*> store = journal_->DeadLettersFor(desc.name());
    if (!store.ok()) {
      GEOSTREAMS_LOG(kWarning)
          << "dead-letter store unavailable for " << desc.name() << ": "
          << store.status().ToString();
    } else {
      source->boundary_dead_letters->Restore((*store)->recovered());
      DeadLetterStore* dls = *store;
      const std::string name = desc.name();
      source->boundary_dead_letters->SetPersistHook(
          [dls, name](const DeadLetter& letter) {
            Status st = dls->Append(name, letter);
            if (!st.ok()) {
              GEOSTREAMS_LOG(kWarning)
                  << "dead-letter persist failed for " << name << ": "
                  << st.ToString();
            }
          });
    }
  }
  sources_.emplace(desc.name(), std::move(source));
  GEOSTREAMS_LOG(kInfo) << "registered stream " << desc.ToString();
  return Status::OK();
}

std::optional<DsmsServer::Handle> DsmsServer::LowerHandle(
    const ExprPtr& e, Lowering mode) const {
  switch (e->kind) {
    case ExprKind::kStreamRef: {
      auto it = sources_.find(e->stream_name);
      if (it == sources_.end()) return std::nullopt;
      Handle h;
      h.source = it->second.get();
      return h;
    }
    case ExprKind::kSpatialRestrict: {
      if (mode == Lowering::kDirect) return std::nullopt;
      std::optional<Handle> h = LowerHandle(e->child, mode);
      if (!h) return std::nullopt;
      if (IsPureHint(*e)) {
        const BoundingBox box = e->region->bounds();
        h->hint = h->hint ? h->hint->Intersection(box) : box;
      } else {
        h->region = Intersect(h->region, e->region);
      }
      return h;
    }
    case ExprKind::kValueTransform:
    case ExprKind::kStretch:
    case ExprKind::kMagnify:
    case ExprKind::kReduce:
    case ExprKind::kReproject:
    case ExprKind::kAggregate:
    case ExprKind::kCompose:
    case ExprKind::kNdviMacro:
    case ExprKind::kBandStack:
      break;
    default:
      return std::nullopt;  // restrictions and shed stay per query
  }
  if (mode != Lowering::kShare) return std::nullopt;
  if (e->kind == ExprKind::kValueTransform &&
      e->value_spec.kind == ValueFnSpec::Kind::kCustom) {
    return std::nullopt;  // a programmatic function has no key
  }
  for (const RegionPtr& r : e->agg_regions) {
    if (!KeyExact(r)) return std::nullopt;
  }
  auto spec = std::make_shared<NodeSpec>();
  for (const ExprPtr& input : {e->child, e->right}) {
    if (!input) continue;
    std::optional<Handle> h = LowerHandle(input, mode);
    if (!h) return std::nullopt;
    // Demand propagation re-derives the optimizer's pre-filters.
    h->hint.reset();
    spec->inputs.push_back(std::move(*h));
  }
  // Restrictions commute with pointwise operators (the optimizer's
  // exact pushdown rules, read backwards): lift them above the node so
  // that queries differing only in their box share it.
  Handle out;
  const bool pointwise = e->kind != ExprKind::kStretch &&
                         e->kind != ExprKind::kMagnify &&
                         e->kind != ExprKind::kReduce &&
                         e->kind != ExprKind::kReproject &&
                         e->kind != ExprKind::kAggregate;
  if (pointwise && (spec->inputs.size() == 1 ||
                    SameRegion(spec->inputs[0].region,
                               spec->inputs[1].region))) {
    out.region = spec->inputs[0].region;
    for (Handle& in : spec->inputs) in.region.reset();
  }
  for (const Handle& in : spec->inputs) {
    if (in.region && !KeyExact(in.region)) return std::nullopt;
  }
  spec->canon = std::make_shared<Expr>(*e);
  spec->canon->child = spec->inputs[0].Canon();
  if (spec->inputs.size() > 1) spec->canon->right = spec->inputs[1].Canon();
  spec->key = spec->canon->ToString();
  out.node = std::move(spec);
  return out;
}

ExprPtr DsmsServer::LowerPlan(const ExprPtr& e, Lowering mode,
                              const std::string& prefix,
                              std::vector<PlanInput>* inputs) const {
  if (!e) return e;
  if (std::optional<Handle> h = LowerHandle(e, mode)) {
    PlanInput input;
    input.name = StringPrintf("%s.in%zu", prefix.c_str(), inputs->size());
    input.handle = std::move(*h);
    // Synthetic leaf: carries the subtree's descriptor so the planner
    // can keep building without re-analysis.
    ExprPtr leaf = MakeStreamRef(input.name);
    leaf->out_desc = e->out_desc;
    leaf->analyzed = true;
    inputs->push_back(std::move(input));
    return leaf;
  }
  ExprPtr copy = std::make_shared<Expr>(*e);
  copy->child = LowerPlan(e->child, mode, prefix, inputs);
  copy->right = LowerPlan(e->right, mode, prefix, inputs);
  return copy;
}

Result<DsmsServer::SharedNode*> DsmsServer::InternLocked(
    const NodeSpec& spec) {
  auto found = shared_by_key_.find(spec.key);
  if (found != shared_by_key_.end()) return found->second;
  // Inputs first: a node is always younger than what it reads, which
  // is the order RefreshDemandLocked walks the DAG in.
  std::vector<SharedNode*> input_nodes;
  for (const Handle& in : spec.inputs) {
    SharedNode* input_node = nullptr;
    if (in.node) {
      GEOSTREAMS_ASSIGN_OR_RETURN(input_node, InternLocked(*in.node));
    }
    input_nodes.push_back(input_node);
  }
  auto node = std::make_unique<SharedNode>();
  node->seq = next_node_seq_++;
  node->key = spec.key;
  node->canon = spec.canon;
  auto stream = std::make_unique<SourceState>();
  stream->desc = spec.canon->out_desc;
  stream->hidden = true;
  stream->shared = std::make_unique<SharedRestrictionOp>(MakeIndex(
      options_.index_kind, stream->desc.reference_lattice().Extent()));
  stream->guard = std::make_unique<GuardedIngestSink>(this, stream.get());
  const std::string prefix =
      StringPrintf("n%llu", static_cast<unsigned long long>(node->seq));
  stream->route_span = prefix + ".shared_restriction";
  stream->route_latency = metrics_registry_.GetHistogram(
      "geostreams_operator_latency_us", kOperatorLatencyHelp,
      {{"op", "shared_restriction"}});
  node->stream = std::move(stream);

  ExprPtr plan_expr = std::make_shared<Expr>(*spec.canon);
  std::vector<std::string> input_names;
  for (size_t i = 0; i < spec.inputs.size(); ++i) {
    input_names.push_back(StringPrintf("%s.in%zu", prefix.c_str(), i));
    ExprPtr leaf = MakeStreamRef(input_names.back());
    leaf->out_desc = (i == 0 ? spec.canon->child : spec.canon->right)->out_desc;
    leaf->analyzed = true;
    (i == 0 ? plan_expr->child : plan_expr->right) = leaf;
  }
  // The node runs in its own pipeline and feeds its stream through
  // the guard, exactly like a derived view.
  GEOSTREAMS_ASSIGN_OR_RETURN(
      node->plan, BuildPlan(plan_expr, node->stream->guard.get(), &memory_,
                            prefix + ".op"));
  for (const auto& op : node->plan->operators()) {
    op->BindLatencyHistogram(metrics_registry_.GetHistogram(
        "geostreams_operator_latency_us", kOperatorLatencyHelp,
        {{"op", OpKindLabel(op->name())}}));
  }
  node->sched_pipeline = scheduler_->AddPipelineGroup(prefix);
  ExecutablePlan* plan = node->plan.get();
  scheduler_->SetPipelineReset(node->sched_pipeline,
                               [plan] { plan->Reset(); });
  for (size_t i = 0; i < spec.inputs.size(); ++i) {
    auto edge = std::make_unique<Edge>();
    const Handle& in = spec.inputs[i];
    edge->from_node = input_nodes[i];
    edge->from = input_nodes[i] ? input_nodes[i]->stream.get() : in.source;
    edge->region = in.region;
    edge->owner = node.get();
    edge->Wire(scheduler_.get(), node->sched_pipeline,
               node->plan->input(input_names[i]), /*align=*/true);
    // Routed by the next RefreshDemandLocked, once the node's demand
    // is known.
    if (edge->from_node) edge->from_node->consumers.push_back(edge.get());
    node->inputs.push_back(std::move(edge));
  }
  SharedNode* raw = node.get();
  shared_by_key_.emplace(raw->key, raw);
  shared_nodes_.emplace(raw->seq, std::move(node));
  GEOSTREAMS_LOG(kInfo) << "shared node " << prefix << ": " << raw->key;
  return raw;
}

Status DsmsServer::RouteEdgeLocked(Edge* edge,
                                   std::optional<BoundingBox> bound) {
  if (edge->attached && SameBox(edge->bound, bound)) return Status::OK();
  RegionPtr routed = edge->region;
  if (bound) routed = Intersect(routed, std::make_shared<BBoxRegion>(*bound));
  SourceState* from = edge->from;
  if (routed && from->shared == nullptr) {
    return Status::Internal("restricted input on a stream without an index");
  }
  if (edge->attached && routed && edge->index_id != 0) {
    GEOSTREAMS_RETURN_IF_ERROR(
        from->shared->UpdateRegion(edge->index_id, routed));
  } else {
    DetachEdgeLocked(edge);
    if (routed) {
      const QueryId index_id = next_edge_id_++;
      GEOSTREAMS_RETURN_IF_ERROR(
          from->shared->RegisterQuery(index_id, routed, edge->entry));
      edge->index_id = index_id;
    } else {
      from->direct_targets.push_back(edge->entry);
    }
    edge->attached = true;
  }
  edge->bound = bound;
  edge->routed = std::move(routed);
  return Status::OK();
}

void DsmsServer::DetachEdgeLocked(Edge* edge) {
  if (!edge->attached) return;
  SourceState* from = edge->from;
  if (edge->index_id != 0) {
    Status ignored = from->shared->UnregisterQuery(edge->index_id);
    (void)ignored;
  } else {
    auto& targets = from->direct_targets;
    targets.erase(std::remove(targets.begin(), targets.end(), edge->entry),
                  targets.end());
  }
  edge->attached = false;
  edge->index_id = 0;
  edge->routed.reset();
}

void DsmsServer::ReleaseEdgeLocked(Edge* edge, Graveyard* graveyard) {
  DetachEdgeLocked(edge);
  SharedNode* node = edge->from_node;
  if (node == nullptr) return;
  edge->from_node = nullptr;
  auto& consumers = node->consumers;
  consumers.erase(std::remove(consumers.begin(), consumers.end(), edge),
                  consumers.end());
  if (consumers.empty()) RetireNodeLocked(node, graveyard);
}

void DsmsServer::RetireNodeLocked(SharedNode* node, Graveyard* graveyard) {
  // Last reference gone: the node retires, releasing what it reads.
  for (auto& input : node->inputs) ReleaseEdgeLocked(input.get(), graveyard);
  shared_by_key_.erase(node->key);
  auto it = shared_nodes_.find(node->seq);
  graveyard->push_back(std::move(it->second));
  shared_nodes_.erase(it);
}

Status DsmsServer::RefreshDemandLocked() {
  // Consumers before producers: every consumer of a node is younger.
  for (auto it = shared_nodes_.rbegin(); it != shared_nodes_.rend(); ++it) {
    SharedNode* node = it->second.get();
    std::optional<BoundingBox> demand = BoundingBox();
    for (const Edge* consumer : node->consumers) {
      if (!consumer->attached) continue;
      if (!consumer->routed) {
        demand.reset();
        break;
      }
      demand->ExpandToInclude(consumer->routed->bounds());
    }
    // Unchanged demand leaves the inputs' routes as they are.
    if (node->routed && SameBox(node->demand, demand)) continue;
    node->demand = demand;
    node->routed = true;
    std::optional<BoundingBox> bound = demand;
    if (demand && !demand->empty()) bound = InputBoxFor(*node->canon, *demand);
    for (auto& input : node->inputs) {
      std::optional<BoundingBox> snapped = bound;
      if (bound) {
        snapped = SnapOutward(*bound,
                              input->from->desc.reference_lattice().Extent());
      }
      GEOSTREAMS_RETURN_IF_ERROR(RouteEdgeLocked(input.get(), snapped));
    }
  }
  return Status::OK();
}

Status DsmsServer::Bury(Graveyard* graveyard) {
  Status status = Status::OK();
  for (auto& node : *graveyard) {
    Status st = scheduler_->RemovePipeline(node->sched_pipeline);
    if (status.ok()) status = st;
  }
  graveyard->clear();
  return status;
}

Result<QueryId> DsmsServer::RegisterQuery(const std::string& query_text,
                                          FrameCallback callback) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  return RegisterInternal(query_text, std::move(callback), "");
}

Result<QueryId> DsmsServer::RegisterQuery(const std::string& query_text,
                                          FrameCallback callback,
                                          const CatchUpOptions& catch_up) {
  if (store_ == nullptr) {
    // No history to replay; degrade to plain stream registration.
    QueryId id = 0;
    GEOSTREAMS_ASSIGN_OR_RETURN(id,
                                RegisterQuery(query_text, std::move(callback)));
    if (catch_up.on_registered) catch_up.on_registered(id);
    return id;
  }

  // Phase 0 — build the plan under the exclusive lock, but leave its
  // inputs detached from every source: no live event can reach the
  // query yet, and `catching_up` blocks a racing UnregisterQuery from
  // destroying the entries the replay below holds raw pointers to.
  QueryId id = 0;
  // The query's (still detached) inputs. Their fields stay put while
  // `catching_up` holds the query in place.
  std::vector<Edge*> wires;
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    GEOSTREAMS_ASSIGN_OR_RETURN(
        id, RegisterInternal(query_text, std::move(callback), "",
                             /*defer_wiring=*/true));
    for (const auto& edge : queries_.at(id)->inputs) {
      wires.push_back(edge.get());
    }
  }
  if (catch_up.on_registered) catch_up.on_registered(id);

  // Phases 1 and 2 run in a closure so an error below can tear the
  // half-registered query back down instead of leaving it stuck
  // behind the catching_up guard forever. `catchup_pending` counts
  // this registration's outstanding contribution to the shared
  // backlog gauge; it lives outside the closure so an error exit
  // can retire it instead of freezing the gauge nonzero.
  uint64_t catchup_pending = 0;
  Status replayed = [&]() -> Status {
  // Phase 1 — bulk history replay with no lock held: ingest keeps
  // flowing (the query is invisible to it) while recorded frames run
  // through the plan on this thread, merged ascending by frame id
  // across inputs so multi-stream plans see their operands in live
  // order. Each frame is drained at once when callers run the work,
  // and the pool is flushed periodically, so a deep history cannot
  // overflow the scheduler queues (shed batches would be gaps).
  struct ReplayItem {
    int64_t frame_id;
    size_t wire;
  };
  auto wire_scan = [](const Edge& wire) {
    StoreScan scan;
    scan.region = Intersect(
        wire.region, wire.hint ? std::make_shared<BBoxRegion>(*wire.hint)
                               : RegionPtr());
    scan.times = wire.times;
    return scan;
  };
  auto wire_source = [](const Edge& wire) -> const std::string& {
    return wire.from->desc.name();
  };
  std::vector<int64_t> replayed_to(wires.size(),
                                   std::numeric_limits<int64_t>::min());
  std::vector<ReplayItem> items;
  for (size_t w = 0; w < wires.size(); ++w) {
    const std::string& source = wire_source(*wires[w]);
    const int64_t hi = store_->Watermark(source);
    // Retention may have pruned history the SINCE bound asks for. The
    // replay below clamps to the oldest retained frame automatically
    // (FrameIds only returns what exists); what must not happen is the
    // truncation passing silently.
    const StoreHorizon horizon = store_->Horizon(source);
    if (horizon.frames_pruned > 0 && catch_up.since <= horizon.pruned_upto) {
      if (m_catchup_truncated_) m_catchup_truncated_->Increment();
      GEOSTREAMS_LOG(kWarning)
          << "catch-up on '" << source << "' truncated: SINCE "
          << catch_up.since << " reaches below retained history (oldest "
          << "retained frame "
          << (horizon.oldest_frame_id == std::numeric_limits<int64_t>::max()
                  ? horizon.pruned_upto + 1
                  : horizon.oldest_frame_id)
          << ", " << horizon.frames_pruned << " frames pruned)";
    }
    for (int64_t fid : store_->FrameIds(source, catch_up.since, hi)) {
      items.push_back({fid, w});
    }
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const ReplayItem& a, const ReplayItem& b) {
                     return a.frame_id < b.frame_id;
                   });
  // Catch-up lag gauge: stored frames still to replay before
  // in-flight SINCE queries go live, one unlabeled series summed over
  // registrations (a per-query-id label would grow the registry
  // without bound, one frozen series per finished query). Scraped
  // mid-replay it shows the backlog draining; back to this
  // registration's starting value at cut-over.
  catchup_pending = items.size();
  catchup_backlog_.fetch_add(catchup_pending, std::memory_order_relaxed);
  if (m_catchup_lag_) {
    m_catchup_lag_->Set(catchup_backlog_.load(std::memory_order_relaxed));
  }
  size_t since_flush = 0;
  for (const ReplayItem& item : items) {
    const Edge& wire = *wires[item.wire];
    Status st = store_->ScanFrame(wire_source(wire), item.frame_id,
                                  wire_scan(wire), wire.entry);
    scheduler_->RunPending();
    if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
    replayed_to[item.wire] = item.frame_id;
    if (m_catchup_frames_) m_catchup_frames_->Increment();
    --catchup_pending;
    catchup_backlog_.fetch_sub(1, std::memory_order_relaxed);
    if (m_catchup_lag_) {
      m_catchup_lag_->Set(catchup_backlog_.load(std::memory_order_relaxed));
    }
    if (++since_flush >= 64) {
      since_flush = 0;
      GEOSTREAMS_RETURN_IF_ERROR(Flush());
    }
  }

  // Phase 2 — go live under the exclusive lock. Ingest is paused, so
  // each source's watermark W0 is frozen: replay the small delta that
  // committed during phase 1, then attach each input behind a
  // CatchUpGate with threshold W0. After the lock drops, the gate
  // discards live frames at or below W0 (they were just replayed) and
  // cuts over on the first frame above it, seam-replaying anything
  // that commits in between — exactly once, no gap, no duplicate.
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::Internal("catch-up query vanished during replay");
  }
  QueryState* query = it->second.get();
  for (size_t w = 0; w < wires.size(); ++w) {
    Edge& wire = *wires[w];
    const std::string source_name = wire_source(wire);
    const int64_t w0 = store_->Watermark(source_name);
    const int64_t lo =
        replayed_to[w] == std::numeric_limits<int64_t>::min()
            ? catch_up.since
            : replayed_to[w] + 1;
    if (lo <= w0) {
      for (int64_t fid : store_->FrameIds(source_name, lo, w0)) {
        // No Flush: the delta is bounded by one phase-1 flush window,
        // and WaitIdle here would deadlock against plans taking the
        // shared lock to feed derived streams. Drained after the lock
        // drops.
        Status st = store_->ScanFrame(source_name, fid, wire_scan(wire),
                                      wire.entry);
        if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
        if (m_catchup_frames_) m_catchup_frames_->Increment();
      }
    }
    TileStore* store = store_.get();
    Counter* seam_counter = m_seam_frames_;
    StoreScan seam_scan = wire_scan(wire);
    auto replay = [store, seam_counter, source_name, seam_scan](
                      int64_t after, int64_t before, EventSink* sink) {
      StoreScan scan = seam_scan;
      scan.min_frame_id = after == std::numeric_limits<int64_t>::min()
                              ? after
                              : after + 1;
      scan.max_frame_id = before == std::numeric_limits<int64_t>::max()
                              ? before
                              : before - 1;
      if (seam_counter) {
        seam_counter->Increment(
            store->FrameIds(source_name, scan.min_frame_id, scan.max_frame_id)
                .size());
      }
      return store->Scan(source_name, scan, sink);
    };
    query->gates.push_back(
        std::make_unique<CatchUpGate>(wire.entry, w0, std::move(replay)));
    wire.entry = query->gates.back().get();
    GEOSTREAMS_RETURN_IF_ERROR(RouteEdgeLocked(&wire, wire.hint));
  }
  query->catching_up = false;
  GEOSTREAMS_LOG(kInfo) << "query " << id << " caught up: " << items.size()
                        << " stored frames replayed, live at the watermark";
  // Cut-over wall anchor: the moment the gates went live. Later live
  // frames' e2e latencies are comparable against external logs from
  // this instant on.
  event_log_->Append(
      EventSeverity::kInfo, "server", "catchup-cutover",
      StringPrintf("query=%lld replayed=%zu wall_us=%llu",
                   static_cast<long long>(id), items.size(),
                   static_cast<unsigned long long>(TraceWallNowUs())));
  return Status::OK();
  }();
  // Callers run the seam delta now that the state lock is released.
  scheduler_->RunPending();
  if (catchup_pending != 0) {
    // Error exit mid-replay: retire this registration's remaining
    // backlog so the gauge drains instead of freezing nonzero.
    catchup_backlog_.fetch_sub(catchup_pending, std::memory_order_relaxed);
    if (m_catchup_lag_) {
      m_catchup_lag_->Set(catchup_backlog_.load(std::memory_order_relaxed));
    }
    catchup_pending = 0;
  }
  if (!replayed.ok()) {
    // Clear the replay guard, then reuse the normal teardown (it
    // skips inputs that never got wired).
    {
      std::unique_lock<std::shared_mutex> lock(state_mu_);
      auto it = queries_.find(id);
      if (it != queries_.end()) it->second->catching_up = false;
    }
    Status ignored = UnregisterQuery(id);
    (void)ignored;
    return replayed;
  }
  return id;
}

Result<QueryId> DsmsServer::RegisterDerivedStream(
    const std::string& name, const std::string& query_text) {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (name.empty()) {
    return Status::InvalidArgument("derived stream needs a name");
  }
  if (sources_.count(name) > 0) {
    return Status::AlreadyExists("stream already registered: " + name);
  }
  return RegisterInternal(query_text, nullptr, name);
}

Result<QueryId> DsmsServer::RegisterInternal(
    const std::string& query_text, FrameCallback callback,
    const std::string& derived_name, bool defer_wiring) {
  GEOSTREAMS_ASSIGN_OR_RETURN(ExprPtr parsed, ParseQuery(query_text));
  GEOSTREAMS_RETURN_IF_ERROR(AnalyzeQuery(catalog_, parsed));
  GEOSTREAMS_ASSIGN_OR_RETURN(
      ExprPtr optimized, OptimizeQuery(catalog_, parsed, options_.optimizer));

  const QueryId id = next_query_id_++;
  auto query = std::make_unique<QueryState>();
  query->id = id;
  query->text = query_text;
  query->optimized = optimized;

  EventSink* plan_sink = nullptr;
  if (derived_name.empty()) {
    DeliveryOptions dopts;
    dopts.encode_png = options_.encode_png;
    query->delivery = std::make_unique<DeliveryOp>(
        StringPrintf("q%lld.delivery", static_cast<long long>(id)),
        std::move(callback), dopts);
    query->delivery->BindOutput(&query->null_sink);
    query->delivery->BindMemoryTracker(&memory_);
    plan_sink = query->delivery->input(0);
  } else {
    // Continuous view: the plan output feeds a brand-new source that
    // later queries subscribe to.
    query->is_derived = true;
    query->derived_name = derived_name;
    const GeoStreamDescriptor view_desc =
        optimized->out_desc.WithName(derived_name);
    GEOSTREAMS_RETURN_IF_ERROR(catalog_.Register(view_desc));
    auto source = std::make_unique<SourceState>();
    source->desc = view_desc;
    source->derived = true;
    if (options_.shared_restriction) {
      source->shared = std::make_unique<SharedRestrictionOp>(MakeIndex(
          options_.index_kind, view_desc.reference_lattice().Extent()));
    }
    source->guard = std::make_unique<GuardedIngestSink>(this, source.get());
    RegisterSourceObservables(source.get());
    if (store_ != nullptr) {
      // Derived streams (continuous views) are history too: late
      // subscribers to e.g. a shared NDVI view catch up the same way.
      source->store_sink =
          std::make_unique<StoreIngestSink>(store_.get(), derived_name);
    }
    source->boundary_dead_letters = std::make_unique<DeadLetterQueue>(
        options_.dead_letter_capacity, options_.dead_letter_max_bytes);
    source->boundary_dead_letters->BindMemoryTracker(&memory_,
                                                     "dlq." + derived_name);
    // The backing plan runs in its own pipeline, outside the state
    // lock, so the view's fan-out takes the lock itself via the guard.
    plan_sink = source->guard.get();
    sources_.emplace(derived_name, std::move(source));
  }

  // Continuous views and catch-up registrations keep a private plan:
  // a view is a named product already, and a catch-up replay drives
  // the plan's inputs directly from the store.
  const Lowering mode = !options_.shared_restriction ? Lowering::kDirect
                        : defer_wiring || !derived_name.empty()
                            ? Lowering::kPeel
                            : Lowering::kShare;
  std::vector<PlanInput> plan_inputs;
  ExprPtr plan_expr =
      LowerPlan(optimized, mode,
                StringPrintf("q%lld", static_cast<long long>(id)),
                &plan_inputs);
  // Temporal IO-pruning hints for the catch-up replay, keyed by the
  // plan's (per-input) leaf names.
  std::map<std::string, std::vector<TimeSet>> time_hints;
  if (defer_wiring) {
    CollectTimeHints(plan_expr, {}, &time_hints);
  }
  GEOSTREAMS_ASSIGN_OR_RETURN(query->plan,
                              BuildPlan(plan_expr, plan_sink, &memory_));

  // Every operator on the chain feeds the kind-labeled latency
  // histogram family whenever a traced event passes through it.
  for (const auto& op : query->plan->operators()) {
    op->BindLatencyHistogram(metrics_registry_.GetHistogram(
        "geostreams_operator_latency_us", kOperatorLatencyHelp,
        {{"op", OpKindLabel(op->name())}}));
  }
  if (query->delivery) {
    query->delivery->BindLatencyHistogram(metrics_registry_.GetHistogram(
        "geostreams_operator_latency_us", kOperatorLatencyHelp,
        {{"op", "delivery"}}));
  }

  // Wire plan inputs to their streams (through the stream's index
  // when restricted, directly otherwise). Every plan input enters the
  // query's single scheduler pipeline: sources enqueue cheaply, and
  // the plan itself runs on whichever thread claims the pipeline.
  query->sched_pipeline = scheduler_->AddPipelineGroup(
      StringPrintf("q%lld", static_cast<long long>(id)));
  {
    // The delivery operator sits downstream of the plan (it is the
    // plan's sink, not one of its ops), so its assembler must be reset
    // explicitly or a restart would resume into a frame left open by
    // the fault (null for derived streams).
    ExecutablePlan* plan = query->plan.get();
    DeliveryOp* delivery = query->delivery.get();
    scheduler_->SetPipelineReset(query->sched_pipeline, [plan, delivery] {
      plan->Reset();
      if (delivery) delivery->Reset();
    });
  }
  Graveyard graveyard;
  Status wired = [&]() -> Status {
    for (const PlanInput& input : plan_inputs) {
      auto edge = std::make_unique<Edge>();
      edge->region = input.handle.region;
      edge->hint = input.handle.hint;
      edge->times = time_hints[input.name];
      if (input.handle.node) {
        GEOSTREAMS_ASSIGN_OR_RETURN(edge->from_node,
                                    InternLocked(*input.handle.node));
        edge->from = edge->from_node->stream.get();
        edge->from_node->consumers.push_back(edge.get());
      } else {
        edge->from = input.handle.source;
      }
      Edge* raw = edge.get();
      query->inputs.push_back(std::move(edge));
      // A catch-up input's gate owns the seam into the live stream.
      raw->Wire(scheduler_.get(), query->sched_pipeline,
                query->plan->input(input.name), /*align=*/!defer_wiring);
      if (!defer_wiring) {
        GEOSTREAMS_RETURN_IF_ERROR(RouteEdgeLocked(raw, raw->hint));
      }
    }
    return RefreshDemandLocked();
  }();
  if (!wired.ok()) {
    // Nothing has flowed yet (the exclusive lock is still held), so
    // the pipelines can go right away.
    for (auto& edge : query->inputs) ReleaseEdgeLocked(edge.get(), &graveyard);
    std::vector<uint64_t> seqs;
    for (const auto& [seq, node] : shared_nodes_) seqs.push_back(seq);
    for (auto seq = seqs.rbegin(); seq != seqs.rend(); ++seq) {
      auto orphan = shared_nodes_.find(*seq);
      if (orphan != shared_nodes_.end() && orphan->second->consumers.empty()) {
        RetireNodeLocked(orphan->second.get(), &graveyard);
      }
    }
    Status ignored = Bury(&graveyard);
    (void)ignored;
    ignored = scheduler_->RemovePipeline(query->sched_pipeline);
    return wired;
  }
  // Subscribers: every node this query reads, once each.
  std::vector<SharedNode*> frontier;
  for (const auto& edge : query->inputs) {
    if (edge->from_node) frontier.push_back(edge->from_node);
  }
  while (!frontier.empty()) {
    SharedNode* node = frontier.back();
    frontier.pop_back();
    if (std::find(query->nodes.begin(), query->nodes.end(), node) !=
        query->nodes.end()) {
      continue;
    }
    query->nodes.push_back(node);
    ++node->subscribers;
    for (const auto& in : node->inputs) {
      if (in->from_node) frontier.push_back(in->from_node);
    }
  }
  query->catching_up = defer_wiring;

  GEOSTREAMS_LOG(kInfo) << "registered "
                        << (query->is_derived ? "derived stream " : "query ")
                        << id << ": " << query_text;
  queries_.emplace(id, std::move(query));
  return id;
}

Status DsmsServer::UnregisterQuery(QueryId id) {
  size_t pipeline = SIZE_MAX;
  Graveyard graveyard;
  Status status = Status::OK();
  {
    std::unique_lock<std::shared_mutex> lock(state_mu_);
    auto it = queries_.find(id);
    if (it == queries_.end()) {
      return Status::NotFound(StringPrintf(
          "query %lld not registered", static_cast<long long>(id)));
    }
    QueryState& query = *it->second;
    if (query.is_derived) {
      return Status::FailedPrecondition(
          "derived stream '" + query.derived_name +
          "' cannot be unregistered (other queries may depend on it)");
    }
    if (query.unregistering) {
      return Status::FailedPrecondition(StringPrintf(
          "query %lld is already being unregistered",
          static_cast<long long>(id)));
    }
    if (query.catching_up) {
      // The catch-up replay holds raw pointers to this query's entry
      // sinks without any lock; tearing them down now would be a
      // use-after-free. Retryable — the replay window is short.
      return Status::FailedPrecondition(StringPrintf(
          "query %lld is still catching up from the store; retry",
          static_cast<long long>(id)));
    }
    query.unregistering = true;
    for (SharedNode* node : query.nodes) --node->subscribers;
    query.nodes.clear();
    // Inputs that never got wired (a catch-up registration that failed
    // before going live) detach as no-ops.
    for (auto& edge : query.inputs) ReleaseEdgeLocked(edge.get(), &graveyard);
    status = RefreshDemandLocked();
    pipeline = query.sched_pipeline;
  }
  // The query is detached from every source; remove its queue and
  // entry sinks before the plan they target is destroyed. Still-queued
  // events are discarded — the client is gone. This waits for any
  // in-flight event, so it must run with the state lock RELEASED: the
  // thread mid-event may be taking the shared lock to feed a derived
  // stream (see state_mu_'s comment). The query is already invisible
  // to new producers (`unregistering` + detached sources), so nothing
  // re-wires it while we wait.
  Status removed = scheduler_->RemovePipeline(pipeline);
  if (!removed.ok()) {
    Status ignored = Bury(&graveyard);
    (void)ignored;
    return removed;
  }
  // Retired shared nodes go the same way, for the same reason.
  Status buried = Bury(&graveyard);
  if (status.ok()) status = buried;
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  queries_.erase(id);
  return status;
}

Status DsmsServer::RestartQuery(QueryId id) {
  std::vector<size_t> pipelines;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    auto it = queries_.find(id);
    if (it == queries_.end()) {
      return Status::NotFound(StringPrintf(
          "query %lld not registered", static_cast<long long>(id)));
    }
    pipelines.push_back(it->second->sched_pipeline);
    for (const SharedNode* node : it->second->nodes) {
      pipelines.push_back(node->sched_pipeline);
    }
  }
  // RestartPipeline waits for the pipeline's in-flight event; run it
  // with the state lock released (same reasoning as UnregisterQuery).
  // Shared nodes restart too (a no-op while they run): a quarantined
  // node starves every subscriber. One retired meanwhile is NotFound.
  for (size_t p = 1; p < pipelines.size(); ++p) {
    Status ignored = scheduler_->RestartPipeline(pipelines[p]);
    (void)ignored;
  }
  return scheduler_->RestartPipeline(pipelines.front());
}

Result<std::vector<DeadLetter>> DsmsServer::DeadLetters(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  return scheduler_->DeadLetters(it->second->sched_pipeline);
}

Result<std::vector<DeadLetter>> DsmsServer::SourceDeadLetters(
    const std::string& stream) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(stream);
  if (it == sources_.end()) {
    return Status::NotFound("stream not registered: " + stream);
  }
  std::lock_guard<std::mutex> boundary(it->second->boundary_mu);
  return it->second->boundary_dead_letters->Snapshot();
}

Status DsmsServer::QuarantineSource(const std::string& stream,
                                    const Status& error) {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(stream);
  if (it == sources_.end()) {
    return Status::NotFound("stream not registered: " + stream);
  }
  SourceState* source = it->second.get();
  if (source->derived) {
    return Status::InvalidArgument(
        "derived stream '" + stream +
        "' is fed by a query pipeline; restart the query instead");
  }
  std::lock_guard<std::mutex> boundary(source->boundary_mu);
  if (source->quarantined) return Status::OK();  // keep the first verdict
  source->quarantined = true;
  source->quarantine_error =
      error.ok() ? Status::Unavailable("source quarantined") : error;
  // Record the verdict where operators already look for boundary
  // trouble: the source's dead-letter queue (there is no poisoned
  // event for silence, so the entry carries a stream-end marker).
  source->boundary_dead_letters->Push(StreamEvent::StreamEnd(),
                                      source->quarantine_error);
  GEOSTREAMS_LOG(kWarning) << "source '" << stream << "' quarantined: "
                           << source->quarantine_error.ToString();
  return Status::OK();
}

Status DsmsServer::RestartSource(const std::string& stream) {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(stream);
  if (it == sources_.end()) {
    return Status::NotFound("stream not registered: " + stream);
  }
  std::lock_guard<std::mutex> boundary(it->second->boundary_mu);
  it->second->quarantined = false;
  it->second->quarantine_error = Status::OK();
  return Status::OK();
}

Status DsmsServer::SourceError(const std::string& stream) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(stream);
  if (it == sources_.end()) {
    return Status::NotFound("stream not registered: " + stream);
  }
  std::lock_guard<std::mutex> boundary(it->second->boundary_mu);
  return it->second->quarantine_error;
}

uint64_t DsmsServer::IngestChecksumFailures() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  uint64_t total = 0;
  for (const auto& [name, source] : sources_) {
    std::lock_guard<std::mutex> boundary(source->boundary_mu);
    total += source->checksum_failures;
  }
  return total;
}

size_t DsmsServer::num_queries() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return queries_.size();
}

std::vector<QueryId> DsmsServer::QueryIds() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  std::vector<QueryId> ids;
  ids.reserve(queries_.size());
  for (const auto& [id, query] : queries_) ids.push_back(id);
  return ids;
}

Result<PipelineHealth> DsmsServer::QueryHealth(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  PipelineHealth worst = scheduler_->Health(it->second->sched_pipeline);
  for (const SharedNode* node : it->second->nodes) {
    worst = std::max(worst, scheduler_->Health(node->sched_pipeline));
  }
  return worst;
}

Status DsmsServer::QueryError(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  Status error = scheduler_->PipelineError(it->second->sched_pipeline);
  for (const SharedNode* node : it->second->nodes) {
    if (!error.ok()) break;
    error = scheduler_->PipelineError(node->sched_pipeline);
  }
  return error;
}

size_t DsmsServer::num_shared_nodes() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return shared_nodes_.size();
}

size_t DsmsServer::num_restriction_entries() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  size_t total = 0;
  for (const auto& [name, source] : sources_) {
    if (source->shared) total += source->shared->num_queries();
  }
  for (const auto& [seq, node] : shared_nodes_) {
    total += node->stream->shared->num_queries();
  }
  return total;
}

Status DsmsServer::Flush() { return scheduler_->WaitIdle(); }

EventSink* DsmsServer::ingest(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = sources_.find(name);
  return it == sources_.end()
             ? nullptr
             : static_cast<EventSink*>(it->second->guard.get());
}

Status DsmsServer::EndAllStreams() {
  // Snapshot the guards first: each Consume takes the state lock in
  // shared mode itself, and a recursive shared acquisition while a
  // writer waits would deadlock. Sources are never removed, so the
  // snapshot cannot dangle.
  std::vector<GuardedIngestSink*> guards;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    for (auto& [name, source] : sources_) {
      // Derived streams receive their StreamEnd through the backing
      // plan when the base streams end.
      if (source->derived) continue;
      guards.push_back(source->guard.get());
    }
  }
  for (GuardedIngestSink* guard : guards) {
    GEOSTREAMS_RETURN_IF_ERROR(guard->Consume(StreamEvent::StreamEnd()));
  }
  return Flush();
}

std::string DsmsServer::ExplainSharedNodes(const QueryState& query,
                                           bool with_metrics) const {
  if (query.nodes.empty()) return "";
  std::vector<const SharedNode*> nodes(query.nodes.begin(), query.nodes.end());
  std::sort(nodes.begin(), nodes.end(),
            [](const SharedNode* a, const SharedNode* b) {
              return a->seq < b->seq;
            });
  std::string out =
      "shared nodes (computed once, split per consumer by the node's "
      "cascade tree):\n";
  for (const SharedNode* node : nodes) {
    out += StringPrintf(
        "n%llu %s subscribers=%zu consumers=%zu demand=%s\n",
        static_cast<unsigned long long>(node->seq), node->key.c_str(),
        node->subscribers, node->consumers.size(),
        DemandText(node->demand).c_str());
    if (with_metrics) out += ExplainPlanMetrics(*node->plan);
  }
  return out;
}

Result<std::string> DsmsServer::Explain(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  return ExplainQuery(it->second->optimized) +
         ExplainSharedNodes(*it->second, /*with_metrics=*/false);
}

Result<std::string> DsmsServer::ExplainAnalyze(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  // Shared nodes' counters are the whole node's work; `subscribers`
  // says how many queries that cost is split between.
  return ExplainPlanMetrics(*it->second->plan) +
         ExplainSharedNodes(*it->second, /*with_metrics=*/true);
}

Result<TraceRing::Snapshot> DsmsServer::QueryTraces(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  // Safe lock order: pipelines never hold the scheduler mutex while
  // taking state_mu_ (they release it around Consume), so querying the
  // scheduler under the shared state lock cannot deadlock.
  return scheduler_->Traces(it->second->sched_pipeline);
}

std::string DsmsServer::SummaryLine() const {
  const ScheduledQueueStats total = scheduler_->AggregateStats();
  size_t n_queries = 0;
  uint64_t worst_freshness_us = 0;  // max frame age across live sources
  uint64_t worst_e2e_p95_us = 0;    // max per-source total-latency p95
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    n_queries = queries_.size();
    const uint64_t now = TraceWallNowUs();
    for (const auto& [name, source] : sources_) {
      const uint64_t stamp =
          source->last_frame_fresh_wall_us.load(std::memory_order_relaxed);
      if (stamp != 0 && now > stamp) {
        worst_freshness_us = std::max(worst_freshness_us, now - stamp);
      }
      if (source->e2e_total != nullptr && source->e2e_total->Count() > 0) {
        worst_e2e_p95_us =
            std::max(worst_e2e_p95_us,
                     static_cast<uint64_t>(source->e2e_total->Percentile(95)));
      }
    }
  }
  std::string line = StringPrintf(
      "queries=%zu enqueued=%llu processed=%llu queued=%llu shed=%llu "
      "restarts=%llu dead_letters=%llu rejected=%llu mem=%lluB "
      "mem_peak=%lluB checksum_fail=%llu traces=%llu",
      n_queries, static_cast<unsigned long long>(total.enqueued),
      static_cast<unsigned long long>(total.processed),
      static_cast<unsigned long long>(total.queued),
      static_cast<unsigned long long>(total.dropped),
      static_cast<unsigned long long>(total.restarts),
      static_cast<unsigned long long>(total.dead_letters),
      static_cast<unsigned long long>(total.rejected),
      static_cast<unsigned long long>(memory_.TotalBytes()),
      static_cast<unsigned long long>(memory_.HighWaterBytes()),
      static_cast<unsigned long long>(IngestChecksumFailures()),
      static_cast<unsigned long long>(total.traces));
  line += StringPrintf(" freshness_us=%llu e2e_p95_us=%llu",
                       static_cast<unsigned long long>(worst_freshness_us),
                       static_cast<unsigned long long>(worst_e2e_p95_us));
  if (governor_ != nullptr) {
    line += StringPrintf(" storage=%s",
                         governor_->degraded() ? "DEGRADED" : "OK");
  }
  return line;
}

Result<uint64_t> DsmsServer::FramesDelivered(QueryId id) const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  auto it = queries_.find(id);
  if (it == queries_.end()) {
    return Status::NotFound(StringPrintf(
        "query %lld not registered", static_cast<long long>(id)));
  }
  if (!it->second->delivery) {
    return Status::FailedPrecondition(
        "derived streams have no delivery operator");
  }
  return it->second->delivery->frames_delivered();
}

}  // namespace geostreams
