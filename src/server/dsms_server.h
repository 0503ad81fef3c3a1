// The DSMS server of Fig. 3: Stream Generator -> Parser ->
// Optimization -> Execution -> Delivery, with multi-user continuous
// queries over the registered GeoStreams.
//
// Clients register textual queries; the server parses, analyzes and
// optimizes them, lowers them to physical plans ending in a PNG-
// capable delivery operator, and routes ingested stream events to
// every interested plan. When shared-restriction mode is on (the
// default), every stream carries a dynamic cascade tree that acts as
// the single spatial restriction operator for all of its consumers
// (Sec. 4), and the live query graph is hash-consed: each compute
// operator (composition, re-projection, magnify/reduce, value
// transform, stretch, aggregate) runs once per distinct input as a
// refcounted shared node, keyed by its canonical text. A node is
// itself a hidden stream with its own cascade tree, so the tree is
// the late splitter for everything query-specific, and each node
// computes only its demand: the bounding box of its consumers' boxes,
// mapped back through the operator by the pushdown box math
// (InputBoxFor). See DESIGN.md, "Shared operator DAG".

#ifndef GEOSTREAMS_SERVER_DSMS_SERVER_H_
#define GEOSTREAMS_SERVER_DSMS_SERVER_H_

#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "mqo/shared_restriction.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "ops/delivery_op.h"
#include "query/analyzer.h"
#include "query/optimizer.h"
#include "query/planner.h"
#include "storage/governor.h"
#include "storage/journal.h"
#include "store/catch_up_gate.h"
#include "store/tile_store.h"
#include "stream/memory_tracker.h"
#include "stream/scheduler.h"

namespace geostreams {

struct DsmsOptions {
  /// Route spatial restrictions through a shared per-stream index, and
  /// share compute subplans between live queries (see the file
  /// comment). Off, every plan reads whole streams privately.
  bool shared_restriction = true;
  /// Index structure for the shared restriction.
  enum class IndexKind { kCascadeTree, kGrid, kFilterBank };
  IndexKind index_kind = IndexKind::kCascadeTree;
  /// Optimizer configuration applied to every registered query.
  OptimizerOptions optimizer;
  /// Deliver PNG bytes with every frame (costs CPU).
  bool encode_png = false;
  /// Query-execution worker pool (the server's `--workers` knob).
  /// 0 = synchronous: plans run inline on the ingest thread, one core
  /// total. N > 0 = a QueryScheduler pool of N threads; every query
  /// becomes one scheduler pipeline, so distinct queries run in
  /// parallel while each query's events stay in order. Frame
  /// callbacks then fire on worker threads — possibly concurrently
  /// across queries — and must be thread-safe.
  size_t workers = 0;
  /// Per-query bounded queue when workers > 0; point batches beyond
  /// it are shed (frame/stream control events are never shed).
  size_t worker_queue_capacity = 1 << 14;
  /// Dispatch policy of the worker pool.
  SchedulingPolicy worker_policy = SchedulingPolicy::kRoundRobin;
  /// Per-query failure handling when workers > 0: restart backoff,
  /// poison dead-lettering, quarantine thresholds. A failing query is
  /// its own failure domain — ingest and the other queries continue.
  SupervisorOptions worker_supervisor;
  /// Verify FNV-1a PointBatch checksums at the ingest boundary:
  /// a batch carrying a non-zero checksum that does not match its
  /// content is dead-lettered into the source's queue (inspectable
  /// via SourceDeadLetters) instead of entering any query chain.
  /// Opt-in — instruments that do not checksum their downlink pay
  /// nothing (checksum 0 is never verified).
  bool verify_ingest_checksums = false;
  /// Dead-letter retention per pipeline / per source: most recent
  /// poisoned events kept for inspection, capped by count and bytes
  /// (bytes reported to the server's MemoryTracker as "dlq.<name>").
  size_t dead_letter_capacity = 16;
  size_t dead_letter_max_bytes = 1 << 20;
  /// Pipeline tracing: every Nth point batch per source gets a
  /// TraceContext and records queue-wait plus per-operator timings
  /// into the metrics registry and the per-query trace ring (`TRACE
  /// <id>`). 0 (default) disables sampling entirely — the hot path
  /// then pays one branch at ingest and one thread-local load per
  /// operator (see bench/bench_tracing.cc).
  size_t trace_sample_every = 0;
  /// Finished traces retained per query pipeline (and in the shared
  /// inline ring when workers == 0).
  size_t trace_ring_capacity = 32;
  /// Durable ingest journal directory. Empty = no durability (the PR 4
  /// behavior: acks mean "delivered while the server lives"). Set, the
  /// server opens an IngestJournal there at construction — recovering
  /// committed records, truncating torn tails, quarantining mid-file
  /// corruption into the persisted per-source dead-letter stores — and
  /// every ingest ack is gated on the journal append (see
  /// IngestSessionOptions::journal).
  std::string journal_dir;
  /// Journal tuning (fsync policy, segment rotation, retention). The
  /// `dir` and `metrics` fields are overwritten from `journal_dir` and
  /// the server's own registry.
  JournalOptions journal;
  /// Tiled historical store directory. Empty = no history: late
  /// subscribers see only frames arriving after they register (the
  /// pure-stream behavior). Set, every assembled source frame is
  /// persisted as a tiled + pyramided mosaic, and RegisterQuery's
  /// catch-up overload (the control plane's `QUERY ... SINCE <t>`)
  /// replays recorded history before cutting over to the live stream
  /// exactly once at a frame-id watermark.
  std::string store_dir;
  /// Store tuning (tile size, overview levels, segment rotation,
  /// retention budgets). The `dir` and `metrics` fields are
  /// overwritten from `store_dir` and the server's own registry.
  TileStoreOptions store;
  /// Disk-pressure governor tuning (free-space floor, probe cadence,
  /// subsystem budgets). The governor itself is constructed whenever
  /// journal_dir or store_dir is set; `probe_dir`, `file_factory`, and
  /// `metrics` are filled from the journal/store configuration and the
  /// server's own registry when left empty.
  StorageGovernorOptions storage_governor;
  /// Byte/age budgets handed to the governor for its "journal" and
  /// "store" subsystems (0 = unlimited). Retention in each subsystem
  /// enforces them; Admit() keeps refusing only on real disk pressure.
  SubsystemBudget journal_budget;
  SubsystemBudget store_budget;
  /// Flight-recorder ring capacity: the most recent structured
  /// operational events (degradations, quarantines, restarts, NACK
  /// bursts, retention prunes, slow-consumer disconnects) kept for
  /// the EVENTS control verb and GET /eventz.
  size_t event_log_capacity = 256;
};

/// Catch-up parameters for RegisterQuery's hybrid stream/stored path.
struct CatchUpOptions {
  /// Replay committed frames with id >= since before going live.
  /// INT64_MIN = the full recorded history.
  int64_t since = std::numeric_limits<int64_t>::min();
  /// Invoked with the query id once the query is registered but
  /// before any history replays — network sessions use this to bind
  /// the id their delivery callback stamps on catch-up frames.
  std::function<void(QueryId)> on_registered;
};

class DsmsServer {
 public:
  explicit DsmsServer(DsmsOptions options = {});
  ~DsmsServer();

  /// Registers an ingestible source stream (one spectral band).
  Status RegisterStream(const GeoStreamDescriptor& desc);

  /// Registers a continuous query. Every completed output frame is
  /// handed to `callback`. Returns the query id.
  Result<QueryId> RegisterQuery(const std::string& query_text,
                                FrameCallback callback);

  /// Registers a continuous query with historical catch-up: replays
  /// every committed store frame with id >= catch_up.since through
  /// the query's plan, then cuts over to the live stream exactly once
  /// at a frame-id watermark — no gap, no duplicate (see
  /// CatchUpGate). Requires DsmsOptions::store_dir; without a store
  /// this degrades to plain registration (there is no history to
  /// replay). The callback starts firing during this call (on the
  /// calling thread for the history replay, then from the normal
  /// delivery path) — it must be ready before registration returns.
  Result<QueryId> RegisterQuery(const std::string& query_text,
                                FrameCallback callback,
                                const CatchUpOptions& catch_up);

  /// Registers a *derived stream* (a continuous view): the query's
  /// output becomes a new catalog stream named `name` that later
  /// queries can reference like any instrument band — the algebra's
  /// closure property lifted to the system level. Common products
  /// (e.g. an NDVI stream) are thus computed once and shared.
  /// Derived streams cannot be unregistered (queries may depend on
  /// them); they live as long as the server.
  Result<QueryId> RegisterDerivedStream(const std::string& name,
                                        const std::string& query_text);

  Status UnregisterQuery(QueryId id);

  /// Entry sink for source stream `name` (the stream generator pushes
  /// events here). Null for unknown streams. The sink is safe to
  /// drive while other threads (e.g. network sessions) register and
  /// unregister queries: every event holds the server's state lock in
  /// shared mode, and opt-in checksum verification rejects corrupt
  /// batches at this boundary (see verify_ingest_checksums).
  EventSink* ingest(const std::string& name);

  /// Broadcasts StreamEnd to every query, then (when a worker pool is
  /// configured) waits until every queue has drained.
  Status EndAllStreams();

  /// Blocks until all queued work has been processed. No-op without a
  /// worker pool. Call before reading delivery counters or
  /// ExplainAnalyze when workers > 0.
  Status Flush();

  /// Diagnostics.
  size_t num_queries() const;
  /// Worker threads executing query plans (0 = synchronous).
  size_t num_workers() const {
    return scheduler_ ? scheduler_->num_workers() : 0;
  }
  /// Per-query scheduler queue statistics (empty when workers = 0).
  std::vector<ScheduledQueueStats> SchedulerStats() const {
    return scheduler_ ? scheduler_->Stats()
                      : std::vector<ScheduledQueueStats>{};
  }
  const StreamCatalog& catalog() const { return catalog_; }
  const MemoryTracker& memory() const { return memory_; }
  /// The server-wide metrics registry. Components sharing the server
  /// (net sessions, benches) register their own series here; valid for
  /// the server's lifetime.
  MetricsRegistry* metrics_registry() { return &metrics_registry_; }
  /// Text exposition of the registry (runs the mirror collectors
  /// first, so scheduler/ingest/memory figures are fresh). Prometheus
  /// 0.0.4 by default; `openmetrics` renders OpenMetrics instead —
  /// bucket exemplars plus the `# EOF` terminator — for scrapers
  /// that negotiated it.
  std::string RenderMetrics(bool openmetrics = false) {
    return openmetrics ? metrics_registry_.RenderOpenMetrics()
                       : metrics_registry_.RenderPrometheus();
  }
  /// One-line operational summary (regional_server --metrics-interval).
  std::string SummaryLine() const;

  /// The server-wide flight recorder. Subsystems (governor, scheduler,
  /// ingest sessions, tile store, net plane) append structured events
  /// here; the EVENTS verb and GET /eventz dump it. Valid for the
  /// server's lifetime.
  EventLog* event_log() { return event_log_.get(); }
  /// Snapshot of the flight-recorder ring (oldest kept first).
  EventLog::Snapshot Events() const { return event_log_->TakeSnapshot(); }

  /// The durable ingest journal; null when DsmsOptions::journal_dir is
  /// empty or the journal failed to open (logged — the server then
  /// runs without durability rather than not at all).
  IngestJournal* journal() const { return journal_.get(); }

  /// The tiled historical store; null when DsmsOptions::store_dir is
  /// empty or the store failed to open (logged — the server then runs
  /// stream-only rather than not at all).
  TileStore* store() const { return store_.get(); }

  /// The disk-pressure governor shared by the journal and the store;
  /// null when neither storage subsystem is configured. HEALTH and
  /// ISTATS surface its degraded flag.
  StorageGovernor* governor() const { return governor_.get(); }

  /// Retained trace records for a query (`TRACE <id>`): with a worker
  /// pool, the query pipeline's own ring; on a synchronous server all
  /// queries share one delivery chain, so every query id answers with
  /// the shared inline ring. NotFound for unknown ids.
  Result<TraceRing::Snapshot> QueryTraces(QueryId id) const;
  /// EXPLAIN text of a registered query's optimized plan, followed by
  /// the shared nodes it reads (subscribers, consumers, demand box).
  Result<std::string> Explain(QueryId id) const;
  /// EXPLAIN ANALYZE: the physical operators' actual runtime counters,
  /// the query's own and those of every shared node it reads.
  Result<std::string> ExplainAnalyze(QueryId id) const;
  /// Points delivered to a query's callback so far.
  Result<uint64_t> FramesDelivered(QueryId id) const;

  /// Supervision health of a query's pipeline, or of the worst shared
  /// node pipeline it reads. Always kRunning when
  /// the server is synchronous (workers = 0): without a pool there is
  /// no supervisor and plan errors surface on the ingest call instead.
  Result<PipelineHealth> QueryHealth(QueryId id) const;
  /// The error that degraded or quarantined the query; OK while the
  /// query is healthy. NotFound for unknown ids.
  Status QueryError(QueryId id) const;
  /// Registered query ids, ascending (derived streams included).
  std::vector<QueryId> QueryIds() const;
  /// Shared operator nodes currently alive (hash-consed compute
  /// subplans; they never appear in the catalog).
  size_t num_shared_nodes() const;
  /// Registrations held by every shared-restriction index — base
  /// streams, derived views and shared nodes together.
  size_t num_restriction_entries() const;

  /// Un-quarantines a query (the control plane's `RESTART <id>`):
  /// clears the recorded error, resets the operator chain, and grants
  /// a fresh poison budget so events flow again without the client
  /// reconnecting or re-registering. No-op for healthy or
  /// unsupervised (workers = 0) queries; NotFound for unknown ids.
  Status RestartQuery(QueryId id);

  /// The query pipeline's retained dead-lettered events, oldest
  /// first (empty when workers = 0 — without a supervisor nothing is
  /// dead-lettered). NotFound for unknown ids.
  Result<std::vector<DeadLetter>> DeadLetters(QueryId id) const;

  /// Dead letters caught at the ingest boundary of a source stream
  /// (checksum verification and quarantine records; see
  /// verify_ingest_checksums). NotFound for unknown streams.
  Result<std::vector<DeadLetter>> SourceDeadLetters(
      const std::string& stream) const;
  /// Corrupt batches rejected at ingest across all sources.
  uint64_t IngestChecksumFailures() const;

  /// Quarantines a source stream: `error` (why — e.g. the ingest
  /// plane's liveness timeout) is recorded in the source's boundary
  /// dead-letter queue and every subsequent ingest event for the
  /// source is refused with FailedPrecondition until RestartSource.
  /// The source's queries stay registered and healthy — a silent
  /// instrument must not take its consumers down with it. NotFound
  /// for unknown streams; InvalidArgument for derived streams (their
  /// producer is a query pipeline, supervised by RestartQuery).
  Status QuarantineSource(const std::string& stream, const Status& error);
  /// Un-quarantines a source (the control plane's `RESTART <name>`):
  /// clears the recorded error so ingest flows again. No-op when the
  /// source is not quarantined; NotFound for unknown streams.
  Status RestartSource(const std::string& stream);
  /// The quarantine error of a source; OK while ingest is admitted.
  /// NotFound for unknown streams.
  Status SourceError(const std::string& stream) const;

 private:
  struct SourceState;
  struct QueryState;
  struct SharedNode;
  struct Edge;
  struct Handle;
  struct NodeSpec;
  struct PlanInput;
  class IsolatedEntrySink;
  class GuardedIngestSink;
  using Graveyard = std::vector<std::unique_ptr<SharedNode>>;

  /// How RegisterInternal lowers a plan onto the streams it reads.
  enum class Lowering {
    kDirect,  // shared restriction off: plans read whole streams
    kPeel,    // leaf spatial restrictions go into the stream's index
    kShare,   // plus: compute subplans become shared nodes
  };

  /// When `defer_wiring` is set (the catch-up path), plan inputs are
  /// built but NOT attached to their sources — the caller attaches
  /// them later, behind CatchUpGates, after replaying history (see
  /// RegisterQuery's catch-up overload).
  Result<QueryId> RegisterInternal(const std::string& query_text,
                                   FrameCallback callback,
                                   const std::string& derived_name,
                                   bool defer_wiring = false);

  /// The stream handle equivalent to `e`, or nullopt when `e` must run
  /// in a private plan. Pure: shared nodes are described, not built.
  std::optional<Handle> LowerHandle(const ExprPtr& e, Lowering mode) const;
  /// Replaces every maximal handle subtree of `e` with a synthetic
  /// leaf named `<prefix>.in<k>`, recording the handle in `inputs`.
  ExprPtr LowerPlan(const ExprPtr& e, Lowering mode,
                    const std::string& prefix,
                    std::vector<PlanInput>* inputs) const;
  /// Finds or builds the shared node described by `spec` (and its
  /// inputs, recursively). New nodes have no consumers yet.
  Result<SharedNode*> InternLocked(const NodeSpec& spec);
  /// (Re)registers `edge` at its upstream stream: its exact region
  /// narrowed by `bound` (nullopt = unbounded) goes into the stream's
  /// cascade tree; with neither, the edge is a direct target.
  Status RouteEdgeLocked(Edge* edge, std::optional<BoundingBox> bound);
  void DetachEdgeLocked(Edge* edge);
  /// Detaches `edge` and drops its reference on a shared upstream
  /// node; nodes left without consumers retire into `graveyard`.
  void ReleaseEdgeLocked(Edge* edge, Graveyard* graveyard);
  void RetireNodeLocked(SharedNode* node, Graveyard* graveyard);
  /// Recomputes every shared node's demand, consumers first, and
  /// re-routes node inputs whose bound changed.
  Status RefreshDemandLocked();
  /// Removes retired nodes' scheduler pipelines (waits for in-flight
  /// events: call with state_mu_ released unless the nodes never
  /// received one) and destroys the nodes.
  Status Bury(Graveyard* graveyard);
  /// The physical section of EXPLAIN: the shared nodes `query` reads.
  std::string ExplainSharedNodes(const QueryState& query,
                                 bool with_metrics) const;

  /// Registers the scrape-time collectors that mirror scheduler,
  /// memory, and ingest-boundary figures into the registry. Called
  /// once from the constructor.
  void RegisterCollectors();

  /// Resolves a source's freshness gauge and total-latency histogram
  /// from the registry. Called at stream registration (both real and
  /// derived streams).
  void RegisterSourceObservables(SourceState* source);

  DsmsOptions options_;
  StreamCatalog catalog_;
  MemoryTracker memory_;
  /// Declared before scheduler_ so the histograms the scheduler holds
  /// pointers into outlive the worker pool.
  MetricsRegistry metrics_registry_;
  /// Flight recorder. Declared right after the registry and before
  /// every subsystem that appends into it (governor, journal, store,
  /// scheduler, sources) so it outlives them all.
  std::unique_ptr<EventLog> event_log_;
  /// Disk-pressure governor for the storage plane. Declared before
  /// journal_ and store_ (both hold raw pointers into it, so it must
  /// outlive them) and after the registry (its gauges point there).
  std::unique_ptr<StorageGovernor> governor_;
  /// Declared after the registry (journal metrics point into it) and
  /// before the scheduler/sources (sessions append through it).
  std::unique_ptr<IngestJournal> journal_;
  /// Tiled historical store (null without store_dir). Declared after
  /// the registry (store metrics point into it) and before sources_/
  /// queries_ (StoreIngestSinks and CatchUpGates point into it, so
  /// they must be destroyed first).
  std::unique_ptr<TileStore> store_;
  /// Catch-up accounting (null without a store).
  Counter* m_catchup_frames_ = nullptr;
  Counter* m_seam_frames_ = nullptr;
  Counter* m_catchup_truncated_ = nullptr;
  /// Catch-up lag: stored frames still to replay, summed over all
  /// in-flight SINCE registrations. One unlabeled series — a
  /// per-query-id label would grow without bound over the server's
  /// lifetime. The atomic is the source of truth (replays run
  /// concurrently); the gauge mirrors it after every change.
  Gauge* m_catchup_lag_ = nullptr;
  std::atomic<uint64_t> catchup_backlog_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  /// Finished traces on a synchronous server (workers == 0), where
  /// there are no per-pipeline rings. Multi-producer safe.
  std::unique_ptr<TraceRing> inline_traces_;
  /// Control plane vs data plane: every ingest event takes this in
  /// shared mode (via the per-source GuardedIngestSink), while
  /// registration, unregistration, and restart take it exclusively —
  /// remote clients can (un)register queries over the network while
  /// the instrument keeps scanning. Blocking scheduler operations
  /// (RemovePipeline's and RestartPipeline's wait for the in-flight
  /// event) run with the lock RELEASED: a worker mid-event may itself
  /// be acquiring the shared lock to feed a derived stream, and
  /// holding the exclusive lock across the wait would deadlock.
  mutable std::shared_mutex state_mu_;
  /// Worker pool (null when options_.workers == 0). Started in the
  /// constructor; pipelines are added as queries register.
  std::unique_ptr<QueryScheduler> scheduler_;
  std::map<std::string, std::unique_ptr<SourceState>> sources_;
  std::map<QueryId, std::unique_ptr<QueryState>> queries_;
  QueryId next_query_id_ = 1;
  /// The shared operator DAG: live nodes by creation order (a node's
  /// inputs are always older than the node) and by canonical key.
  std::map<uint64_t, std::unique_ptr<SharedNode>> shared_nodes_;
  std::map<std::string, SharedNode*> shared_by_key_;
  uint64_t next_node_seq_ = 1;
  /// Registration ids in the shared-restriction indexes.
  QueryId next_edge_id_ = 1;
};

}  // namespace geostreams

#endif  // GEOSTREAMS_SERVER_DSMS_SERVER_H_
